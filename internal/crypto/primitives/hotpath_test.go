package primitives

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"
)

// stdlibPRF is the reference the pooled PRF must match: a fresh
// HMAC-SHA256 state per call.
func stdlibPRF(key Key, data ...[]byte) []byte {
	mac := hmac.New(sha256.New, key[:])
	for _, d := range data {
		mac.Write(d)
	}
	return mac.Sum(nil)
}

// TestPRFMatchesBaseline pins the pooled PRF to the stdlib HMAC output
// across buffer reuse and recycled pool states.
func TestPRFMatchesBaseline(t *testing.T) {
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{[]byte("namespace"), {0}, []byte("keyword")}
	want := stdlibPRF(key, data...)

	if got := PRF(key, data...); !bytes.Equal(got, want) {
		t.Fatalf("pooled PRF = %x, want %x", got, want)
	}
	// Repeat to exercise the Reset path of a recycled HMAC state.
	if got := PRF(key, data...); !bytes.Equal(got, want) {
		t.Fatalf("recycled PRF = %x, want %x", got, want)
	}
	buf := make([]byte, 0, PRFSize)
	if got := PRFInto(buf, key, data...); !bytes.Equal(got, want) {
		t.Fatalf("PRFInto = %x, want %x", got, want)
	}
	prefix := []byte("prefix")
	out := PRFInto(append([]byte(nil), prefix...), key, data...)
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want) {
		t.Fatalf("PRFInto with prefix = %x", out)
	}
}

// TestKeyedPRFMatchesPRF pins KeyedPRF.Sum to PRF over random keys, with
// several inputs summed in sequence on one instance (each Sum must start
// from a clean keyed state), multi-slice and empty data, and a dst that
// already holds a prefix.
func TestKeyedPRFMatchesPRF(t *testing.T) {
	inputs := [][][]byte{
		{[]byte("t"), Uint64Bytes(0)},
		{[]byte("t"), Uint64Bytes(1)},
		{[]byte("namespace"), {0}, []byte("keyword"), {}},
		{},
		{{}},
		{[]byte("p"), Uint64Bytes(1 << 40)},
		{[]byte("t"), Uint64Bytes(0)}, // repeat of the first input
	}
	for k := 0; k < 8; k++ {
		key, err := NewRandomKey()
		if err != nil {
			t.Fatal(err)
		}
		prf := NewKeyedPRF(key)
		for i, in := range inputs {
			want := stdlibPRF(key, in...)
			if got := PRF(key, in...); !bytes.Equal(got, want) {
				t.Fatalf("key %d input %d: PRF = %x, want %x", k, i, got, want)
			}
			if got := prf.Sum(nil, in...); !bytes.Equal(got, want) {
				t.Fatalf("key %d input %d: KeyedPRF.Sum = %x, want %x", k, i, got, want)
			}
			prefix := []byte("prefix")
			out := prf.Sum(append([]byte(nil), prefix...), in...)
			if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want) {
				t.Fatalf("key %d input %d: KeyedPRF.Sum with prefix = %x", k, i, out)
			}
		}
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHKDFKnownAnswer checks HKDF against RFC 5869 Appendix A.1 (basic
// test case with SHA-256), and DeriveKey against HKDF with no salt.
func TestHKDFKnownAnswer(t *testing.T) {
	ikm := mustHex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt := mustHex(t, "000102030405060708090a0b0c")
	info := mustHex(t, "f0f1f2f3f4f5f6f7f8f9")
	want := mustHex(t, "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")
	got, err := HKDF(ikm, salt, info, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("HKDF OKM = %x, want %x", got, want)
	}

	master, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := HKDF(master[:], nil, []byte("label-a"), KeySize)
	if err != nil {
		t.Fatal(err)
	}
	k, err := DeriveKey(master, "label-a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k[:], raw) {
		t.Fatalf("DeriveKey = %x, want HKDF output %x", k, raw)
	}
}

func TestSealIntoRoundTrip(t *testing.T) {
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	aead, err := NewAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("the quick brown fox")
	ad := []byte("assoc")
	buf := make([]byte, 0, NonceSize+len(pt)+TagSize)
	ct, err := aead.SealInto(buf, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := aead.Open(ct, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip = %q, want %q", got, pt)
	}
	// With a prefix already in dst, the frame must append after it.
	prefix := []byte("hdr")
	out, err := aead.SealInto(append([]byte(nil), prefix...), pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) {
		t.Fatalf("SealInto clobbered prefix: %q", out[:len(prefix)])
	}
	if got, err := aead.Open(out[len(prefix):], nil); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("SealInto-with-prefix round trip = %q, %v", got, err)
	}
}

// TestHotPathAllocs pins the allocation counts of the PRF, KeyedPRF,
// AEAD.Seal and DET.Encrypt hot paths so regressions show up as test failures rather
// than as GC pressure in production. The ceilings account for two costs
// outside this package's control: the variadic data slice (1 alloc) and
// one internal allocation in the stdlib's GCM Seal. Skipped under -race,
// where sync.Pool deliberately drops items.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("allocation-regression-probe")

	// PRFInto with a caller buffer: only the variadic slice remains once
	// the HMAC state pool is warm (7+ allocs without pooling).
	buf := make([]byte, 0, PRFSize)
	PRFInto(buf, key, data) // warm the pool outside the measurement
	if got := testing.AllocsPerRun(200, func() {
		PRFInto(buf, key, data)
	}); got > 1 {
		t.Errorf("PRFInto allocs/op = %.1f, want <= 1", got)
	}
	// KeyedPRF.Sum with a caller buffer: nothing. Sum is small enough to
	// inline, so even the variadic slice stays on the caller's stack.
	keyed := NewKeyedPRF(key)
	if got := testing.AllocsPerRun(200, func() {
		keyed.Sum(buf, data)
	}); got > 0 {
		t.Errorf("KeyedPRF.Sum allocs/op = %.1f, want 0", got)
	}
	// PRF (allocating variant): variadic slice + output slice.
	if got := testing.AllocsPerRun(200, func() {
		PRF(key, data)
	}); got > 2 {
		t.Errorf("PRF allocs/op = %.1f, want <= 2", got)
	}

	aead, err := NewAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	sealBuf := make([]byte, 0, NonceSize+len(data)+TagSize)
	if got := testing.AllocsPerRun(200, func() {
		if _, err := aead.SealInto(sealBuf, data, nil); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("SealInto allocs/op = %.1f, want <= 1", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := aead.Seal(data, nil); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("Seal allocs/op = %.1f, want <= 2", got)
	}

	encKey, _ := NewRandomKey()
	macKey, _ := NewRandomKey()
	det, err := NewDET(encKey, macKey)
	if err != nil {
		t.Fatal(err)
	}
	det.Encrypt(data) // warm the MAC pool for macKey
	if got := testing.AllocsPerRun(200, func() {
		det.Encrypt(data)
	}); got > 3 {
		t.Errorf("DET.Encrypt allocs/op = %.1f, want <= 3", got)
	}
}

// TestMACPoolConcurrent hammers the pooled PRF from parallel goroutines
// under -race. All keys share one pool shard and outnumber its capacity,
// so both the pooled path and the shard-full fallback to a fresh HMAC run.
func TestMACPoolConcurrent(t *testing.T) {
	const keys = 2 * macPoolPerShard
	ks := make([]Key, keys)
	want := make([][]byte, keys)
	for i := range ks {
		k, err := NewRandomKey()
		if err != nil {
			t.Fatal(err)
		}
		k[0] = 0xa5 // same shard for every key
		ks[i] = k
		want[i] = stdlibPRF(k, []byte{byte(i)})
	}
	// The pool is process-wide: drop this test's keys afterwards so the
	// full shard cannot push another test's key onto the fallback path.
	t.Cleanup(func() {
		sh := &macShards[ks[0][0]%macPoolShards]
		sh.mu.Lock()
		for _, k := range ks {
			delete(sh.m, k)
		}
		sh.mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := iter % keys
				if got := PRF(ks[i], []byte{byte(i)}); !bytes.Equal(got, want[i]) {
					t.Errorf("concurrent PRF mismatch for key %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	fallback := 0
	for _, k := range ks {
		if macPoolFor(k) == nil {
			fallback++
		}
	}
	if fallback == 0 {
		t.Fatal("no key took the shard-full fallback path")
	}
}

func BenchmarkPRFInto(b *testing.B) {
	key, _ := NewRandomKey()
	data := []byte("benchmark-keyword")
	buf := make([]byte, 0, PRFSize)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			PRFInto(buf, key, data)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mac := hmac.New(sha256.New, key[:])
			mac.Write(data)
			mac.Sum(buf)
		}
	})
}

func BenchmarkSealInto(b *testing.B) {
	key, _ := NewRandomKey()
	aead, _ := NewAEAD(key)
	pt := make([]byte, 256)
	buf := make([]byte, 0, NonceSize+len(pt)+TagSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aead.SealInto(buf, pt, nil); err != nil {
			b.Fatal(err)
		}
	}
}
