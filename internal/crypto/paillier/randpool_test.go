package paillier

import (
	"math/big"
	"sync"
	"testing"
)

// testKeyBits keeps pool tests fast; correctness does not depend on size.
const testKeyBits = 512

func TestEncryptWithPoolRoundTrips(t *testing.T) {
	sk, err := GenerateKey(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	sk.EnableRandPool(8)
	if err := sk.FillRandPool(); err != nil {
		t.Fatal(err)
	}
	if got := sk.RandPoolLen(); got != 8 {
		t.Fatalf("RandPoolLen = %d, want 8", got)
	}
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		ct, err := sk.EncryptInt64(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.DecryptInt64(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round trip of %d = %d", v, got)
		}
	}
	// Drain past capacity so the inline fallback path runs too.
	for i := 0; i < 20; i++ {
		ct, err := sk.EncryptInt64(7)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sk.DecryptInt64(ct); err != nil || got != 7 {
			t.Fatalf("drained round trip = %d, %v", got, err)
		}
	}
}

func TestEncryptZeroPooledIsIdentity(t *testing.T) {
	sk, err := GenerateKey(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	sk.EnableRandPool(4)
	if err := sk.FillRandPool(); err != nil {
		t.Fatal(err)
	}
	ct, err := sk.EncryptInt64(42)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := sk.EncryptZero()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Add(ct, zero)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sk.DecryptInt64(sum); err != nil || got != 42 {
		t.Fatalf("42 + Enc(0) = %d, %v", got, err)
	}
	// Pooled zeros must still be probabilistic: two draws differ.
	z2, err := sk.EncryptZero()
	if err != nil {
		t.Fatal(err)
	}
	if zero.C.Cmp(z2.C) == 0 {
		t.Fatal("two EncryptZero calls produced identical ciphertexts")
	}
}

// TestEncryptInlineWithoutPool covers the inline mask path: a key with no
// pool (EnableRandPool(0) detaches it) and a key whose pool is dry both
// still encrypt correctly.
func TestEncryptInlineWithoutPool(t *testing.T) {
	sk, err := GenerateKey(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	sk.EnableRandPool(4)
	sk.EnableRandPool(0)
	if got := sk.RandPoolLen(); got != 0 {
		t.Fatalf("RandPoolLen = %d after EnableRandPool(0), want 0", got)
	}
	for _, v := range []int64{-99, 0, 99} {
		ct, err := sk.EncryptInt64(v)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sk.DecryptInt64(ct); err != nil || got != v {
			t.Fatalf("no-pool round trip of %d = %d, %v", v, got, err)
		}
	}

	// A dry pool whose filler is marked as running never refills, so
	// every draw falls through to the inline path.
	dry := &randPool{masks: make(chan *big.Int, 1), pk: &sk.PublicKey}
	dry.filling.Store(true)
	sk.pool = dry
	for _, v := range []int64{-7, 7} {
		ct, err := sk.EncryptInt64(v)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sk.DecryptInt64(ct); err != nil || got != v {
			t.Fatalf("dry-pool round trip of %d = %d, %v", v, got, err)
		}
	}
	if got := sk.RandPoolLen(); got != 0 {
		t.Fatalf("RandPoolLen = %d for a dry pool, want 0", got)
	}
}

// TestRandPoolConcurrent hammers pooled encryption from parallel goroutines
// under -race: draws, refills, and inline fallbacks all interleave.
func TestRandPoolConcurrent(t *testing.T) {
	sk, err := GenerateKey(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	sk.EnableRandPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				v := int64(g*100 + i)
				ct, err := sk.EncryptInt64(v)
				if err != nil {
					t.Errorf("Encrypt(%d): %v", v, err)
					return
				}
				got, err := sk.DecryptInt64(ct)
				if err != nil || got != v {
					t.Errorf("round trip of %d = %d, %v", v, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkPaillierEncrypt measures the offline/online split: "inline"
// pays the full r^n mod n² exponentiation per op; "pooled-online" times
// only the online phase (one mulmod) against precomputed masks, which is
// what a warm randomness pool delivers per Encrypt. Masks are cycled
// rather than refilled so the offline phase stays outside the measurement
// regardless of b.N (reusing a mask is benchmark-only, never done by the
// real pool).
func BenchmarkPaillierEncrypt(b *testing.B) {
	sk, err := GenerateKey(1024)
	if err != nil {
		b.Fatal(err)
	}
	v := big.NewInt(123456)
	b.Run("inline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sk.Encrypt(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled-online", func(b *testing.B) {
		masks := make([]*big.Int, 64)
		for i := range masks {
			m, err := sk.newMask()
			if err != nil {
				b.Fatal(err)
			}
			masks[i] = m
		}
		m, err := sk.PublicKey.encode(v)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sk.encryptWithMask(m, masks[i%len(masks)])
		}
	})
}
