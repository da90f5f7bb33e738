package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// testKey caches one key pair across tests; keygen dominates test time.
var (
	testKeyOnce sync.Once
	testKey     *PrivateKey
)

func key(t testing.TB) *PrivateKey {
	t.Helper()
	testKeyOnce.Do(func() {
		k, err := GenerateKey(512)
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		testKey = k
	})
	return testKey
}

// key1024 caches a key at the size the aggregate tactic uses
// (tactics/paillier.KeyBits).
var (
	key1024Once sync.Once
	key1024     *PrivateKey
)

func bigKey(t testing.TB) *PrivateKey {
	t.Helper()
	key1024Once.Do(func() {
		k, err := GenerateKey(1024)
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		key1024 = k
	})
	return key1024
}

// fixedKey is a 512-bit key from hard-coded primes, so fuzz inputs replay
// against the same key.
func fixedKey(t testing.TB) *PrivateKey {
	t.Helper()
	p, _ := new(big.Int).SetString("d8fba4f2c8c0a9e5a19d58b4f518236f66246da0c5b633b3736e38ac9f44baa5", 16)
	q, _ := new(big.Int).SetString("cc1b2002fff4a4bb5030076cbe9741bf441f09a1f082fc1b4e12c9d03c8a55d9", 16)
	sk, err := NewPrivateKey(p, q)
	if err != nil {
		t.Fatalf("NewPrivateKey: %v", err)
	}
	return sk
}

// directDecrypt is the textbook decryption L(c^lambda mod n²)·mu mod n,
// with the same validity checks, as the reference for the CRT path.
func directDecrypt(sk *PrivateKey, c *big.Int) (*big.Int, error) {
	if c.Sign() <= 0 || c.Cmp(sk.N2) >= 0 || new(big.Int).GCD(nil, nil, c, sk.N).Cmp(one) != 0 {
		return nil, ErrInvalidCipher
	}
	m := lFunc(new(big.Int).Exp(c, sk.Lambda, sk.N2), sk.N)
	m.Mul(m, sk.Mu)
	return sk.decode(m.Mod(m, sk.N)), nil
}

func TestGenerateKeyRejectsSmall(t *testing.T) {
	if _, err := GenerateKey(128); err != ErrKeySize {
		t.Fatalf("GenerateKey(128) = %v, want ErrKeySize", err)
	}
}

// TestGenerateKeyRejectsOddSize: two bits/2-bit primes never multiply to
// an odd-length n, so an odd size must fail instead of retrying forever.
func TestGenerateKeyRejectsOddSize(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := GenerateKey(257)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrKeySize) {
			t.Fatalf("GenerateKey(257) = %v, want ErrKeySize", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GenerateKey(257) did not return within 10s")
	}
}

func TestNewPrivateKeyRejectsBadFactors(t *testing.T) {
	sk := fixedKey(t)
	composite := new(big.Int).Mul(sk.P, big.NewInt(3))
	for _, tc := range []struct {
		name string
		p, q *big.Int
	}{
		{"equal", sk.P, sk.P},
		{"composite", composite, sk.Q},
		{"tiny", big.NewInt(11), big.NewInt(13)},
	} {
		if _, err := NewPrivateKey(tc.p, tc.q); err == nil {
			t.Errorf("%s factors accepted", tc.name)
		}
	}
	// The same primes derive the same key, in either order.
	again, err := NewPrivateKey(sk.Q, sk.P)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := sk.EncryptInt64(-77)
	if got, err := again.DecryptInt64(ct); err != nil || got != -77 {
		t.Fatalf("decrypt under re-derived key = %d, %v", got, err)
	}
}

// TestCRTMaskMatchesDirect: at the tactic's key size, the gateway's CRT
// mask is bit-identical to r^n mod n² for the same r.
func TestCRTMaskMatchesDirect(t *testing.T) {
	sk := bigKey(t)
	for i := 0; i < 16; i++ {
		r, err := sk.randomUnit()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sk.mask(r), sk.PublicKey.mask(r); got.Cmp(want) != 0 {
			t.Fatalf("CRT mask differs from r^n mod n² for r = %x", r)
		}
	}
}

// TestCRTDecryptMatchesDirect compares CRT decryption with the textbook
// formula over fresh, negative, random and homomorphically derived
// ciphertexts.
func TestCRTDecryptMatchesDirect(t *testing.T) {
	sk := bigKey(t)
	enc := func(v int64) *Ciphertext {
		ct, err := sk.EncryptInt64(v)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	cts := []*Ciphertext{enc(0), enc(1), enc(-1), enc(1 << 62), enc(-(1 << 62))}
	pub, err := sk.PublicKey.EncryptInt64(-12345)
	if err != nil {
		t.Fatal(err)
	}
	cts = append(cts, pub)
	for i := 0; i < 8; i++ {
		r, err := sk.randomUnit()
		if err != nil {
			t.Fatal(err)
		}
		c := new(big.Int).Mul(r, r) // an arbitrary unit of Z*_{n²}
		cts = append(cts, &Ciphertext{C: c.Mod(c, sk.N2), pk: &sk.PublicKey})
	}
	sum, _ := Add(enc(40), enc(-2))
	plus, _ := AddPlain(enc(5), big.NewInt(-9))
	prod, _ := MulPlain(enc(-6), big.NewInt(7))
	cts = append(cts, sum, plus, prod)
	for i, ct := range cts {
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatalf("ciphertext %d: CRT decrypt: %v", i, err)
		}
		want, err := directDecrypt(sk, ct.C)
		if err != nil {
			t.Fatalf("ciphertext %d: direct decrypt: %v", i, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("ciphertext %d: CRT %s, direct %s", i, got, want)
		}
	}
}

// FuzzPaillierDecrypt: arbitrary ciphertext bytes under a fixed key either
// fail on both the CRT and the direct path, or decrypt to the same value.
// CiphertextFromBytes accepts exactly what decrypts.
func FuzzPaillierDecrypt(f *testing.F) {
	sk := fixedKey(f)
	ct, _ := sk.EncryptInt64(-5)
	f.Add(ct.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(sk.N.Bytes())
	f.Add(sk.P.Bytes())
	f.Add(new(big.Int).Mul(sk.Q, big.NewInt(12345)).Bytes())
	f.Add(new(big.Int).Sub(sk.N2, one).Bytes())
	f.Add(sk.N2.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		c := new(big.Int).SetBytes(b)
		got, crtErr := sk.Decrypt(&Ciphertext{C: c, pk: &sk.PublicKey})
		want, directErr := directDecrypt(sk, c)
		_, parseErr := CiphertextFromBytes(&sk.PublicKey, b)
		if (crtErr == nil) != (directErr == nil) || (crtErr == nil) != (parseErr == nil) {
			t.Fatalf("c = %x: CRT err %v, direct err %v, parse err %v", c, crtErr, directErr, parseErr)
		}
		if crtErr == nil && got.Cmp(want) != 0 {
			t.Fatalf("c = %x: CRT %s, direct %s", c, got, want)
		}
	})
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := key(t)
	values := []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40), 9223372036854775807, -9223372036854775808}
	for _, v := range values {
		ct, err := sk.EncryptInt64(v)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", v, err)
		}
		got, err := sk.DecryptInt64(ct)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	sk := key(t)
	c1, _ := sk.EncryptInt64(7)
	c2, _ := sk.EncryptInt64(7)
	if c1.C.Cmp(c2.C) == 0 {
		t.Fatal("two encryptions of 7 are identical")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	sk := key(t)
	tests := []struct{ a, b int64 }{
		{1, 2}, {0, 0}, {-5, 3}, {100, -200}, {1 << 30, 1 << 30},
	}
	for _, tt := range tests {
		ca, _ := sk.EncryptInt64(tt.a)
		cb, _ := sk.EncryptInt64(tt.b)
		sum, err := Add(ca, cb)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		got, err := sk.DecryptInt64(sum)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if got != tt.a+tt.b {
			t.Fatalf("Dec(Enc(%d)*Enc(%d)) = %d, want %d", tt.a, tt.b, got, tt.a+tt.b)
		}
	}
}

func TestHomomorphicAddQuick(t *testing.T) {
	sk := key(t)
	f := func(a, b int32) bool {
		ca, err := sk.EncryptInt64(int64(a))
		if err != nil {
			return false
		}
		cb, err := sk.EncryptInt64(int64(b))
		if err != nil {
			return false
		}
		sum, err := Add(ca, cb)
		if err != nil {
			return false
		}
		got, err := sk.DecryptInt64(sum)
		return err == nil && got == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAddPlain(t *testing.T) {
	sk := key(t)
	ct, _ := sk.EncryptInt64(10)
	ct2, err := AddPlain(ct, big.NewInt(-3))
	if err != nil {
		t.Fatalf("AddPlain: %v", err)
	}
	got, _ := sk.DecryptInt64(ct2)
	if got != 7 {
		t.Fatalf("AddPlain = %d, want 7", got)
	}
}

func TestMulPlain(t *testing.T) {
	sk := key(t)
	tests := []struct{ v, k, want int64 }{
		{6, 7, 42}, {5, 0, 0}, {-4, 3, -12}, {4, -3, -12}, {-4, -3, 12},
	}
	for _, tt := range tests {
		ct, _ := sk.EncryptInt64(tt.v)
		prod, err := MulPlain(ct, big.NewInt(tt.k))
		if err != nil {
			t.Fatalf("MulPlain: %v", err)
		}
		got, _ := sk.DecryptInt64(prod)
		if got != tt.want {
			t.Fatalf("Dec(Enc(%d)^%d) = %d, want %d", tt.v, tt.k, got, tt.want)
		}
	}
}

func TestSum(t *testing.T) {
	sk := key(t)
	var cts [][]byte
	want := int64(0)
	for _, v := range []int64{5, -2, 10, 0, 7} {
		ct, _ := sk.EncryptInt64(v)
		cts = append(cts, ct.Bytes())
		want += v
	}
	sum, err := Sum(&sk.PublicKey, cts...)
	if err != nil {
		t.Fatalf("Sum: %v", err)
	}
	got, _ := sk.DecryptInt64(sum)
	if got != want {
		t.Fatalf("Sum = %d, want %d", got, want)
	}
	// Empty sum is the trivial ciphertext 1 and decrypts to zero.
	empty, err := Sum(&sk.PublicKey)
	if err != nil {
		t.Fatalf("empty Sum: %v", err)
	}
	if got, _ := sk.DecryptInt64(empty); got != 0 || empty.C.Cmp(one) != 0 {
		t.Fatalf("empty Sum = %d (c = %s), want 0 (c = 1)", got, empty.C)
	}
	// An out-of-range element or a non-unit product is rejected.
	if _, err := Sum(&sk.PublicKey, cts[0], sk.N2.Bytes()); !errors.Is(err, ErrInvalidCipher) {
		t.Fatalf("Sum with c = n² = %v, want ErrInvalidCipher", err)
	}
	if _, err := Sum(&sk.PublicKey, cts[0], sk.P.Bytes()); !errors.Is(err, ErrInvalidCipher) {
		t.Fatalf("Sum with c = p = %v, want ErrInvalidCipher", err)
	}
}

func TestMessageRange(t *testing.T) {
	sk := key(t)
	tooBig := new(big.Int).Rsh(sk.N, 1) // (n-1)/2 + 1 > maxAbs
	tooBig.Add(tooBig, big.NewInt(1))
	if _, err := sk.Encrypt(tooBig); err != ErrMessageRange {
		t.Fatalf("Encrypt(overflow) = %v, want ErrMessageRange", err)
	}
	neg := new(big.Int).Neg(tooBig)
	if _, err := sk.Encrypt(neg); err != ErrMessageRange {
		t.Fatalf("Encrypt(-overflow) = %v, want ErrMessageRange", err)
	}
	// The boundary value itself must round-trip.
	max := sk.maxAbs()
	ct, err := sk.Encrypt(max)
	if err != nil {
		t.Fatalf("Encrypt(maxAbs): %v", err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil || got.Cmp(max) != 0 {
		t.Fatalf("maxAbs round trip = %s, %v", got, err)
	}
}

func TestMismatchedKeys(t *testing.T) {
	sk1 := key(t)
	sk2, err := GenerateKey(512)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	a, _ := sk1.EncryptInt64(1)
	b, _ := sk2.EncryptInt64(2)
	if _, err := Add(a, b); err != ErrMismatchedKeys {
		t.Fatalf("Add across keys = %v, want ErrMismatchedKeys", err)
	}
}

func TestCiphertextSerialization(t *testing.T) {
	sk := key(t)
	ct, _ := sk.EncryptInt64(123)
	b := ct.Bytes()
	ct2, err := CiphertextFromBytes(&sk.PublicKey, b)
	if err != nil {
		t.Fatalf("CiphertextFromBytes: %v", err)
	}
	got, _ := sk.DecryptInt64(ct2)
	if got != 123 {
		t.Fatalf("serialized round trip = %d", got)
	}
	if _, err := CiphertextFromBytes(&sk.PublicKey, nil); err == nil {
		t.Fatal("empty ciphertext accepted")
	}
	huge := new(big.Int).Set(sk.N2).Bytes()
	if _, err := CiphertextFromBytes(&sk.PublicKey, huge); err == nil {
		t.Fatal("out-of-range ciphertext accepted")
	}
}

func TestPublicKeySerialization(t *testing.T) {
	sk := key(t)
	pk2, err := PublicKeyFromN(sk.PublicKey.Bytes())
	if err != nil {
		t.Fatalf("PublicKeyFromN: %v", err)
	}
	// Cloud-side key must produce ciphertexts the gateway can decrypt and
	// combine with gateway-side ciphertexts.
	ct, err := pk2.EncryptInt64(55)
	if err != nil {
		t.Fatalf("Encrypt under reconstructed key: %v", err)
	}
	got, err := sk.DecryptInt64(&Ciphertext{C: ct.C, pk: &sk.PublicKey})
	if err != nil || got != 55 {
		t.Fatalf("cross-serialization round trip = %d, %v", got, err)
	}
	if _, err := PublicKeyFromN([]byte{1}); err == nil {
		t.Fatal("tiny modulus accepted")
	}
}

func TestDecryptRejectsGarbage(t *testing.T) {
	sk := key(t)
	if _, err := sk.Decrypt(&Ciphertext{C: big.NewInt(0), pk: &sk.PublicKey}); err == nil {
		t.Fatal("zero ciphertext accepted")
	}
	if _, err := sk.Decrypt(&Ciphertext{C: sk.N2, pk: &sk.PublicKey}); err == nil {
		t.Fatal("ciphertext = n² accepted")
	}
	// In range but not units of Z*_{n²}: multiples of p, of q, of n.
	k, err := rand.Int(rand.Reader, sk.N)
	if err != nil {
		t.Fatal(err)
	}
	k.Add(k, one)
	for _, c := range []*big.Int{
		new(big.Int).Mul(sk.P, k),
		new(big.Int).Mul(sk.Q, k),
		new(big.Int).Set(sk.N),
		new(big.Int).Mul(sk.N, big.NewInt(7)),
	} {
		if _, err := sk.Decrypt(&Ciphertext{C: c, pk: &sk.PublicKey}); !errors.Is(err, ErrInvalidCipher) {
			t.Fatalf("Decrypt of a non-unit = %v, want ErrInvalidCipher", err)
		}
		if _, err := CiphertextFromBytes(&sk.PublicKey, c.Bytes()); !errors.Is(err, ErrInvalidCipher) {
			t.Fatalf("CiphertextFromBytes of a non-unit = %v, want ErrInvalidCipher", err)
		}
	}
}

// TestEncryptZeroIsProbabilistic: Enc(0) is a fresh randomized identity
// element, never a fixed value.
func TestEncryptZeroIsProbabilistic(t *testing.T) {
	sk := key(t)
	z1, err := sk.EncryptZero()
	if err != nil {
		t.Fatal(err)
	}
	z2, err := sk.EncryptZero()
	if err != nil {
		t.Fatal(err)
	}
	if z1.C.Cmp(z2.C) == 0 || z1.C.Cmp(one) == 0 {
		t.Fatal("EncryptZero is not randomized")
	}
	ct, _ := sk.EncryptInt64(42)
	sum, err := Add(ct, z1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sk.DecryptInt64(sum); err != nil || got != 42 {
		t.Fatalf("42 + Enc(0) = %d, %v", got, err)
	}
}

// TestEncryptConcurrent runs CRT and public-key encryption and CRT
// decryption on one key from parallel goroutines (run under -race).
func TestEncryptConcurrent(t *testing.T) {
	sk := key(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				v := int64(g*100 + i)
				enc := sk.EncryptInt64
				if i%2 == 1 {
					enc = sk.PublicKey.EncryptInt64
				}
				ct, err := enc(v)
				if err != nil {
					t.Errorf("Encrypt(%d): %v", v, err)
					return
				}
				if got, err := sk.DecryptInt64(ct); err != nil || got != v {
					t.Errorf("round trip of %d = %d, %v", v, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAverageProtocol mirrors the middleware's Average aggregate: the cloud
// homomorphically sums and counts; the gateway decrypts and divides.
func TestAverageProtocol(t *testing.T) {
	sk := key(t)
	values := []int64{60, 72, 66, 80} // heart rates
	var cts [][]byte
	for _, v := range values {
		ct, _ := sk.EncryptInt64(v)
		cts = append(cts, ct.Bytes())
	}
	sum, err := Sum(&sk.PublicKey, cts...)
	if err != nil {
		t.Fatalf("Sum: %v", err)
	}
	total, _ := sk.DecryptInt64(sum)
	avg := float64(total) / float64(len(values))
	if avg != 69.5 {
		t.Fatalf("average = %g, want 69.5", avg)
	}
}

// BenchmarkEncrypt times encryption at the tactic's key size: "public"
// computes the mask r^n mod n² directly, as a holder of the public key
// only must; "private-crt" computes it mod p² and q², as the gateway does.
func BenchmarkEncrypt(b *testing.B) {
	sk := bigKey(b)
	v := big.NewInt(123456)
	for _, bc := range []struct {
		name string
		enc  func(*big.Int) (*Ciphertext, error)
	}{{"public", sk.PublicKey.Encrypt}, {"private-crt", sk.Encrypt}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.enc(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecrypt times CRT decryption at the tactic's key size, beside
// the textbook c^lambda mod n² formula as the reference.
func BenchmarkDecrypt(b *testing.B) {
	sk := bigKey(b)
	ct, _ := sk.EncryptInt64(12345)
	b.Run("crt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sk.DecryptInt64(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := directDecrypt(sk, ct.C); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHomomorphicAdd(b *testing.B) {
	sk := key(b)
	x, _ := sk.EncryptInt64(1)
	y, _ := sk.EncryptInt64(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Add(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
