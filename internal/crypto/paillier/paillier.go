// Package paillier implements the Paillier public-key cryptosystem
// (Paillier, EUROCRYPT 1999): an additively homomorphic scheme used by the
// DataBlinder Sum and Average aggregate tactics. The original system used
// the Javallier library; this is a from-scratch implementation over
// math/big.
//
// Homomorphic properties (all mod n²):
//
//	Enc(a) * Enc(b)   = Enc(a + b)
//	Enc(a) ^ k        = Enc(a * k)
//
// Signed values are supported by encoding negatives as n - |v| and decoding
// plaintexts above n/2 back to negative numbers.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
)

// Common errors.
var (
	ErrKeySize        = errors.New("paillier: key size must be an even number of bits, at least 256")
	ErrInvalidKey     = errors.New("paillier: p and q are not two distinct primes")
	ErrMessageRange   = errors.New("paillier: message out of range")
	ErrInvalidCipher  = errors.New("paillier: ciphertext is not a unit of Z*_{n²}")
	ErrMismatchedKeys = errors.New("paillier: ciphertexts from different keys")
)

var one = big.NewInt(1)

// PublicKey is a Paillier public key.
type PublicKey struct {
	N  *big.Int // modulus n = p*q
	G  *big.Int // generator, fixed to n+1
	N2 *big.Int // n² cache
}

// PrivateKey is a Paillier private key. Holding the factorization lets it
// split every exponentiation mod n² into two half-width ones mod p² and q²
// and recombine them with Garner's formula (Paillier, EUROCRYPT 1999, §7).
type PrivateKey struct {
	PublicKey
	P, Q   *big.Int
	Lambda *big.Int // lcm(p-1, q-1)
	Mu     *big.Int // (L(g^lambda mod n²))^-1 mod n

	cp, cq crtHalf
	p2InvQ *big.Int // (p²)^-1 mod q², recombines masks mod n²
	pInvQ  *big.Int // p^-1 mod q, recombines plaintexts mod n
}

// crtHalf holds what one prime p contributes to the CRT computations.
type crtHalf struct {
	p, p2, pm1 *big.Int
	maskExp    *big.Int // n mod p(p-1): r^n = r^maskExp (mod p²) for r coprime to p
	h          *big.Int // L_p(g^(p-1) mod p²)^-1 mod p
}

func newCRTHalf(p, n, g *big.Int) (crtHalf, error) {
	h := crtHalf{p: p, p2: new(big.Int).Mul(p, p), pm1: new(big.Int).Sub(p, one)}
	h.maskExp = new(big.Int).Mod(n, new(big.Int).Mul(p, h.pm1))
	l := lFunc(new(big.Int).Exp(g, h.pm1, h.p2), p)
	if h.h = l.ModInverse(l, p); h.h == nil {
		return crtHalf{}, ErrInvalidKey
	}
	return h, nil
}

// mask returns r^n mod p².
func (h *crtHalf) mask(r *big.Int) *big.Int {
	x := new(big.Int).Mod(r, h.p2)
	return x.Exp(x, h.maskExp, h.p2)
}

// decrypt returns m mod p = L_p(c^(p-1) mod p²)·h mod p, or false when p
// divides c, so that c is not a unit.
func (h *crtHalf) decrypt(c *big.Int) (*big.Int, bool) {
	x := new(big.Int).Mod(c, h.p2)
	if new(big.Int).Mod(x, h.p).Sign() == 0 {
		return nil, false
	}
	m := lFunc(x.Exp(x, h.pm1, h.p2), h.p)
	m.Mul(m, h.h)
	return m.Mod(m, h.p), true
}

// garner returns the x in [0, a·b) with x = xa (mod a) and x = xb (mod b),
// given aInvB = a^-1 mod b.
func garner(xa, xb, a, b, aInvB *big.Int) *big.Int {
	t := new(big.Int).Sub(xb, xa)
	t.Mul(t, aInvB)
	t.Mod(t, b)
	t.Mul(t, a)
	return t.Add(t, xa)
}

// GenerateKey creates a Paillier key pair with an n of the given bit size,
// which must be even. Bit sizes of 1024+ are cryptographically meaningful;
// tests may use smaller sizes (>= 256) for speed.
func GenerateKey(bits int) (*PrivateKey, error) {
	if bits < 256 || bits%2 != 0 {
		return nil, ErrKeySize
	}
	for {
		// rand.Prime sets the top two bits, so n has exactly bits bits.
		p, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if sk, err := NewPrivateKey(p, q); err == nil {
			return sk, nil
		}
	}
}

// NewPrivateKey derives the key pair with n = p·q from its two primes,
// including the CRT values. It rejects factors that are not two distinct
// primes with gcd(n, (p-1)(q-1)) = 1, or an n shorter than 256 bits.
func NewPrivateKey(p, q *big.Int) (*PrivateKey, error) {
	if p.Cmp(q) == 0 || !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
		return nil, ErrInvalidKey
	}
	n := new(big.Int).Mul(p, q)
	if n.BitLen() < 256 {
		return nil, ErrKeySize
	}
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, gcd)
	// With g = n+1, L(g^lambda mod n²) = lambda mod n.
	mu := new(big.Int).ModInverse(lambda, n)
	if mu == nil {
		return nil, ErrInvalidKey
	}
	sk := &PrivateKey{
		PublicKey: PublicKey{N: n, G: new(big.Int).Add(n, one), N2: new(big.Int).Mul(n, n)},
		P:         p,
		Q:         q,
		Lambda:    lambda,
		Mu:        mu,
	}
	var err error
	if sk.cp, err = newCRTHalf(p, n, sk.G); err != nil {
		return nil, err
	}
	if sk.cq, err = newCRTHalf(q, n, sk.G); err != nil {
		return nil, err
	}
	sk.p2InvQ = new(big.Int).ModInverse(sk.cp.p2, sk.cq.p2)
	sk.pInvQ = new(big.Int).ModInverse(p, q)
	return sk, nil
}

func lFunc(x, n *big.Int) *big.Int {
	r := new(big.Int).Sub(x, one)
	return r.Div(r, n)
}

// Ciphertext is a Paillier ciphertext bound to its public key.
type Ciphertext struct {
	C  *big.Int
	pk *PublicKey
}

// maxAbs returns the largest magnitude the signed encoding can represent:
// values v with |v| <= (n-1)/2 round-trip safely.
func (pk *PublicKey) maxAbs() *big.Int {
	m := new(big.Int).Sub(pk.N, one)
	return m.Rsh(m, 1)
}

// encode maps a signed big.Int into Z_n.
func (pk *PublicKey) encode(v *big.Int) (*big.Int, error) {
	if new(big.Int).Abs(v).Cmp(pk.maxAbs()) > 0 {
		return nil, ErrMessageRange
	}
	if v.Sign() >= 0 {
		return new(big.Int).Set(v), nil
	}
	return new(big.Int).Add(pk.N, v), nil
}

// decode maps an element of Z_n back to a signed big.Int.
func (pk *PublicKey) decode(m *big.Int) *big.Int {
	if m.Cmp(pk.maxAbs()) > 0 {
		return new(big.Int).Sub(m, pk.N)
	}
	return new(big.Int).Set(m)
}

// Encrypt encrypts the signed value v: c = g^m · r^n mod n² for a fresh
// random r. The mask r^n costs one full-width exponentiation mod n².
func (pk *PublicKey) Encrypt(v *big.Int) (*Ciphertext, error) {
	return pk.encrypt(v, pk.mask)
}

// Encrypt encrypts v like PublicKey.Encrypt, but computes the mask r^n
// mod n² from its residues mod p² and q², which is bit-identical and
// cheaper.
func (sk *PrivateKey) Encrypt(v *big.Int) (*Ciphertext, error) {
	return sk.encrypt(v, sk.mask)
}

func (pk *PublicKey) mask(r *big.Int) *big.Int { return new(big.Int).Exp(r, pk.N, pk.N2) }

func (sk *PrivateKey) mask(r *big.Int) *big.Int {
	return garner(sk.cp.mask(r), sk.cq.mask(r), sk.cp.p2, sk.cq.p2, sk.p2InvQ)
}

func (pk *PublicKey) encrypt(v *big.Int, mask func(r *big.Int) *big.Int) (*Ciphertext, error) {
	m, err := pk.encode(v)
	if err != nil {
		return nil, err
	}
	r, err := pk.randomUnit()
	if err != nil {
		return nil, err
	}
	// With g = n+1: g^m = 1 + m*n (mod n²).
	gm := m.Mul(m, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	c := gm.Mul(gm, mask(r))
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c, pk: pk}, nil
}

// randomUnit samples r uniform in [1, n) with gcd(r, n) = 1.
func (pk *PublicKey) randomUnit() (*big.Int, error) {
	for {
		r, err := rand.Int(rand.Reader, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling r: %w", err)
		}
		if r.Sign() > 0 && pk.isUnit(r) {
			return r, nil
		}
	}
}

// EncryptInt64 encrypts a signed 64-bit value.
func (pk *PublicKey) EncryptInt64(v int64) (*Ciphertext, error) {
	return pk.Encrypt(big.NewInt(v))
}

// EncryptInt64 encrypts a signed 64-bit value with the CRT mask.
func (sk *PrivateKey) EncryptInt64(v int64) (*Ciphertext, error) {
	return sk.Encrypt(big.NewInt(v))
}

// EncryptZero returns a fresh, randomized encryption of zero, the identity
// element for homomorphic addition.
func (pk *PublicKey) EncryptZero() (*Ciphertext, error) {
	return pk.Encrypt(new(big.Int))
}

// Decrypt recovers the signed plaintext from ct by CRT: m mod p and m mod q
// each cost one half-width exponentiation, and Garner's formula recombines
// them. A ciphertext outside [1, n²) or sharing a factor with n is rejected
// with ErrInvalidCipher.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if ct.C.Sign() <= 0 || ct.C.Cmp(sk.N2) >= 0 {
		return nil, ErrInvalidCipher
	}
	mp, ok := sk.cp.decrypt(ct.C)
	if !ok {
		return nil, ErrInvalidCipher
	}
	mq, ok := sk.cq.decrypt(ct.C)
	if !ok {
		return nil, ErrInvalidCipher
	}
	return sk.decode(garner(mp, mq, sk.P, sk.Q, sk.pInvQ)), nil
}

// DecryptInt64 decrypts and converts to int64, erroring on overflow.
func (sk *PrivateKey) DecryptInt64(ct *Ciphertext) (int64, error) {
	m, err := sk.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	if !m.IsInt64() {
		return 0, fmt.Errorf("paillier: plaintext %s exceeds int64", m)
	}
	return m.Int64(), nil
}

// Add homomorphically adds two ciphertexts: Dec(Add(a,b)) = Dec(a)+Dec(b).
func Add(a, b *Ciphertext) (*Ciphertext, error) {
	if a.pk == nil || b.pk == nil || a.pk.N.Cmp(b.pk.N) != 0 {
		return nil, ErrMismatchedKeys
	}
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, a.pk.N2)
	return &Ciphertext{C: c, pk: a.pk}, nil
}

// AddPlain homomorphically adds plaintext v to ciphertext a.
func AddPlain(a *Ciphertext, v *big.Int) (*Ciphertext, error) {
	m, err := a.pk.encode(v)
	if err != nil {
		return nil, err
	}
	gm := new(big.Int).Mul(m, a.pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, a.pk.N2)
	c := gm.Mul(gm, a.C)
	c.Mod(c, a.pk.N2)
	return &Ciphertext{C: c, pk: a.pk}, nil
}

// MulPlain homomorphically multiplies the plaintext inside a by scalar k:
// Dec(MulPlain(a,k)) = Dec(a)*k.
func MulPlain(a *Ciphertext, k *big.Int) (*Ciphertext, error) {
	m, err := a.pk.encode(k)
	if err != nil {
		return nil, err
	}
	c := new(big.Int).Exp(a.C, m, a.pk.N2)
	return &Ciphertext{C: c, pk: a.pk}, nil
}

// Sum homomorphically adds serialized ciphertexts under pk, starting from
// the trivial encryption of zero, c = 1. The result is the product of the
// inputs and is not re-randomized. Each input is range-checked; that it is
// a unit of Z*_{n²} is checked once, on the product, which is a unit
// exactly when every factor is. An empty input yields c = 1, which
// decrypts to 0.
func Sum(pk *PublicKey, cts ...[]byte) (*Ciphertext, error) {
	acc := big.NewInt(1)
	c := new(big.Int)
	for _, b := range cts {
		if c.SetBytes(b); c.Sign() <= 0 || c.Cmp(pk.N2) >= 0 {
			return nil, ErrInvalidCipher
		}
		acc.Mul(acc, c)
		acc.Mod(acc, pk.N2)
	}
	if !pk.isUnit(acc) {
		return nil, ErrInvalidCipher
	}
	return &Ciphertext{C: acc, pk: pk}, nil
}

func (pk *PublicKey) isUnit(c *big.Int) bool {
	return new(big.Int).GCD(nil, nil, c, pk.N).Cmp(one) == 0
}

// Bytes serializes the ciphertext value.
func (ct *Ciphertext) Bytes() []byte { return ct.C.Bytes() }

// CiphertextFromBytes deserializes a ciphertext under pk. It rejects a
// value outside [1, n²) or one that shares a factor with n.
func CiphertextFromBytes(pk *PublicKey, b []byte) (*Ciphertext, error) {
	c := new(big.Int).SetBytes(b)
	if c.Sign() <= 0 || c.Cmp(pk.N2) >= 0 || !pk.isUnit(c) {
		return nil, ErrInvalidCipher
	}
	return &Ciphertext{C: c, pk: pk}, nil
}

// PublicKeyFromN reconstructs a public key from its modulus bytes. It is
// used to ship the key to the cloud side for aggregate protocols.
func PublicKeyFromN(nBytes []byte) (*PublicKey, error) {
	n := new(big.Int).SetBytes(nBytes)
	if n.BitLen() < 256 {
		return nil, ErrKeySize
	}
	return &PublicKey{
		N:  n,
		G:  new(big.Int).Add(n, one),
		N2: new(big.Int).Mul(n, n),
	}, nil
}

// Bytes serializes the public key (its modulus).
func (pk *PublicKey) Bytes() []byte { return pk.N.Bytes() }
