package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync/atomic"
)

// The expensive part of a Paillier encryption is the random mask
// r^n mod n² — one full-width modular exponentiation per ciphertext. The
// mask is independent of the message, so it can be precomputed off the hot
// path: with a warm pool, Encrypt is a single modular multiplication. This
// is the classic offline/online split for Paillier (see the homomorphic
// encryption survey in PAPERS.md).

// randPool buffers precomputed masks for one public key. The filler
// goroutine is self-terminating: it runs only while the pool has room and
// exits once full, so keys need no Close/teardown lifecycle. Each draw
// re-kicks the filler if it has stopped.
type randPool struct {
	masks   chan *big.Int
	filling atomic.Bool
	pk      *PublicKey
}

// EnableRandPool attaches a mask pool of the given capacity to pk and
// starts filling it in the background. capacity <= 0 detaches any pool.
// Calling it again replaces the existing pool.
func (pk *PublicKey) EnableRandPool(capacity int) {
	if capacity <= 0 {
		pk.pool = nil
		return
	}
	p := &randPool{masks: make(chan *big.Int, capacity), pk: pk}
	pk.pool = p
	p.kick()
}

// RandPoolLen reports how many precomputed masks are ready to draw.
func (pk *PublicKey) RandPoolLen() int {
	if pk.pool == nil {
		return 0
	}
	return len(pk.pool.masks)
}

// FillRandPool synchronously tops the pool up to capacity. Benchmarks call
// it to measure warm (pure online-phase) throughput.
func (pk *PublicKey) FillRandPool() error {
	p := pk.pool
	if p == nil {
		return nil
	}
	for {
		m, err := pk.newMask()
		if err != nil {
			return err
		}
		select {
		case p.masks <- m:
		default:
			return nil
		}
	}
}

func (p *randPool) kick() {
	if p.filling.CompareAndSwap(false, true) {
		go p.fill()
	}
}

func (p *randPool) fill() {
	defer p.filling.Store(false)
	for {
		m, err := p.pk.newMask()
		if err != nil {
			return // rand.Reader failure; surface on the inline path
		}
		select {
		case p.masks <- m:
		default:
			return // full: exit until the next draw kicks a new filler
		}
	}
}

// mask returns a fresh r^n mod n² value, preferring the precomputed pool
// and falling back to inline computation when it is dry or absent.
func (pk *PublicKey) mask() (*big.Int, error) {
	if p := pk.pool; p != nil {
		select {
		case m := <-p.masks:
			p.kick()
			return m, nil
		default:
			p.kick()
		}
	}
	return pk.newMask()
}

// newMask samples r uniform in [1, n) with gcd(r, n) = 1 and returns
// r^n mod n².
func (pk *PublicKey) newMask() (*big.Int, error) {
	for {
		r, err := rand.Int(rand.Reader, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling r: %w", err)
		}
		if r.Sign() > 0 && new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return new(big.Int).Exp(r, pk.N, pk.N2), nil
		}
	}
}
