// Package minhash implements minwise hashing over k-mer feature sets.
//
// Following the paper (and Broder et al.), random permutations are
// approximated by a family of universal hash functions
//
//	h_i(x) = ((a_i*x + b_i) mod p) mod m,   i = 1..n     (Eq. 5)
//
// where p is a prime larger than the feature-space size m and a_i, b_i are
// drawn uniformly from {0,..,p-1} (a_i nonzero). A sequence's signature is
// the vector of minimum hash values under each h_i (Eq. 4/6); the
// probability that two sets share a minimum equals their Jaccard similarity
// (Eq. 3).
package minhash

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// MersennePrime61 is 2^61 - 1, the modulus used for universal hashing.
// It exceeds every 2-bit-packed k-mer space (4^k for k <= 30) and permits
// overflow-free modular arithmetic on 64-bit words via 128-bit products.
const MersennePrime61 = (1 << 61) - 1

// HashFamily is a family of n universal hash functions sharing a modulus p
// and range m.
type HashFamily struct {
	A []uint64 // multipliers, 1..p-1
	B []uint64 // offsets, 0..p-1
	P uint64   // prime modulus
	M uint64   // output range (size of feature space)
}

// NewHashFamily draws n universal hash functions for a feature space of
// size m using the given seed. Determinism: the same (n, m, seed) always
// yields the same family.
func NewHashFamily(n int, m uint64, seed int64) (*HashFamily, error) {
	if n < 1 {
		return nil, fmt.Errorf("minhash: need at least one hash function, got %d", n)
	}
	if m == 0 {
		return nil, fmt.Errorf("minhash: feature space size must be positive")
	}
	if m >= MersennePrime61 {
		return nil, fmt.Errorf("minhash: feature space %d exceeds prime modulus", m)
	}
	rng := rand.New(rand.NewSource(seed))
	f := &HashFamily{
		A: make([]uint64, n),
		B: make([]uint64, n),
		P: MersennePrime61,
		M: m,
	}
	for i := 0; i < n; i++ {
		// a uniform in [1, p-1], b uniform in [0, p-1]
		f.A[i] = 1 + uint64(rng.Int63n(MersennePrime61-1))
		f.B[i] = uint64(rng.Int63n(MersennePrime61))
	}
	return f, nil
}

// MustHashFamily is NewHashFamily panicking on error.
func MustHashFamily(n int, m uint64, seed int64) *HashFamily {
	f, err := NewHashFamily(n, m, seed)
	if err != nil {
		panic(err)
	}
	return f
}

// N returns the number of hash functions in the family.
func (f *HashFamily) N() int { return len(f.A) }

// Hash evaluates the i-th hash function on x.
func (f *HashFamily) Hash(i int, x uint64) uint64 {
	return mulAddMod61(f.A[i], x, f.B[i]) % f.M
}

// mulAddMod61 computes (a*x + b) mod (2^61-1) with shifts, masks and one
// conditional subtraction instead of a division. It requires a, b < p, as
// NewHashFamily draws them; x may be any uint64.
//
// a*x = hi*2^64 + lo, and 2^61 ≡ 1 (mod p), so a*x ≡ upper + (lo & p) with
// upper = hi<<3 | lo>>61 (a < 2^61 keeps hi < 2^61, so the shift loses no
// bit), and upper ≡ (upper & p) + upper>>61 likewise. That sum plus b is
// at most 3p+6 < 2^63; folding it once more leaves at most p+3, and one
// subtraction lands in [0, p).
func mulAddMod61(a, x, b uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	upper := hi<<3 | lo>>61
	s := (lo & MersennePrime61) + (upper & MersennePrime61) + upper>>61 + b
	s = (s & MersennePrime61) + s>>61
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}
