package minhash

import (
	"fmt"
	"math"

	"github.com/metagenomics/mrmcminh/internal/kmer"
)

// EmptyMin is the signature slot value for a feature set with no elements
// (e.g. a read shorter than k): no hash value was observed.
const EmptyMin = math.MaxUint64

// Signature is the fixed-size sketch of one sequence: the minimum hash
// value under each function of a HashFamily (Eq. 4).
type Signature []uint64

// Sketcher computes signatures from k-mer feature sets.
type Sketcher struct {
	Family *HashFamily
}

// MaxK is the largest k-mer length a Sketcher hashes: its feature space
// 4^k must stay below the prime modulus, and 4^31 = 2^62 does not.
const MaxK = 30

// NewSketcher returns a Sketcher drawing n hash functions for k-mers of
// size k with the given seed.
func NewSketcher(n, k int, seed int64) (*Sketcher, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("minhash: k=%d out of range [1,%d]: 4^k must stay below the prime modulus 2^61-1", k, MaxK)
	}
	f, err := NewHashFamily(n, kmer.FeatureSpace(k), seed)
	if err != nil {
		return nil, err
	}
	return &Sketcher{Family: f}, nil
}

// MustSketcher is NewSketcher panicking on error.
func MustSketcher(n, k int, seed int64) *Sketcher {
	s, err := NewSketcher(n, k, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the signature length.
func (s *Sketcher) N() int { return s.Family.N() }

// Sketch computes the minwise signature of a feature set. An empty set
// yields a signature of EmptyMin slots.
func (s *Sketcher) Sketch(set kmer.Set) Signature {
	sig := make(Signature, s.Family.N())
	for i := range sig {
		sig[i] = EmptyMin
	}
	for x := range set {
		s.observe(sig, x)
	}
	return sig
}

// SketchSlice computes the signature of a k-mer occurrence slice (duplicate
// occurrences do not change the minimum, so Sketch(Set) and
// SketchSlice(Slice) of the same sequence agree).
func (s *Sketcher) SketchSlice(kms []uint64) Signature {
	return s.SketchInto(nil, kms)
}

// SketchInto computes the signature of a k-mer occurrence slice into dst,
// reusing dst's backing array when it has capacity (pass nil to
// allocate). It returns exactly the same signature as SketchSlice: one
// pass over the feature slice per hash function, keeping the running
// minimum in a register instead of re-loading the signature slot on every
// feature — the batched kernel behind the pipeline's sketch map tasks and
// the daemon's submit path. A power-of-two range (every NewSketcher's
// 4^k) reduces with a mask; any other range, such as the Pig UDF's prime
// $DIV, divides.
func (s *Sketcher) SketchInto(dst Signature, kms []uint64) Signature {
	f := s.Family
	n := f.N()
	if cap(dst) < n {
		dst = make(Signature, n)
	}
	dst = dst[:n]
	mask := f.M - 1
	for i := range dst {
		a, b := f.A[i], f.B[i]
		m := uint64(EmptyMin)
		if f.M&mask == 0 {
			for _, x := range kms {
				m = min(m, mulAddMod61(a, x, b)&mask)
			}
		} else {
			for _, x := range kms {
				m = min(m, mulAddMod61(a, x, b)%f.M)
			}
		}
		dst[i] = m
	}
	return dst
}

// observe folds one feature into a partial signature.
func (s *Sketcher) observe(sig Signature, x uint64) {
	f := s.Family
	for i := range sig {
		if h := mulAddMod61(f.A[i], x, f.B[i]) % f.M; h < sig[i] {
			sig[i] = h
		}
	}
}

// Empty reports whether the signature was computed from an empty feature set.
func (sig Signature) Empty() bool {
	return len(sig) == 0 || sig[0] == EmptyMin
}

// Equal reports exact slot-wise equality of two signatures.
func (sig Signature) Equal(other Signature) bool {
	if len(sig) != len(other) {
		return false
	}
	for i := range sig {
		if sig[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the signature.
func (sig Signature) Clone() Signature {
	out := make(Signature, len(sig))
	copy(out, sig)
	return out
}
