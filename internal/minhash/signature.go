package minhash

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

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

	// direct counts the features SketchInto has hashed directly; the
	// call that takes it to Family.M builds table, when tabulable.
	direct atomic.Int64
	// table holds h_i(x) at [x*n+i] for every x < Family.M.
	table atomic.Pointer[[]uint16]
}

// maxTableBytes bounds a Sketcher's hash-value table.
const maxTableBytes = 16 << 20

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
// allocate). It returns exactly the same signature as SketchSlice.
//
// Directly, it makes one pass over the feature slice per hash function,
// keeping the running minimum in a register. A power-of-two range (every
// NewSketcher's 4^k) reduces with a mask; any other range, such as the
// Pig UDF's prime $DIV, divides. Once the sketcher has hashed M features
// this way, and when M ≤ 2^16 with n·M·2 bytes ≤ 16 MiB, it tabulates
// every h_i(x) for x < M, and from then on each slot is the minimum over
// the table rows of the slice's features. A slice holding a feature ≥ M
// still takes the direct loop.
func (s *Sketcher) SketchInto(dst Signature, kms []uint64) Signature {
	f := s.Family
	n := f.N()
	if cap(dst) < n {
		dst = make(Signature, n)
	}
	dst = dst[:n]
	if t := s.table.Load(); t != nil && (len(kms) == 0 || slices.Max(kms) < f.M) {
		minRows(dst, *t, kms)
		return dst
	}
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
	if f.M <= 1<<16 && uint64(n)*f.M*2 <= maxTableBytes {
		m, k := int64(f.M), int64(len(kms))
		if c := s.direct.Add(k); c >= m && c-k < m {
			t := tabulate(f)
			s.table.Store(&t)
		}
	}
	return dst
}

// tabulate returns h_i(x) at [x*n+i] for every x < M. Consecutive
// features differ by one, so (a_i·x + b_i) mod p advances by adding a_i
// and subtracting p at most once; the values are Hash's exactly.
func tabulate(f *HashFamily) []uint16 {
	n, m, p := f.N(), f.M, f.P
	t := make([]uint16, uint64(n)*m)
	v := slices.Clone(f.B) // (a_i·0 + b_i) mod p, as b_i < p
	a := f.A[:len(v)]
	for row := t; len(row) > 0; row = row[n:] {
		row := row[:len(v)]
		for i, h := range v {
			if m&(m-1) == 0 {
				row[i] = uint16(h & (m - 1))
			} else {
				row[i] = uint16(h % m)
			}
			h += a[i]
			v[i] = min(h, h-p) // h-p wraps above h when h < p
		}
	}
	return t
}

// minRows sets each slot of dst to its minimum over the table rows of
// kms, four rows per pass (EmptyMin when kms is empty).
func minRows(dst Signature, t []uint16, kms []uint64) {
	n := uint64(len(dst))
	for i := range dst {
		dst[i] = EmptyMin
	}
	for ; len(kms) >= 4; kms = kms[4:] {
		r0 := t[kms[0]*n:][:len(dst)]
		r1 := t[kms[1]*n:][:len(dst)]
		r2 := t[kms[2]*n:][:len(dst)]
		r3 := t[kms[3]*n:][:len(dst)]
		for i := range dst {
			dst[i] = min(dst[i], uint64(min(r0[i], r1[i], r2[i], r3[i])))
		}
	}
	for _, x := range kms {
		r := t[x*n:][:len(dst)]
		for i := range dst {
			dst[i] = min(dst[i], uint64(r[i]))
		}
	}
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
