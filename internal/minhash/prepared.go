package minhash

import (
	"math/bits"
	"slices"
)

// Prepared caches the derived views of a signature that the similarity
// kernels need, so comparing a pair allocates nothing. The all-pairs
// matrix build evaluates O(N²) pairs but only N signatures exist; the
// legacy SetOverlap path re-sorted and re-allocated both signatures for
// every pair. Preparing each signature once amortizes that work to O(N)
// and turns every pair comparison into a single allocation-free merge,
// or a popcount when both signatures' values fit a small bitmap.
type Prepared struct {
	// Sig is the original signature, used by the matched-positions
	// estimator (slot-wise comparison).
	Sig Signature
	// Vals holds the sorted distinct slot values, used by the set-overlap
	// estimator (sorted-list intersection).
	Vals []uint64
	// bitmap has bit v set for each value v in Vals. Prepare builds it
	// only when it takes no more words than Vals has entries, that is,
	// when the largest value is below 64·len(Vals); nil otherwise.
	bitmap []uint64
}

// prepareScratch is the longest signature Prepare sorts on its stack; a
// longer one sorts in a heap copy, a second allocation.
const prepareScratch = 256

// Prepare computes the cached views of one signature. Vals and the
// bitmap share one allocation, and Vals is capped so that an append to
// it cannot write into the bitmap.
func Prepare(sig Signature) Prepared {
	var scratch [prepareScratch]uint64
	vals := append(scratch[:0], sig...)
	slices.Sort(vals)
	vals = slices.Compact(vals)
	d, words := len(vals), 0
	if d > 0 && vals[d-1] < 64*uint64(d) {
		words = int(vals[d-1]/64) + 1
	}
	buf := make([]uint64, d+words)
	copy(buf, vals)
	p := Prepared{Sig: sig, Vals: buf[:d:d]}
	if words > 0 {
		p.bitmap = buf[d:]
		for _, v := range vals {
			p.bitmap[v/64] |= 1 << (v % 64)
		}
	}
	return p
}

// PrepareAll prepares every signature of a batch.
func PrepareAll(sigs []Signature) []Prepared {
	out := make([]Prepared, len(sigs))
	for i, s := range sigs {
		out[i] = Prepare(s)
	}
	return out
}

// Empty reports whether the underlying signature came from an empty
// feature set.
func (p Prepared) Empty() bool { return p.Sig.Empty() }

// SimilarityPrepared estimates Jaccard similarity from two prepared
// signatures. It returns exactly the same value as Similarity on the
// underlying signatures (bit-identical floats) but performs zero
// allocations per call, making it the kernel for all-pairs matrix builds
// and greedy representative scans.
func (e Estimator) SimilarityPrepared(a, b Prepared) float64 {
	if a.Empty() || b.Empty() {
		return 0
	}
	switch e {
	case SetOverlap:
		if a.bitmap != nil && b.bitmap != nil {
			return setOverlapBitmap(a, b)
		}
		return setOverlapSorted(a.Vals, b.Vals)
	default:
		return matchedPositions(a.Sig, b.Sig)
	}
}

// setOverlapBitmap computes the same |A∩B| / |A∪B| as setOverlapSorted
// from two bitmaps: |A∩B| is the popcount of their AND over the shorter
// bitmap (the longer one's further words meet only zeros), and
// |A∪B| = |A| + |B| − |A∩B| with |A| and |B| the lengths of Vals. Both
// counts are the merge's integers, so the quotient is bit-identical.
func setOverlapBitmap(a, b Prepared) float64 {
	x, y := a.bitmap, b.bitmap
	if len(x) > len(y) {
		x, y = y, x
	}
	y = y[:len(x)]
	inter := 0
	for i, w := range x {
		inter += bits.OnesCount64(w & y[i])
	}
	return float64(inter) / float64(len(a.Vals)+len(b.Vals)-inter)
}

// setOverlapSorted computes |A∩B| / |A∪B| of two sorted distinct value
// lists with a single linear merge.
func setOverlapSorted(sa, sb []uint64) float64 {
	inter := 0
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] == sb[j]:
			inter++
			i++
			j++
		case sa[i] < sb[j]:
			i++
		default:
			j++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
