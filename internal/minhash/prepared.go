package minhash

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
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
	vals := sortedDistinct(scratch[:0], sig)
	return prepareIn(sig, vals, make([]uint64, len(vals)+bitmapWords(vals)))
}

// prepareSplit is the fewest rows PrepareAll gives one goroutine.
const prepareSplit = 4096

// PrepareAll prepares every signature of a batch: element i equals
// Prepare(sigs[i]). A batch of at least 2·prepareSplit rows is split over
// up to GOMAXPROCS goroutines. Each goroutine cuts its rows' Vals and
// bitmaps from slabs of its own, a few allocations in all instead of one
// per row, and caps every cut as Prepare does.
func PrepareAll(sigs []Signature) []Prepared {
	out := make([]Prepared, len(sigs))
	workers := max(1, min(runtime.GOMAXPROCS(0), len(sigs)/prepareSplit))
	per := (len(sigs) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := per; lo < len(sigs); lo += per {
		hi := min(lo+per, len(sigs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			prepareSlab(out[lo:hi], sigs[lo:hi])
		}()
	}
	prepareSlab(out[:per], sigs[:per])
	wg.Wait()
	return out
}

// prepareSlab sets out[i] to Prepare(sigs[i]), cutting the rows from
// slabs. A new slab is sized for the rows left, at their signatures'
// lengths: the most their Vals can take, so rows without a bitmap fit
// one slab, and each row with a bitmap, which takes at most twice that,
// leaves the next slab fewer rows to hold.
func prepareSlab(out []Prepared, sigs []Signature) {
	left := 0
	for _, sig := range sigs {
		left += len(sig)
	}
	var scratch [prepareScratch]uint64
	var slab []uint64
	for i, sig := range sigs {
		vals := sortedDistinct(scratch[:0], sig)
		n := len(vals) + bitmapWords(vals)
		if len(slab)+n > cap(slab) {
			slab = make([]uint64, 0, max(n, left))
		}
		left -= len(sig)
		at := len(slab)
		slab = slab[:at+n]
		out[i] = prepareIn(sig, vals, slab[at:at+n:at+n])
	}
}

// sortedDistinct appends the values of sig to dst and returns them
// sorted, each once. Up to networkMax values sort by a sorting network,
// branch-free, where slices.Sort's insertion sort mispredicts on nearly
// every comparison of random hash values.
func sortedDistinct(dst []uint64, sig Signature) []uint64 {
	vals := append(dst, sig...)
	if len(vals) <= networkMax {
		for _, c := range network(len(vals)) {
			a, b := vals[c.lo], vals[c.hi]
			vals[c.lo], vals[c.hi] = min(a, b), max(a, b)
		}
	} else {
		slices.Sort(vals)
	}
	return slices.Compact(vals)
}

// networkMax is the longest row sortedDistinct sorts by a network.
const networkMax = 128

// comparator puts the lesser of two values at lo and the greater at hi.
type comparator struct{ lo, hi uint8 }

// networks[n] is the sorting network for n values, built on first use
// and only read afterwards.
var networks [networkMax + 1]struct {
	once sync.Once
	cmp  []comparator
}

// network returns the comparators that sort n ≤ networkMax values.
func network(n int) []comparator {
	nw := &networks[n]
	nw.once.Do(func() { nw.cmp = oddEvenMergeNetwork(n) })
	return nw.cmp
}

// oddEvenMergeNetwork lists, in order, the comparators of Batcher's
// odd–even merge sort on n values: the network for the next power of
// two without the comparators that reach position n or beyond, which
// would only meet padding above every value.
func oddEvenMergeNetwork(n int) []comparator {
	var cmp []comparator
	for p := 1; p < n; p *= 2 {
		for k := p; k >= 1; k /= 2 {
			for j := k % p; j+k < n; j += 2 * k {
				for i := j; i < j+k && i+k < n; i++ {
					if i/(2*p) == (i+k)/(2*p) {
						cmp = append(cmp, comparator{uint8(i), uint8(i + k)})
					}
				}
			}
		}
	}
	return cmp
}

// bitmapWords is the length of the bitmap of the sorted distinct values
// vals: the words up to the largest value's when they are no more than
// len(vals), 0 (no bitmap) otherwise.
func bitmapWords(vals []uint64) int {
	d := len(vals)
	if d > 0 && vals[d-1] < 64*uint64(d) {
		return int(vals[d-1]/64) + 1
	}
	return 0
}

// prepareIn builds the Prepared of sig, whose sorted distinct values are
// vals, in buf: Vals is buf's first len(vals) words, capped, and the
// bitmap the rest of buf, which must be zero and bitmapWords(vals) long.
func prepareIn(sig Signature, vals, buf []uint64) Prepared {
	d := copy(buf, vals)
	p := Prepared{Sig: sig, Vals: buf[:d:d]}
	if len(buf) > d {
		p.bitmap = buf[d:]
		for _, v := range vals {
			p.bitmap[v/64] |= 1 << (v % 64)
		}
	}
	return p
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
