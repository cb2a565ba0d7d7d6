package kmer

import (
	"math"
	"sort"
)

// Counter accumulates k-mer occurrence counts — the feature representation
// used by composition-based binners such as the MetaCluster baseline, which
// compares reads by the Spearman distance between their k-mer frequency
// rankings.
type Counter struct {
	K      int
	counts map[uint64]int
	total  int
}

// NewCounter returns an empty counter for k-mers of length k.
func NewCounter(k int) *Counter {
	return &Counter{K: k, counts: make(map[uint64]int)}
}

// Observe adds every k-mer occurrence of seq to the counter.
func (c *Counter) Observe(seq []byte, e *Extractor) {
	kms := e.Slice(seq)
	for _, km := range kms {
		c.counts[km]++
	}
	c.total += len(kms)
}

// Count returns the number of occurrences of km.
func (c *Counter) Count(km uint64) int { return c.counts[km] }

// Each calls fn for every distinct observed k-mer with its count.
// Iteration order is unspecified.
func (c *Counter) Each(fn func(km uint64, count int)) {
	for km, n := range c.counts {
		fn(km, n)
	}
}

// Distinct returns the number of distinct observed k-mers.
func (c *Counter) Distinct() int { return len(c.counts) }

// FrequencyVector returns the dense 4^k frequency vector for small k
// (k <= 8, i.e. at most 65536 entries). It panics for larger k where a
// dense representation would be wasteful.
func (c *Counter) FrequencyVector() []float64 {
	if c.K > 8 {
		panic("kmer: FrequencyVector requires k <= 8")
	}
	n := int(FeatureSpace(c.K))
	v := make([]float64, n)
	if c.total == 0 {
		return v
	}
	for km, cnt := range c.counts {
		v[km] = float64(cnt) / float64(c.total)
	}
	return v
}

// FrequencyVector computes the dense k-mer frequency vector of seq directly.
func FrequencyVector(seq []byte, k int) []float64 {
	c := NewCounter(k)
	c.Observe(seq, MustExtractor(k))
	return c.FrequencyVector()
}

// Ranks converts a vector into fractional ranks (average rank for ties),
// the preprocessing step for Spearman correlation/distance.
func Ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		// average rank for the tie group [i, j], 1-based ranks
		avg := float64(i+j)/2 + 1
		for t := i; t <= j; t++ {
			ranks[idx[t]] = avg
		}
		i = j + 1
	}
	return ranks
}

// SpearmanDistance returns 1 - Spearman rank correlation between two
// equal-length frequency vectors; 0 means identical rankings, values near 2
// mean perfectly opposed rankings. Constant vectors yield distance 1
// (no information).
func SpearmanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("kmer: SpearmanDistance length mismatch")
	}
	ra, rb := Ranks(a), Ranks(b)
	n := float64(len(a))
	if n == 0 {
		return 1
	}
	meanA, meanB := 0.0, 0.0
	for i := range ra {
		meanA += ra[i]
		meanB += rb[i]
	}
	meanA /= n
	meanB /= n
	var cov, varA, varB float64
	for i := range ra {
		da, db := ra[i]-meanA, rb[i]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 1
	}
	rho := cov / math.Sqrt(varA*varB)
	return 1 - rho
}

// WordDistance is the k-mer (word) distance used by the ESPRIT baseline:
// d = 1 - sum_w min(c1(w), c2(w)) / (min(L1, L2) - k + 1), where c are
// occurrence counts and L sequence lengths. It approximates alignment
// distance without performing an alignment.
func WordDistance(c1, c2 *Counter, len1, len2 int) float64 {
	if c1.K != c2.K {
		panic("kmer: WordDistance k mismatch")
	}
	small, large := c1, c2
	if len(small.counts) > len(large.counts) {
		small, large = large, small
	}
	common := 0
	for km, cnt := range small.counts {
		o := large.counts[km]
		if o < cnt {
			common += o
		} else {
			common += cnt
		}
	}
	denom := len1
	if len2 < denom {
		denom = len2
	}
	denom = denom - c1.K + 1
	if denom <= 0 {
		return 1
	}
	d := 1 - float64(common)/float64(denom)
	if d < 0 {
		return 0
	}
	return d
}
