package minhash

import "slices"

// Estimator selects how Jaccard similarity is estimated from two signatures.
type Estimator int

const (
	// MatchedPositions is the classic minwise estimator: the fraction of
	// signature slots where the two minimum values agree. Each slot is an
	// independent Bernoulli trial with success probability equal to the
	// true Jaccard similarity (Eq. 3).
	MatchedPositions Estimator = iota
	// SetOverlap follows the paper's Algorithm 1 line 9: treat the two
	// signatures as *sets* of minwise values and return
	// |minHash(I_s1) ∩ minHash(I_s2)| / |minHash(I_s1) ∪ minHash(I_s2)|.
	SetOverlap
)

// String names the estimator.
func (e Estimator) String() string {
	switch e {
	case MatchedPositions:
		return "matched-positions"
	case SetOverlap:
		return "set-overlap"
	default:
		return "unknown"
	}
}

// Similarity estimates the Jaccard similarity of the underlying feature
// sets from two signatures using estimator e. Signatures must have equal
// length. Empty signatures have similarity 0 to everything (including each
// other) — an empty read carries no evidence of relatedness.
func (e Estimator) Similarity(a, b Signature) float64 {
	if a.Empty() || b.Empty() {
		return 0
	}
	switch e {
	case SetOverlap:
		return setOverlap(a, b)
	default:
		return matchedPositions(a, b)
	}
}

// matchedPositions counts agreeing slots.
func matchedPositions(a, b Signature) float64 {
	if len(a) != len(b) {
		panic("minhash: signature length mismatch")
	}
	match := 0
	for i := range a {
		if a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(len(a))
}

// setOverlap computes Jaccard over the signatures viewed as value sets.
// It allocates two sorted copies per call; hot paths should Prepare each
// signature once and use SimilarityPrepared instead.
func setOverlap(a, b Signature) float64 {
	return setOverlapSorted(distinctSorted(a), distinctSorted(b))
}

// distinctSorted returns the sorted distinct values of a signature.
func distinctSorted(sig Signature) []uint64 {
	vals := slices.Clone(sig)
	slices.Sort(vals)
	return slices.Compact(vals)
}
