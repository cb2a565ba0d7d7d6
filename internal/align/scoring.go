// Package align implements pairwise DNA sequence alignment: global
// (Needleman–Wunsch), a banded global variant, and local
// (Smith–Waterman), which the simulator's tests use to measure read
// error rates.
//
// The paper's W.Sim metric is the average *global alignment similarity*
// of sequence pairs within a cluster (Huang 1994); this package supplies
// that primitive to internal/metrics and to the alignment-based baselines
// (DOTUR, Mothur, CD-HIT identity checks).
package align

// Scoring defines match/mismatch/gap scores for alignment.
type Scoring struct {
	Match    int // score for identical bases (positive)
	Mismatch int // score for differing bases (typically negative)
	Gap      int // score per gap position (typically negative)
}

// DefaultScoring is the conventional +1/-1/-2 DNA scheme.
var DefaultScoring = Scoring{Match: 1, Mismatch: -1, Gap: -2}

// Result reports an alignment outcome.
type Result struct {
	Score int
	// Matches is the number of aligned identical base pairs.
	Matches int
	// AlignedLen is the alignment length including gap columns.
	AlignedLen int
}

// Identity returns the fraction of alignment columns that are exact
// matches — the "global sequence alignment similarity" of the paper.
func (r Result) Identity() float64 {
	if r.AlignedLen == 0 {
		return 0
	}
	return float64(r.Matches) / float64(r.AlignedLen)
}
