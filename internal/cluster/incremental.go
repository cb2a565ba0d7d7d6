package cluster

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// Incremental is an online version of Algorithm 1: reads arrive one at a
// time (a sequencer streaming out of a run, or the serving daemon's
// ingest) and are labelled immediately against the representatives seen
// so far. Representatives stay in the source (the store arena): they are
// remembered by index, never copied out. The greedy algorithm is
// order-sensitive, so the online and batch variants agree given the same
// arrival order.
type Incremental struct {
	src   SigSource
	theta float64
	// lsh, when non-nil, indexes representatives for sub-linear lookup.
	// Representatives enter it in label order, so an entry id is its
	// cluster's label.
	lsh     *LSHIndex
	candBuf []int
	reps    []int // cluster label -> source index of its representative
	nReads  int
}

// NewIncremental starts an online clusterer over src. Pass a nil
// lshGeometry for exact representative scans, or a geometry (see
// GeometryFor) for the banded fast path.
func NewIncremental(src SigSource, theta float64, lshGeometry *LSHOptions) (*Incremental, error) {
	if err := checkTheta(theta); err != nil {
		return nil, err
	}
	inc := &Incremental{src: src, theta: theta}
	if lshGeometry != nil {
		idx, err := NewLSHIndex(src, *lshGeometry)
		if err != nil {
			return nil, err
		}
		inc.lsh = idx
	}
	return inc, nil
}

// addAll labels elements 0..n-1 of src in order, the batch form of
// Incremental behind Greedy and GreedyLSH.
func addAll(src SigSource, theta float64, lshGeometry *LSHOptions) (metrics.Clustering, error) {
	inc, err := NewIncremental(src, theta, lshGeometry)
	if err != nil {
		return nil, err
	}
	assign := make(metrics.Clustering, src.Len())
	for i := range assign {
		if assign[i], err = inc.Add(i); err != nil {
			return nil, err
		}
	}
	return assign, nil
}

// Add labels source element i and returns its cluster id. Elements must
// be added at most once; labels are stable for the clusterer's lifetime.
// A read with an empty signature founds its own cluster, and no read
// joins it: at θ = 0 its similarity 0 to everything would pass.
func (inc *Incremental) Add(i int) (int, error) {
	if i < 0 || i >= inc.src.Len() {
		return 0, fmt.Errorf("cluster: source index %d out of range [0,%d)", i, inc.src.Len())
	}
	inc.nReads++
	if !inc.src.Empty(i) {
		if inc.lsh != nil {
			inc.candBuf = inc.lsh.Candidates(i, inc.candBuf[:0])
			for _, label := range inc.candBuf {
				if rep := inc.reps[label]; inc.src.Similarity(i, rep) >= inc.theta && !inc.src.Empty(rep) {
					return label, nil
				}
			}
		} else {
			for label, rep := range inc.reps {
				if inc.src.Similarity(i, rep) >= inc.theta && !inc.src.Empty(rep) {
					return label, nil
				}
			}
		}
	}
	label := len(inc.reps)
	inc.reps = append(inc.reps, i)
	if inc.lsh != nil {
		inc.lsh.Add(i)
	}
	return label, nil
}

// NumClusters returns the number of clusters created so far.
func (inc *Incremental) NumClusters() int { return len(inc.reps) }

// NumReads returns the number of signatures processed.
func (inc *Incremental) NumReads() int { return inc.nReads }
