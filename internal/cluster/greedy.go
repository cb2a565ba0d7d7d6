// Package cluster implements the paper's two clustering algorithms over
// minwise-hash signatures: the greedy incremental procedure (Algorithm 1)
// and agglomerative hierarchical clustering over an all-pairs similarity
// matrix (Algorithm 2) with single, average and complete linkage. Every
// algorithm reads its corpus through a SigSource.
package cluster

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// checkTheta rejects a clustering threshold outside [0,1].
func checkTheta(theta float64) error {
	if !(theta >= 0 && theta <= 1) {
		return fmt.Errorf("cluster: threshold must be in [0,1], got %v", theta)
	}
	return nil
}

// Greedy runs Algorithm 1: take the first unassigned sequence as a new
// cluster's representative, then sweep every remaining unassigned
// sequence whose estimated Jaccard similarity to it reaches θ into the
// cluster. It runs as the batch form of the exact Incremental, adding
// elements 0..n-1 in order: each joins the first representative, in label
// order, it reaches θ with, which is the cluster the sweep puts it in.
// Sequences with empty signatures each form their own singleton cluster
// (they carry no features to compare). A different processing order
// (e.g. CD-HIT's longest-first) is a permuted Subset of the source.
func Greedy(src SigSource, theta float64) (metrics.Clustering, error) {
	return addAll(src, theta, nil)
}
