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
	if theta < 0 || theta > 1 {
		return fmt.Errorf("cluster: threshold must be in [0,1], got %v", theta)
	}
	return nil
}

// Greedy runs Algorithm 1: repeatedly take the first unassigned sequence
// as a new cluster's representative, then sweep all remaining unassigned
// sequences into the cluster when their estimated Jaccard similarity to
// the representative reaches θ. Sequences with empty signatures each form
// their own singleton cluster (they carry no features to compare). A
// different processing order (e.g. CD-HIT's longest-first) is a permuted
// Subset of the source.
func Greedy(src SigSource, theta float64) (metrics.Clustering, error) {
	if err := checkTheta(theta); err != nil {
		return nil, err
	}
	n := src.Len()
	assign := make(metrics.Clustering, n)
	for i := range assign {
		assign[i] = -1
	}
	next := 0
	for first := 0; first < n; first++ {
		if assign[first] >= 0 {
			continue
		}
		label := next
		next++
		assign[first] = label
		if src.Empty(first) {
			continue // nothing can match an empty signature
		}
		for j := first + 1; j < n; j++ {
			if assign[j] >= 0 {
				continue
			}
			if src.Similarity(first, j) >= theta {
				assign[j] = label
			}
		}
	}
	return assign, nil
}
