package cluster

import (
	"fmt"
	"sort"

	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// Multi-level output — the paper (§I) produces "clustering results at
// different hierarchical taxonomic levels ... by setting similarity
// threshold within a cluster". One dendrogram supports any number of
// cuts; this file provides the level sweep and per-cluster representative
// selection used by downstream workflows that analyze representatives
// instead of full clusters.

// Level is one flat clustering extracted from a dendrogram.
type Level struct {
	Theta    float64
	Labels   metrics.Clustering
	Clusters int
}

// CutLevels cuts the dendrogram at each threshold (any order) and returns
// the levels sorted by descending θ (finest first). Duplicate thresholds
// collapse.
func (d *Dendrogram) CutLevels(thetas []float64) []Level {
	uniq := map[float64]struct{}{}
	var ts []float64
	for _, t := range thetas {
		if _, dup := uniq[t]; !dup {
			uniq[t] = struct{}{}
			ts = append(ts, t)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ts)))
	levels := make([]Level, 0, len(ts))
	for _, t := range ts {
		labels := d.CutAt(t)
		levels = append(levels, Level{Theta: t, Labels: labels, Clusters: labels.NumClusters()})
	}
	return levels
}

// LevelsAreNested verifies the defining dendrogram property: every
// cluster at a coarser level is a union of clusters from the finer level.
// Levels must be ordered finest (highest θ) first.
func LevelsAreNested(levels []Level) bool {
	for i := 1; i < len(levels); i++ {
		fine, coarse := levels[i-1].Labels, levels[i].Labels
		if len(fine) != len(coarse) {
			return false
		}
		// Each fine cluster must map to exactly one coarse cluster.
		fineToCoarse := map[int]int{}
		for j := range fine {
			if c, ok := fineToCoarse[fine[j]]; ok {
				if c != coarse[j] {
					return false
				}
			} else {
				fineToCoarse[fine[j]] = coarse[j]
			}
		}
	}
	return true
}

// Representatives picks one medoid-like representative per cluster: the
// member with the highest summed similarity to its cluster mates (ties
// broken by lowest index). For singleton clusters the sole member is
// returned. Similarities come from the source, so the choice uses the
// same estimator as clustering did.
func Representatives(labels metrics.Clustering, src SigSource) (map[int]int, error) {
	if len(labels) != src.Len() {
		return nil, fmt.Errorf("cluster: %d labels for %d signatures", len(labels), src.Len())
	}
	members := labels.Members()
	reps := make(map[int]int, len(members))
	for id, idx := range members {
		if len(idx) == 1 {
			reps[id] = idx[0]
			continue
		}
		best, bestScore := idx[0], -1.0
		for _, i := range idx {
			score := 0.0
			for _, j := range idx {
				if i != j {
					score += src.Similarity(i, j)
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		reps[id] = best
	}
	return reps, nil
}
