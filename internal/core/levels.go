package core

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/cluster"
)

// Representatives returns clusterID -> representative read index: the
// medoid of each cluster, scored over the signatures the run clustered
// with the estimator it clustered by (packed signatures under
// StoreBits). It is the pre-processing reduction the paper's
// introduction motivates: analyze representatives, not every read. It
// launches no job.
func (r *Result) Representatives() (map[int]int, error) {
	if r.src == nil {
		return nil, fmt.Errorf("core: Representatives needs a Result that Run returned")
	}
	return cluster.Representatives(r.Assignments, r.src)
}

// Levels cuts the run's dendrogram at every threshold and returns the
// flat clusterings finest (highest θ) first: the paper's "clustering
// results at different hierarchical taxonomic levels" from the one
// similarity matrix the run built. It launches no job. Only an exact
// hierarchical run whose cluster stage ran holds a dendrogram.
func (r *Result) Levels(thetas []float64) ([]cluster.Level, error) {
	if len(thetas) == 0 {
		return nil, fmt.Errorf("core: Levels needs at least one threshold")
	}
	for _, t := range thetas {
		if !(t >= 0 && t <= 1) {
			return nil, fmt.Errorf("core: threshold %v out of [0,1]", t)
		}
	}
	if r.dend == nil {
		return nil, fmt.Errorf("core: no dendrogram to cut: greedy and LSH runs build none, "+
			"and a resumed run that restored its %q stage holds only its labels (use --resume=force to rebuild it)", StageCluster)
	}
	return r.dend.CutLevels(thetas), nil
}
