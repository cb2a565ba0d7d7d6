package baselines

import (
	"github.com/metagenomics/mrmcminh/internal/align"
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// Esprit reimplements ESPRIT's core (Sun et al. 2009): the k-mer ("word")
// distance screens every sequence pair cheaply; only pairs passing the
// screen get a (banded) global alignment, and complete-linkage
// hierarchical clustering runs on the alignment similarities. Screened-out
// pairs keep similarity 0, which is what makes ESPRIT an order of
// magnitude faster than DOTUR/Mothur while clustering nearly as well.
type Esprit struct{}

// Name implements Method.
func (Esprit) Name() string { return "ESPRIT" }

// espritPruneSlack is the heuristic pruning margin: pairs with word
// distance beyond (1-threshold) + slack are treated as unrelated and never
// considered for merging (their similarity stays 0).
const espritPruneSlack = 0.25

// Cluster implements Method.
func (Esprit) Cluster(reads []fasta.Record, opt Options) (metrics.Clustering, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	w := opt.WordSize
	if w == 0 {
		w = 6 // ESPRIT's default word size
	}
	n := len(reads)
	e := kmer.MustExtractor(w)
	counters := make([]*kmer.Counter, n)
	for i := range reads {
		counters[i] = kmer.NewCounter(w)
		counters[i].Observe(reads[i].Seq, e)
	}
	limit := (1 - opt.Threshold) + espritPruneSlack
	// Screen + align per pair, fanned out over all cores by the tiled
	// parallel matrix builder (counters are read-only here).
	m := cluster.BuildMatrixParallel(n, 0, func(i, j int) float64 {
		d := kmer.WordDistance(counters[i], counters[j], len(reads[i].Seq), len(reads[j].Seq))
		if d > limit {
			return 0 // screened out: unrelated
		}
		res := align.GlobalBanded(reads[i].Seq, reads[j].Seq, align.DefaultScoring, bandFor(opt.Threshold, len(reads[i].Seq)))
		return res.Identity()
	})
	dend, err := cluster.Hierarchical(m, cluster.HierarchicalOptions{Linkage: cluster.Complete})
	if err != nil {
		return nil, err
	}
	return dend.CutAt(opt.Threshold), nil
}
