package baselines

import (
	"github.com/metagenomics/mrmcminh/internal/align"
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// Dotur reimplements DOTUR's core (Schloss & Handelsman 2005): an exact
// all-pairs *alignment* distance matrix followed by hierarchical
// clustering — the method's defining cost, and why the paper's Table V
// shows it thousands of times slower than sketch-based approaches. DOTUR's
// default OTU definition is furthest neighbor (complete linkage).
type Dotur struct{}

// Name implements Method.
func (Dotur) Name() string { return "DOTUR" }

// Cluster implements Method.
func (Dotur) Cluster(reads []fasta.Record, opt Options) (metrics.Clustering, error) {
	return alignmentMatrixClustering(reads, opt, cluster.Complete, false)
}

// Mothur reimplements the clustering path of mothur (Schloss et al. 2009),
// DOTUR's successor: the same all-pairs alignment distance matrix and
// hierarchical clustering, with average linkage as the modern default and
// a heavier distance pipeline (mothur computes full rather than banded
// alignments).
type Mothur struct{}

// Name implements Method.
func (Mothur) Name() string { return "Mothur" }

// Cluster implements Method.
func (Mothur) Cluster(reads []fasta.Record, opt Options) (metrics.Clustering, error) {
	return alignmentMatrixClustering(reads, opt, cluster.Average, true)
}

// alignmentMatrixClustering is the shared DOTUR/mothur skeleton. The
// all-pairs alignment matrix — the methods' defining cost — is built
// with the tiled parallel kernel over all cores (alignments of distinct
// pairs are independent).
func alignmentMatrixClustering(reads []fasta.Record, opt Options, link cluster.Linkage, fullAlignment bool) (metrics.Clustering, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	m := cluster.BuildMatrixParallel(len(reads), 0, func(i, j int) float64 {
		var res align.Result
		if fullAlignment {
			res = align.Global(reads[i].Seq, reads[j].Seq, align.DefaultScoring)
		} else {
			res = align.GlobalBanded(reads[i].Seq, reads[j].Seq, align.DefaultScoring, bandFor(opt.Threshold, len(reads[i].Seq)))
		}
		return res.Identity()
	})
	dend, err := cluster.Hierarchical(m, cluster.HierarchicalOptions{Linkage: link})
	if err != nil {
		return nil, err
	}
	return dend.CutAt(opt.Threshold), nil
}
