package baselines

import (
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// MCLSH reimplements the authors' earlier MC-LSH (Rasheed, Rangwala &
// Barbará 2012): greedy clustering where candidate representatives come
// from a banded locality-sensitive-hash index over minhash signatures —
// only bucket-colliding representatives are checked exactly, trading a
// small recall loss for a large constant-factor speedup over scanning all
// representatives. It is cluster.GreedyLSH with a fixed 10×5 banding and
// the matched-positions estimator.
type MCLSH struct{}

// Name implements Method.
func (MCLSH) Name() string { return "MC-LSH" }

// mclshParams fixes the sketch geometry: 10 bands × 5 rows = 50 hashes,
// giving an S-curve threshold near (1/10)^(1/5) ≈ 0.63, sharpened upward
// by the exact check.
const (
	mclshBands = 10
	mclshRows  = 5
)

// Cluster implements Method.
func (MCLSH) Cluster(reads []fasta.Record, opt Options) (metrics.Clustering, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	w := opt.WordSize
	if w == 0 {
		w = 10
	}
	n := len(reads)
	sk, err := minhash.NewSketcher(mclshBands*mclshRows, w, opt.Seed)
	if err != nil {
		return nil, err
	}
	e := kmer.MustExtractor(w)
	sigs := make([]minhash.Signature, n)
	for i := range reads {
		sigs[i] = sk.Sketch(e.Set(reads[i].Seq))
	}
	src := cluster.NewSliceSource(sigs, minhash.MatchedPositions)
	return cluster.GreedyLSH(src, opt.Threshold, cluster.LSHOptions{Bands: mclshBands, Rows: mclshRows})
}
