// Package baselines reimplements the algorithmic cores of the clustering
// tools the paper compares against: CD-HIT, UCLUST, ESPRIT, DOTUR, Mothur,
// the authors' earlier MC-LSH, and MetaCluster. The paper runs the
// original binaries; these are from-scratch Go implementations of each
// tool's published algorithm, sufficient to reproduce the *comparative
// shape* of Tables III–V (cluster counts, quality and runtime ordering).
package baselines

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// Options bundles the knobs shared by every baseline.
type Options struct {
	// Threshold is the similarity threshold in [0,1] (identity for
	// alignment-based tools, Jaccard-like for sketch-based ones).
	Threshold float64
	// WordSize is the seed/word length used by filter heuristics.
	WordSize int
	// Seed drives any randomized component.
	Seed int64
}

// Validate rejects unusable options.
func (o Options) Validate() error {
	if !(o.Threshold >= 0 && o.Threshold <= 1) {
		return fmt.Errorf("baselines: threshold %v out of [0,1]", o.Threshold)
	}
	if o.WordSize < 0 || o.WordSize > kmer.MaxK {
		return fmt.Errorf("baselines: word size %d out of [0,%d]", o.WordSize, kmer.MaxK)
	}
	return nil
}

// Method is a uniform baseline interface: reads in, clustering out.
type Method interface {
	Name() string
	Cluster(reads []fasta.Record, opt Options) (metrics.Clustering, error)
}

// All returns every implemented baseline.
func All() []Method {
	return []Method{
		CDHit{}, UClust{}, Esprit{}, Dotur{}, Mothur{}, MCLSH{}, MetaCluster{},
	}
}

// kmerSets extracts per-read k-mer sets once for reuse.
func kmerSets(reads []fasta.Record, k int) []kmer.Set {
	e := kmer.MustExtractor(k)
	sets := make([]kmer.Set, len(reads))
	for i := range reads {
		sets[i] = e.Set(reads[i].Seq)
	}
	return sets
}

// freshClustering allocates an all-unassigned clustering.
func freshClustering(n int) metrics.Clustering {
	c := make(metrics.Clustering, n)
	for i := range c {
		c[i] = -1
	}
	return c
}
