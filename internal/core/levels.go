package core

import (
	"fmt"
	"time"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// LevelAssignment is one flat clustering extracted from the shared
// dendrogram.
type LevelAssignment struct {
	Theta       float64
	Assignments metrics.Clustering
}

// LevelsResult is a multi-threshold hierarchical run: the paper's
// "clustering results at different hierarchical taxonomic levels" from a
// single similarity matrix and dendrogram.
type LevelsResult struct {
	ReadIDs []string
	Levels  []LevelAssignment
	Virtual time.Duration
	Jobs    int
}

// RunLevels executes the hierarchical pipeline once and cuts the
// dendrogram at every threshold (finest first). Its jobs run on the
// engine Run builds, so Cluster, Trace, Faults, Retry and
// ShuffleBufferBytes apply as in Run, and the similarity matrix reads
// the store StoreBits selects. It always clusters exact all-pairs
// hierarchically without a journal, so it ignores opt's Theta, Mode,
// UseLSH, Candidate, LSH, LSHBucketCap, Checkpoint and Resume.
func RunLevels(reads []fasta.Record, opt Options, thetas []float64) (*LevelsResult, error) {
	opt = opt.withDefaults()
	opt.Mode = HierarchicalMode
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(thetas) == 0 {
		return nil, fmt.Errorf("core: RunLevels needs at least one threshold")
	}
	for _, t := range thetas {
		if t < 0 || t > 1 {
			return nil, fmt.Errorf("core: threshold %v out of [0,1]", t)
		}
	}
	engine, err := opt.engine()
	if err != nil {
		return nil, err
	}
	res := &LevelsResult{ReadIDs: make([]string, len(reads))}
	for i := range reads {
		res.ReadIDs[i] = reads[i].ID
	}
	slab, skOut, err := sketchJob(engine, reads, opt)
	if err != nil {
		return nil, err
	}
	res.Virtual += skOut.Virtual
	res.Jobs++
	// Same source as Run: the matrix rows read borrowed store rows.
	store, err := buildStore(slab, opt)
	if err != nil {
		return nil, err
	}
	src := store.View(minhash.SetOverlap)
	m, simOut, err := similarityJob(engine, src, opt)
	if err != nil {
		return nil, err
	}
	res.Virtual += simOut.Virtual
	res.Jobs++
	dend, err := cluster.Hierarchical(m, cluster.HierarchicalOptions{Linkage: opt.Linkage})
	if err != nil {
		return nil, err
	}
	for _, lv := range dend.CutLevels(thetas) {
		res.Levels = append(res.Levels, LevelAssignment{Theta: lv.Theta, Assignments: lv.Labels})
	}
	return res, nil
}

// PickRepresentatives sketches the reads with the run's parameters and
// returns clusterID -> representative read index (the medoid under the
// configured estimator) — the pre-processing reduction the paper's
// introduction motivates (analyze representatives, not every read). The
// sketch job runs on the engine Run builds (Cluster, Trace, Faults,
// Retry, ShuffleBufferBytes); the medoids compare full-width signatures
// without a journal, so it ignores opt's Theta, Mode, Linkage, UseLSH,
// Candidate, LSH, LSHBucketCap, StoreBits, Checkpoint and Resume.
func PickRepresentatives(reads []fasta.Record, labels metrics.Clustering, opt Options) (map[int]int, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(reads) != len(labels) {
		return nil, fmt.Errorf("core: %d reads for %d labels", len(reads), len(labels))
	}
	engine, err := opt.engine()
	if err != nil {
		return nil, err
	}
	slab, _, err := sketchJob(engine, reads, opt)
	if err != nil {
		return nil, err
	}
	return cluster.Representatives(labels, cluster.NewSliceSource(sigRows(slab, opt.NumHashes), minhash.SetOverlap))
}
