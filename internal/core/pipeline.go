package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/sigstore"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// Mode selects the clustering algorithm.
type Mode int

const (
	// GreedyMode is Algorithm 1 (MrMC-MinH^g).
	GreedyMode Mode = iota
	// HierarchicalMode is Algorithm 2 (MrMC-MinH^h).
	HierarchicalMode
)

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case GreedyMode:
		return "MrMC-MinH^g"
	case HierarchicalMode:
		return "MrMC-MinH^h"
	default:
		return "unknown"
	}
}

// CandidateGen selects how the pipeline discovers candidate read pairs.
type CandidateGen int

const (
	// CandidateExact is the paper's all-pairs path: every pair is compared
	// (O(N²)), either inside the single greedy reducer or in the
	// row-partitioned similarity matrix.
	CandidateExact CandidateGen = iota
	// CandidateLSH replaces the all-pairs barrier with a banded MinHash
	// candidate-generation MapReduce stage followed by logarithmic-round
	// connected components: only bucket-colliding pairs are verified with
	// SimilarityPrepared, surviving edges feed Large-Star/Small-Star
	// component finding, and the exact clustering algorithm runs per
	// component. Sub-quadratic in the number of reads; equivalent to the
	// exact path whenever every ≥θ pair collides in some band.
	CandidateLSH
)

// String names the candidate generator as the CLIs spell it.
func (c CandidateGen) String() string {
	switch c {
	case CandidateExact:
		return "exact"
	case CandidateLSH:
		return "lsh"
	default:
		return "unknown"
	}
}

// ParseCandidateGen maps the -candidate flag values.
func ParseCandidateGen(s string) (CandidateGen, error) {
	switch s {
	case "", "exact":
		return CandidateExact, nil
	case "lsh":
		return CandidateLSH, nil
	default:
		return 0, fmt.Errorf("core: unknown candidate generator %q (want exact or lsh)", s)
	}
}

// DefaultLSHBucketCap bounds how many reads a single LSH bucket may expand
// into pairs: a degenerate bucket of size B would otherwise emit B(B-1)/2
// candidates and re-quadratize the run.
const DefaultLSHBucketCap = 256

// Options parameterizes an MrMC-MinH run. Zero values select the paper's
// whole-metagenome defaults (k=5, n=100, θ=0.9, average linkage). It is
// also the run environment of Pig scripts (RunScript, NewPigContext),
// which read only part of it.
type Options struct {
	// K is the k-mer size (paper: 5 for whole metagenome, 15 for 16S).
	K int
	// NumHashes is the signature length n (paper: 100 / 50).
	NumHashes int
	// Theta is the similarity threshold θ.
	Theta float64
	// Mode selects greedy or hierarchical clustering.
	Mode Mode
	// Linkage applies in HierarchicalMode.
	Linkage cluster.Linkage
	// Canonical folds reverse complements into one k-mer (recommended for
	// shotgun reads, off for 16S amplicons).
	Canonical bool
	// UseLSH accelerates GreedyMode with a banded LSH index over cluster
	// representatives (the MC-LSH fast path): new reads check only
	// bucket-colliding representatives instead of all of them. Slight
	// recall loss is possible for borderline pairs. Ignored in
	// HierarchicalMode.
	UseLSH bool
	// Candidate selects candidate-pair discovery: CandidateExact (default,
	// the paper's all-pairs path and the equivalence oracle) or
	// CandidateLSH (banded candidate generation + connected components;
	// see ClusterLSHCC). Applies to both modes.
	Candidate CandidateGen
	// LSH sizes the banding geometry of the CandidateLSH stage. The zero
	// value derives it with cluster.GeometryFor(NumHashes, Theta) so the
	// collision S-curve knee sits at the clustering threshold.
	LSH cluster.LSHOptions
	// LSHBucketCap caps how many reads of one LSH bucket expand into
	// candidate pairs (0 = DefaultLSHBucketCap). Overflowing reads are
	// dropped from that bucket (counted in lsh.bucket_overflow) — they
	// stay reachable through their other bands.
	LSHBucketCap int
	// StoreBits selects how the signature store (internal/sigstore) that
	// every stage after the sketch borrows from holds signatures.
	// 0 (the default): full 64-bit signatures.
	// 1..16: the store packs signatures to b bits per slot (b-bit
	// minwise hashing, Li & König) for an 8–64× smaller resident
	// footprint; clustering then runs the collision-corrected estimator
	// directly over the packed words — a deliberately lossy
	// configuration, not a bit-identical one. Counters
	// sigstore.resident_bytes / sigstore.reads report the footprint.
	StoreBits int
	// Seed drives hash-function draws.
	Seed int64
	// Cluster is the simulated deployment; zero uses the paper's 8 nodes.
	Cluster mapreduce.Cluster
	// ShuffleBufferBytes caps each map task's sort buffer across the
	// pipeline's jobs (see mapreduce.Engine.ShuffleBufferBytes): a
	// positive cap spills and charges the modelled spill and merge I/O;
	// 0 leaves the buffer unbounded, one in-memory flush per task with no
	// spill cost. Negative values are rejected. Clustering output is
	// bit-identical at every cap.
	ShuffleBufferBytes int
	// Trace, when non-nil, receives one span per MapReduce job, task and
	// shuffle across the pipeline's jobs. Nil (the default) disables
	// tracing at no cost.
	Trace *trace.Recorder
	// Faults, when non-nil, injects the plan's failures into every MapReduce
	// job of the pipeline: task crashes retry, node deaths trigger Hadoop's
	// map re-execution, and the virtual runtime reflects the recovery. The
	// clustering result is bit-identical with and without faults.
	Faults *faults.Injector
	// Retry tunes recovery when Faults is set (zero = Hadoop defaults).
	Retry mapreduce.RetryPolicy
	// Checkpoint, when non-nil, journals each stage's committed output so
	// a later run can resume after a driver failure. The journal records
	// a content-addressed manifest entry (inputs hash, parameter hash,
	// output hash) per stage.
	Checkpoint *checkpoint.Journal
	// Resume controls how an existing journal is consulted (requires
	// Checkpoint). ResumeOff re-runs everything (still journaling);
	// ResumeOn skips every stage whose manifest entry validates and fails
	// with a typed error on a missing or mismatched manifest; ResumeForce
	// discards the journal and starts fresh.
	Resume ResumeMode
}

// ResumeMode is the --resume setting.
type ResumeMode int

const (
	// ResumeOff ignores any existing checkpoint journal.
	ResumeOff ResumeMode = iota
	// ResumeOn resumes from the journal, erroring when it is missing or
	// inconsistent with the current run.
	ResumeOn
	// ResumeForce discards the journal and runs from scratch.
	ResumeForce
)

// withDefaults fills zero values.
func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 5
	}
	if o.NumHashes == 0 {
		o.NumHashes = 100
	}
	if o.Theta == 0 {
		o.Theta = 0.9
	}
	if o.Cluster.Nodes == 0 {
		o.Cluster = mapreduce.DefaultCluster
	}
	return o
}

// engine builds the MapReduce engine every job of a run executes on: the
// simulated Cluster with the run's Trace, Faults, Retry and shuffle
// buffer.
func (o Options) engine() (*mapreduce.Engine, error) {
	e, err := mapreduce.NewEngine(o.Cluster)
	if err != nil {
		return nil, err
	}
	e.Trace = o.Trace
	e.Faults = o.Faults
	e.Retry = o.Retry
	e.ShuffleBufferBytes = o.ShuffleBufferBytes
	return e, nil
}

// Validate rejects unusable options.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.K < 1 || o.K > minhash.MaxK {
		return fmt.Errorf("core: k=%d out of range [1,%d]", o.K, minhash.MaxK)
	}
	if o.NumHashes < 1 {
		return fmt.Errorf("core: need at least one hash function, got %d", o.NumHashes)
	}
	if !(o.Theta >= 0 && o.Theta <= 1) {
		return fmt.Errorf("core: θ=%v out of range [0,1]", o.Theta)
	}
	if o.Mode != GreedyMode && o.Mode != HierarchicalMode {
		return fmt.Errorf("core: invalid mode %d", o.Mode)
	}
	if o.Candidate != CandidateExact && o.Candidate != CandidateLSH {
		return fmt.Errorf("core: invalid candidate generator %d", o.Candidate)
	}
	if o.StoreBits < 0 || o.StoreBits > 16 {
		return fmt.Errorf("core: StoreBits must be 0 (full store) or 1..16 (packed), got %d", o.StoreBits)
	}
	if o.ShuffleBufferBytes < 0 {
		return fmt.Errorf("core: ShuffleBufferBytes must be ≥ 0 (0 = unbounded), got %d", o.ShuffleBufferBytes)
	}
	if o.Candidate == CandidateLSH {
		if o.Theta <= 0 {
			return fmt.Errorf("core: LSH candidate generation needs θ > 0 (got %v)", o.Theta)
		}
		lsh := o.LSH
		if lsh == (cluster.LSHOptions{}) {
			lsh = cluster.GeometryFor(o.NumHashes, o.Theta)
		}
		if err := lsh.Validate(o.NumHashes); err != nil {
			return err
		}
		if o.LSHBucketCap < 0 {
			return fmt.Errorf("core: LSH bucket cap must be ≥ 0, got %d", o.LSHBucketCap)
		}
	}
	return o.Cluster.Validate()
}

// Result is a completed clustering run. It also holds the signatures
// the run clustered and, for an exact hierarchical run whose cluster
// stage ran, the dendrogram that stage cut at θ: Representatives and
// Levels read them and launch no job.
type Result struct {
	// Assignments maps read index -> cluster label.
	Assignments metrics.Clustering
	// ReadIDs are the FASTA ids, index-aligned with Assignments.
	ReadIDs []string
	// Virtual is the modelled cluster wall time (the paper's "Time").
	Virtual time.Duration
	// Real is the measured local execution time.
	Real time.Duration
	// Jobs counts launched MapReduce jobs.
	Jobs int
	// Counters aggregates the engine counters of every executed job
	// (shuffle bytes, spills, merge passes, attempts, ...). Stages
	// restored from a checkpoint contribute nothing.
	Counters map[string]int64
	// SkippedStages lists the stages restored from the checkpoint journal
	// instead of re-executed, in pipeline order (nil on fresh runs).
	SkippedStages []string

	// src is the signature view every stage after the sketch read,
	// whether the sketch stage ran or was restored.
	src *sigstore.View
	// dend is the dendrogram the cluster stage built, before its cut at
	// θ. It is nil on the greedy and CandidateLSH paths and when the
	// cluster stage was restored from the journal.
	dend *cluster.Dendrogram
}

// NumClusters returns the number of clusters in the result.
func (r *Result) NumClusters() int { return r.Assignments.NumClusters() }

// Pipeline stage names, as they appear in checkpoint manifests and the
// driver-crash fault's AfterStage.
const (
	StageSketch     = "sketch"
	StageGreedy     = "greedy"
	StageSimilarity = "similarity"
	StageCluster    = "cluster"
	// LSH-path stages (Candidate == CandidateLSH).
	StageLSHEdges   = "lsh-edges"
	StageCC         = "components"
	StageLSHCluster = "lsh-cluster"
)

// ckptRunner threads the checkpoint journal and driver-crash fault
// through the pipeline's stages.
type ckptRunner struct {
	journal *checkpoint.Journal
	resume  bool // still inside the validated prefix of the journal
	faults  *faults.Injector
	skipped []string
}

func newCkptRunner(opt Options) (*ckptRunner, error) {
	resume, err := opt.resumeJournal()
	if err != nil {
		return nil, err
	}
	return &ckptRunner{journal: opt.Checkpoint, resume: resume, faults: opt.Faults}, nil
}

// resumeJournal applies Resume to the Checkpoint journal as a run starts
// and reports whether validated work may be restored. It is the one
// implementation of -resume, shared by Run and the Pig scripts:
// ResumeForce discards the journal, ResumeOn requires one that holds
// committed stages.
func (o Options) resumeJournal() (bool, error) {
	if o.Resume == ResumeOff {
		return false, nil
	}
	if o.Checkpoint == nil {
		return false, fmt.Errorf("core: Resume requires a Checkpoint journal")
	}
	if o.Resume == ResumeForce {
		return false, o.Checkpoint.Discard()
	}
	if o.Checkpoint.Empty() {
		return false, &checkpoint.MissingError{Dir: o.Checkpoint.Dir()}
	}
	return true, nil
}

// stage runs one checkpointed pipeline stage. When the stage's journal
// entry validates, its output is restored through decode; the first
// stage with no entry ends the resumable prefix, and every stage after it
// runs. A stage that runs has its output encoded and committed only when
// a journal is open. stage returns the output and the hash of its
// journaled bytes, the next stage's inputs hash ("" with no journal).
// Any planned driver crash fires after the commit, so the stage is
// exactly what a resumed run gets to skip. A mismatched entry is a typed
// error.
func stage[T any](ck *ckptRunner, name, inputsHash string, params map[string]string,
	encode func(T) []byte, decode func([]byte) (T, error), run func() (T, error)) (T, string, error) {
	var zero T
	if ck.resume {
		data, ok, err := ck.journal.Validate(name, inputsHash, params)
		if err != nil {
			return zero, "", err
		}
		if ok {
			out, err := decode(data)
			if err != nil {
				return zero, "", err
			}
			ck.skipped = append(ck.skipped, name)
			return out, checkpoint.HashBytes(data), nil
		}
		ck.resume = false
	}
	out, err := run()
	if err != nil {
		return zero, "", err
	}
	var hash string
	if ck.journal != nil {
		e, err := ck.journal.Commit(name, inputsHash, params, encode(out))
		if err != nil {
			return zero, "", err
		}
		hash = e.OutputHash
	}
	if ck.faults.DriverCrashAfter(name) {
		return zero, "", &faults.DriverCrashError{Stage: name}
	}
	return out, hash, nil
}

// Run executes the MrMC-MinH pipeline on reads: sketching as a map-only
// job, then either greedy clustering in a single reducer or the
// row-partitioned similarity matrix plus driver-side dendrogram. With
// Options.Checkpoint each stage's output is journaled after it commits,
// and with Options.Resume validated stages are restored instead of
// re-executed; because every stage is deterministic and checkpoints use
// exact binary codecs, a resumed run's clusters are bit-identical to an
// uninterrupted run's.
func Run(reads []fasta.Record, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ck, err := newCkptRunner(opt)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	engine, err := opt.engine()
	if err != nil {
		return nil, err
	}
	res := &Result{ReadIDs: make([]string, len(reads)), Counters: make(map[string]int64)}
	for i := range reads {
		res.ReadIDs[i] = reads[i].ID
	}
	// addJob folds one executed MapReduce job into the pipeline result.
	addJob := func(out *mapreduce.Result) {
		res.Virtual += out.Virtual
		res.Jobs++
		if out.Counters == nil {
			return
		}
		for k, v := range out.Counters.Snapshot() {
			res.Counters[k] += v
		}
	}

	// Stage inputs are content-addressed: each stage's inputs hash is the
	// hash of the previous stage's committed bytes, so a change anywhere
	// upstream invalidates everything downstream.
	var readsHash string
	if opt.Checkpoint != nil {
		readsHash = HashReads(reads)
	}
	// store_bits is recorded even for full-width stores, so a journal
	// from another packing fails as a parameter mismatch, not a misparse.
	sketchParams := map[string]string{
		"k":          fmt.Sprint(opt.K),
		"num_hashes": fmt.Sprint(opt.NumHashes),
		"canonical":  fmt.Sprint(opt.Canonical),
		"seed":       fmt.Sprint(opt.Seed),
		"store_bits": fmt.Sprint(opt.StoreBits),
	}
	// The sketch stage's checkpoint is the store snapshot (SIGSNAP2).
	store, sigsHash, err := stage(ck, StageSketch, readsHash, sketchParams, (*sigstore.Store).Snapshot,
		func(data []byte) (*sigstore.Store, error) {
			st, err := sigstore.Restore(data)
			if err != nil {
				return nil, err
			}
			if st.NumHashes() != opt.NumHashes || st.Bits() != opt.StoreBits || st.Len() != len(reads) {
				return nil, fmt.Errorf("core: checkpointed store geometry n=%d/b=%d/reads=%d does not match run n=%d/b=%d/reads=%d",
					st.NumHashes(), st.Bits(), st.Len(), opt.NumHashes, opt.StoreBits, len(reads))
			}
			return st, nil
		},
		func() (*sigstore.Store, error) {
			slab, mrout, err := sketchJob(engine, reads, opt)
			if err != nil {
				return nil, err
			}
			addJob(mrout)
			return buildStore(slab, opt)
		})
	if err != nil {
		return nil, err
	}
	src := store.View(minhash.SetOverlap)
	res.src = src
	res.Counters["sigstore.resident_bytes"] = store.ResidentBytes()
	res.Counters["sigstore.reads"] = int64(store.Len())

	switch {
	case opt.Candidate == CandidateLSH:
		res.Assignments, err = clusterLSHCC(engine, src, sigsHash, opt, ck, addJob)
	case opt.Mode == GreedyMode:
		greedyParams := map[string]string{
			"theta":     fmt.Sprint(opt.Theta),
			"estimator": fmt.Sprint(int(minhash.SetOverlap)),
			"use_lsh":   fmt.Sprint(opt.UseLSH),
		}
		res.Assignments, _, err = stage(ck, StageGreedy, sigsHash, greedyParams, encodeLabels, decodeLabels,
			func() (metrics.Clustering, error) {
				labels, mrout, err := greedyJob(engine, src, opt)
				if err != nil {
					return nil, err
				}
				addJob(mrout)
				return labels, nil
			})
	default:
		simParams := map[string]string{
			"estimator": fmt.Sprint(int(minhash.SetOverlap)),
		}
		var m *cluster.Matrix
		var matHash string
		m, matHash, err = stage(ck, StageSimilarity, sigsHash, simParams, encodeMatrix, decodeMatrix,
			func() (*cluster.Matrix, error) {
				m, mrout, err := similarityJob(engine, src, opt)
				if err != nil {
					return nil, err
				}
				addJob(mrout)
				return m, nil
			})
		if err != nil {
			return nil, err
		}
		clusterParams := map[string]string{
			"theta":   fmt.Sprint(opt.Theta),
			"linkage": fmt.Sprint(int(opt.Linkage)),
		}
		res.Assignments, _, err = stage(ck, StageCluster, matHash, clusterParams, encodeLabels, decodeLabels,
			func() (metrics.Clustering, error) {
				dend, err := cluster.Hierarchical(m, cluster.HierarchicalOptions{Linkage: opt.Linkage})
				if err != nil {
					return nil, err
				}
				res.dend = dend
				return dend.CutAt(opt.Theta), nil
			})
	}
	if err != nil {
		return nil, err
	}
	res.SkippedStages = ck.skipped
	res.Real = time.Since(start)
	return res, nil
}

// sketchJob computes minwise signatures for all reads as a map-only job
// and returns them as one slab: read i's signature is row i, which each
// read's map call writes alone. Map tasks run the slice-based SketchInto
// kernel: k-mer occurrences are streamed into a pooled scratch buffer
// (duplicates do not change the minima) so the hot path never
// materializes a kmer.Set map.
func sketchJob(engine *mapreduce.Engine, reads []fasta.Record, opt Options) (minhash.Signature, *mapreduce.Result, error) {
	sk, err := minhash.NewSketcher(opt.NumHashes, opt.K, opt.Seed)
	if err != nil {
		return nil, nil, err
	}
	ex := &kmer.Extractor{K: opt.K, Canonical: opt.Canonical}
	scratch := sync.Pool{New: func() any { return new([]uint64) }}
	n := opt.NumHashes
	slab := make(minhash.Signature, len(reads)*n)
	job := &mapreduce.Job[int, mapreduce.Key64, minhash.Signature]{
		Name:  "mrmcminh-sketch",
		Input: indices(len(reads)),
		// Sketching one read costs ~L·n hash evaluations, far above the
		// baseline per-record map cost.
		MapCostFactor: float64(opt.NumHashes) / 2,
		Map: func(i int, emit func(mapreduce.Key64, minhash.Signature)) error {
			buf := scratch.Get().(*[]uint64)
			kms := ex.SliceInto((*buf)[:0], reads[i].Seq)
			sig := sk.SketchInto(slab[i*n:(i+1)*n:(i+1)*n], kms)
			*buf = kms
			scratch.Put(buf)
			emit(mapreduce.Key64(i), sig)
			return nil
		},
	}
	_, res, err := mapreduce.Run(engine, job)
	if err != nil {
		return nil, nil, err
	}
	return slab, res, nil
}

// sigRows cuts a slab into its rows of n values, each capped.
func sigRows(slab minhash.Signature, n int) []minhash.Signature {
	sigs := make([]minhash.Signature, len(slab)/n)
	for i := range sigs {
		sigs[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return sigs
}

// indices returns 0, 1, ..., n-1: the input of a job over the reads by
// index.
func indices(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// buildStore ingests a sketched corpus, the sketch job's slab, into a
// signature store. Rows are keyed by read index, which keeps the store
// index-aligned with the reads even when a FASTA repeats a read ID. A
// full store adopts the slab as its arena; a packed one packs each row.
func buildStore(slab minhash.Signature, opt Options) (*sigstore.Store, error) {
	if opt.StoreBits == 0 {
		return sigstore.Adopt(opt.NumHashes, slab)
	}
	st, err := sigstore.New(sigstore.Config{NumHashes: opt.NumHashes, Bits: opt.StoreBits})
	if err != nil {
		return nil, err
	}
	if err := st.PutBatch(0, sigRows(slab, opt.NumHashes)); err != nil {
		return nil, err
	}
	return st, nil
}

// greedyJob runs Algorithm 1 inside a single reducer (the paper's GROUP
// ALL followed by the GreedyClustering UDF). Every read's signature rides
// the shuffle as a borrowed row — full 64-bit words or b-bit packed,
// whichever the store holds — and the reducer then clusters by borrowing
// from the store directly instead of materializing the shuffled copies.
func greedyJob(engine *mapreduce.Engine, src *sigstore.View, opt Options) (metrics.Clustering, *mapreduce.Result, error) {
	type indexedSig struct {
		idx int
		sig minhash.Signature
	}
	type indexedPacked struct {
		idx   int
		words []uint64
	}
	n := src.Len()
	labels := make(metrics.Clustering, n)
	job := &mapreduce.Job[int, string, any]{
		Name:        "mrmcminh-greedy",
		Input:       indices(n),
		NumReducers: 1,
		// The greedy sweep compares each read against the shrinking set of
		// cluster representatives — modelled as a bounded constant per
		// read, far below the hierarchical all-pairs row cost.
		ReduceCostFactor: 7.5,
		Map: func(i int, emit func(string, any)) error {
			if opt.StoreBits > 0 {
				emit("all", indexedPacked{idx: i, words: src.PackedSig(i).Words})
			} else {
				emit("all", indexedSig{idx: i, sig: src.Sig(i)})
			}
			return nil
		},
		Reduce: func(string, []any, func(string, any)) error {
			var got metrics.Clustering
			var err error
			if opt.UseLSH {
				got, err = cluster.GreedyLSH(src, opt.Theta, cluster.GeometryFor(opt.NumHashes, opt.Theta))
			} else {
				got, err = cluster.Greedy(src, opt.Theta)
			}
			if err != nil {
				return err
			}
			copy(labels, got)
			return nil
		},
	}
	_, res, err := mapreduce.Run(engine, job)
	if err != nil {
		return nil, nil, err
	}
	return labels, res, nil
}

// similarityJob computes the all-pairs matrix with row-partitioned map
// tasks (paper §III-C: "calculation of all pairwise similarity is
// performed in parallel by performing a row-wise partition"). Map tasks
// read pairs straight off the store's arenas, so the O(n²) row scans are
// allocation-free.
func similarityJob(engine *mapreduce.Engine, src cluster.SigSource, opt Options) (*cluster.Matrix, *mapreduce.Result, error) {
	n := src.Len()
	m, err := cluster.NewMatrix(n)
	if err != nil {
		return nil, nil, err
	}
	job := &mapreduce.Job[int, mapreduce.Key64, []float64]{
		Name:  "mrmcminh-simrows",
		Input: indices(n),
		// One record = one matrix row = ~n signature comparisons, each a
		// ~100-value sketch scan plus Hadoop (de)serialization.
		MapCostFactor: float64(n) * 2.5,
		Map: func(i int, emit func(mapreduce.Key64, []float64)) error {
			row := make([]float64, n)
			for j := i + 1; j < n; j++ {
				row[j] = src.Similarity(i, j)
			}
			emit(mapreduce.Key64(i), row)
			return nil
		},
	}
	out, res, err := mapreduce.Run(engine, job)
	if err != nil {
		return nil, nil, err
	}
	for _, kv := range out {
		i := int(kv.Key)
		for j := i + 1; j < n; j++ {
			m.Set(i, j, kv.Value[j])
		}
	}
	return m, res, nil
}

// ClustersByID converts a result into clusterID -> read IDs, sorted for
// stable output.
func (r *Result) ClustersByID() map[int][]string {
	out := make(map[int][]string)
	for i, l := range r.Assignments {
		if l >= 0 {
			out[l] = append(out[l], r.ReadIDs[i])
		}
	}
	for _, ids := range out {
		sort.Strings(ids)
	}
	return out
}
