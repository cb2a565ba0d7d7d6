package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/pig"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// Algorithm3Script is the paper's Pig pipeline (Algorithm 3), verbatim in
// structure. Three adjustments keep the under-specified original
// executable: CalculatePairwiseSimilarity additionally receives seqid3 so
// duplicate sketches resolve to distinct matrix rows; J keeps each
// similarity row as one composite field (the paper FLATTENs it, losing the
// row identity the downstream clustering needs); and the greedy branch
// consumes the grouped bag F of relation I directly.
const Algorithm3Script = `
A = LOAD '$INPUT' USING FastaStorage AS (readid:chararray, d:int, seq:bytearray, header:chararray);
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid)) AS (seq:chararray, seqid:chararray);
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, $KMER)) AS (seqkmer:long, seqid2:chararray);
E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(seqkmer, seqid2, $NUMHASH, $DIV)) AS (minwise:long, seqid3:chararray);
F = FOREACH E GENERATE FLATTEN(minwise), FLATTEN(seqid3);
I = GROUP F ALL;
J = FOREACH F GENERATE CalculatePairwiseSimilarity(minwise, seqid3, I.F) AS similaritymatrix:double;
K = FOREACH J GENERATE FLATTEN(AgglomerativeHierarchicalClustering(similaritymatrix, $LINK, $NUMHASH, $CUTOFF)) AS (seqid4:chararray, clusterlabel:int);
L = FOREACH I GENERATE FLATTEN(GreedyClustering(F, $NUMHASH, $CUTOFF)) AS (seqid5:chararray, clusterlabel:int);
STORE K INTO '$OUTPUT1';
STORE L INTO '$OUTPUT2';
`

// Algorithm3LSHScript is Algorithm 3 with the O(N²) similarity barrier
// removed: relation J (the all-pairs matrix) is gone, and both clustering
// branches call the LSHClustering UDF, which generates candidate pairs
// from banded MinHash buckets, verifies them at $CUTOFF and clusters each
// connected component with the exact algorithm. Selected by the CLIs'
// -candidate=lsh flag.
const Algorithm3LSHScript = `
A = LOAD '$INPUT' USING FastaStorage AS (readid:chararray, d:int, seq:bytearray, header:chararray);
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid)) AS (seq:chararray, seqid:chararray);
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, $KMER)) AS (seqkmer:long, seqid2:chararray);
E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(seqkmer, seqid2, $NUMHASH, $DIV)) AS (minwise:long, seqid3:chararray);
F = FOREACH E GENERATE FLATTEN(minwise), FLATTEN(seqid3);
I = GROUP F ALL;
K = FOREACH I GENERATE FLATTEN(LSHClustering(F, $NUMHASH, $CUTOFF, 'hierarchical', $LINK)) AS (seqid4:chararray, clusterlabel:int);
L = FOREACH I GENERATE FLATTEN(LSHClustering(F, $NUMHASH, $CUTOFF, 'greedy', $LINK)) AS (seqid5:chararray, clusterlabel:int);
STORE K INTO '$OUTPUT1';
STORE L INTO '$OUTPUT2';
`

// ScriptParams binds the Algorithm 3 parameter holes.
type ScriptParams struct {
	Input   string // DFS path of the FASTA input
	Output1 string // hierarchical output directory
	Output2 string // greedy output directory
	K       int    // $KMER
	NumHash int    // $NUMHASH
	Div     uint64 // $DIV: prime > feature-space size; 0 derives 4^k+granularity
	Link    string // $LINK: single | average | complete
	Cutoff  float64
	// Candidate selects the script variant: "" or "exact" runs the
	// paper's Algorithm3Script (all-pairs matrix); "lsh" runs
	// Algorithm3LSHScript (banded candidate generation, no matrix).
	Candidate string
}

// ScriptResult holds both clustering outputs of the Algorithm 3 run.
type ScriptResult struct {
	// Hierarchical maps read id -> cluster label (relation K).
	Hierarchical map[string]int
	// Greedy maps read id -> cluster label (relation L).
	Greedy map[string]int
	// Virtual and Jobs aggregate the underlying MapReduce jobs.
	Virtual time.Duration
	Jobs    int
	// Restored lists STORE outputs served from a validated checkpoint
	// instead of being recomputed (resumed runs only).
	Restored []string
}

// ScriptOptions bundles the optional knobs of an Algorithm 3 run: span
// tracing, fault injection, and STORE-level checkpointing with resume.
type ScriptOptions struct {
	Trace      *trace.Recorder
	Faults     *faults.Injector
	Checkpoint *checkpoint.Journal
	Resume     bool
	// ShuffleBufferBytes caps each map task's sort buffer on the script's
	// jobs (see mapreduce.Job.ShuffleBufferBytes); 0 keeps the in-memory
	// shuffle.
	ShuffleBufferBytes int
	// StoreBits selects the signature store backing of the clustering
	// UDFs GreedyClustering and LSHClustering (see Options.StoreBits):
	// 0 full width (default), 1..16 b-bit packed. The exact script's
	// hierarchical branch (CalculatePairwiseSimilarity) always compares
	// full-width signatures.
	StoreBits int
}

// nextPrimeAbove returns the smallest prime > n (trial division; the
// values involved are small enough that this is instantaneous).
func nextPrimeAbove(n uint64) uint64 {
	isPrime := func(v uint64) bool {
		if v < 2 {
			return false
		}
		for d := uint64(2); d*d <= v; d++ {
			if v%d == 0 {
				return false
			}
		}
		return true
	}
	for v := n + 1; ; v++ {
		if isPrime(v) {
			return v
		}
	}
}

// RunScript executes the paper's Algorithm 3 against the given DFS and
// simulated cluster.
func RunScript(fs *dfs.FileSystem, clusterCfg mapreduce.Cluster, p ScriptParams, seed int64) (*ScriptResult, error) {
	return RunScriptTraced(fs, clusterCfg, p, seed, nil)
}

// RunScriptTraced is RunScript with an optional span recorder attached to
// both the DFS and the MapReduce engine; pass nil to run untraced.
func RunScriptTraced(fs *dfs.FileSystem, clusterCfg mapreduce.Cluster, p ScriptParams, seed int64, rec *trace.Recorder) (*ScriptResult, error) {
	return RunScriptOpts(fs, clusterCfg, p, seed, ScriptOptions{Trace: rec})
}

// RunScriptOpts is the fully parameterized Algorithm 3 entry point.
func RunScriptOpts(fs *dfs.FileSystem, clusterCfg mapreduce.Cluster, p ScriptParams, seed int64, so ScriptOptions) (*ScriptResult, error) {
	rec := so.Trace
	if p.K < 1 {
		return nil, fmt.Errorf("core: script needs KMER >= 1")
	}
	if p.NumHash < 1 {
		return nil, fmt.Errorf("core: script needs NUMHASH >= 1")
	}
	if p.Link == "" {
		p.Link = "average"
	}
	div := p.Div
	if div == 0 {
		// The paper requires a prime larger than the feature-set size 4^k.
		div = nextPrimeAbove(uint64(1) << (2 * uint(p.K)))
	}
	engine, err := mapreduce.NewEngine(clusterCfg)
	if err != nil {
		return nil, err
	}
	engine.Trace = rec
	engine.Faults = so.Faults
	if rec.Enabled() {
		fs.SetTrace(rec)
	}
	if so.StoreBits < 0 || so.StoreBits > 16 {
		return nil, fmt.Errorf("core: StoreBits must be 0 (full store) or 1..16 (packed), got %d", so.StoreBits)
	}
	ctx := &pig.Context{
		FS:                 fs,
		Engine:             engine,
		Registry:           NewRegistry(),
		Seed:               seed,
		Checkpoint:         so.Checkpoint,
		Resume:             so.Resume,
		ShuffleBufferBytes: so.ShuffleBufferBytes,
		StoreBits:          so.StoreBits,
		Params: map[string]string{
			"INPUT":   p.Input,
			"OUTPUT1": p.Output1,
			"OUTPUT2": p.Output2,
			"KMER":    fmt.Sprint(p.K),
			"NUMHASH": fmt.Sprint(p.NumHash),
			"DIV":     fmt.Sprint(div),
			"LINK":    p.Link,
			"CUTOFF":  fmt.Sprint(p.Cutoff),
		},
	}
	source := Algorithm3Script
	switch p.Candidate {
	case "", "exact":
	case "lsh":
		source = Algorithm3LSHScript
	default:
		return nil, fmt.Errorf("core: unknown script candidate generator %q (want exact or lsh)", p.Candidate)
	}
	script, err := pig.Compile(source)
	if err != nil {
		return nil, err
	}
	run, err := script.Run(ctx)
	if err != nil {
		return nil, err
	}
	res := &ScriptResult{
		Hierarchical: labelMap(run.Aliases["K"]),
		Greedy:       labelMap(run.Aliases["L"]),
		Virtual:      run.Virtual,
		Jobs:         run.Jobs,
		Restored:     run.Restored,
	}
	return res, nil
}

// labelMap converts a (seqid, clusterlabel) relation into a map.
func labelMap(rel *pig.Relation) map[string]int {
	if rel == nil {
		return nil
	}
	out := make(map[string]int, len(rel.Tuples))
	for _, tup := range rel.Tuples {
		if len(tup.Fields) < 2 {
			continue
		}
		id, err1 := pig.AsString(tup.Fields[0])
		label, err2 := pig.AsInt(tup.Fields[1])
		if err1 == nil && err2 == nil {
			out[id] = label
		}
	}
	return out
}

// LabelsToClustering converts an id->label map into a Clustering aligned
// with the given read-id order.
func LabelsToClustering(labels map[string]int, ids []string) (metrics.Clustering, error) {
	c := make(metrics.Clustering, len(ids))
	for i, id := range ids {
		l, ok := labels[id]
		if !ok {
			return nil, fmt.Errorf("core: read %q missing from labels", id)
		}
		c[i] = l
	}
	return c, nil
}

// ModelRuntime computes the modelled Figure-2 runtime of the pipeline on
// numReads reads without executing it. The sketch phase costs one map
// record per read; the similarity phase is row-partitioned with per-row
// cost proportional to the candidate set a row is compared against —
// bounded by the banding the system applies at scale (the paper's 10M-read
// hierarchical runs are only feasible with bounded row candidate sets).
func ModelRuntime(numReads int, c mapreduce.Cluster, mode Mode, numHashes int) time.Duration {
	if numReads <= 0 {
		return 0
	}
	// Task granularity: at least two waves per slot, and no split larger
	// than ~64k reads (Hadoop schedules one map task per 64 MB block; at
	// ~1 kb per FASTA record that is ~65k records).
	splits := 2 * c.TotalSlots()
	if byBlock := (numReads + 65535) / 65536; byBlock > splits {
		splits = byBlock
	}
	perSplit := (numReads + splits - 1) / splits
	sketchFactor := float64(numHashes) / 2
	var tasks []mapreduce.TaskCost
	for done := 0; done < numReads; done += perSplit {
		n := perSplit
		if done+n > numReads {
			n = numReads - done
		}
		d := c.Cost.TaskStartup + time.Duration(float64(n)*sketchFactor*float64(c.Cost.MapPerRecord))
		tasks = append(tasks, mapreduce.TaskCost{Duration: d})
	}
	total := c.Cost.JobStartup + c.Makespan(tasks)

	// Clustering phase.
	candidates := 256.0 // bounded per-row comparison set at scale
	if float64(numReads) < candidates {
		candidates = float64(numReads)
	}
	rowFactor := candidates * 0.05
	if mode == GreedyMode {
		rowFactor /= 2 // shrinking representative set
	}
	var phase []mapreduce.TaskCost
	for done := 0; done < numReads; done += perSplit {
		n := perSplit
		if done+n > numReads {
			n = numReads - done
		}
		d := c.Cost.TaskStartup + time.Duration(float64(n)*rowFactor*float64(c.Cost.MapPerRecord))
		phase = append(phase, mapreduce.TaskCost{Duration: d})
	}
	total += c.Cost.JobStartup + c.Makespan(phase)
	return total
}

// SortedClusterIDs returns the distinct labels of a label map, ascending.
func SortedClusterIDs(labels map[string]int) []int {
	seen := map[int]struct{}{}
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}
