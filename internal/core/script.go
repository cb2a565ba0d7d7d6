package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/metagenomics/mrmcminh/internal/dfs"
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
// connected component with the exact algorithm. Selected by
// Options.Candidate = CandidateLSH (the CLIs' -candidate=lsh).
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

// NewPigContext builds the context a Pig script runs in over fs: the
// engine Run builds (opt's Cluster, Trace, Faults and
// ShuffleBufferBytes), the paper's UDFs plus the Pig builtins, and opt's
// Checkpoint journal prepared for opt.Resume. params fills the script's
// $ holes. Of opt it reads Cluster, Seed, Trace, Faults, Checkpoint,
// Resume, ShuffleBufferBytes and StoreBits; the rest is only validated.
func NewPigContext(fs *dfs.FileSystem, params map[string]string, opt Options) (*pig.Context, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	resume, err := opt.resumeJournal()
	if err != nil {
		return nil, err
	}
	engine, err := opt.engine()
	if err != nil {
		return nil, err
	}
	fs.SetTrace(opt.Trace)
	registry := NewRegistry()
	if err := pig.RegisterBuiltins(registry); err != nil {
		return nil, err
	}
	return &pig.Context{
		FS:         fs,
		Engine:     engine,
		Registry:   registry,
		Params:     params,
		Seed:       opt.Seed,
		Checkpoint: opt.Checkpoint,
		Resume:     resume,
		StoreBits:  opt.StoreBits,
	}, nil
}

// RunScript executes the paper's Algorithm 3 against fs. p binds the
// script's $ holes and opt supplies the run environment (see
// NewPigContext). opt.Candidate picks the script: CandidateExact runs
// Algorithm3Script, CandidateLSH Algorithm3LSHScript. opt.StoreBits
// backs the GreedyClustering and LSHClustering UDFs; the exact script's
// hierarchical branch always compares full-width signatures. The k-mer
// size, hash count, linkage and cutoff come from p, so the script
// ignores opt's K, NumHashes, Theta, Mode, Linkage, Canonical, UseLSH,
// LSH and LSHBucketCap.
func RunScript(fs *dfs.FileSystem, p ScriptParams, opt Options) (*ScriptResult, error) {
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
	ctx, err := NewPigContext(fs, map[string]string{
		"INPUT":   p.Input,
		"OUTPUT1": p.Output1,
		"OUTPUT2": p.Output2,
		"KMER":    fmt.Sprint(p.K),
		"NUMHASH": fmt.Sprint(p.NumHash),
		"DIV":     fmt.Sprint(div),
		"LINK":    p.Link,
		"CUTOFF":  fmt.Sprint(p.Cutoff),
	}, opt)
	if err != nil {
		return nil, err
	}
	source := Algorithm3Script
	if opt.Candidate == CandidateLSH {
		source = Algorithm3LSHScript
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

// RunScriptTraced is RunScript on clusterCfg with hash seed seed and an
// optional span recorder attached to both the DFS and the MapReduce
// engine; pass nil to run untraced.
func RunScriptTraced(fs *dfs.FileSystem, clusterCfg mapreduce.Cluster, p ScriptParams, seed int64, rec *trace.Recorder) (*ScriptResult, error) {
	return RunScript(fs, p, Options{Cluster: clusterCfg, Seed: seed, Trace: rec})
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
