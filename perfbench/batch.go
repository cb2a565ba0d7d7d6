package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/core"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// hashSeed fixes the program's hash-function draws. Only the inputs vary
// with -seed.
const hashSeed = 12

// minWAcc is the W.Acc floor (percent) a planted-group clustering must
// reach; near-duplicate groups at these thresholds split but never merge.
const minWAcc = 95

// batchOut is what one pipeline run returns.
type batchOut struct {
	labels   []metrics.Clustering // read order; the first is scored by W.Acc
	virtual  time.Duration
	counters map[string]int64
}

// batchBench runs a batch pipeline once per iteration. Every iteration
// must reproduce the label checksum its warm-up recorded and reach
// minWAcc.
type batchBench struct {
	cfg      runConfig
	spec     corpusSpec
	sketch   sketchParams
	cluster  mapreduce.Cluster
	in       corpus
	ids      []string
	stage    func() error
	pipeline func(rec *trace.Recorder) (batchOut, error)
	// dfsIO times the workload's own DFS calls for the traced run (nil
	// when the workload has no DFS).
	dfsIO func() (read, write time.Duration, err error)
	// ownSketch marks a pipeline that sketches with its own kernel rather
	// than minhash.Sketcher; its minhash.* metrics read 0.
	ownSketch bool

	checksum  uint64
	lat       []float64 // seconds, untraced iterations
	virtual   float64
	wacc      float64
	bad       int64
	spans     *spanTotals // traced iterations
	tracedCtr map[string]int64
}

func (b *batchBench) setup() error {
	b.in = b.spec.generate(b.cfg.seed)
	b.ids = b.in.ids()
	if b.stage != nil {
		if err := b.stage(); err != nil {
			return err
		}
	}
	out, err := b.pipeline(nil)
	if err != nil {
		return err
	}
	b.checksum = labelChecksum(out.labels...)
	return b.check(out)
}

// check scores a run and counts a wrong answer on a checksum or W.Acc miss.
func (b *batchBench) check(out batchOut) error {
	wacc, err := metrics.WeightedAccuracy(out.labels[0], b.in.truth)
	if err != nil {
		return err
	}
	b.wacc = wacc
	b.virtual = out.virtual.Seconds()
	if labelChecksum(out.labels...) != b.checksum || wacc < minWAcc {
		b.bad++
	}
	return nil
}

func (b *batchBench) iteration(traced bool) (time.Duration, error) {
	var rec *trace.Recorder
	if traced {
		rec = trace.New()
	}
	t0 := time.Now()
	out, err := b.pipeline(rec)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if traced {
		b.spans.add(rec.Spans(), workersFor(b.cluster))
		b.tracedCtr = out.counters
	} else {
		b.lat = append(b.lat, d.Seconds())
	}
	return d, b.check(out)
}

func (b *batchBench) traceable() bool { return true }

func (b *batchBench) ops() (int64, int64) { return int64(len(b.lat) + b.spans.iters), b.bad }

func (b *batchBench) wrong() int64 { return b.bad }

// endToEnd reports a batch run: every read's clustering is out when the
// iteration completes, so a read's latency is the iteration's.
func (b *batchBench) endToEnd(m metricSet, slow []float64) {
	lat := median(normalized(b.lat, slow))
	m.set("throughput_per_s", float64(len(b.in.reads))/lat, "1/s")
	m.set("latency_p50_ms", lat*1e3, "ms")
	m.set("w_acc", b.wacc, "%")
	m.set("virtual_s", b.virtual, "s")
}

func (b *batchBench) layers(m metricSet) error {
	sigs, err := sketchLayer(m, b.in.reads, b.sketch)
	if err != nil {
		return err
	}
	if b.ownSketch {
		delete(m, "minhash.sketch_ns_per_read")
		delete(m, "minhash.ns_per_hash_eval")
	}
	if err := sigstoreLayer(m, b.ids, sigs); err != nil {
		return err
	}
	similarityLayer(m, sigs, b.sketch.est)
	b.spans.report(m)
	if b.dfsIO != nil {
		read, write, err := b.dfsIO()
		if err != nil {
			return err
		}
		m.set("dfs.read_s", read.Seconds(), "s")
		m.set("dfs.write_s", write.Seconds(), "s")
	}
	clusterCounters(m, b.tracedCtr)
	return nil
}

// workersFor mirrors the engine's task parallelism: GOMAXPROCS capped by
// the cluster's slots.
func workersFor(c mapreduce.Cluster) int {
	return max(1, min(runtime.GOMAXPROCS(0), c.TotalSlots()))
}

const alg3Input = "/in/reads.fa"

// newAlg3Bench is the paper's Algorithm 3 Pig script text with exact
// all-pairs candidates: both the average-linkage hierarchical branch and
// the greedy branch, k=5, n=50, θ=0.9, on 8 simulated nodes. The script's
// sketch UDF hashes modulo a prime, not with minhash.Sketcher.
func newAlg3Bench(cfg runConfig) bench {
	b := &batchBench{
		cfg:       cfg,
		spec:      corpusSpec{groups: 50, members: 10, length: 100, mutRate: 0.002},
		sketch:    sketchParams{k: 5, n: 50, seed: hashSeed, est: minhash.SetOverlap},
		cluster:   mapreduce.DefaultCluster,
		spans:     newSpanTotals(),
		ownSketch: true,
	}
	if cfg.tiny {
		b.spec.groups = 6
	}
	var fs *dfs.FileSystem
	newFS := func() (*dfs.FileSystem, error) {
		return dfs.New(dfs.Config{NumDataNodes: b.cluster.Nodes, BlockSize: 64 << 10, Replication: 3})
	}
	b.stage = func() error {
		var err error
		if fs, err = newFS(); err != nil {
			return err
		}
		return fs.WriteFile(alg3Input, b.in.fastaBytes())
	}
	iter := 0
	b.pipeline = func(rec *trace.Recorder) (batchOut, error) {
		iter++
		out := fmt.Sprintf("/out/%d", iter)
		res, err := core.RunScriptTraced(fs, b.cluster, core.ScriptParams{
			Input: alg3Input, Output1: out + "/hierarchical", Output2: out + "/greedy",
			K: b.sketch.k, NumHash: b.sketch.n, Link: "average", Cutoff: 0.9,
		}, hashSeed, rec)
		fs.SetTrace(nil) // a traced run leaves its recorder attached
		fs.RemoveAll(out)
		if err != nil {
			return batchOut{}, err
		}
		hier, err := core.LabelsToClustering(res.Hierarchical, b.ids)
		if err != nil {
			return batchOut{}, err
		}
		greedy, err := core.LabelsToClustering(res.Greedy, b.ids)
		if err != nil {
			return batchOut{}, err
		}
		return batchOut{labels: []metrics.Clustering{hier, greedy}, virtual: res.Virtual}, nil
	}
	// The DFS layer is timed on a file system of the same geometry:
	// staging the corpus (write) and loading it back (read).
	b.dfsIO = func() (time.Duration, time.Duration, error) {
		data := b.in.fastaBytes()
		var reads, writes []float64
		for i := 0; i < 5; i++ {
			scratch, err := newFS()
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			if err := scratch.WriteFile(alg3Input, data); err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			if _, err := scratch.ReadFile(alg3Input); err != nil {
				return 0, 0, err
			}
			reads = append(reads, time.Since(t1).Seconds())
			writes = append(writes, t1.Sub(t0).Seconds())
		}
		return time.Duration(median(reads) * 1e9), time.Duration(median(writes) * 1e9), nil
	}
	return b
}

// newLSHBench is core.Run with banded LSH candidates and log-round
// connected components on 65,530 100-bp reads in planted groups of 10:
// k=8, n=24, 4×6 banding, 4 simulated nodes.
func newLSHBench(cfg runConfig) bench {
	b := &batchBench{
		cfg:     cfg,
		spec:    corpusSpec{groups: 6553, members: 10, length: 100, mutRate: 0.004},
		sketch:  sketchParams{k: 8, n: 24, seed: hashSeed, est: minhash.SetOverlap},
		cluster: mapreduce.Cluster{Nodes: 4, SlotsPerNode: 2, Cost: mapreduce.DefaultCostModel},
		spans:   newSpanTotals(),
	}
	if cfg.tiny {
		b.spec.groups = 40
	}
	b.pipeline = func(rec *trace.Recorder) (batchOut, error) {
		res, err := core.Run(b.in.reads, core.Options{
			K: b.sketch.k, NumHashes: b.sketch.n, Theta: 0.9, Mode: core.GreedyMode,
			Candidate: core.CandidateLSH, LSH: cluster.LSHOptions{Bands: 4, Rows: 6},
			Seed: hashSeed, Cluster: b.cluster, Trace: rec,
		})
		if err != nil {
			return batchOut{}, err
		}
		return batchOut{labels: []metrics.Clustering{res.Assignments}, virtual: res.Virtual, counters: res.Counters}, nil
	}
	return b
}
