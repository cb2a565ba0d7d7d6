package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/sigstore"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// layerMetrics is every per-layer metric a traced run reports, with its
// unit. A layer the workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"minhash.sketch_ns_per_read", "ns"},
	{"minhash.ns_per_hash_eval", "ns"},
	{"sigstore.resident_bytes", "bytes"},
	{"sigstore.put_ns_per_read", "ns"},
	{"mapreduce.map_s", "s"},
	{"mapreduce.combine_s", "s"},
	{"mapreduce.shuffle_s", "s"},
	{"mapreduce.sort_s", "s"},
	{"mapreduce.reduce_s", "s"},
	{"mapreduce.spill_s", "s"},
	{"mapreduce.merge_s", "s"},
	{"mapreduce.driver_s", "s"},
	{"dfs.read_s", "s"},
	{"dfs.write_s", "s"},
	{"mapreduce.jobs", "count"},
	{"mapreduce.shuffle_bytes", "bytes"},
	{"mapreduce.map_records", "count"},
	{"mapreduce.reduce_records", "count"},
	{"mapreduce.spills", "count"},
	{"mapreduce.virtual_map_s", "s"},
	{"mapreduce.virtual_reduce_s", "s"},
	{"pig.op_s.LOAD", "s"},
	{"pig.op_s.FOREACH", "s"},
	{"pig.op_s.GROUP", "s"},
	{"pig.op_s.STORE", "s"},
	{"cluster.candidate_pairs", "count"},
	{"cluster.edges", "count"},
	{"cluster.bucket_overflow", "count"},
	{"cluster.cc_rounds", "count"},
	{"cluster.cc_active_edges", "count"},
	{"cluster.verify_yield", "ratio"},
	{"cluster.similarity_ns_per_pair", "ns"},
	{"serve.decode_us", "us"},
	{"serve.sketch_us", "us"},
	{"serve.commit_ms", "ms"},
	{"serve.wal_append_us", "us"},
	{"serve.wal_sync_us", "us"},
	{"serve.apply_publish_ms", "ms"},
	{"serve.queue_http_ms", "ms"},
	{"serve.submit_p99_ms", "ms"},
	{"serve.drain_s", "s"},
	{"serve.point_lookup_ns", "ns"},
	{"serve.clusters_us", "us"},
	{"serve.diversity_us", "us"},
	{"serve.shed", "count"},
	{"serve.deadline_exceeded", "count"},
	{"serve.write_errors", "count"},
	{"serve.duplicates", "count"},
	{"serve.sig_bytes", "bytes"},
	{"serve.rss_bytes_per_read", "bytes"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_s", "s"},
	{"runtime.cpu_util", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// completeLayers fills the layers a workload does not exercise with 0 and
// rejects a metric reported under a unit other than its declared one.
func completeLayers(m metricSet) error {
	for _, lm := range layerMetrics {
		got, ok := m[lm.name]
		if !ok {
			m.set(lm.name, 0, lm.unit)
			continue
		}
		if got.Unit != lm.unit {
			return fmt.Errorf("metric %s reported in %s, declared in %s", lm.name, got.Unit, lm.unit)
		}
	}
	return nil
}

// sketchParams is a workload's sketch geometry.
type sketchParams struct {
	k, n      int
	canonical bool
	seed      int64
	est       minhash.Estimator
}

// sketchLayer times Extractor.SliceInto + Sketcher.SketchInto over the
// workload's own reads (median of three passes) and returns the
// signatures for the layers downstream of the sketch.
func sketchLayer(m metricSet, reads []fasta.Record, p sketchParams) ([]minhash.Signature, error) {
	sk, err := minhash.NewSketcher(p.n, p.k, p.seed)
	if err != nil {
		return nil, err
	}
	ex := &kmer.Extractor{K: p.k, Canonical: p.canonical}
	sigs := make([]minhash.Signature, len(reads))
	var kms []uint64
	var evals int64
	var passes []float64
	for pass := 0; pass < 3; pass++ {
		evals = 0
		t0 := time.Now()
		for i, r := range reads {
			kms = ex.SliceInto(kms[:0], r.Seq)
			sigs[i] = sk.SketchInto(sigs[i], kms)
			evals += int64(len(kms))
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds()))
	}
	ns := median(passes)
	m.set("minhash.sketch_ns_per_read", ns/float64(len(reads)), "ns")
	m.set("minhash.ns_per_hash_eval", ns/float64(evals*int64(p.n)), "ns")
	return sigs, nil
}

// sigstoreLayer puts the signatures into a fresh full-width store, the
// configuration the pipelines and the daemon run with.
func sigstoreLayer(m metricSet, ids []string, sigs []minhash.Signature) error {
	var passes []float64
	var resident int64
	for pass := 0; pass < 3; pass++ {
		st, err := sigstore.New(sigstore.Config{NumHashes: len(sigs[0])})
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i, sig := range sigs {
			if err := st.Put(st.Translator().Translate(ids[i]), sig); err != nil {
				return err
			}
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds()))
		resident = st.ResidentBytes()
	}
	m.set("sigstore.put_ns_per_read", median(passes)/float64(len(sigs)), "ns")
	m.set("sigstore.resident_bytes", float64(resident), "bytes")
	return nil
}

// similarityLayer times the prepared similarity kernel every clustering
// path verifies pairs with, over neighbouring pairs of the workload's
// signatures.
func similarityLayer(m metricSet, sigs []minhash.Signature, est minhash.Estimator) {
	n := min(len(sigs), 4096)
	prep := minhash.PrepareAll(sigs[:n])
	const window = 32
	var passes []float64
	var pairs int
	var sink float64
	for pass := 0; pass < 3; pass++ {
		pairs = 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n && j <= i+window; j++ {
				sink += est.SimilarityPrepared(prep[i], prep[j])
				pairs++
			}
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds()))
	}
	if sink < 0 {
		panic("negative similarity") // keeps the kernel calls live
	}
	m.set("cluster.similarity_ns_per_pair", median(passes)/float64(max(pairs, 1)), "ns")
}

// spanTotals folds the program's trace spans across traced iterations.
type spanTotals struct {
	iters                                                 int
	self                                                  map[trace.Kind]time.Duration
	pig                                                   map[string]time.Duration
	driver, vMap, vReduce                                 time.Duration
	jobs, shuffleBytes, mapRecords, reduceRecords, spills int64
}

func newSpanTotals() *spanTotals {
	return &spanTotals{self: map[trace.Kind]time.Duration{}, pig: map[string]time.Duration{}}
}

// add folds one traced iteration's spans. Self time on the real axis is
// a span's duration minus its children's. The engine runs a job's tasks
// on workers goroutines, so the driver's serial share of a job is its
// wall time minus its task time spread over the workers.
func (t *spanTotals) add(spans []trace.Span, workers int) {
	t.iters++
	children := map[int64]time.Duration{}
	tasks := map[int64]time.Duration{}
	type window struct{ start, end time.Duration }
	mapPhase := map[int64]*window{}
	reducePhase := map[int64]*window{}
	widen := func(ws map[int64]*window, job int64, s trace.Span) {
		w, ok := ws[job]
		if !ok {
			ws[job] = &window{s.VStart, s.VStart + s.VDur}
			return
		}
		w.start = min(w.start, s.VStart)
		w.end = max(w.end, s.VStart+s.VDur)
	}
	for _, s := range spans {
		children[s.Parent] += s.RDur
		switch s.Kind {
		case trace.KindMap:
			tasks[s.Parent] += s.RDur
			t.mapRecords += s.Records
			widen(mapPhase, s.Parent, s)
		case trace.KindCombine:
			tasks[s.Parent] += s.RDur
		case trace.KindReduce:
			tasks[s.Parent] += s.RDur
			t.reduceRecords += s.Records
			widen(reducePhase, s.Parent, s)
		case trace.KindShuffle:
			t.shuffleBytes += s.Bytes
		case trace.KindSpill:
			t.spills++
		}
	}
	for _, s := range spans {
		switch s.Kind {
		case trace.KindJob:
			t.jobs++
			if serial := s.RDur - tasks[s.ID]/time.Duration(workers); serial > 0 {
				t.driver += serial
			}
		case trace.KindPigOp:
			t.pig[pigOperator(s.Name)] += s.RDur
		default:
			if self := s.RDur - children[s.ID]; self > 0 {
				t.self[s.Kind] += self
			}
		}
	}
	for _, w := range mapPhase {
		t.vMap += w.end - w.start
	}
	for _, w := range reducePhase {
		t.vReduce += w.end - w.start
	}
}

// pigOperator extracts the operator keyword from a pig.op span name
// ("B = FOREACH A", "STORE K INTO '...'").
func pigOperator(name string) string {
	if _, rhs, ok := strings.Cut(name, " = "); ok {
		name = rhs
	}
	op, _, _ := strings.Cut(name, " ")
	return op
}

// report sets the mapreduce.* and pig.* metrics, per traced iteration.
func (t *spanTotals) report(m metricSet) {
	n := float64(max(t.iters, 1))
	secs := func(d time.Duration) float64 { return d.Seconds() / n }
	for _, k := range []struct {
		kind trace.Kind
		name string
	}{
		{trace.KindMap, "map"}, {trace.KindCombine, "combine"}, {trace.KindShuffle, "shuffle"},
		{trace.KindSort, "sort"}, {trace.KindReduce, "reduce"}, {trace.KindSpill, "spill"},
		{trace.KindMerge, "merge"},
	} {
		m.set("mapreduce."+k.name+"_s", secs(t.self[k.kind]), "s")
	}
	m.set("mapreduce.driver_s", secs(t.driver), "s")
	m.set("mapreduce.jobs", float64(t.jobs)/n, "count")
	m.set("mapreduce.shuffle_bytes", float64(t.shuffleBytes)/n, "bytes")
	m.set("mapreduce.map_records", float64(t.mapRecords)/n, "count")
	m.set("mapreduce.reduce_records", float64(t.reduceRecords)/n, "count")
	m.set("mapreduce.spills", float64(t.spills)/n, "count")
	m.set("mapreduce.virtual_map_s", secs(t.vMap), "s")
	m.set("mapreduce.virtual_reduce_s", secs(t.vReduce), "s")
	for _, op := range []string{"LOAD", "FOREACH", "GROUP", "STORE"} {
		m.set("pig.op_s."+op, secs(t.pig[op]), "s")
	}
}

// clusterCounters reports the LSH candidate and connected-components
// counters of a pipeline result (nil on the exact path).
func clusterCounters(m metricSet, ctr map[string]int64) {
	pairs, edges := ctr["lsh.candidate_pairs"], ctr["lsh.edges"]
	m.set("cluster.candidate_pairs", float64(pairs), "count")
	m.set("cluster.edges", float64(edges), "count")
	m.set("cluster.bucket_overflow", float64(ctr["lsh.bucket_overflow"]), "count")
	m.set("cluster.cc_rounds", float64(ctr["cc.rounds"]), "count")
	m.set("cluster.cc_active_edges", float64(ctr["cc.active_edges"]), "count")
	yield := 0.0
	if pairs > 0 {
		yield = float64(edges) / float64(pairs)
	}
	m.set("cluster.verify_yield", yield, "ratio")
}
