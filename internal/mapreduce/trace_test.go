package mapreduce

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/trace"
)

// wordJob builds a small full-MR job (word count) over n words.
func wordJob(n int) *Job[string, string, int] {
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i%7)
	}
	return &Job[string, string, int]{
		Name:      "wordcount",
		Input:     words,
		splitSize: 8,
		Map: func(w string, emit func(string, int)) error {
			emit(w, 1)
			return nil
		},
		Combine: func(key string, values []int, emit func(string, int)) error {
			emit(key, len(values))
			return nil
		},
		Reduce: func(key string, values []int, emit func(string, int)) error {
			total := 0
			for _, v := range values {
				total += v
			}
			emit(key, total)
			return nil
		},
	}
}

// TestEngineTraceSpans runs a traced job and checks the span set: one job
// span, one map span per split with a node placement, shuffle/sort/reduce
// spans per partition, and virtual-time consistency with Result.Virtual.
func TestEngineTraceSpans(t *testing.T) {
	c := Cluster{Nodes: 4, SlotsPerNode: 2, Cost: DefaultCostModel}
	e := MustEngine(c)
	rec := trace.New()
	e.Trace = rec

	res, err := run(e, wordJob(64))
	if err != nil {
		t.Fatal(err)
	}

	spans := rec.Spans()
	byKind := map[trace.Kind][]trace.Span{}
	for _, s := range spans {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	if len(byKind[trace.KindJob]) != 1 {
		t.Fatalf("got %d job spans, want 1", len(byKind[trace.KindJob]))
	}
	job := byKind[trace.KindJob][0]
	if job.VDur != res.Virtual {
		t.Fatalf("job span VDur = %v, Result.Virtual = %v", job.VDur, res.Virtual)
	}
	if got := len(byKind[trace.KindMap]); got != res.MapTasks {
		t.Fatalf("got %d map spans, want %d", got, res.MapTasks)
	}
	if got := len(byKind[trace.KindCombine]); got != res.MapTasks {
		t.Fatalf("got %d combine spans, want %d", got, res.MapTasks)
	}
	for _, k := range []trace.Kind{trace.KindReduce, trace.KindShuffle, trace.KindSort} {
		if got := len(byKind[k]); got != res.ReduceTask {
			t.Fatalf("got %d %v spans, want %d", got, k, res.ReduceTask)
		}
	}
	var records int64
	for _, s := range byKind[trace.KindMap] {
		if s.Parent != job.ID {
			t.Fatalf("map span parent = %d, want job %d", s.Parent, job.ID)
		}
		if s.Node < 0 || s.Node >= c.Nodes {
			t.Fatalf("map span node %d out of range", s.Node)
		}
		if end := s.VStart + s.VDur; end > job.VStart+job.VDur {
			t.Fatalf("map span ends at %v, after job end %v", end, job.VStart+job.VDur)
		}
		records += s.Records
	}
	if records != 64 {
		t.Fatalf("map spans carry %d records, want 64", records)
	}
	var shuffled int64
	for _, s := range byKind[trace.KindShuffle] {
		shuffled += s.Bytes
	}
	if want := res.Counters.Get(CounterShuffleBytes); shuffled != want {
		t.Fatalf("shuffle spans carry %d bytes, counters say %d", shuffled, want)
	}
	// Sort spans carry the measured reducer sort, a part of their reduce
	// span's real time.
	reduceRDur := map[int64]time.Duration{}
	for _, s := range byKind[trace.KindReduce] {
		reduceRDur[s.ID] = s.RDur
	}
	var sorted time.Duration
	for _, s := range byKind[trace.KindSort] {
		if s.RDur > reduceRDur[s.Parent] {
			t.Fatalf("sort span %q RDur %v exceeds its reduce span's %v", s.Name, s.RDur, reduceRDur[s.Parent])
		}
		sorted += s.RDur
	}
	if sorted <= 0 {
		t.Fatalf("sort spans carry no real duration")
	}
	// The recorder's virtual clock advanced by exactly the job's duration.
	if got := rec.VirtualNow(); got != res.Virtual {
		t.Fatalf("virtual clock = %v, want %v", got, res.Virtual)
	}

	// A second job stacks after the first on the virtual timeline.
	res2, err := run(e, wordJob(16))
	if err != nil {
		t.Fatal(err)
	}
	spans = rec.Spans()
	last := spans[len(spans)-1]
	var job2 trace.Span
	for _, s := range spans {
		if s.Kind == trace.KindJob && s.ID != job.ID {
			job2 = s
		}
	}
	if job2.VStart != res.Virtual {
		t.Fatalf("second job starts at %v, want %v", job2.VStart, res.Virtual)
	}
	if got := rec.VirtualNow(); got != res.Virtual+res2.Virtual {
		t.Fatalf("virtual clock = %v, want %v", got, res.Virtual+res2.Virtual)
	}
	_ = last

	// The utilization summary sees the node-attributed task spans.
	sum := trace.UtilizationSummary(spans)
	if !strings.Contains(sum, "node") {
		t.Fatalf("summary missing node rows:\n%s", sum)
	}
}

// TestEngineTraceMapOnly checks the map-only job path emits no reduce-side
// spans.
func TestEngineTraceMapOnly(t *testing.T) {
	e := MustEngine(Cluster{Nodes: 2, SlotsPerNode: 2, Cost: DefaultCostModel})
	rec := trace.New()
	e.Trace = rec
	job := wordJob(10)
	job.Combine, job.Reduce = nil, nil
	res, err := run(e, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.KindReduce, trace.KindShuffle, trace.KindSort, trace.KindCombine:
			t.Fatalf("map-only job emitted %v span %q", s.Kind, s.Name)
		}
	}
	if got := rec.VirtualNow(); got != res.Virtual {
		t.Fatalf("virtual clock = %v, want %v", got, res.Virtual)
	}
}

// TestEngineUntracedUnchanged pins the disabled-trace path: identical
// results and no spans.
func TestEngineUntracedUnchanged(t *testing.T) {
	e := MustEngine(Cluster{Nodes: 4, SlotsPerNode: 2, Cost: DefaultCostModel})
	res, err := run(e, wordJob(32))
	if err != nil {
		t.Fatal(err)
	}
	et := MustEngine(Cluster{Nodes: 4, SlotsPerNode: 2, Cost: DefaultCostModel})
	et.Trace = trace.New()
	res2, err := run(et, wordJob(32))
	if err != nil {
		t.Fatal(err)
	}
	if res.Virtual != res2.Virtual {
		t.Fatalf("tracing changed Virtual: %v vs %v", res.Virtual, res2.Virtual)
	}
	if len(res.Output) != len(res2.Output) {
		t.Fatalf("tracing changed output size: %d vs %d", len(res.Output), len(res2.Output))
	}
}
