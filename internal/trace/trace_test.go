package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDisabledRecorderNoOp exercises every method on a nil recorder: all
// must be safe no-ops so call sites need no nil checks of their own.
func TestDisabledRecorderNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	ref := r.Begin(KindJob, "job")
	if ref.ID != 0 {
		t.Fatalf("nil Begin returned live ref %+v", ref)
	}
	r.End(ref)
	if id := r.Emit(Span{Kind: KindMap, Name: "m"}); id != 0 {
		t.Fatalf("nil Emit returned id %d", id)
	}
	r.AdvanceVirtual(time.Second)
	if got := r.VirtualNow(); got != 0 {
		t.Fatalf("nil VirtualNow = %v", got)
	}
	if got := r.RealNow(); got != 0 {
		t.Fatalf("nil RealNow = %v", got)
	}
	if r.Len() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder holds spans")
	}
}

// TestDisabledRecorderZeroAlloc pins the disabled path's allocation count
// to zero — the property that keeps benchmarks honest when tracing is off.
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		ref := r.Begin(KindJob, "job")
		r.Emit(Span{Kind: KindMap})
		r.AdvanceVirtual(time.Second)
		_ = r.VirtualNow()
		r.End(ref)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocates %v per op cycle, want 0", allocs)
	}
}

// TestBeginEndNesting checks parent wiring and virtual-duration accounting
// through a job-in-operator shape.
func TestBeginEndNesting(t *testing.T) {
	r := New()
	op := r.Begin(KindPigOp, "FOREACH B")
	job := r.Begin(KindJob, "foreach-B")
	task := r.Emit(Span{Kind: KindMap, Name: "map[0]", Node: 2, VStart: r.VirtualNow(), VDur: time.Second})
	r.AdvanceVirtual(3 * time.Second)
	r.End(job)
	r.AdvanceVirtual(2 * time.Second)
	r.End(op)

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byID := map[int64]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	if byID[job.ID].Parent != op.ID {
		t.Fatalf("job parent = %d, want %d", byID[job.ID].Parent, op.ID)
	}
	if byID[task].Parent != job.ID {
		t.Fatalf("task parent = %d, want %d", byID[task].Parent, job.ID)
	}
	if got := byID[job.ID].VDur; got != 3*time.Second {
		t.Fatalf("job VDur = %v, want 3s", got)
	}
	if got := byID[op.ID].VDur; got != 5*time.Second {
		t.Fatalf("op VDur = %v, want 5s", got)
	}
	if got := r.VirtualNow(); got != 5*time.Second {
		t.Fatalf("virtual clock = %v, want 5s", got)
	}
}

// TestConcurrentEmit hammers one recorder from many goroutines — the
// engine's worker-pool shape — and must pass under -race.
func TestConcurrentEmit(t *testing.T) {
	const goroutines = 16
	const perG = 200
	r := New()
	job := r.Begin(KindJob, "stress")
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Emit(Span{Kind: KindMap, Name: "m", Node: g, Records: 1})
				_ = r.VirtualNow()
				if i%50 == 0 {
					_ = r.Spans()
				}
			}
		}(g)
	}
	wg.Wait()
	r.AdvanceVirtual(time.Second)
	r.End(job)

	spans := r.Spans()
	if want := goroutines*perG + 1; len(spans) != want {
		t.Fatalf("got %d spans, want %d", len(spans), want)
	}
	seen := map[int64]bool{}
	for _, s := range spans {
		if s.ID == 0 {
			t.Fatal("span with zero ID")
		}
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
		if s.Kind == KindMap && s.Parent != job.ID {
			t.Fatalf("worker span parent = %d, want %d", s.Parent, job.ID)
		}
	}
}

// TestEndOutOfOrder verifies that End on an outer span pops inner spans
// left open (error-path robustness).
func TestEndOutOfOrder(t *testing.T) {
	r := New()
	outer := r.Begin(KindPigOp, "op")
	_ = r.Begin(KindJob, "inner") // never ended: simulated error path
	r.End(outer)
	if id := r.Emit(Span{Kind: KindDFSRead}); id == 0 {
		t.Fatal("emit failed after out-of-order end")
	}
	spans := r.Spans()
	if got := spans[len(spans)-1].Parent; got != 0 {
		t.Fatalf("post-End emit parent = %d, want 0 (stack cleared)", got)
	}
}

// TestUtilizationSummary checks the busy-time math and that child spans do
// not double-count.
func TestUtilizationSummary(t *testing.T) {
	spans := []Span{
		{ID: 1, Kind: KindJob, Name: "j", Node: -1, VStart: 0, VDur: 10 * time.Second},
		{ID: 2, Kind: KindMap, Name: "m0", Node: 0, VStart: 0, VDur: 4 * time.Second},
		{ID: 3, Kind: KindMap, Name: "m1", Node: 1, VStart: 0, VDur: 8 * time.Second},
		{ID: 4, Kind: KindReduce, Name: "r0", Node: 0, VStart: 4 * time.Second, VDur: 2 * time.Second},
		// shuffle child inside r0's window: must not add busy time
		{ID: 5, Kind: KindShuffle, Name: "s0", Node: 0, VStart: 4 * time.Second, VDur: time.Second},
	}
	nodes, makespan := Utilization(spans)
	if makespan != 10*time.Second {
		t.Fatalf("makespan = %v, want 10s", makespan)
	}
	if len(nodes) != 2 {
		t.Fatalf("got %d nodes, want 2", len(nodes))
	}
	if nodes[0].Node != 0 || nodes[0].Busy != 6*time.Second || nodes[0].Tasks != 2 {
		t.Fatalf("node 0 = %+v, want busy 6s over 2 tasks", nodes[0])
	}
	if nodes[1].Node != 1 || nodes[1].Busy != 8*time.Second {
		t.Fatalf("node 1 = %+v, want busy 8s", nodes[1])
	}
	text := UtilizationSummary(spans)
	for _, want := range []string{"virtual makespan 10s", "node", "60%", "80%"} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary missing %q:\n%s", want, text)
		}
	}
}

// TestUtilizationSummaryEmpty keeps the no-spans path readable.
func TestUtilizationSummaryEmpty(t *testing.T) {
	if text := UtilizationSummary(nil); !strings.Contains(text, "no node-attributed") {
		t.Fatalf("empty summary = %q", text)
	}
}

// TestKindNamesAreDistinct checks that every kind exports under its own
// name and that a value past the last kind reads "unknown".
func TestKindNamesAreDistinct(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindJob; k <= KindSnapshot; k++ {
		name := k.String()
		if name == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, ok := seen[name]; ok {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := (KindSnapshot + 1).String(); got != "unknown" {
		t.Errorf("kind past the last reads %q", got)
	}
}
