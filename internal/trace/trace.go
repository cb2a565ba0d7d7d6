// Package trace is the observability layer of the simulated Hadoop stack:
// a low-overhead span recorder that the MapReduce engine feeds with one
// span per task (map, combine, shuffle transfer, sort, reduce), the DFS
// feeds with block-level I/O events, and the Pig interpreter feeds with
// one span per logical operator — so a whole Algorithm-3 run yields a
// single nested timeline on the virtual cluster clock.
//
// Spans carry two time axes. The virtual axis (VStart/VDur) is the
// simulated cluster's modelled wall clock — the quantity behind the
// paper's Figure 2 — advanced by the engine as jobs complete. The real
// axis (RStart/RDur) is measured local execution time, useful for finding
// where the simulation itself burns cycles.
//
// Every method is nil-safe: a nil *Recorder is the disabled state and all
// operations on it are allocation-free no-ops, so production and benchmark
// paths pay nothing when tracing is off.
package trace

import (
	"sync"
	"time"
)

// Kind classifies a span.
type Kind uint8

// Span kinds, one per instrumented stage of the stack.
const (
	KindJob Kind = iota
	KindMap
	KindCombine
	KindShuffle
	KindSort
	KindReduce
	KindDFSRead
	KindDFSWrite
	KindPigOp
	KindCommit
	KindSpill
	KindMerge
	KindIngest
	KindSnapshot
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case KindJob:
		return "job"
	case KindMap:
		return "map"
	case KindCombine:
		return "combine"
	case KindShuffle:
		return "shuffle"
	case KindSort:
		return "sort"
	case KindReduce:
		return "reduce"
	case KindDFSRead:
		return "dfs.read"
	case KindDFSWrite:
		return "dfs.write"
	case KindPigOp:
		return "pig.op"
	case KindCommit:
		return "commit"
	case KindSpill:
		return "spill"
	case KindMerge:
		return "merge"
	case KindIngest:
		return "ingest"
	case KindSnapshot:
		return "snapshot"
	default:
		return "unknown"
	}
}

// Span is one recorded event or interval.
type Span struct {
	// ID is unique within a recorder; Parent is the enclosing span's ID
	// (0 = root).
	ID     int64
	Parent int64
	Kind   Kind
	// Name labels the span (job name, "map[3]", operator text, DFS path).
	Name string
	// Node is the simulated cluster/datanode id the work ran on; -1 means
	// the driver or an unplaced event.
	Node int
	// Records and Bytes quantify the work (input records, moved bytes).
	Records int64
	Bytes   int64
	// Detail carries small freeform context (a DFS path, "local"/"remote",
	// a fault-injection failure reason).
	Detail string
	// Attempt is the 1-based task attempt number on faulted runs (0 when
	// fault injection is off — the span is the only attempt).
	Attempt int
	// Status is the attempt outcome on faulted runs ("success", "crashed",
	// "killed"; empty means success).
	Status string
	// VStart/VDur locate the span on the virtual cluster timeline.
	VStart time.Duration
	VDur   time.Duration
	// RStart/RDur locate the span on the real timeline, as offsets from
	// the recorder's creation.
	RStart time.Duration
	RDur   time.Duration
}

// SpanRef identifies an open span returned by Begin. The zero value is
// invalid and End ignores it.
type SpanRef struct {
	// ID is the referenced span's ID (0 when the recorder is disabled).
	ID  int64
	idx int64 // spans index + 1
}

// Recorder accumulates spans. It is safe for concurrent use: the engine's
// worker pool, the DFS and the Pig driver may all emit into one recorder.
// A nil Recorder is disabled; all methods are no-ops on it.
type Recorder struct {
	mu     sync.Mutex
	start  time.Time
	spans  []Span
	nextID int64
	vclock time.Duration
	stack  []int64 // open Begin spans, innermost last
}

// New returns an empty, enabled recorder.
func New() *Recorder {
	return &Recorder{start: time.Now(), nextID: 1}
}

// Enabled reports whether the recorder collects spans. Call sites guard
// expensive span construction (fmt.Sprintf names, per-task timestamps)
// behind it so the disabled path stays allocation-free.
func (r *Recorder) Enabled() bool { return r != nil }

// VirtualNow returns the current position of the virtual cluster clock.
func (r *Recorder) VirtualNow() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vclock
}

// AdvanceVirtual moves the virtual clock forward by d (one job's modelled
// duration). The engine calls this once per completed job.
func (r *Recorder) AdvanceVirtual(d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.mu.Lock()
	r.vclock += d
	r.mu.Unlock()
}

// RealNow returns the offset of the real clock from the recorder's start,
// suitable for Span.RStart.
func (r *Recorder) RealNow() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Begin opens a nested span at the current virtual and real clocks and
// makes it the parent of spans emitted until the matching End. Begin/End
// pairs must come from one goroutine at a time (the engine's job level and
// the Pig driver's statement level are both sequential); Emit may be
// called concurrently from any worker goroutine in between.
func (r *Recorder) Begin(kind Kind, name string) SpanRef {
	if r == nil {
		return SpanRef{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.nextID
	r.nextID++
	var parent int64
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, Span{
		ID:     id,
		Parent: parent,
		Kind:   kind,
		Name:   name,
		Node:   -1,
		VStart: r.vclock,
		RStart: time.Since(r.start),
	})
	r.stack = append(r.stack, id)
	return SpanRef{ID: id, idx: int64(len(r.spans))}
}

// End closes a span opened by Begin: its virtual duration is the clock
// advance since Begin and its real duration the elapsed local time.
func (r *Recorder) End(ref SpanRef) {
	if r == nil || ref.idx == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[ref.idx-1]
	sp.VDur = r.vclock - sp.VStart
	sp.RDur = time.Since(r.start) - sp.RStart
	// Pop the span (and anything left open above it) off the parent stack.
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == sp.ID {
			r.stack = r.stack[:i]
			break
		}
	}
}

// SetDetail sets the Detail of a span opened by Begin.
func (r *Recorder) SetDetail(ref SpanRef, detail string) {
	if r == nil || ref.idx == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[ref.idx-1].Detail = detail
}

// Emit records a completed span. The ID is assigned by the recorder; a
// zero Parent inherits the innermost open Begin span.
func (r *Recorder) Emit(s Span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = r.nextID
	r.nextID++
	if s.Parent == 0 {
		if n := len(r.stack); n > 0 {
			s.Parent = r.stack[n-1]
		}
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a snapshot copy of all recorded spans in emission order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}
