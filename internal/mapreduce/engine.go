package mapreduce

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// Result is the outcome of one job.
type Result struct {
	// Output holds the job's records. For jobs with a reducer the records
	// are grouped by partition and sorted by key within each partition
	// (Hadoop part-file order); for map-only jobs they follow input order.
	Output []KeyValue
	// Counters are the engine and user counters.
	Counters *Counters
	// Virtual is the modelled wall time on the simulated cluster.
	Virtual time.Duration
	// Real is the measured execution time on this machine.
	Real       time.Duration
	MapTasks   int
	ReduceTask int
	// Attempts is the full attempt log of a faulted run (nil when the
	// engine has no injector): every scheduled attempt with its node,
	// virtual window and outcome, re-executions included.
	Attempts []TaskAttempt
	// Blacklisted lists nodes blacklisted during the job.
	Blacklisted []int
}

// Engine executes jobs on a simulated cluster.
type Engine struct {
	Cluster Cluster
	// Workers caps real goroutine parallelism; 0 means
	// min(GOMAXPROCS, cluster slots). Run snapshots this value once at
	// entry: mutating Workers while a job is in flight does not affect
	// that job, only jobs started afterwards. (Counters needs no such
	// guard — it is mutex-protected and owned per Run call.)
	Workers int
	// Trace, when non-nil, receives one span per job, map task, combine,
	// shuffle partition transfer, sort and reduce task on the virtual
	// cluster timeline. A nil recorder costs nothing (all emission is
	// guarded, and trace methods are nil-safe no-ops).
	Trace *trace.Recorder
	// Faults, when non-nil and non-empty, injects failures into the
	// virtual schedule: injected task crashes retry with backoff, planned
	// node deaths kill running attempts and force re-execution of
	// completed maps, and failing nodes are blacklisted — all per Retry.
	// Job output is unaffected (recovery is lossless); only the virtual
	// timeline, counters and trace change.
	Faults *faults.Injector
	// Retry governs attempt budgets, backoff and blacklisting when Faults
	// is set; the zero value means DefaultRetryPolicy.
	Retry RetryPolicy
	// ShuffleBufferBytes caps each map task's sort buffer (Hadoop's
	// io.sort.mb) in every job with a reducer. Every such job runs the one
	// shuffle: map tasks partition their output into the buffer, and each
	// reducer sorts its partition stably by key. 0 — the default — leaves
	// the buffer unbounded: each task flushes once, in memory, with no
	// spill cost. A positive cap makes the buffer spill a segment (run
	// through the combiner, as Hadoop does) whenever it holds
	// approximately this many bytes, and charges the spill writes and the
	// reducers' modelled merge passes to the virtual clock. Output is
	// bit-identical at every cap for combiner-less jobs and for jobs
	// whose combiner is associative and commutative.
	ShuffleBufferBytes int
	// MergeFanIn caps how many spill segments one modelled reducer merge
	// pass reads (Hadoop's io.sort.factor); more segments force
	// intermediate merge passes, each charged spill I/O. 0 means
	// DefaultMergeFanIn.
	MergeFanIn int
}

// NewEngine returns an engine for the cluster.
func NewEngine(c Cluster) (*Engine, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Engine{Cluster: c}, nil
}

// MustEngine is NewEngine panicking on error.
func MustEngine(c Cluster) *Engine {
	e, err := NewEngine(c)
	if err != nil {
		panic(err)
	}
	return e
}

// workerCount resolves the real parallelism from the Workers field. Run
// calls this exactly once per job (see the Workers invariant above).
func (e *Engine) workerCount() int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if s := e.Cluster.TotalSlots(); s < w {
			w = s
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes the job and returns its result.
func (e *Engine) Run(job *Job) (*Result, error) {
	start := time.Now()
	if err := job.Validate(); err != nil {
		return nil, err
	}
	// Snapshot the parallelism once: Workers may be reconfigured between
	// jobs, never observed mid-job.
	workers := e.workerCount()
	rec := e.Trace
	splits := job.Input.Splits(e.Cluster)
	counters := NewCounters()
	numRed := job.NumReducers
	if numRed <= 0 {
		numRed = e.Cluster.Nodes
	}
	part := job.Partition
	if part == nil {
		part = DefaultPartition
	}

	jobRef := rec.Begin(trace.KindJob, job.Name)
	defer rec.End(jobRef)
	if job.Detail != "" {
		rec.SetDetail(jobRef, job.Detail)
	}
	// vbase anchors this job's task spans on the recorder's virtual clock.
	vbase := rec.VirtualNow()

	// An empty input yields zero splits: no tasks run, the output is empty
	// and nothing is charged to the virtual clock.
	if len(splits) == 0 {
		return &Result{Counters: counters, Real: time.Since(start)}, nil
	}

	// ----- Map phase -----
	// A job with a reducer emits into one shuffle buffer per map task; a
	// map-only job's output never crosses a sort buffer.
	var bufs []mapSpillBuffer
	var parts []spillPartition // task-major: task t's partition p is parts[t*numRed+p]
	var mapOuts [][]KeyValue
	if job.Reduce != nil {
		bufs = make([]mapSpillBuffer, len(splits))
		parts = make([]spillPartition, len(splits)*numRed)
	} else {
		mapOuts = make([][]KeyValue, len(splits))
	}
	var mapCosts []TaskCost
	for _, sp := range splits {
		mapCosts = append(mapCosts, e.Cluster.mapTaskCost(sp, job.MapCostFactor))
	}
	// The simulator places every task on the virtual cluster. It runs
	// before the real map work so a task that exhausts its retry budget
	// under an injector fails the job up front, as Hadoop would.
	inj := e.Faults
	if !inj.Enabled() {
		inj = nil
	}
	sim := newFaultSim(e.Cluster, inj, e.Retry, job.Name, vbase)
	mapTasks := sim.newTasks(mapCosts, 0)
	if err := sim.runPhase(faults.PhaseMap, mapTasks); err != nil {
		return nil, err
	}
	if job.Reduce != nil {
		// Map output lost to a node death during the map window must be
		// recomputed before reducers can fetch it.
		if err := sim.reexecuteMapsLostInMapWindow(mapTasks); err != nil {
			return nil, err
		}
	}
	// Per-task real durations of the map loop and of the buffer's final
	// flush (the combine on an unbounded buffer), recorded only when
	// tracing (indexed by task, so no locking needed).
	var mapReal, flushReal []time.Duration
	if rec.Enabled() {
		mapReal = make([]time.Duration, len(splits))
		flushReal = make([]time.Duration, len(splits))
	}
	if err := e.parallel(workers, len(splits), func(ti int) error {
		var t0 time.Time
		if rec.Enabled() {
			t0 = time.Now()
		}
		sp := splits[ti]
		var emit func(KeyValue)
		var buf *mapSpillBuffer
		if bufs != nil {
			buf = &bufs[ti]
			*buf = newMapSpillBuffer(job, e.ShuffleBufferBytes, parts[ti*numRed:(ti+1)*numRed], part, counters)
			emit = buf.add
		} else {
			emit = func(kv KeyValue) { mapOuts[ti] = append(mapOuts[ti], kv) }
		}
		for _, kv := range sp.Records {
			if err := job.Map(kv, emit); err != nil {
				return fmt.Errorf("mapreduce: job %q map task %d: %w", job.Name, ti, err)
			}
			if buf != nil && buf.err != nil {
				return buf.err
			}
		}
		counters.Add(CounterMapInputRecords, int64(len(sp.Records)))
		if buf == nil {
			counters.Add(CounterMapOutputRecords, int64(len(mapOuts[ti])))
		} else {
			counters.Add(CounterMapOutputRecords, buf.emitted)
		}
		if rec.Enabled() {
			mapReal[ti] = time.Since(t0)
			t0 = time.Now()
		}
		if buf != nil {
			if err := buf.close(); err != nil {
				return err
			}
		}
		if rec.Enabled() {
			flushReal[ti] = time.Since(t0)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	mapStart := vbase + e.Cluster.Cost.JobStartup
	if rec.Enabled() {
		e.emitMapAttempts(rec, jobRef, job, sim, mapTasks, splits, bufs, mapStart, mapReal, flushReal)
	}

	// Map-only job: concatenate map outputs in input order.
	if job.Reduce == nil {
		res := &Result{
			Output:   slices.Concat(mapOuts...),
			Counters: counters,
			MapTasks: len(splits),
		}
		return e.finish(res, sim, start), nil
	}

	// ----- Shuffle -----
	// The map tasks already partitioned their output, so each reducer
	// fetches its partition's segments in map-task order. A bounded
	// buffer's spill segments also get a modelled merge schedule.
	shuffleBytes := make([]int, numRed)
	partRecords := make([]int, numRed)
	var ext *extShuffle
	if e.ShuffleBufferBytes > 0 {
		ext = &extShuffle{
			segs:   make([]int, numRed),
			io:     make([]int64, numRed),
			passes: make([]int, numRed),
		}
	}
	for p := 0; p < numRed; p++ {
		var sizes []int64
		for t := range bufs {
			bp := &parts[t*numRed+p]
			shuffleBytes[p] += bp.bytes
			partRecords[p] += len(bp.recs)
			sizes = append(sizes, bp.segs...)
		}
		if ext != nil {
			_, mergeIO, passes := planMerge(sizes, e.MergeFanIn)
			ext.segs[p] = len(sizes)
			// Local-disk traffic charged to this reducer: the map-side
			// segment writes plus every merge-pass read and write.
			ext.io[p] = int64(shuffleBytes[p]) + mergeIO
			ext.passes[p] = passes
		}
	}
	for _, b := range shuffleBytes {
		counters.Add(CounterShuffleBytes, int64(b))
	}

	// ----- Reduce phase -----
	reduceOuts := make([][]KeyValue, numRed)
	var reduceCosts []TaskCost
	for p := 0; p < numRed; p++ {
		var spillIO int64
		if ext != nil {
			spillIO = ext.io[p]
		}
		reduceCosts = append(reduceCosts, e.Cluster.reduceTaskCost(partRecords[p], shuffleBytes[p], spillIO, job.ReduceCostFactor))
	}
	// Schedule the reduce phase before the real reduce work so a reducer
	// that exhausts its retry budget fails the job first.
	mapMakespan := maxTaskEnd(mapTasks)
	sim.barrier(mapMakespan)
	reduceTasks := sim.newTasks(reduceCosts, mapMakespan)
	if err := sim.runPhase(faults.PhaseReduce, reduceTasks); err != nil {
		return nil, err
	}
	// Nodes dying during the shuffle lose completed map output; Hadoop
	// re-executes those maps and reruns the fetching reducers.
	if err := sim.reexecuteMapsLostInShuffle(mapTasks, reduceTasks, shuffleBytes); err != nil {
		return nil, err
	}
	var reduceReal, sortReal []time.Duration
	if rec.Enabled() {
		reduceReal = make([]time.Duration, numRed)
		sortReal = make([]time.Duration, numRed)
	}
	if err := e.parallel(workers, numRed, func(p int) error {
		var t0 time.Time
		if rec.Enabled() {
			t0 = time.Now()
		}
		recs := make([]KeyValue, 0, partRecords[p])
		for t := range bufs {
			bp := &parts[t*numRed+p]
			recs = append(recs, bp.recs...)
			bp.recs = nil // fetched: the map side's copy can go
		}
		var s0 time.Time
		if rec.Enabled() {
			s0 = time.Now()
		}
		idx := sortPartition(recs)
		if rec.Enabled() {
			sortReal[p] = time.Since(s0)
		}
		var out []KeyValue
		emit := func(kv KeyValue) { out = append(out, kv) }
		groups, err := eachGroup(recs, idx, func(key string, values []any) error {
			if err := job.Reduce(key, values, emit); err != nil {
				return fmt.Errorf("mapreduce: job %q reduce partition %d key %q: %w", job.Name, p, key, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		counters.Add(CounterReduceInputGroups, int64(groups))
		counters.Add(CounterReduceInputRecords, int64(len(recs)))
		if ext != nil {
			counters.Add(CounterShuffleMergePasses, int64(ext.passes[p]))
		}
		counters.Add(CounterReduceOutput, int64(len(out)))
		reduceOuts[p] = out
		if rec.Enabled() {
			reduceReal[p] = time.Since(t0)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if rec.Enabled() {
		e.emitReduceAttempts(rec, jobRef, job, sim, reduceTasks, partRecords, shuffleBytes, ext, mapStart, reduceReal, sortReal)
	}

	res := &Result{
		Output:     slices.Concat(reduceOuts...),
		Counters:   counters,
		MapTasks:   len(splits),
		ReduceTask: numRed,
	}
	return e.finish(res, sim, start), nil
}

// finish stamps a completed job's times: its virtual span is job startup
// plus the simulated makespan, re-executions included. With an injector
// attached it also publishes the recovery counters and the attempt log.
func (e *Engine) finish(res *Result, sim *faultSim, start time.Time) *Result {
	res.Virtual = e.Cluster.Cost.JobStartup + sim.makespan()
	if sim.inj != nil {
		sim.recordCounters(res.Counters)
		res.Attempts = sim.attempts
		res.Blacklisted = sim.blacklistedNodes()
	}
	res.Real = time.Since(start)
	e.Trace.AdvanceVirtual(res.Virtual)
	return res
}

// extShuffle carries a bounded buffer's modelled merge, per partition,
// between the shuffle-planning, cost and trace stages of Run.
type extShuffle struct {
	segs   []int   // spill segments fetched
	io     []int64 // spill writes + merge read/write bytes
	passes []int
}

// emitSpills renders one map task's spill events as KindSpill children of
// its map span, stacked sequentially after the map window (the write-out
// of each buffer flush).
func (e *Engine) emitSpills(rec *trace.Recorder, parent int64, job *Job, buf *mapSpillBuffer, task, node int, vstart time.Duration) {
	for si, ev := range buf.events {
		d := time.Duration(float64(ev.bytes) * float64(e.Cluster.Cost.SpillPerByte))
		rec.Emit(trace.Span{
			Parent:  parent,
			Kind:    trace.KindSpill,
			Name:    fmt.Sprintf("%s/spill[%d.%d]", job.Name, task, si),
			Node:    node,
			Records: ev.records,
			Bytes:   ev.bytes,
			VStart:  vstart,
			VDur:    d,
		})
		vstart += d
	}
}

// emitMerge renders one reducer's merge phase as a KindMerge child of its
// reduce span, sized by the partition's total local-disk traffic.
func (e *Engine) emitMerge(rec *trace.Recorder, parent int64, job *Job, ext *extShuffle, p, node int, records int64, vstart time.Duration) {
	if ext.passes[p] == 0 {
		return
	}
	rec.Emit(trace.Span{
		Parent:  parent,
		Kind:    trace.KindMerge,
		Name:    fmt.Sprintf("%s/merge[%d]", job.Name, p),
		Node:    node,
		Records: records,
		Bytes:   ext.io[p],
		Detail:  fmt.Sprintf("passes=%d segments=%d", ext.passes[p], ext.segs[p]),
		VStart:  vstart,
		VDur:    time.Duration(float64(ext.io[p]) * float64(e.Cluster.Cost.SpillPerByte)),
	})
}

// emitMapAttempts renders the map phase: one span per attempt (on faulted
// runs crashed and killed ones included, with attempt number, status and
// reason) and, for the attempts whose output survived, spill spans from a
// bounded buffer or a combine span for an unbounded buffer's one flush.
// Real durations attach to final attempts only — that is the execution
// that actually ran on this machine.
func (e *Engine) emitMapAttempts(rec *trace.Recorder, jobRef trace.SpanRef, job *Job, sim *faultSim, tasks []*simTask, splits []InputSplit, bufs []mapSpillBuffer, mapStart time.Duration, mapReal, flushReal []time.Duration) {
	for i, a := range sim.attempts {
		if a.Phase != faults.PhaseMap {
			continue
		}
		sp := splits[a.Task]
		final := tasks[a.Task].final == i
		attempt, status := sim.spanAttempt(a)
		span := trace.Span{
			Parent:  jobRef.ID,
			Kind:    trace.KindMap,
			Name:    fmt.Sprintf("%s/map[%d]", job.Name, a.Task),
			Node:    a.Node,
			Records: int64(len(sp.Records)),
			Bytes:   int64(sp.Bytes),
			Detail:  a.Reason,
			Attempt: attempt,
			Status:  status,
			VStart:  mapStart + a.Start,
			VDur:    a.End - a.Start,
		}
		if final {
			span.RStart = rec.RealNow()
			span.RDur = mapReal[a.Task]
		}
		id := rec.Emit(span)
		if !final || bufs == nil {
			continue
		}
		// A bounded buffer combines inside each spill, so its combine work
		// shows up in the spill spans; an unbounded buffer's one flush is
		// the task's combine.
		buf := &bufs[a.Task]
		if buf.capBytes > 0 {
			e.emitSpills(rec, id, job, buf, a.Task, a.Node, mapStart+a.End)
			continue
		}
		if job.Combine != nil {
			var combined int
			for _, bp := range buf.parts {
				combined += len(bp.recs)
			}
			rec.Emit(trace.Span{
				Parent:  jobRef.ID,
				Kind:    trace.KindCombine,
				Name:    fmt.Sprintf("%s/combine[%d]", job.Name, a.Task),
				Node:    a.Node,
				Records: int64(combined),
				Attempt: attempt,
				VStart:  mapStart + a.End,
				RDur:    flushReal[a.Task],
			})
		}
	}
}

// emitReduceAttempts renders the reduce phase: every attempt as a span,
// with shuffle plus sort (unbounded buffer) or merge (bounded buffer)
// children on the surviving attempts. The reduce window models startup,
// then the shuffle transfer of the partition's bytes, then sort/merge +
// reduce compute, mirroring Hadoop's task phases. A sort span's real
// duration is the measured sort of its partition, part of the reduce
// span's.
func (e *Engine) emitReduceAttempts(rec *trace.Recorder, jobRef trace.SpanRef, job *Job, sim *faultSim, tasks []*simTask, partRecords []int, shuffleBytes []int, ext *extShuffle, mapStart time.Duration, reduceReal, sortReal []time.Duration) {
	for i, a := range sim.attempts {
		if a.Phase != faults.PhaseReduce {
			continue
		}
		p := a.Task
		final := tasks[p].final == i
		attempt, status := sim.spanAttempt(a)
		span := trace.Span{
			Parent:  jobRef.ID,
			Kind:    trace.KindReduce,
			Name:    fmt.Sprintf("%s/reduce[%d]", job.Name, p),
			Node:    a.Node,
			Records: int64(partRecords[p]),
			Bytes:   int64(shuffleBytes[p]),
			Detail:  a.Reason,
			Attempt: attempt,
			Status:  status,
			VStart:  mapStart + a.Start,
			VDur:    a.End - a.Start,
		}
		if final {
			span.RStart = rec.RealNow()
			span.RDur = reduceReal[p]
		}
		id := rec.Emit(span)
		if !final {
			continue
		}
		shufStart, shufEnd := sim.shuffleWindow(a, shuffleBytes[p])
		rec.Emit(trace.Span{
			Parent: id,
			Kind:   trace.KindShuffle,
			Name:   fmt.Sprintf("%s/shuffle[%d]", job.Name, p),
			Node:   a.Node,
			Bytes:  int64(shuffleBytes[p]),
			VStart: mapStart + shufStart,
			VDur:   shufEnd - shufStart,
		})
		if ext != nil {
			e.emitMerge(rec, id, job, ext, p, a.Node, int64(partRecords[p]), mapStart+shufEnd)
			continue
		}
		rec.Emit(trace.Span{
			Parent:  id,
			Kind:    trace.KindSort,
			Name:    fmt.Sprintf("%s/sort[%d]", job.Name, p),
			Node:    a.Node,
			Records: int64(partRecords[p]),
			Attempt: attempt,
			VStart:  mapStart + shufEnd,
			RDur:    sortReal[p],
		})
	}
}

// parallel runs fn(0..n-1) on a worker pool of the given size, stopping at
// the first error.
func (e *Engine) parallel(workers, n int, fn func(int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	grab := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if first != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := grab()
				if !ok {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
