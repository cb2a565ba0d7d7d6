package mapreduce

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// Result is the outcome of one job, apart from its output records.
type Result struct {
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
	// Trace, when non-nil, receives one span per job, map task, combine,
	// shuffle partition transfer, sort and reduce task on the virtual
	// cluster timeline. A nil recorder costs nothing (all emission is
	// guarded, and trace methods are nil-safe no-ops).
	Trace *trace.Recorder
	// Faults, when non-nil and non-empty, injects failures into the
	// virtual schedule: injected task crashes retry with backoff, planned
	// node deaths kill running attempts and force re-execution of
	// completed maps, and failing nodes are blacklisted — all per the
	// retry policy. Job output is unaffected (recovery is lossless); only
	// the virtual timeline, counters and trace change.
	Faults *faults.Injector
	// retry governs attempt budgets, backoff and blacklisting when Faults
	// is set; the zero value means defaultRetryPolicy.
	retry retryPolicy
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
	// mergeFanIn caps how many spill segments one modelled reducer merge
	// pass reads (Hadoop's io.sort.factor); more segments force
	// intermediate merge passes, each charged spill I/O. 0 means
	// defaultMergeFanIn.
	mergeFanIn int
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

// split is one map task's share of a job's input: records [lo, hi), of
// approximately bytes serialized bytes.
type split struct{ lo, hi, bytes int }

// splitInput cuts input into map-task splits of size records; size 0
// sizes splits so the cluster runs two waves of map tasks per slot,
// every slot getting work. An empty input yields zero splits (no phantom
// map task).
func splitInput[I any](c Cluster, input []I, size int) []split {
	if size <= 0 {
		waves := 2 * c.TotalSlots()
		size = max(1, (len(input)+waves-1)/waves)
	}
	bytes := sizer[I]()
	var splits []split
	for lo := 0; lo < len(input); lo += size {
		sp := split{lo: lo, hi: min(lo+size, len(input))}
		for _, r := range input[sp.lo:sp.hi] {
			sp.bytes += bytes(r)
		}
		splits = append(splits, sp)
	}
	return splits
}

// Run executes the job on the engine and returns its output records and
// its result. A job with a reducer outputs its records grouped by
// partition and sorted by key within each partition (Hadoop part-file
// order); a map-only job outputs them in input order.
func Run[I any, K Key, V any](e *Engine, job *Job[I, K, V]) ([]KeyValue[K, V], *Result, error) {
	start := time.Now()
	if err := job.Validate(); err != nil {
		return nil, nil, err
	}
	// Real goroutine parallelism: one worker per slot, up to GOMAXPROCS.
	workers := max(1, min(runtime.GOMAXPROCS(0), e.Cluster.TotalSlots()))
	rec := e.Trace
	splits := splitInput(e.Cluster, job.Input, job.splitSize)
	counters := NewCounters()
	numRed := job.NumReducers
	if numRed <= 0 {
		numRed = e.Cluster.Nodes
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
		return nil, &Result{Counters: counters, Real: time.Since(start)}, nil
	}

	// ----- Map phase -----
	// A job with a reducer emits into one shuffle buffer per map task; a
	// map-only job's output never crosses a sort buffer.
	var bufs []mapSpillBuffer[K, V]
	var parts []spillPartition[K, V] // task-major: task t's partition p is parts[t*numRed+p]
	var mapOuts []chunks[KeyValue[K, V]]
	var ops *shuffleOps[K, V]
	if job.Reduce != nil {
		bufs = make([]mapSpillBuffer[K, V], len(splits))
		parts = make([]spillPartition[K, V], len(splits)*numRed)
		ops = &shuffleOps[K, V]{partitioner[K](), sizer[K](), sizer[V](), job.Combine, job.Name}
	} else {
		mapOuts = make([]chunks[KeyValue[K, V]], len(splits))
	}
	var mapCosts []TaskCost
	for _, sp := range splits {
		mapCosts = append(mapCosts, e.Cluster.mapTaskCost(sp.hi-sp.lo, job.MapCostFactor))
	}
	// The simulator places every task on the virtual cluster. It runs
	// before the real map work so a task that exhausts its retry budget
	// under an injector fails the job up front, as Hadoop would.
	inj := e.Faults
	if !inj.Enabled() {
		inj = nil
	}
	sim := newFaultSim(e.Cluster, inj, e.retry, job.Name, vbase)
	mapTasks := sim.newTasks(mapCosts, 0)
	if err := sim.runPhase(faults.PhaseMap, mapTasks); err != nil {
		return nil, nil, err
	}
	if job.Reduce != nil {
		// Map output lost to a node death during the map window must be
		// recomputed before reducers can fetch it.
		if err := sim.reexecuteMapsLostInMapWindow(mapTasks); err != nil {
			return nil, nil, err
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
		var emit func(K, V)
		var buf *mapSpillBuffer[K, V]
		if bufs != nil {
			buf = &bufs[ti]
			*buf = mapSpillBuffer[K, V]{ops: ops, capBytes: e.ShuffleBufferBytes, parts: parts[ti*numRed : (ti+1)*numRed], counters: counters}
			emit = buf.add
		} else {
			out := &mapOuts[ti]
			emit = func(k K, v V) { out.add(KeyValue[K, V]{k, v}) }
		}
		for _, r := range job.Input[sp.lo:sp.hi] {
			if err := job.Map(r, emit); err != nil {
				return fmt.Errorf("mapreduce: job %q map task %d: %w", job.Name, ti, err)
			}
			if buf != nil && buf.err != nil {
				return buf.err
			}
		}
		counters.Add(CounterMapInputRecords, int64(sp.hi-sp.lo))
		if buf == nil {
			counters.Add(CounterMapOutputRecords, int64(mapOuts[ti].n))
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
		return nil, nil, err
	}

	mapStart := vbase + e.Cluster.Cost.JobStartup
	if rec.Enabled() {
		emitMapAttempts(e, rec, jobRef, job.Name, sim, mapTasks, splits, bufs, mapStart, mapReal, flushReal)
	}

	// Map-only job: concatenate map outputs in input order.
	if job.Reduce == nil {
		res := &Result{Counters: counters, MapTasks: len(splits)}
		return concat(mapOuts), e.finish(res, sim, start), nil
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
			partRecords[p] += bp.keys.n
			sizes = append(sizes, bp.segs...)
		}
		if ext != nil {
			_, mergeIO, passes := planMerge(sizes, e.mergeFanIn)
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
	reduceOuts := make([]chunks[KeyValue[K, V]], numRed)
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
		return nil, nil, err
	}
	// Nodes dying during the shuffle lose completed map output; Hadoop
	// re-executes those maps and reruns the fetching reducers.
	if err := sim.reexecuteMapsLostInShuffle(mapTasks, reduceTasks, shuffleBytes); err != nil {
		return nil, nil, err
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
		keys := make([]K, 0, partRecords[p])
		vals := make([]V, 0, partRecords[p])
		for t := range bufs {
			bp := &parts[t*numRed+p]
			keys, vals = bp.keys.appendTo(keys), bp.vals.appendTo(vals)
			bp.keys, bp.vals = chunks[K]{}, chunks[V]{} // fetched: the map side's copy can go
		}
		var s0 time.Time
		if rec.Enabled() {
			s0 = time.Now()
		}
		idx := sortPartition(keys)
		if rec.Enabled() {
			sortReal[p] = time.Since(s0)
		}
		out := &reduceOuts[p]
		emit := func(k K, v V) { out.add(KeyValue[K, V]{k, v}) }
		groups, err := eachGroup(keys, vals, idx, func(key K, values []V) error {
			if err := job.Reduce(key, values, emit); err != nil {
				return fmt.Errorf("mapreduce: job %q reduce partition %d key %v: %w", job.Name, p, key, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		counters.Add(CounterReduceInputGroups, int64(groups))
		counters.Add(CounterReduceInputRecords, int64(len(keys)))
		if ext != nil {
			counters.Add(CounterShuffleMergePasses, int64(ext.passes[p]))
		}
		counters.Add(CounterReduceOutput, int64(out.n))
		if rec.Enabled() {
			reduceReal[p] = time.Since(t0)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	if rec.Enabled() {
		e.emitReduceAttempts(rec, jobRef, job.Name, sim, reduceTasks, partRecords, shuffleBytes, ext, mapStart, reduceReal, sortReal)
	}

	res := &Result{Counters: counters, MapTasks: len(splits), ReduceTask: numRed}
	return concat(reduceOuts), e.finish(res, sim, start), nil
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
func (e *Engine) emitSpills(rec *trace.Recorder, parent int64, job string, spills []spillEvent, task, node int, vstart time.Duration) {
	for si, ev := range spills {
		d := time.Duration(float64(ev.bytes) * float64(e.Cluster.Cost.SpillPerByte))
		rec.Emit(trace.Span{
			Parent:  parent,
			Kind:    trace.KindSpill,
			Name:    fmt.Sprintf("%s/spill[%d.%d]", job, task, si),
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
func (e *Engine) emitMerge(rec *trace.Recorder, parent int64, job string, ext *extShuffle, p, node int, records int64, vstart time.Duration) {
	if ext.passes[p] == 0 {
		return
	}
	rec.Emit(trace.Span{
		Parent:  parent,
		Kind:    trace.KindMerge,
		Name:    fmt.Sprintf("%s/merge[%d]", job, p),
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
func emitMapAttempts[K Key, V any](e *Engine, rec *trace.Recorder, jobRef trace.SpanRef, job string, sim *faultSim, tasks []*simTask, splits []split, bufs []mapSpillBuffer[K, V], mapStart time.Duration, mapReal, flushReal []time.Duration) {
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
			Name:    fmt.Sprintf("%s/map[%d]", job, a.Task),
			Node:    a.Node,
			Records: int64(sp.hi - sp.lo),
			Bytes:   int64(sp.bytes),
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
			e.emitSpills(rec, id, job, buf.events, a.Task, a.Node, mapStart+a.End)
			continue
		}
		if buf.ops.combine != nil {
			var combined int
			for _, bp := range buf.parts {
				combined += bp.keys.n
			}
			rec.Emit(trace.Span{
				Parent:  jobRef.ID,
				Kind:    trace.KindCombine,
				Name:    fmt.Sprintf("%s/combine[%d]", job, a.Task),
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
func (e *Engine) emitReduceAttempts(rec *trace.Recorder, jobRef trace.SpanRef, job string, sim *faultSim, tasks []*simTask, partRecords []int, shuffleBytes []int, ext *extShuffle, mapStart time.Duration, reduceReal, sortReal []time.Duration) {
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
			Name:    fmt.Sprintf("%s/reduce[%d]", job, p),
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
			Name:   fmt.Sprintf("%s/shuffle[%d]", job, p),
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
			Name:    fmt.Sprintf("%s/sort[%d]", job, p),
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
