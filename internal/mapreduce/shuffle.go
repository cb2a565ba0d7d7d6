package mapreduce

// External (memory-bounded) shuffle. Hadoop never holds a map task's
// output in memory: records accumulate in a fixed-size sort buffer
// (io.sort.mb) and every overflow is sorted, partitioned and spilled to
// the tasktracker's local disk; reducers fetch the sorted runs and
// stream a k-way merge (bounded by io.sort.factor) into the reduce
// function, so no partition is ever materialized whole. This file
// supplies that machinery for the simulated engine: a per-map-task
// spill buffer capped at Engine.ShuffleBufferBytes, sorted spill segments,
// a deterministic merge schedule, and a heap-based streaming merge that
// feeds ReduceFunc group by group.
//
// Bit-identity with the in-memory path is guaranteed by a total record
// order: every emitted record carries a global sequence number
// (task<<40 | emission index), segments are sorted by (key, seq), and
// merges compare (key, seq) — so the merged stream of a partition equals
// a stable sort by key of the records in (map task, emission) order.
// The in-memory reducer computes exactly that by sorting its partition
// on (key, arrival index) with the same comparator.
//
// Only the records are real; the disk is virtual. Spill writes and merge
// reads are charged to the cost model at CostModel.SpillPerByte,
// surfaced through the shuffle.spills / shuffle.spilled_bytes /
// shuffle.merge_passes counters and KindSpill / KindMerge trace spans.

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"strings"
)

// DefaultMergeFanIn is the reducer merge width used when Engine.MergeFanIn
// is zero (Hadoop's io.sort.factor default is 10; we run a little wider
// because segments are virtual).
const DefaultMergeFanIn = 16

// spillRecord pairs a record with its emission sequence: the tie-break
// that makes every shuffle sort and merge order records stably by key,
// so the external and in-memory shuffles agree bit for bit.
type spillRecord struct {
	kv  KeyValue
	seq int64
}

// compareSpill orders records by (key, seq).
func compareSpill(a, b spillRecord) int {
	if c := strings.Compare(a.kv.Key, b.kv.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// spillSegment is one sorted run of one reduce partition, produced by a
// single map-side spill.
type spillSegment struct {
	recs  []spillRecord // sorted by (key, seq)
	bytes int           // approximate serialized size
}

// spillEvent summarizes one map-side spill (all partitions of one buffer
// flush) for counters and trace spans.
type spillEvent struct {
	records int64
	bytes   int64
}

// mapSpillBuffer is the map-side sort buffer of one task. It is owned by
// a single map worker goroutine; only the Counters it updates are shared.
type mapSpillBuffer struct {
	job      *Job
	part     PartitionFunc
	numRed   int
	capBytes int
	seq      int64 // next global sequence: task<<40 | local counter
	emitted  int64 // raw map output records, pre-combine
	recs     []spillRecord
	bytes    int
	segs     [][]spillSegment // per partition, in spill order
	events   []spillEvent
	counters *Counters
}

// newMapSpillBuffer builds the buffer of capBytes for map task ti.
func newMapSpillBuffer(job *Job, ti, numRed, capBytes int, part PartitionFunc, counters *Counters) *mapSpillBuffer {
	return &mapSpillBuffer{
		job:      job,
		part:     part,
		numRed:   numRed,
		capBytes: capBytes,
		seq:      int64(ti) << 40,
		segs:     make([][]spillSegment, numRed),
		counters: counters,
	}
}

// add buffers one emitted record, spilling when the buffer overflows.
func (b *mapSpillBuffer) add(kv KeyValue) error {
	b.recs = append(b.recs, spillRecord{kv: kv, seq: b.seq})
	b.seq++
	b.emitted++
	b.bytes += len(kv.Key) + approxValueBytes(kv.Value)
	if b.bytes >= b.capBytes {
		return b.spill()
	}
	return nil
}

// close flushes whatever remains in the buffer as the task's final spill
// (Hadoop always writes at least one spill file for a non-empty output).
func (b *mapSpillBuffer) close() error {
	if len(b.recs) == 0 {
		return nil
	}
	return b.spill()
}

// spill sorts and partitions the buffered records into one segment per
// non-empty partition, running the combiner per spill as Hadoop does,
// then resets the buffer.
func (b *mapSpillBuffer) spill() error {
	byPart := make([][]spillRecord, b.numRed)
	for _, r := range b.recs {
		p := b.part(r.kv.Key, b.numRed)
		if p < 0 || p >= b.numRed {
			return fmt.Errorf("mapreduce: job %q partitioner returned %d of %d", b.job.Name, p, b.numRed)
		}
		byPart[p] = append(byPart[p], r)
	}
	var ev spillEvent
	for p, recs := range byPart {
		if len(recs) == 0 {
			continue
		}
		slices.SortFunc(recs, compareSpill)
		if b.job.Combine != nil {
			var err error
			if recs, err = b.combineRun(recs); err != nil {
				return err
			}
		}
		bytes := 0
		for _, r := range recs {
			bytes += len(r.kv.Key) + approxValueBytes(r.kv.Value)
		}
		b.segs[p] = append(b.segs[p], spillSegment{recs: recs, bytes: bytes})
		ev.records += int64(len(recs))
		ev.bytes += int64(bytes)
	}
	b.events = append(b.events, ev)
	b.counters.Add(CounterShuffleSpills, 1)
	b.counters.Add(CounterShuffleSpilledBytes, ev.bytes)
	b.recs = b.recs[:0]
	b.bytes = 0
	return nil
}

// combineRun applies the job's combiner to one sorted partition run.
// Combined records take fresh sequence numbers (still below any later
// spill's), and the run is re-sorted in case the combiner reorders keys.
func (b *mapSpillBuffer) combineRun(recs []spillRecord) ([]spillRecord, error) {
	var combined []spillRecord
	emit := func(kv KeyValue) {
		combined = append(combined, spillRecord{kv: kv, seq: b.seq})
		b.seq++
	}
	for i := 0; i < len(recs); {
		j := i
		for j < len(recs) && recs[j].kv.Key == recs[i].kv.Key {
			j++
		}
		values := make([]any, 0, j-i)
		for t := i; t < j; t++ {
			values = append(values, recs[t].kv.Value)
		}
		if err := b.job.Combine(recs[i].kv.Key, values, emit); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q combine key %q: %w", b.job.Name, recs[i].kv.Key, err)
		}
		i = j
	}
	b.counters.Add(CounterCombineInput, int64(len(recs)))
	b.counters.Add(CounterCombineOutput, int64(len(combined)))
	slices.SortFunc(combined, compareSpill)
	return combined, nil
}

// mergeStep is one pass of a reducer's merge schedule: the listed run
// ids (initial segments first, then merged runs in creation order) are
// read together; an intermediate step writes a new run, the final step
// streams straight into the reduce function.
type mergeStep struct {
	inputs []int
	final  bool
}

// planMerge computes the deterministic merge schedule for a partition's
// segment sizes. While more than fanIn runs remain, the fanIn smallest
// (ties broken by run id) merge into a new run, charged one read and one
// write of the merged bytes; the final pass reads every surviving run
// once. The returned ioBytes excludes the map-side spill writes, which
// the engine charges separately; passes counts every step including the
// final one.
func planMerge(sizes []int64, fanIn int) (steps []mergeStep, ioBytes int64, passes int) {
	if len(sizes) == 0 {
		return nil, 0, 0
	}
	if fanIn < 2 {
		fanIn = DefaultMergeFanIn
	}
	type run struct {
		id   int
		size int64
	}
	runs := make([]run, len(sizes))
	for i, s := range sizes {
		runs[i] = run{id: i, size: s}
	}
	next := len(sizes)
	for len(runs) > fanIn {
		order := make([]int, len(runs))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(runs[a].size, runs[b].size) })
		pick := append([]int(nil), order[:fanIn]...)
		slices.Sort(pick)
		picked := make(map[int]bool, fanIn)
		var step mergeStep
		var merged int64
		for _, pos := range pick {
			picked[pos] = true
			step.inputs = append(step.inputs, runs[pos].id)
			merged += runs[pos].size
		}
		ioBytes += 2 * merged // read every input, write the merged run
		kept := make([]run, 0, len(runs)-fanIn+1)
		for pos, r := range runs {
			if !picked[pos] {
				kept = append(kept, r)
			}
		}
		runs = append(kept, run{id: next, size: merged})
		next++
		steps = append(steps, step)
	}
	final := mergeStep{final: true}
	for _, r := range runs {
		final.inputs = append(final.inputs, r.id)
		ioBytes += r.size
	}
	steps = append(steps, final)
	return steps, ioBytes, len(steps)
}

// segCursor walks one sorted run during a merge.
type segCursor struct {
	recs []spillRecord
	pos  int
}

// cursorHeap is a min-heap of cursors on their current record's
// (key, seq) — the loser-tree equivalent via container/heap.
type cursorHeap []*segCursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	return compareSpill(h[i].recs[h[i].pos], h[j].recs[h[j].pos]) < 0
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(*segCursor)) }
func (h *cursorHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// mergeRuns streams the union of the sorted runs in (key, seq) order,
// stopping at the first visit error.
func mergeRuns(runs [][]spillRecord, visit func(spillRecord) error) error {
	h := make(cursorHeap, 0, len(runs))
	for _, recs := range runs {
		if len(recs) > 0 {
			h = append(h, &segCursor{recs: recs})
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		c := h[0]
		if err := visit(c.recs[c.pos]); err != nil {
			return err
		}
		c.pos++
		if c.pos == len(c.recs) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return nil
}

// streamGroups merges the runs and feeds consecutive equal-key records
// to groupFn as one reduce group. Each group gets a freshly allocated
// values slice, matching the in-memory path's contract (a ReduceFunc may
// retain it).
func streamGroups(runs [][]spillRecord, groupFn func(key string, values []any) error) error {
	var key string
	var values []any
	err := mergeRuns(runs, func(r spillRecord) error {
		if len(values) > 0 && r.kv.Key != key {
			if err := groupFn(key, values); err != nil {
				return err
			}
			values = nil
		}
		key = r.kv.Key
		values = append(values, r.kv.Value)
		return nil
	})
	if err != nil {
		return err
	}
	if len(values) > 0 {
		return groupFn(key, values)
	}
	return nil
}

// mergePartition executes one partition's merge schedule over its spill
// segments: intermediate steps materialize merged runs, the final step
// streams groups into groupFn. An empty schedule (no segments) is a
// no-op — the reducer had nothing to fetch.
func mergePartition(segs []spillSegment, steps []mergeStep, groupFn func(key string, values []any) error) error {
	if len(steps) == 0 {
		return nil
	}
	runs := make([][]spillRecord, len(segs), len(segs)+len(steps))
	for i, s := range segs {
		runs[i] = s.recs
	}
	for _, st := range steps {
		ins := make([][]spillRecord, len(st.inputs))
		total := 0
		for i, id := range st.inputs {
			ins[i] = runs[id]
			total += len(runs[id])
		}
		if st.final {
			return streamGroups(ins, groupFn)
		}
		merged := make([]spillRecord, 0, total)
		if err := mergeRuns(ins, func(r spillRecord) error {
			merged = append(merged, r)
			return nil
		}); err != nil {
			return err
		}
		runs = append(runs, merged)
	}
	return nil
}
