package mapreduce

// The shuffle. Every job with a reducer runs it the way Hadoop does:
// each map task emits into a sort buffer (io.sort.mb) that assigns every
// record its reduce partition on emission, and each flush of the buffer
// ends one segment per partition, combined first when the job has a
// combiner. A bounded buffer (Engine.ShuffleBufferBytes > 0) flushes
// whenever it fills, and every flush is a spill to the tasktracker's
// local disk; an unbounded one flushes once, in memory, when its task
// ends. Each reducer fetches its partition's segments in map-task order,
// sorts them once by (key, seq) and feeds the reduce function one group
// at a time.
//
// That sort is the merge. Every emitted record carries a unique sequence
// number (task<<40 | emission index; combined records take fresh ones),
// so ordering a partition by (key, seq) yields the one stream that a
// k-way merge of sorted segments would: a stable sort by key of the
// records in (map task, emission) order. Whatever the buffer size, a
// reducer therefore sees the same records in the same order, unless a
// combiner ran over different spills.
//
// Only the records are real; the disk is virtual. For a bounded buffer,
// planMerge models the merge a reducer with io.sort.factor inputs per
// pass would run, and the spill writes and merge reads are charged to the
// cost model at CostModel.SpillPerByte, surfaced through the
// shuffle.spills / shuffle.spilled_bytes / shuffle.merge_passes counters
// and KindSpill / KindMerge trace spans.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// DefaultMergeFanIn is the reducer merge width used when Engine.MergeFanIn
// is zero (Hadoop's io.sort.factor default is 10; we run a little wider
// because segments are virtual).
const DefaultMergeFanIn = 16

// spillRecord pairs a record with its emission sequence: the tie-break
// that makes every shuffle sort order records stably by key.
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

// eachGroup calls fn once per run of equal keys in recs, which are
// sorted by key, with a freshly allocated values slice (a ReduceFunc or
// CombineFunc may retain it).
func eachGroup(recs []spillRecord, fn func(key string, values []any) error) error {
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].kv.Key == recs[i].kv.Key {
			j++
		}
		values := make([]any, j-i)
		for t := range values {
			values[t] = recs[i+t].kv.Value
		}
		if err := fn(recs[i].kv.Key, values); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// spillPartition is one map task's output for one reduce partition.
type spillPartition struct {
	recs    []spillRecord // flushed segments in flush order, then the buffered records
	flushed int           // records of recs already flushed
	bytes   int           // approximate serialized size of the flushed records
	segs    []int64       // bounded buffer only: each spilled segment's bytes
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
	capBytes int   // 0: unbounded, one flush at close
	seq      int64 // next global sequence: task<<40 | local counter
	emitted  int64 // raw map output records, pre-combine
	buffered int   // records added since the last flush
	bytes    int   // their approximate size (bounded buffer only)
	parts    []spillPartition
	events   []spillEvent
	err      error // the first partitioner or combiner error
	counters *Counters
}

// newMapSpillBuffer builds the buffer of capBytes (0 = unbounded) for
// map task ti over its partitions, one per reducer.
func newMapSpillBuffer(job *Job, ti, capBytes int, parts []spillPartition, part PartitionFunc, counters *Counters) mapSpillBuffer {
	return mapSpillBuffer{
		job:      job,
		part:     part,
		capBytes: capBytes,
		seq:      int64(ti) << 40,
		parts:    parts,
		counters: counters,
	}
}

// add buffers one emitted record in its partition, spilling when a
// bounded buffer overflows. After an error it drops every record.
func (b *mapSpillBuffer) add(kv KeyValue) {
	if b.err != nil {
		return
	}
	p := b.part(kv.Key, len(b.parts))
	if p < 0 || p >= len(b.parts) {
		b.err = fmt.Errorf("mapreduce: job %q partitioner returned %d of %d", b.job.Name, p, len(b.parts))
		return
	}
	b.parts[p].recs = append(b.parts[p].recs, spillRecord{kv: kv, seq: b.seq})
	b.seq++
	b.emitted++
	b.buffered++
	if b.capBytes > 0 {
		b.bytes += len(kv.Key) + approxValueBytes(kv.Value)
		if b.bytes >= b.capBytes {
			b.err = b.flush()
		}
	}
}

// close flushes whatever remains in the buffer as the task's final
// segments (Hadoop always writes at least one spill file for a non-empty
// output) and returns the buffer's first error.
func (b *mapSpillBuffer) close() error {
	if b.err != nil || b.buffered == 0 {
		return b.err
	}
	return b.flush()
}

// flush ends every partition's buffered records as one segment, running
// the combiner over each first as Hadoop does per spill. Only a bounded
// buffer's flush counts as a spill.
func (b *mapSpillBuffer) flush() error {
	var ev spillEvent
	for p := range b.parts {
		bp := &b.parts[p]
		run := bp.recs[bp.flushed:]
		if len(run) == 0 {
			continue
		}
		if b.job.Combine != nil {
			combined, err := b.combineRun(run)
			if err != nil {
				return err
			}
			bp.recs = append(bp.recs[:bp.flushed], combined...)
			run = bp.recs[bp.flushed:]
		}
		bytes := 0
		for _, r := range run {
			bytes += len(r.kv.Key) + approxValueBytes(r.kv.Value)
		}
		bp.flushed = len(bp.recs)
		bp.bytes += bytes
		if b.capBytes > 0 {
			bp.segs = append(bp.segs, int64(bytes))
		}
		ev.records += int64(len(run))
		ev.bytes += int64(bytes)
	}
	b.buffered, b.bytes = 0, 0
	if b.capBytes > 0 {
		b.events = append(b.events, ev)
		b.counters.Add(CounterShuffleSpills, 1)
		b.counters.Add(CounterShuffleSpilledBytes, ev.bytes)
	}
	return nil
}

// combineRun sorts one partition's buffered run by (key, seq) and applies
// the job's combiner to each group. Combined records take fresh sequence
// numbers, still below any later flush's.
func (b *mapSpillBuffer) combineRun(recs []spillRecord) ([]spillRecord, error) {
	slices.SortFunc(recs, compareSpill)
	var combined []spillRecord
	emit := func(kv KeyValue) {
		combined = append(combined, spillRecord{kv: kv, seq: b.seq})
		b.seq++
	}
	if err := eachGroup(recs, func(key string, values []any) error {
		if err := b.job.Combine(key, values, emit); err != nil {
			return fmt.Errorf("mapreduce: job %q combine key %q: %w", b.job.Name, key, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	b.counters.Add(CounterCombineInput, int64(len(recs)))
	b.counters.Add(CounterCombineOutput, int64(len(combined)))
	return combined, nil
}

// mergeStep is one pass of a reducer's modelled merge schedule: the
// listed run ids (initial segments first, then merged runs in creation
// order) are read together; an intermediate step writes a new run, the
// final step feeds the reduce function.
type mergeStep struct {
	inputs []int
	final  bool
}

// planMerge is the cost model of a bounded buffer's merge: the
// deterministic schedule a reducer reading at most fanIn runs per pass
// would follow over a partition's spill segment sizes. The records
// themselves are never merged run by run; the reducer's one (key, seq)
// sort yields the stream this schedule's final pass would. While more
// than fanIn runs remain, the fanIn smallest
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
