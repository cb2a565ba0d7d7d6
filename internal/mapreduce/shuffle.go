package mapreduce

// The shuffle. Every job with a reducer runs it the way Hadoop does:
// each map task emits into a sort buffer (io.sort.mb) that assigns every
// record its reduce partition on emission, and each flush of the buffer
// ends one segment per partition, combined first when the job has a
// combiner. A bounded buffer (Engine.ShuffleBufferBytes > 0) flushes
// whenever it fills, and every flush is a spill to the tasktracker's
// local disk; an unbounded one flushes once, in memory, when its task
// ends. Each reducer fetches its partition's segments in map-task order,
// sorts them once, stably, by key and feeds the reduce function one
// group at a time.
//
// That sort is the merge. A partition's records arrive in (map task,
// emission) order, and a combiner's output takes the place of the flush
// it combined, so a stable sort by key yields the one stream that a
// k-way merge of sorted segments would. Whatever the buffer size, a
// reducer therefore sees the same records in the same order, unless a
// combiner ran over different spills. The sort moves no record: it
// orders a pointer-free index of the partition (sortEntry) with an LSD
// radix sort, and the combiner groups its flushes through the same sort.
//
// Only the records are real; the disk is virtual. For a bounded buffer,
// planMerge models the merge a reducer with io.sort.factor inputs per
// pass would run, and the spill writes and merge reads are charged to the
// cost model at CostModel.SpillPerByte, surfaced through the
// shuffle.spills / shuffle.spilled_bytes / shuffle.merge_passes counters
// and KindSpill / KindMerge trace spans.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// DefaultMergeFanIn is the reducer merge width used when Engine.MergeFanIn
// is zero (Hadoop's io.sort.factor default is 10; we run a little wider
// because segments are virtual).
const DefaultMergeFanIn = 16

// sortEntry indexes one record of a partition for sortPartition. It
// holds no pointer, so the sort moves 24 bytes per record and the garbage
// collector never scans it. Keys order by (hi, lo, keyLen): the first 16
// bytes, zero-padded, decide, and where they tie the shorter key, a
// prefix of the longer, comes first. Only keys longer than 16 bytes can
// tie on all three and need the rest of the key compared.
type sortEntry struct {
	hi, lo uint64 // the key's first 16 bytes, big-endian, zero-padded
	tag    uint64 // keyLen above posBits, the record's position below
}

const (
	// longKey is the keyLen of every key longer than the 16 bytes an
	// entry holds.
	longKey = 17
	// posBits leaves a tag's top 5 bits for keyLen, and room below for
	// the position of any record memory can hold.
	posBits = 59
)

func newSortEntry(key string, pos int) sortEntry {
	var b [16]byte
	copy(b[:], key)
	return sortEntry{
		hi:  binary.BigEndian.Uint64(b[:8]),
		lo:  binary.BigEndian.Uint64(b[8:]),
		tag: uint64(min(len(key), longKey))<<posBits | uint64(pos),
	}
}

// keyLen is min(len(key), longKey).
func (e *sortEntry) keyLen() uint64 { return e.tag >> posBits }

// pos is the record's position in its partition.
func (e *sortEntry) pos() uint64 { return e.tag & (1<<posBits - 1) }

// sortDigits is the number of radix digits of an entry: one for keyLen,
// eight for each of lo and hi.
const sortDigits = 17

// digit returns radix digit d of the entry, least significant first:
// 0 is keyLen, 1–8 are lo's bytes and 9–16 are hi's.
func (e *sortEntry) digit(d int) byte {
	switch {
	case d == 0:
		return byte(e.keyLen())
	case d <= 8:
		return byte(e.lo >> (8 * (d - 1)))
	}
	return byte(e.hi >> (8 * (d - 9)))
}

// sameHead reports whether two entries tie on everything they hold of
// their keys.
func sameHead(a, b *sortEntry) bool {
	return a.hi == b.hi && a.lo == b.lo && a.keyLen() == b.keyLen()
}

// sortPartition returns an index of recs in stable key order: the
// records sorted by key, equal keys in position order. A stable LSD
// radix sort runs one scatter pass per byte digit in which the entries
// differ; building the index finds those digits, and one pass counts
// them all. A run of keys longer than 16 bytes that tie on their first
// 16 is then sorted on the rest of the key and position.
func sortPartition(recs []KeyValue) []sortEntry {
	idx := make([]sortEntry, len(recs))
	var diff sortEntry // the bits in which some entry differs from the first
	long := false
	for i := range recs {
		e := newSortEntry(recs[i].Key, i)
		idx[i] = e
		diff.hi |= e.hi ^ idx[0].hi
		diff.lo |= e.lo ^ idx[0].lo
		diff.tag |= e.tag ^ idx[0].tag
		long = long || e.keyLen() == longKey
	}
	var digits [sortDigits]int
	k := 0
	for d := range sortDigits {
		if diff.digit(d) != 0 {
			digits[k] = d
			k++
		}
	}
	if k > 0 {
		var counts [sortDigits][256]int
		for i := range idx {
			for j, d := range digits[:k] {
				counts[j][idx[i].digit(d)]++
			}
		}
		src, dst := idx, make([]sortEntry, len(idx))
		for j, d := range digits[:k] {
			offs := &counts[j]
			sum := 0
			for b, c := range offs {
				offs[b] = sum
				sum += c
			}
			for i := range src {
				b := src[i].digit(d)
				dst[offs[b]] = src[i]
				offs[b]++
			}
			src, dst = dst, src
		}
		idx = src
	}
	if long {
		for i := 0; i < len(idx); {
			j := i + 1
			for j < len(idx) && sameHead(&idx[i], &idx[j]) {
				j++
			}
			if idx[i].keyLen() == longKey && j-i > 1 {
				slices.SortFunc(idx[i:j], func(a, b sortEntry) int {
					return cmp.Or(strings.Compare(recs[a.pos()].Key[16:], recs[b.pos()].Key[16:]), cmp.Compare(a.pos(), b.pos()))
				})
			}
			i = j
		}
	}
	return idx
}

// eachGroup calls fn once per run of equal keys in idx, the index that
// sortPartition built over recs, with the run's values in index order.
// It gathers the values into one slice and hands each group a subslice
// whose capacity is its length, so a ReduceFunc or CombineFunc may keep
// its values, or append to them, without touching another group's. It
// returns the number of groups fn accepted.
func eachGroup(recs []KeyValue, idx []sortEntry, fn func(key string, values []any) error) (int, error) {
	values := make([]any, len(idx))
	for i := range idx {
		values[i] = recs[idx[i].pos()].Value
	}
	groups := 0
	for i := 0; i < len(idx); groups++ {
		key := recs[idx[i].pos()].Key
		j := i + 1
		for j < len(idx) && sameHead(&idx[i], &idx[j]) && (idx[j].keyLen() < longKey || recs[idx[j].pos()].Key == key) {
			j++
		}
		if err := fn(key, values[i:j:j]); err != nil {
			return groups, err
		}
		i = j
	}
	return groups, nil
}

// spillPartition is one map task's output for one reduce partition.
type spillPartition struct {
	recs    []KeyValue // flushed segments in flush order, then the buffered records
	flushed int        // records of recs already flushed
	bytes   int        // approximate serialized size of the flushed records
	segs    []int64    // bounded buffer only: each spilled segment's bytes
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
	emitted  int64 // raw map output records, pre-combine
	buffered int   // records added since the last flush
	bytes    int   // their approximate size (bounded buffer only)
	parts    []spillPartition
	events   []spillEvent
	err      error // the first partitioner or combiner error
	counters *Counters
}

// newMapSpillBuffer builds a map task's buffer of capBytes (0 =
// unbounded) over its partitions, one per reducer.
func newMapSpillBuffer(job *Job, capBytes int, parts []spillPartition, part PartitionFunc, counters *Counters) mapSpillBuffer {
	return mapSpillBuffer{
		job:      job,
		part:     part,
		capBytes: capBytes,
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
	b.parts[p].recs = append(b.parts[p].recs, kv)
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
			bytes += len(r.Key) + approxValueBytes(r.Value)
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

// combineRun groups one partition's buffered run by key and applies the
// job's combiner to each group. The combined records take the run's
// place, in key order.
func (b *mapSpillBuffer) combineRun(recs []KeyValue) ([]KeyValue, error) {
	var combined []KeyValue
	emit := func(kv KeyValue) { combined = append(combined, kv) }
	if _, err := eachGroup(recs, sortPartition(recs), func(key string, values []any) error {
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
// themselves are never merged run by run; the reducer's one stable sort
// by key yields the stream this schedule's final pass would. While more
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
