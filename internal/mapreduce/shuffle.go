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
// Records stay typed the whole way. A Key64 or Key128 key fills its
// index entry from its words, as its big-endian bytes would, and a value
// is never boxed. Buffers grow in chunks that never move (chunks), and
// each is concatenated once, at its final size: a reducer's partition
// when it fetches it, and the job's output when the last task ends.
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

// defaultMergeFanIn is the reducer merge width used when Engine.mergeFanIn
// is zero (Hadoop's io.sort.factor default is 10; we run a little wider
// because segments are virtual).
const defaultMergeFanIn = 16

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

// sortPartition returns an index of keys in stable key order: the
// records sorted by key, equal keys in position order. A stable LSD
// radix sort runs one scatter pass per byte digit in which the entries
// differ; building the index, once per partition for its key type,
// finds those digits, and one pass counts them all. A run of string keys
// longer than 16 bytes that tie on their first 16 is then sorted on the
// rest of the key and position.
func sortPartition[K Key](keys []K) []sortEntry {
	idx := make([]sortEntry, len(keys))
	var diff sortEntry // the bits in which some entry differs from the first
	var long []string  // the keys, when some string key is longer than an entry holds
	switch ks := any(keys).(type) {
	case []string:
		for i, k := range ks {
			idx[i] = newSortEntry(k, i)
			diff.include(&idx[i], &idx[0])
			if len(k) >= longKey {
				long = ks
			}
		}
	case []Key64:
		for i, k := range ks {
			idx[i] = sortEntry{hi: uint64(k), tag: 8<<posBits | uint64(i)}
			diff.include(&idx[i], &idx[0])
		}
	case []Key128:
		for i, k := range ks {
			idx[i] = sortEntry{hi: k.Hi, lo: k.Lo, tag: 16<<posBits | uint64(i)}
			diff.include(&idx[i], &idx[0])
		}
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
	if long != nil {
		for i := 0; i < len(idx); {
			j := i + 1
			for j < len(idx) && sameHead(&idx[i], &idx[j]) {
				j++
			}
			if idx[i].keyLen() == longKey && j-i > 1 {
				slices.SortFunc(idx[i:j], func(a, b sortEntry) int {
					return cmp.Or(strings.Compare(long[a.pos()][16:], long[b.pos()][16:]), cmp.Compare(a.pos(), b.pos()))
				})
			}
			i = j
		}
	}
	return idx
}

// include adds to d the bits in which e differs from first.
func (d *sortEntry) include(e, first *sortEntry) {
	d.hi |= e.hi ^ first.hi
	d.lo |= e.lo ^ first.lo
	d.tag |= e.tag ^ first.tag
}

// eachGroup calls fn once per run of equal keys in idx, the index that
// sortPartition built over keys, with the run's values in index order.
// It gathers the values into one slice and hands each group a subslice
// whose capacity is its length, so a reduce or combine function may keep
// its values, or append to them, without touching another group's. It
// returns the number of groups fn accepted.
func eachGroup[K Key, V any](keys []K, vals []V, idx []sortEntry, fn func(key K, values []V) error) (int, error) {
	values := make([]V, len(idx))
	for i := range idx {
		values[i] = vals[idx[i].pos()]
	}
	groups := 0
	for i := 0; i < len(idx); groups++ {
		key := keys[idx[i].pos()]
		j := i + 1
		for j < len(idx) && sameHead(&idx[i], &idx[j]) && (idx[j].keyLen() < longKey || keys[idx[j].pos()] == key) {
			j++
		}
		if err := fn(key, values[i:j:j]); err != nil {
			return groups, err
		}
		i = j
	}
	return groups, nil
}

// chunks is an append-only list stored in chunks that never move: the
// first holds firstChunk elements and each next one twice as many as the
// last, up to maxChunk. It allocates about what a slice grown by doubling
// does, but copies no element as it grows; appendTo copies each one
// once, into a slice of the final size.
type chunks[T any] struct {
	full [][]T // the filled chunks, in order
	last []T   // the chunk being filled
	n    int   // the elements held
}

const (
	// firstChunk is small because most partitions of a Pig job's map
	// tasks hold only a few records.
	firstChunk = 8
	maxChunk   = 1 << 16
)

func (c *chunks[T]) add(v T) {
	if len(c.last) == cap(c.last) {
		size := firstChunk
		if c.last != nil {
			c.full = append(c.full, c.last)
			size = min(2*cap(c.last), maxChunk)
		}
		c.last = make([]T, 0, size)
	}
	c.last = append(c.last, v)
	c.n++
}

// appendTo appends the list's elements to dst, in order.
func (c *chunks[T]) appendTo(dst []T) []T {
	for _, ch := range c.full {
		dst = append(dst, ch...)
	}
	return append(dst, c.last...)
}

// cut removes the elements from index from on and returns them, in
// order, in a slice of their own.
func (c *chunks[T]) cut(from int) []T {
	// Chunk i, which is c.last when i == len(c.full), starts at element
	// start and holds element from.
	i, start := 0, 0
	for i < len(c.full) && start+len(c.full[i]) <= from {
		start += len(c.full[i])
		i++
	}
	head := c.last
	if i < len(c.full) {
		head = c.full[i]
	}
	tail := append(make([]T, 0, c.n-from), head[from-start:]...)
	if i < len(c.full) {
		for _, ch := range c.full[i+1:] {
			tail = append(tail, ch...)
		}
		tail = append(tail, c.last...)
	}
	c.full, c.last, c.n = c.full[:i], head[:from-start], from
	return tail
}

// concat returns the elements of lists, in order, in one slice of their
// total length.
func concat[T any](lists []chunks[T]) []T {
	n := 0
	for i := range lists {
		n += lists[i].n
	}
	out := make([]T, 0, n)
	for i := range lists {
		out = lists[i].appendTo(out)
	}
	return out
}

// spillPartition is one map task's output for one reduce partition.
type spillPartition[K Key, V any] struct {
	keys    chunks[K] // flushed segments in flush order, then the buffered records
	vals    chunks[V]
	flushed int     // records already flushed
	pending int     // approximate serialized size of the buffered records
	bytes   int     // approximate serialized size of the flushed records
	segs    []int64 // bounded buffer only: each spilled segment's bytes
}

// spillEvent summarizes one map-side spill (all partitions of one buffer
// flush) for counters and trace spans.
type spillEvent struct {
	records int64
	bytes   int64
}

// shuffleOps is how one job's shuffle partitions and counts its records,
// chosen once per job.
type shuffleOps[K Key, V any] struct {
	partition func(K, int) int
	keyBytes  func(K) int
	valBytes  func(V) int
	combine   func(key K, values []V, emit func(K, V)) error
	job       string
}

// mapSpillBuffer is the map-side sort buffer of one task. It is owned by
// a single map worker goroutine; only the Counters it updates are shared.
type mapSpillBuffer[K Key, V any] struct {
	ops      *shuffleOps[K, V]
	capBytes int   // 0: unbounded, one flush at close
	emitted  int64 // raw map output records, pre-combine
	buffered int   // records added since the last flush
	bytes    int   // their approximate size
	parts    []spillPartition[K, V]
	events   []spillEvent
	err      error // the first combiner error
	counters *Counters
}

// add buffers one emitted record in its partition, spilling when a
// bounded buffer overflows. After an error it drops every record.
func (b *mapSpillBuffer[K, V]) add(k K, v V) {
	if b.err != nil {
		return
	}
	bp := &b.parts[b.ops.partition(k, len(b.parts))]
	bp.keys.add(k)
	bp.vals.add(v)
	n := b.ops.keyBytes(k) + b.ops.valBytes(v)
	bp.pending += n
	b.emitted++
	b.buffered++
	b.bytes += n
	if b.capBytes > 0 && b.bytes >= b.capBytes {
		b.err = b.flush()
	}
}

// close flushes whatever remains in the buffer as the task's final
// segments (Hadoop always writes at least one spill file for a non-empty
// output) and returns the buffer's first error.
func (b *mapSpillBuffer[K, V]) close() error {
	if b.err != nil || b.buffered == 0 {
		return b.err
	}
	return b.flush()
}

// flush ends every partition's buffered records as one segment, running
// the combiner over each first as Hadoop does per spill. Only a bounded
// buffer's flush counts as a spill.
func (b *mapSpillBuffer[K, V]) flush() error {
	var ev spillEvent
	for p := range b.parts {
		bp := &b.parts[p]
		if bp.keys.n == bp.flushed {
			continue
		}
		if b.ops.combine != nil {
			if err := b.combineRun(bp); err != nil {
				return err
			}
		}
		ev.records += int64(bp.keys.n - bp.flushed)
		ev.bytes += int64(bp.pending)
		bp.flushed = bp.keys.n
		bp.bytes += bp.pending
		if b.capBytes > 0 {
			bp.segs = append(bp.segs, int64(bp.pending))
		}
		bp.pending = 0
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
func (b *mapSpillBuffer[K, V]) combineRun(bp *spillPartition[K, V]) error {
	keys, vals := bp.keys.cut(bp.flushed), bp.vals.cut(bp.flushed)
	bp.pending = 0
	emit := func(k K, v V) {
		bp.keys.add(k)
		bp.vals.add(v)
		bp.pending += b.ops.keyBytes(k) + b.ops.valBytes(v)
	}
	if _, err := eachGroup(keys, vals, sortPartition(keys), func(key K, values []V) error {
		if err := b.ops.combine(key, values, emit); err != nil {
			return fmt.Errorf("mapreduce: job %q combine key %v: %w", b.ops.job, key, err)
		}
		return nil
	}); err != nil {
		return err
	}
	b.counters.Add(CounterCombineInput, int64(len(keys)))
	b.counters.Add(CounterCombineOutput, int64(bp.keys.n-bp.flushed))
	return nil
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
		fanIn = defaultMergeFanIn
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
