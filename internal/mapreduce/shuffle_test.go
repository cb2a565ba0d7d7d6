package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// spillingEngine returns an engine on chaosCluster with the external
// shuffle forced on. A 24-byte buffer holds at most one record of the
// manyLines vocabulary (12-15 bytes each), so every second add spills.
func spillingEngine(bufBytes int) *Engine {
	e := MustEngine(chaosCluster)
	e.ShuffleBufferBytes = bufBytes
	return e
}

func TestSpillShuffleBitIdenticalToInMemory(t *testing.T) {
	lines := manyLines(20)
	baseline, err := run(MustEngine(chaosCluster), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := run(spillingEngine(24), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline.Output, spilled.Output) {
		t.Fatalf("external shuffle changed job output:\n in-memory %v\n spilled   %v",
			baseline.Output, spilled.Output)
	}
	if got := spilled.Counters.Get(CounterShuffleSpills); got == 0 {
		t.Fatal("external shuffle recorded no spills")
	}
	if got := spilled.Counters.Get(CounterShuffleSpilledBytes); got == 0 {
		t.Fatal("external shuffle recorded no spilled bytes")
	}
	if got := spilled.Counters.Get(CounterShuffleMergePasses); got < int64(spilled.ReduceTask) {
		t.Fatalf("merge passes %d < one final pass per reducer (%d)", got, spilled.ReduceTask)
	}
	if baseline.Counters.Get(CounterShuffleSpills) != 0 {
		t.Fatal("in-memory path recorded spills")
	}
	// Shuffle accounting must agree across paths: same records, same bytes.
	if b, s := baseline.Counters.Get(CounterShuffleBytes), spilled.Counters.Get(CounterShuffleBytes); b != s {
		t.Fatalf("shuffle.bytes diverged: in-memory %d, spilled %d", b, s)
	}
}

func TestSpillShuffleMemoryBound(t *testing.T) {
	lines := manyLines(12)
	res, err := run(spillingEngine(24), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	// Each map task covers 2 lines (splitSize 2) and emits 4 records of
	// 12-15 bytes; a 24-byte cap forces a spill every second record, i.e.
	// at least two spills per map task (the acceptance bar).
	if got, want := res.Counters.Get(CounterShuffleSpills), int64(2*res.MapTasks); got < want {
		t.Fatalf("spills = %d, want >= %d (2 per map task)", got, want)
	}
	unbounded, err := run(MustEngine(chaosCluster), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unbounded.Output, res.Output) {
		t.Fatal("memory-bounded run changed job output")
	}
	// Spill traffic is modelled I/O: the bounded run must cost virtual time.
	if res.Virtual <= unbounded.Virtual {
		t.Fatalf("spill I/O should cost virtual time: bounded %v <= unbounded %v", res.Virtual, unbounded.Virtual)
	}
}

func TestSpillMultiPassMergeBitIdentical(t *testing.T) {
	lines := manyLines(24)
	baseline, err := run(MustEngine(chaosCluster), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	narrow := spillingEngine(24)
	narrow.mergeFanIn = 2 // force intermediate merge passes
	res, err := run(narrow, wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline.Output, res.Output) {
		t.Fatal("multi-pass merge changed job output")
	}
	// With fan-in 2 and a dozen segments per partition, merging cannot
	// finish in one pass per reducer.
	if got := res.Counters.Get(CounterShuffleMergePasses); got <= int64(res.ReduceTask) {
		t.Fatalf("merge passes %d implies single-pass merges despite fan-in 2", got)
	}
	wide := spillingEngine(24)
	wide.mergeFanIn = 64
	wideRes, err := run(wide, wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline.Output, wideRes.Output) {
		t.Fatal("wide-fan-in merge changed job output")
	}
	if res.Virtual <= wideRes.Virtual {
		t.Fatalf("extra merge passes should cost virtual time: fan-in 2 %v <= fan-in 64 %v",
			res.Virtual, wideRes.Virtual)
	}
}

// TestSpillCombinerPropertyEquivalence drives randomized jobs through all
// four configurations — {in-memory, spilled} x {combiner off, on} — and
// requires bit-identical output. Wordcount's reduce emits exactly one
// record per key, and partitions are key-ordered, so the combiner cannot
// legitimately change the output stream either.
func TestSpillCombinerPropertyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []string{"a", "bb", "ccc", "dd", "e", "ffff", "g"}
	for trial := 0; trial < 40; trial++ {
		nLines := 1 + rng.Intn(24)
		lines := make([]string, nLines)
		for i := range lines {
			n := rng.Intn(7)
			ws := make([]string, n)
			for j := range ws {
				ws[j] = words[rng.Intn(len(words))]
			}
			lines[i] = strings.Join(ws, " ")
		}
		bufBytes := 10 + rng.Intn(120)
		fanIn := 2 + rng.Intn(5)
		configure := func(combiner bool) *Job[string, string, int] {
			j := wordCountJob(lines, combiner)
			j.splitSize = 1 + rng.Intn(4)
			j.NumReducers = 1 + rng.Intn(4)
			return j
		}
		// The split size and reducer count are drawn per variant from the
		// same rng; reseed the stream per variant so all four match.
		state := rng.Int63()
		variant := func(combiner, spill bool) outcome[string, int] {
			t.Helper()
			rng.Seed(state)
			e := MustEngine(chaosCluster)
			if spill {
				e.ShuffleBufferBytes = bufBytes
				e.mergeFanIn = fanIn
			}
			res, err := run(e, configure(combiner))
			if err != nil {
				t.Fatalf("trial %d (combiner=%v spill=%v): %v", trial, combiner, spill, err)
			}
			return res
		}
		oracle := variant(false, false)
		for _, cfg := range []struct{ combiner, spill bool }{{false, true}, {true, false}, {true, true}} {
			res := variant(cfg.combiner, cfg.spill)
			if !reflect.DeepEqual(oracle.Output, res.Output) {
				t.Fatalf("trial %d: combiner=%v spill=%v diverged from oracle\n oracle %v\n got    %v",
					trial, cfg.combiner, cfg.spill, oracle.Output, res.Output)
			}
		}
	}
}

func TestSpillChaosMatrixBitIdentical(t *testing.T) {
	lines := manyLines(40)
	baseline, err := run(MustEngine(chaosCluster), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := faults.ChaosPlan(seed)
			plan.NodeDeaths = []faults.NodeDeath{{Node: int(seed) % chaosCluster.Nodes, At: DefaultCostModel.JobStartup + 4*time.Second}}
			e := spillingEngine(24)
			e.Faults = faults.MustNew(plan)
			res, err := run(e, wordCountJob(lines, false))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline.Output, res.Output) {
				t.Fatal("chaos + spill run changed job output")
			}
			if res.Counters.Get(CounterShuffleSpills) == 0 {
				t.Fatal("chaos run did not exercise the spill path")
			}
			again, err := func() (outcome[string, int], error) {
				e := spillingEngine(24)
				e.Faults = faults.MustNew(plan)
				return run(e, wordCountJob(lines, false))
			}()
			if err != nil {
				t.Fatal(err)
			}
			if again.Virtual != res.Virtual {
				t.Fatalf("seed %d not reproducible on spill path: %v vs %v", seed, res.Virtual, again.Virtual)
			}
		})
	}
}

func TestSpillEmptyInputShortCircuits(t *testing.T) {
	job := wordCountJob(nil, false)
	res, err := run(spillingEngine(24), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 || res.MapTasks != 0 || res.ReduceTask != 0 {
		t.Fatalf("empty input ran work: %d records, %d/%d tasks", len(res.Output), res.MapTasks, res.ReduceTask)
	}
	if res.Virtual != 0 {
		t.Fatalf("empty input cost virtual time %v", res.Virtual)
	}
}

func TestSpillMapOnlyJobNeverSpills(t *testing.T) {
	recs := make([]KeyValue[string, int], 10)
	for i := range recs {
		recs[i] = KeyValue[string, int]{Key: fmt.Sprint(i), Value: i}
	}
	// A 1-byte buffer would spill on every record if honored.
	res, err := run(spillingEngine(1), &Job[KeyValue[string, int], string, int]{
		Name:      "identity",
		Input:     recs,
		splitSize: 3,
		Map:       identity[string, int],
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get(CounterShuffleSpills); got != 0 {
		t.Fatalf("map-only job spilled %d times", got)
	}
	for i, kv := range res.Output {
		if kv.Value != i {
			t.Fatalf("map-only output order broken at %d: %v", i, kv.Value)
		}
	}
}

func TestSpillTraceSpans(t *testing.T) {
	rec := trace.New()
	e := spillingEngine(24)
	e.Trace = rec
	if _, err := run(e, wordCountJob(manyLines(8), true)); err != nil {
		t.Fatal(err)
	}
	var spills, merges, sorts, combines int
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.KindSpill:
			spills++
			if s.Bytes == 0 || s.Records == 0 {
				t.Fatalf("spill span carries no payload: %+v", s)
			}
		case trace.KindMerge:
			merges++
			if !strings.Contains(s.Detail, "passes=") {
				t.Fatalf("merge span detail %q missing pass count", s.Detail)
			}
		case trace.KindSort:
			sorts++
		case trace.KindCombine:
			combines++
		}
	}
	if spills == 0 {
		t.Fatal("no spill spans recorded")
	}
	if merges == 0 {
		t.Fatal("no merge spans recorded")
	}
	if sorts != 0 {
		t.Fatalf("external path emitted %d reducer sort spans", sorts)
	}
	if combines != 0 {
		t.Fatalf("external path emitted %d combine spans (combining happens inside spills)", combines)
	}
}

func TestPlanMergeSchedule(t *testing.T) {
	steps, io, passes := planMerge([]int64{10, 20, 30, 40, 50}, 2)
	want := []mergeStep{
		{inputs: []int{0, 1}},
		{inputs: []int{2, 5}},
		{inputs: []int{3, 4}},
		{inputs: []int{6, 7}, final: true},
	}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("schedule %+v, want %+v", steps, want)
	}
	// Intermediate passes read+write 30, 60 and 90 bytes; the final pass
	// reads the surviving 60- and 90-byte runs once.
	if io != 2*30+2*60+2*90+150 {
		t.Fatalf("ioBytes = %d, want 510", io)
	}
	if passes != 4 {
		t.Fatalf("passes = %d, want 4", passes)
	}

	// Fan-in wider than the segment count: a single streaming pass, each
	// segment read once.
	steps, io, passes = planMerge([]int64{5, 5, 5}, 0)
	if len(steps) != 1 || !steps[0].final || passes != 1 || io != 15 {
		t.Fatalf("wide merge: steps %+v io %d passes %d", steps, io, passes)
	}

	if steps, io, passes = planMerge(nil, 2); steps != nil || io != 0 || passes != 0 {
		t.Fatalf("empty merge plan: %+v %d %d", steps, io, passes)
	}
}

// signature mimics minhash.Signature: a named slice type that the fast
// type switch in approxValueBytes does not cover, exercising the
// reflective fallback that replaced the old flat 8-byte guess.
type signature []uint64

// payloadJob emits n records of one struct-typed value per key "k<i>".
func payloadJob(n int, value any) *Job[int, string, any] {
	recs := make([]int, n)
	for i := range recs {
		recs[i] = i
	}
	return &Job[int, string, any]{
		Name:      "payload",
		Input:     recs,
		splitSize: 2,
		Map: func(i int, emit func(string, any)) error {
			emit(fmt.Sprint("k", i), value)
			return nil
		},
		Reduce: func(key string, values []any, emit func(string, any)) error {
			emit(key, len(values))
			return nil
		},
		NumReducers: 2,
	}
}

func TestShuffleBytesScaleWithStructPayload(t *testing.T) {
	run := func(value any) int64 {
		t.Helper()
		_, res, err := Run(MustEngine(chaosCluster), payloadJob(6, value))
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.Get(CounterShuffleBytes)
	}
	small := run(signature(make([]uint64, 4)))
	large := run(signature(make([]uint64, 400)))
	if large <= small {
		t.Fatalf("shuffle bytes ignore payload size: %d-element %d vs 4-element %d", 400, large, small)
	}
	if large < 10*small {
		t.Fatalf("shuffle bytes not proportional to payload: %d vs %d", large, small)
	}
	// Struct-wrapped slices go through the same reflective walk.
	type wrapped struct {
		ID  int64
		Sig signature
	}
	ws := run(wrapped{ID: 1, Sig: make(signature, 400)})
	if ws <= small {
		t.Fatalf("struct-wrapped payload undersized: %d vs %d", ws, small)
	}
}

// TestEngineShuffleSettingsApplyToEveryJob: the external-shuffle settings
// belong to the engine, so every job with a reducer that the engine runs
// spills — whatever its shape — and a change between two Run calls takes
// effect at the next job.
func TestEngineShuffleSettingsApplyToEveryJob(t *testing.T) {
	lines := manyLines(16)
	inMemory := MustEngine(chaosCluster)
	e := spillingEngine(24)
	for _, tc := range []struct {
		name string
		job  func() *Job[string, string, int]
	}{
		{"wordcount", func() *Job[string, string, int] { return wordCountJob(lines, false) }},
		{"wordcount+combiner", func() *Job[string, string, int] { return wordCountJob(lines, true) }},
		{"wordJob", func() *Job[string, string, int] { return wordJob(40) }},
	} {
		want, err := run(inMemory, tc.job())
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(e, tc.job())
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters.Get(CounterShuffleSpills) == 0 {
			t.Errorf("%s: no spills under the engine's 24-byte buffer", tc.name)
		}
		if !reflect.DeepEqual(got.Output, want.Output) {
			t.Errorf("%s: spilled output differs from the in-memory shuffle", tc.name)
		}
	}
	e.ShuffleBufferBytes = 0
	res, err := run(e, wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get(CounterShuffleSpills); got != 0 {
		t.Fatalf("%d spills after the engine's buffer was set back to 0", got)
	}
}

// partitionKeys draws the string keys of one random partition: keys of
// 0–40 bytes over {0x00, 0x01, 'a', 0xff}, most of them extending one of
// a few shared 8- or 16-byte prefixes, so that keys tie on all 16 bytes
// an index entry holds, pad with zeros and prefix one another.
func partitionKeys(rng *rand.Rand, n int) []string {
	alphabet := []byte{0x00, 0x01, 'a', 0xff}
	word := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	prefixes := [][]byte{nil, word(8), word(8), word(16), word(16)}
	keys := make([]string, n)
	for i := range keys {
		p := prefixes[rng.Intn(len(prefixes))]
		keys[i] = string(append(slices.Clip(p), word(rng.Intn(41-len(p)))...))
	}
	return keys
}

// checkGroups holds the reducer's grouping of keys to its definition:
// sortPartition and eachGroup must hand over the groups, and each
// group's values (here, arrival positions), in the order that a stable
// sort of the keys by their bytes enc, compared by bytes.Compare, split
// into runs of equal keys, gives.
func checkGroups[K Key](t *testing.T, keys []K, enc func(K) []byte) {
	t.Helper()
	arrival := make([]int, len(keys))
	for i := range arrival {
		arrival[i] = i
	}
	pos := slices.Clone(arrival)
	slices.SortStableFunc(pos, func(a, b int) int { return bytes.Compare(enc(keys[a]), enc(keys[b])) })
	type group struct {
		key    K
		values []int
	}
	var want []group
	for i := 0; i < len(pos); {
		j := i + 1
		for j < len(pos) && keys[pos[j]] == keys[pos[i]] {
			j++
		}
		want = append(want, group{keys[pos[i]], pos[i:j]})
		i = j
	}
	var got []group
	groups, err := eachGroup(keys, arrival, sortPartition(keys), func(key K, values []int) error {
		got = append(got, group{key, values})
		return nil
	})
	if err != nil || groups != len(want) {
		t.Fatalf("%d groups, error %v; want %d groups", groups, err, len(want))
	}
	for g := range want {
		if got[g].key != want[g].key || !slices.Equal(got[g].values, want[g].values) {
			t.Fatalf("group %d: got key %v values %v, want key %v values %v",
				g, got[g].key, got[g].values, want[g].key, want[g].values)
		}
	}
}

// TestSortPartitionMatchesStableSort checks the grouping of random string
// partitions whose keys pad, prefix and tie with one another.
func TestSortPartitionMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		checkGroups(t, partitionKeys(rng, rng.Intn(400)), func(k string) []byte { return []byte(k) })
	}
}

// TestReduceMayKeepAndAppendValues: a ReduceFunc may keep its values and
// append to them without changing any other group's values.
func TestReduceMayKeepAndAppendValues(t *testing.T) {
	var recs []KeyValue[string, any]
	for i := 0; i < 60; i++ {
		recs = append(recs, KeyValue[string, any]{Key: fmt.Sprintf("k%d", i%6), Value: i})
	}
	var mu sync.Mutex
	kept := map[string][]any{}
	if _, _, err := Run(MustEngine(chaosCluster), &Job[KeyValue[string, any], string, any]{
		Name:        "keep-values",
		Input:       recs,
		splitSize:   7,
		Map:         identity[string, any],
		NumReducers: 2,
		Reduce: func(key string, values []any, emit func(string, any)) error {
			values = append(values, "appended to "+key)
			mu.Lock()
			kept[key] = values
			mu.Unlock()
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 6 {
		t.Fatalf("reduced %d groups, want 6", len(kept))
	}
	for key, values := range kept {
		var want []any
		for _, r := range recs {
			if r.Key == key {
				want = append(want, r.Value)
			}
		}
		want = append(want, "appended to "+key)
		if !reflect.DeepEqual(values, want) {
			t.Errorf("group %s kept %v, want %v", key, values, want)
		}
	}
}

// TestChunksMatchSlice drives chunks with random adds and cuts, as a map
// task's spill buffer does, against plain slices. cut must return the
// tail it removes, in order; elements must never move once added; chunk
// capacities must double from firstChunk up to maxChunk; and concat must
// build one slice of exactly the lists' total length.
func TestChunksMatchSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	next := 0
	for trial := 0; trial < 100; trial++ {
		lists := make([]chunks[int], 1+rng.Intn(4))
		refs := make([][]int, len(lists))
		firsts := make([]*int, len(lists)) // where each list's element 0 was added
		for op := 0; op < 200; op++ {
			l := rng.Intn(len(lists))
			c := &lists[l]
			if rng.Intn(8) == 0 {
				from := rng.Intn(c.n + 1)
				if tail := c.cut(from); !slices.Equal(tail, refs[l][from:]) {
					t.Fatalf("cut(%d) of %d elements returned %v, want %v", from, len(refs[l]), tail, refs[l][from:])
				}
				refs[l] = refs[l][:from]
				if from == 0 {
					firsts[l] = nil
				}
			} else {
				adds := 1 + rng.Intn(40)
				if op == 0 && trial%25 == 0 {
					adds = 200000 // past the chunks that reach maxChunk
				}
				for range adds {
					c.add(next)
					refs[l] = append(refs[l], next)
					next++
					if firsts[l] == nil {
						firsts[l] = &c.last[0]
					}
				}
			}
			checkChunkLayout(t, c, len(refs[l]), firsts[l])
		}
		for l := range lists {
			if got := lists[l].appendTo(nil); !slices.Equal(got, refs[l]) {
				t.Fatalf("list %d holds %d elements, not the %d added and kept", l, len(got), len(refs[l]))
			}
		}
		if got, want := concat(lists), slices.Concat(refs...); !slices.Equal(got, want) || cap(got) != len(want) {
			t.Fatalf("concat holds %d elements in a slice of capacity %d, want the %d of the lists", len(got), cap(got), len(want))
		}
	}
}

// checkChunkLayout checks that a list counts n elements, that its element
// 0 is still where it was added (first), and that each chunk's capacity
// is twice the last one's, from firstChunk up to maxChunk.
func checkChunkLayout(t *testing.T, c *chunks[int], n int, first *int) {
	t.Helper()
	if c.n != n {
		t.Fatalf("list counts %d elements, want %d", c.n, n)
	}
	all := append(slices.Clone(c.full), c.last)
	if first != nil && &all[0][0] != first {
		t.Fatal("element 0 moved after it was added")
	}
	for i, ch := range all {
		want := firstChunk
		if i > 0 {
			want = min(2*cap(all[i-1]), maxChunk)
		}
		if ch != nil && cap(ch) != want {
			t.Fatalf("chunk %d has capacity %d, want %d", i, cap(ch), want)
		}
	}
}
