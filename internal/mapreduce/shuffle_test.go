package mapreduce

import (
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
	baseline, err := MustEngine(chaosCluster).Run(wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := spillingEngine(24).Run(wordCountJob(lines, false))
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
	res, err := spillingEngine(24).Run(wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	// Each map task covers 2 lines (SplitSize 2) and emits 4 records of
	// 12-15 bytes; a 24-byte cap forces a spill every second record, i.e.
	// at least two spills per map task (the acceptance bar).
	if got, want := res.Counters.Get(CounterShuffleSpills), int64(2*res.MapTasks); got < want {
		t.Fatalf("spills = %d, want >= %d (2 per map task)", got, want)
	}
	unbounded, err := MustEngine(chaosCluster).Run(wordCountJob(lines, false))
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
	baseline, err := MustEngine(chaosCluster).Run(wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	narrow := spillingEngine(24)
	narrow.MergeFanIn = 2 // force intermediate merge passes
	res, err := narrow.Run(wordCountJob(lines, false))
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
	wide.MergeFanIn = 64
	wideRes, err := wide.Run(wordCountJob(lines, false))
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
		configure := func(combiner bool) *Job {
			j := wordCountJob(lines, combiner)
			j.Input.SplitSize = 1 + rng.Intn(4)
			j.NumReducers = 1 + rng.Intn(4)
			return j
		}
		// The split size and reducer count are drawn per variant from the
		// same rng; reseed the stream per variant so all four match.
		state := rng.Int63()
		variant := func(combiner, spill bool) *Result {
			t.Helper()
			rng.Seed(state)
			e := MustEngine(chaosCluster)
			if spill {
				e.ShuffleBufferBytes = bufBytes
				e.MergeFanIn = fanIn
			}
			res, err := e.Run(configure(combiner))
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
	baseline, err := MustEngine(chaosCluster).Run(wordCountJob(lines, false))
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
			res, err := e.Run(wordCountJob(lines, false))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline.Output, res.Output) {
				t.Fatal("chaos + spill run changed job output")
			}
			if res.Counters.Get(CounterShuffleSpills) == 0 {
				t.Fatal("chaos run did not exercise the spill path")
			}
			again, err := func() (*Result, error) {
				e := spillingEngine(24)
				e.Faults = faults.MustNew(plan)
				return e.Run(wordCountJob(lines, false))
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
	job.Input = MemoryInput{SplitSize: 2}
	res, err := spillingEngine(24).Run(job)
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
	recs := make([]KeyValue, 10)
	for i := range recs {
		recs[i] = KeyValue{Key: fmt.Sprint(i), Value: i}
	}
	// A 1-byte buffer would spill on every record if honored.
	res, err := spillingEngine(1).Run(&Job{
		Name:  "identity",
		Input: MemoryInput{Records: recs, SplitSize: 3},
		Map: func(kv KeyValue, emit func(KeyValue)) error {
			emit(kv)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get(CounterShuffleSpills); got != 0 {
		t.Fatalf("map-only job spilled %d times", got)
	}
	for i, kv := range res.Output {
		if kv.Value.(int) != i {
			t.Fatalf("map-only output order broken at %d: %v", i, kv.Value)
		}
	}
}

func TestSpillTraceSpans(t *testing.T) {
	rec := trace.New()
	e := spillingEngine(24)
	e.Trace = rec
	if _, err := e.Run(wordCountJob(manyLines(8), true)); err != nil {
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

// sizedPayload pins its own serialized size via the Sizer interface.
type sizedPayload struct{ weight int }

func (p sizedPayload) SizeBytes() int { return p.weight }

// payloadJob emits n records of one struct-typed value per key "k<i>".
func payloadJob(n int, value any) *Job {
	recs := make([]KeyValue, n)
	for i := range recs {
		recs[i] = KeyValue{Key: fmt.Sprint(i), Value: i}
	}
	return &Job{
		Name:  "payload",
		Input: MemoryInput{Records: recs, SplitSize: 2},
		Map: func(kv KeyValue, emit func(KeyValue)) error {
			emit(KeyValue{Key: "k" + kv.Key, Value: value})
			return nil
		},
		Reduce: func(key string, values []any, emit func(KeyValue)) error {
			emit(KeyValue{Key: key, Value: len(values)})
			return nil
		},
		NumReducers: 2,
	}
}

func TestShuffleBytesScaleWithStructPayload(t *testing.T) {
	run := func(value any) int64 {
		t.Helper()
		res, err := MustEngine(chaosCluster).Run(payloadJob(6, value))
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

func TestSizerOverridesEstimate(t *testing.T) {
	res, err := MustEngine(chaosCluster).Run(payloadJob(1, sizedPayload{weight: 4096}))
	if err != nil {
		t.Fatal(err)
	}
	// One record, key "k0": shuffle bytes are exactly key + SizeBytes.
	if got := res.Counters.Get(CounterShuffleBytes); got != int64(len("k0")+4096) {
		t.Fatalf("shuffle.bytes = %d, want %d", got, len("k0")+4096)
	}
	// The Sizer-backed spill buffer must overflow accordingly.
	spilled, err := spillingEngine(8192).Run(payloadJob(4, sizedPayload{weight: 4096}))
	if err != nil {
		t.Fatal(err)
	}
	if got := spilled.Counters.Get(CounterShuffleSpills); got == 0 {
		t.Fatal("Sizer payloads did not trip the spill threshold")
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
		job  func() *Job
	}{
		{"wordcount", func() *Job { return wordCountJob(lines, false) }},
		{"wordcount+combiner", func() *Job { return wordCountJob(lines, true) }},
		{"wordJob", func() *Job { return wordJob(40) }},
	} {
		want, err := inMemory.Run(tc.job())
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Run(tc.job())
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
	res, err := e.Run(wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get(CounterShuffleSpills); got != 0 {
		t.Fatalf("%d spills after the engine's buffer was set back to 0", got)
	}
}

// partitionKeys draws the keys of one random partition in the shape
// named: "bytes" keys of 0–40 bytes over {0x00, 0x01, 'a', 0xff}, most of
// them extending one of a few shared 8- or 16-byte prefixes, so that
// keys tie on all 16 bytes an index entry holds, pad with zeros and
// prefix one another; or the engine's 8-byte Uint64Key and 16-byte
// PairKey integer keys, over a range that varies per partition.
func partitionKeys(rng *rand.Rand, shape string, n int) []string {
	alphabet := []byte{0x00, 0x01, 'a', 0xff}
	word := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	prefixes := [][]byte{nil, word(8), word(8), word(16), word(16)}
	bits := 1 + rng.Intn(64)
	field := func() uint64 { return rng.Uint64() >> (64 - bits) }
	keys := make([]string, n)
	for i := range keys {
		switch shape {
		case "bytes":
			p := prefixes[rng.Intn(len(prefixes))]
			keys[i] = string(append(slices.Clip(p), word(rng.Intn(41-len(p)))...))
		case "uint64":
			keys[i] = Uint64Key(field())
		case "pair":
			keys[i] = PairKey(field(), field())
		}
	}
	return keys
}

// TestSortPartitionMatchesStableSort holds the reducer's grouping to its
// definition: sortPartition and eachGroup must hand over the groups, and
// each group's values, in the order that a stable sort of the partition
// by key, split into runs of equal keys, gives.
func TestSortPartitionMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, shape := range []string{"bytes", "uint64", "pair"} {
		for trial := 0; trial < 300; trial++ {
			keys := partitionKeys(rng, shape, rng.Intn(400))
			recs := make([]KeyValue, len(keys))
			for i, k := range keys {
				recs[i] = KeyValue{Key: k, Value: i}
			}
			sorted := slices.Clone(recs)
			slices.SortStableFunc(sorted, func(a, b KeyValue) int { return strings.Compare(a.Key, b.Key) })
			var want []KeyValue // one per group: its key and its values
			for i := 0; i < len(sorted); {
				j := i + 1
				for j < len(sorted) && sorted[j].Key == sorted[i].Key {
					j++
				}
				var values []any
				for _, r := range sorted[i:j] {
					values = append(values, r.Value)
				}
				want = append(want, KeyValue{Key: sorted[i].Key, Value: values})
				i = j
			}
			var got []KeyValue
			groups, err := eachGroup(recs, sortPartition(recs), func(key string, values []any) error {
				got = append(got, KeyValue{Key: key, Value: values})
				return nil
			})
			if err != nil || groups != len(want) {
				t.Fatalf("%s trial %d: %d groups, error %v; want %d groups", shape, trial, groups, err, len(want))
			}
			for g := range want {
				if got[g].Key != want[g].Key || !reflect.DeepEqual(got[g].Value, want[g].Value) {
					t.Fatalf("%s trial %d, group %d: got key %q values %v, want key %q values %v",
						shape, trial, g, got[g].Key, got[g].Value, want[g].Key, want[g].Value)
				}
			}
		}
	}
}

// TestReduceMayKeepAndAppendValues: a ReduceFunc may keep its values and
// append to them without changing any other group's values.
func TestReduceMayKeepAndAppendValues(t *testing.T) {
	var recs []KeyValue
	for i := 0; i < 60; i++ {
		recs = append(recs, KeyValue{Key: fmt.Sprintf("k%d", i%6), Value: i})
	}
	var mu sync.Mutex
	kept := map[string][]any{}
	if _, err := MustEngine(chaosCluster).Run(&Job{
		Name:        "keep-values",
		Input:       MemoryInput{Records: recs, SplitSize: 7},
		Map:         func(kv KeyValue, emit func(KeyValue)) error { emit(kv); return nil },
		NumReducers: 2,
		Reduce: func(key string, values []any, emit func(KeyValue)) error {
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
