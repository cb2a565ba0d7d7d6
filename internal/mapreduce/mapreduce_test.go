package mapreduce

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// outcome is one job's output records and result, for tests that
// check both.
type outcome[K Key, V any] struct {
	Output []KeyValue[K, V]
	*Result
}

// run runs job on e and returns its outcome.
func run[I any, K Key, V any](e *Engine, job *Job[I, K, V]) (outcome[K, V], error) {
	out, res, err := Run(e, job)
	return outcome[K, V]{out, res}, err
}

// wordCountJob builds the canonical test job over the given lines.
func wordCountJob(lines []string, combiner bool) *Job[string, string, int] {
	sum := func(key string, values []int, emit func(string, int)) error {
		n := 0
		for _, v := range values {
			n += v
		}
		emit(key, n)
		return nil
	}
	j := &Job[string, string, int]{
		Name:      "wordcount",
		Input:     lines,
		splitSize: 2,
		Map: func(line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Reduce:      sum,
		NumReducers: 3,
	}
	if combiner {
		j.Combine = sum
	}
	return j
}

func collectCounts(out []KeyValue[string, int]) map[string]int {
	m := make(map[string]int)
	for _, kv := range out {
		m[kv.Key] += kv.Value
	}
	return m
}

func TestWordCount(t *testing.T) {
	e := MustEngine(Cluster{Nodes: 4, SlotsPerNode: 2, Cost: DefaultCostModel})
	lines := []string{"a b a", "b c", "a", "c c c"}
	res, err := run(e, wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	got := collectCounts(res.Output)
	want := map[string]int{"a": 3, "b": 2, "c": 4}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	if res.MapTasks != 2 || res.ReduceTask != 3 {
		t.Fatalf("tasks %d/%d", res.MapTasks, res.ReduceTask)
	}
}

func TestCombinerSameResultFewerShuffledRecords(t *testing.T) {
	e := MustEngine(DefaultCluster)
	lines := []string{"x x x x", "x x x x", "y"}
	plain, err := run(e, wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	combined, err := run(e, wordCountJob(lines, true))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(collectCounts(plain.Output)) != fmt.Sprint(collectCounts(combined.Output)) {
		t.Fatal("combiner changed results")
	}
	if combined.Counters.Get(CounterShuffleBytes) >= plain.Counters.Get(CounterShuffleBytes) {
		t.Fatalf("combiner did not reduce shuffle: %d vs %d",
			combined.Counters.Get(CounterShuffleBytes), plain.Counters.Get(CounterShuffleBytes))
	}
}

func TestMapOnlyJobPreservesOrder(t *testing.T) {
	e := MustEngine(DefaultCluster)
	recs := make([]int, 20)
	for i := range recs {
		recs[i] = i
	}
	res, err := run(e, &Job[int, Key64, int]{
		Name:      "identity",
		Input:     recs,
		splitSize: 3,
		Map: func(i int, emit func(Key64, int)) error {
			emit(Key64(i), i*10)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 20 {
		t.Fatalf("output size %d", len(res.Output))
	}
	for i, kv := range res.Output {
		if kv.Value != i*10 {
			t.Fatalf("output[%d] = %v, want %d (order broken)", i, kv.Value, i*10)
		}
	}
	if res.ReduceTask != 0 {
		t.Fatal("map-only job ran reducers")
	}
}

func TestReduceGroupsSortedWithinPartition(t *testing.T) {
	e := MustEngine(DefaultCluster)
	var recs []KeyValue[string, int]
	for i := 0; i < 30; i++ {
		recs = append(recs, KeyValue[string, int]{Key: fmt.Sprintf("k%02d", i%10), Value: i})
	}
	var mu sortRecorder
	_, _, err := Run(e, &Job[KeyValue[string, int], string, int]{
		Name:        "sorted",
		Input:       recs,
		splitSize:   7,
		Map:         identity[string, int],
		NumReducers: 1,
		Reduce: func(key string, values []int, emit func(string, int)) error {
			mu.record(key)
			if len(values) != 3 {
				return fmt.Errorf("key %s got %d values", key, len(values))
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(mu.keys) {
		t.Fatalf("reduce keys not sorted: %v", mu.keys)
	}
	if len(mu.keys) != 10 {
		t.Fatalf("saw %d groups, want 10", len(mu.keys))
	}
}

type sortRecorder struct{ keys []string }

func (s *sortRecorder) record(k string) { s.keys = append(s.keys, k) }

// identity is the map function that emits its input record.
func identity[K Key, V any](kv KeyValue[K, V], emit func(K, V)) error {
	emit(kv.Key, kv.Value)
	return nil
}

// oneRecord is the input of a job that only needs to run.
var oneRecord = []KeyValue[string, int]{{Key: "a", Value: 1}}

func TestJobValidation(t *testing.T) {
	e := MustEngine(DefaultCluster)
	if _, _, err := Run(e, &Job[KeyValue[string, int], string, int]{Name: "no-map"}); err == nil {
		t.Error("job without map accepted")
	}
	if _, _, err := Run(e, &Job[KeyValue[string, int], string, int]{
		Name:    "combine-no-reduce",
		Map:     identity[string, int],
		Combine: func(string, []int, func(string, int)) error { return nil },
	}); err == nil {
		t.Error("combiner without reducer accepted")
	}
	if _, _, err := Run(e, &Job[KeyValue[string, int], string, int]{
		Name:        "negative-reducers",
		Map:         identity[string, int],
		Reduce:      func(string, []int, func(string, int)) error { return nil },
		NumReducers: -1,
	}); err == nil {
		t.Error("negative reducer count accepted")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewEngine(Cluster{Nodes: 0, SlotsPerNode: 1}); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := NewEngine(Cluster{Nodes: 1, SlotsPerNode: 0}); err == nil {
		t.Error("0 slots accepted")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	e := MustEngine(DefaultCluster)
	boom := errors.New("boom")
	_, _, err := Run(e, &Job[KeyValue[string, int], string, int]{
		Name:  "failing-map",
		Input: oneRecord,
		Map:   func(KeyValue[string, int], func(string, int)) error { return boom },
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	e := MustEngine(DefaultCluster)
	boom := errors.New("boom")
	_, _, err := Run(e, &Job[KeyValue[string, int], string, int]{
		Name:   "failing-reduce",
		Input:  oneRecord,
		Map:    identity[string, int],
		Reduce: func(string, []int, func(string, int)) error { return boom },
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestDefaultPartitionInRange(t *testing.T) {
	f := func(key string, n uint8) bool {
		m := int(n%16) + 1
		p := DefaultPartition(key, m)
		return p >= 0 && p < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Degenerate reducer counts are a sentinel, not a modulo crash; the
	// engine rejects the -1 through its own range check.
	for _, n := range []int{0, -1, -16} {
		if p := DefaultPartition("key", n); p != -1 {
			t.Fatalf("DefaultPartition(key, %d) = %d, want -1", n, p)
		}
	}
}

func TestDefaultPartitionDeterministic(t *testing.T) {
	if DefaultPartition("hello", 7) != DefaultPartition("hello", 7) {
		t.Fatal("partition not deterministic")
	}
}

func TestCountersAccounting(t *testing.T) {
	e := MustEngine(DefaultCluster)
	_, res, err := Run(e, wordCountJob([]string{"a b", "c"}, false))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.Get(CounterMapInputRecords) != 2 {
		t.Fatalf("map input %d", c.Get(CounterMapInputRecords))
	}
	if c.Get(CounterMapOutputRecords) != 3 {
		t.Fatalf("map output %d", c.Get(CounterMapOutputRecords))
	}
	if c.Get(CounterReduceInputGroups) != 3 || c.Get(CounterReduceOutput) != 3 {
		t.Fatalf("reduce counters %v", c.Snapshot())
	}
}

func TestEmptyInput(t *testing.T) {
	e := MustEngine(DefaultCluster)
	out, _, err := Run(e, &Job[KeyValue[string, int], string, int]{
		Name:   "empty",
		Map:    identity[string, int],
		Reduce: func(string, []int, func(string, int)) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("output %v", out)
	}
}

// TestSplitInput pins the one split-size rule every job shares: with no
// splitSize the records cut into at most two waves of map tasks per
// slot, each slot getting work when there are records enough; an
// explicit splitSize is kept; the splits cover the records in order.
func TestSplitInput(t *testing.T) {
	c := Cluster{Nodes: 3, SlotsPerNode: 2}
	recs := func(n int) []KeyValue[string, any] {
		out := make([]KeyValue[string, any], n)
		for i := range out {
			out[i] = KeyValue[string, any]{Key: fmt.Sprint(i), Value: i}
		}
		return out
	}
	for _, tc := range []struct {
		n, splitSize int
		want         []int // records per split
	}{
		{n: 100, want: []int{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1}},
		{n: 12, want: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{n: 5, want: []int{1, 1, 1, 1, 1}},
		{n: 100, splitSize: 40, want: []int{40, 40, 20}},
		{n: 0},
	} {
		in := recs(tc.n)
		var sizes []int
		var joined []KeyValue[string, any]
		for _, sp := range splitInput(c, in, tc.splitSize) {
			sizes = append(sizes, sp.hi-sp.lo)
			joined = append(joined, in[sp.lo:sp.hi]...)
			// A Pig record counts its key's length plus its value's bytes.
			bytes := 0
			for _, kv := range in[sp.lo:sp.hi] {
				bytes += len(kv.Key) + 8
			}
			if sp.bytes != bytes {
				t.Errorf("n=%d split [%d, %d) counts %d bytes, want %d", tc.n, sp.lo, sp.hi, sp.bytes, bytes)
			}
		}
		if fmt.Sprint(sizes) != fmt.Sprint(tc.want) {
			t.Errorf("n=%d split size %d: split sizes %v, want %v", tc.n, tc.splitSize, sizes, tc.want)
		}
		if fmt.Sprint(joined) != fmt.Sprint(in) {
			t.Errorf("n=%d split size %d: splits hold %v, want %v", tc.n, tc.splitSize, joined, in)
		}
	}
}

// TestVirtualClockScalesWithNodes is the unit-level Figure 2 check: a large
// job's modelled runtime shrinks as nodes are added, while a tiny job's
// runtime is overhead-dominated and flat.
func TestVirtualClockScalesWithNodes(t *testing.T) {
	bigRecs := make([]KeyValue[string, int], 20000)
	for i := range bigRecs {
		bigRecs[i] = KeyValue[string, int]{Key: fmt.Sprint(i % 100), Value: 1}
	}
	runWith := func(nodes int, recs []KeyValue[string, int], splitSize int) time.Duration {
		e := MustEngine(Cluster{Nodes: nodes, SlotsPerNode: 2, Cost: DefaultCostModel})
		job := &Job[KeyValue[string, int], string, int]{
			Name:      "scale",
			Input:     recs,
			splitSize: splitSize,
			Map:       identity[string, int],
			Reduce: func(k string, vs []int, emit func(string, int)) error {
				emit(k, len(vs))
				return nil
			},
			MapCostFactor: 50, // pretend the map work is heavy
		}
		_, res, err := Run(e, job)
		if err != nil {
			t.Fatal(err)
		}
		return res.Virtual
	}
	big2 := runWith(2, bigRecs, 500)
	big12 := runWith(12, bigRecs, 500)
	if big12 >= big2 {
		t.Fatalf("12-node virtual time %v not below 2-node %v", big12, big2)
	}
	smallRecs := bigRecs[:100]
	small2 := runWith(2, smallRecs, 500)
	small12 := runWith(12, smallRecs, 500)
	ratio := float64(small2) / float64(small12)
	if ratio > 1.5 {
		t.Fatalf("small job should be overhead-flat: 2-node %v vs 12-node %v", small2, small12)
	}
}

func TestMakespanBasics(t *testing.T) {
	c := Cluster{Nodes: 2, SlotsPerNode: 1, Cost: DefaultCostModel}
	if got := c.Makespan(nil); got != 0 {
		t.Fatalf("empty makespan %v", got)
	}
	// Two equal tasks on two slots run concurrently.
	tasks := []TaskCost{{Duration: time.Minute}, {Duration: time.Minute}}
	if got := c.Makespan(tasks); got != time.Minute {
		t.Fatalf("parallel makespan %v", got)
	}
	// Three tasks on two slots: 2 minutes.
	tasks = append(tasks, TaskCost{Duration: time.Minute})
	if got := c.Makespan(tasks); got != 2*time.Minute {
		t.Fatalf("serialized makespan %v", got)
	}
}

func TestMakespanMonotonicInNodes(t *testing.T) {
	var tasks []TaskCost
	for i := 0; i < 40; i++ {
		tasks = append(tasks, TaskCost{Duration: time.Duration(i+1) * time.Second})
	}
	prev := time.Duration(1 << 62)
	for nodes := 1; nodes <= 12; nodes++ {
		c := Cluster{Nodes: nodes, SlotsPerNode: 2, Cost: DefaultCostModel}
		m := c.Makespan(tasks)
		if m > prev {
			t.Fatalf("makespan grew with more nodes: %v -> %v at %d nodes", prev, m, nodes)
		}
		prev = m
	}
}

func TestEnginePropertyTotalCountPreserved(t *testing.T) {
	e := MustEngine(Cluster{Nodes: 3, SlotsPerNode: 2, Cost: DefaultCostModel})
	f := func(keys []uint8) bool {
		recs := make([]KeyValue[string, int], len(keys))
		for i, k := range keys {
			recs[i] = KeyValue[string, int]{Key: fmt.Sprint(k % 10), Value: 1}
		}
		out, _, err := Run(e, &Job[KeyValue[string, int], string, int]{
			Name:      "prop",
			Input:     recs,
			splitSize: 4,
			Map:       identity[string, int],
			Reduce: func(k string, vs []int, emit func(string, int)) error {
				emit(k, len(vs))
				return nil
			},
		})
		if err != nil {
			return false
		}
		total := 0
		for _, kv := range out {
			total += kv.Value
		}
		return total == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWordCount10k(b *testing.B) {
	lines := make([]string, 1000)
	for i := range lines {
		lines[i] = strings.Repeat(fmt.Sprintf("w%d ", i%50), 10)
	}
	e := MustEngine(DefaultCluster)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(e, wordCountJob(lines, true)); err != nil {
			b.Fatal(err)
		}
	}
}
