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

// wordCountJob builds the canonical test job over the given lines.
func wordCountJob(lines []string, combiner bool) *Job {
	recs := make([]KeyValue, len(lines))
	for i, l := range lines {
		recs[i] = KeyValue{Key: fmt.Sprint(i), Value: l}
	}
	sum := func(key string, values []any, emit func(KeyValue)) error {
		n := 0
		for _, v := range values {
			n += v.(int)
		}
		emit(KeyValue{Key: key, Value: n})
		return nil
	}
	j := &Job{
		Name:  "wordcount",
		Input: MemoryInput{Records: recs, SplitSize: 2},
		Map: func(kv KeyValue, emit func(KeyValue)) error {
			for _, w := range strings.Fields(kv.Value.(string)) {
				emit(KeyValue{Key: w, Value: 1})
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

func collectCounts(out []KeyValue) map[string]int {
	m := make(map[string]int)
	for _, kv := range out {
		m[kv.Key] += kv.Value.(int)
	}
	return m
}

func TestWordCount(t *testing.T) {
	e := MustEngine(Cluster{Nodes: 4, SlotsPerNode: 2, Cost: DefaultCostModel})
	lines := []string{"a b a", "b c", "a", "c c c"}
	res, err := e.Run(wordCountJob(lines, false))
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
	plain, err := e.Run(wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	combined, err := e.Run(wordCountJob(lines, true))
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
	recs := make([]KeyValue, 20)
	for i := range recs {
		recs[i] = KeyValue{Key: fmt.Sprint(i), Value: i}
	}
	res, err := e.Run(&Job{
		Name:  "identity",
		Input: MemoryInput{Records: recs, SplitSize: 3},
		Map: func(kv KeyValue, emit func(KeyValue)) error {
			emit(KeyValue{Key: kv.Key, Value: kv.Value.(int) * 10})
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
		if kv.Value.(int) != i*10 {
			t.Fatalf("output[%d] = %v, want %d (order broken)", i, kv.Value, i*10)
		}
	}
	if res.ReduceTask != 0 {
		t.Fatal("map-only job ran reducers")
	}
}

func TestReduceGroupsSortedWithinPartition(t *testing.T) {
	e := MustEngine(DefaultCluster)
	var recs []KeyValue
	for i := 0; i < 30; i++ {
		recs = append(recs, KeyValue{Key: fmt.Sprintf("k%02d", i%10), Value: i})
	}
	var mu sortRecorder
	_, err := e.Run(&Job{
		Name:        "sorted",
		Input:       MemoryInput{Records: recs, SplitSize: 7},
		Map:         func(kv KeyValue, emit func(KeyValue)) error { emit(kv); return nil },
		NumReducers: 1,
		Reduce: func(key string, values []any, emit func(KeyValue)) error {
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

func TestJobValidation(t *testing.T) {
	e := MustEngine(DefaultCluster)
	if _, err := e.Run(&Job{Name: "no-map", Input: MemoryInput{}}); err == nil {
		t.Error("job without map accepted")
	}
	if _, err := e.Run(&Job{
		Name: "combine-no-reduce", Input: MemoryInput{},
		Map:     func(KeyValue, func(KeyValue)) error { return nil },
		Combine: func(string, []any, func(KeyValue)) error { return nil },
	}); err == nil {
		t.Error("combiner without reducer accepted")
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
	_, err := e.Run(&Job{
		Name:  "failing-map",
		Input: MemoryInput{Records: []KeyValue{{Key: "a", Value: 1}}},
		Map:   func(KeyValue, func(KeyValue)) error { return boom },
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	e := MustEngine(DefaultCluster)
	boom := errors.New("boom")
	_, err := e.Run(&Job{
		Name:   "failing-reduce",
		Input:  MemoryInput{Records: []KeyValue{{Key: "a", Value: 1}}},
		Map:    func(kv KeyValue, emit func(KeyValue)) error { emit(kv); return nil },
		Reduce: func(string, []any, func(KeyValue)) error { return boom },
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadPartitionerRejected(t *testing.T) {
	e := MustEngine(DefaultCluster)
	_, err := e.Run(&Job{
		Name:      "bad-part",
		Input:     MemoryInput{Records: []KeyValue{{Key: "a", Value: 1}}},
		Map:       func(kv KeyValue, emit func(KeyValue)) error { emit(kv); return nil },
		Reduce:    func(string, []any, func(KeyValue)) error { return nil },
		Partition: func(string, int) int { return 99 },
	})
	if err == nil {
		t.Fatal("out-of-range partition accepted")
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
	res, err := e.Run(wordCountJob([]string{"a b", "c"}, false))
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
	if len(c.Names()) == 0 {
		t.Fatal("no counter names")
	}
}

func TestEmptyInput(t *testing.T) {
	e := MustEngine(DefaultCluster)
	res, err := e.Run(&Job{
		Name:   "empty",
		Input:  MemoryInput{},
		Map:    func(kv KeyValue, emit func(KeyValue)) error { emit(kv); return nil },
		Reduce: func(string, []any, func(KeyValue)) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Fatalf("output %v", res.Output)
	}
}

// TestMemoryInputSplits pins the one split-size rule every in-memory job
// shares: with no SplitSize the records cut into at most two waves of map
// tasks per slot, each slot getting work when there are records enough;
// an explicit SplitSize is kept; the splits cover the records in order.
func TestMemoryInputSplits(t *testing.T) {
	c := Cluster{Nodes: 3, SlotsPerNode: 2}
	recs := func(n int) []KeyValue {
		out := make([]KeyValue, n)
		for i := range out {
			out[i] = KeyValue{Key: fmt.Sprint(i), Value: i}
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
		splits := MemoryInput{Records: in, SplitSize: tc.splitSize}.Splits(c)
		var sizes []int
		var joined []KeyValue
		for _, sp := range splits {
			sizes = append(sizes, len(sp.Records))
			joined = append(joined, sp.Records...)
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
	bigRecs := make([]KeyValue, 20000)
	for i := range bigRecs {
		bigRecs[i] = KeyValue{Key: fmt.Sprint(i % 100), Value: 1}
	}
	runWith := func(nodes int, recs []KeyValue, splitSize int) time.Duration {
		e := MustEngine(Cluster{Nodes: nodes, SlotsPerNode: 2, Cost: DefaultCostModel})
		job := &Job{
			Name:  "scale",
			Input: MemoryInput{Records: recs, SplitSize: splitSize},
			Map:   func(kv KeyValue, emit func(KeyValue)) error { emit(kv); return nil },
			Reduce: func(k string, vs []any, emit func(KeyValue)) error {
				emit(KeyValue{Key: k, Value: len(vs)})
				return nil
			},
			MapCostFactor: 50, // pretend the map work is heavy
		}
		res, err := e.Run(job)
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
		recs := make([]KeyValue, len(keys))
		for i, k := range keys {
			recs[i] = KeyValue{Key: fmt.Sprint(k % 10), Value: 1}
		}
		res, err := e.Run(&Job{
			Name:  "prop",
			Input: MemoryInput{Records: recs, SplitSize: 4},
			Map:   func(kv KeyValue, emit func(KeyValue)) error { emit(kv); return nil },
			Reduce: func(k string, vs []any, emit func(KeyValue)) error {
				emit(KeyValue{Key: k, Value: len(vs)})
				return nil
			},
		})
		if err != nil {
			return false
		}
		total := 0
		for _, kv := range res.Output {
			total += kv.Value.(int)
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
		if _, err := e.Run(wordCountJob(lines, true)); err != nil {
			b.Fatal(err)
		}
	}
}
