package mapreduce

import (
	"testing"
	"time"
)

// stragglerTasks builds a uniform task list long enough that the
// deterministic straggler pick lands several times.
func stragglerTasks(n int, d time.Duration) []TaskCost {
	tasks := make([]TaskCost, n)
	for i := range tasks {
		tasks[i] = TaskCost{Duration: d}
	}
	return tasks
}

func stragglerCluster(speculative bool) Cluster {
	cost := DefaultCostModel
	cost.StragglerFraction = 0.08
	cost.StragglerSlowdown = 6
	return Cluster{Nodes: 4, SlotsPerNode: 2, Cost: cost, Speculative: speculative}
}

func TestStragglersExtendMakespan(t *testing.T) {
	tasks := stragglerTasks(64, 10*time.Second)
	clean := Cluster{Nodes: 4, SlotsPerNode: 2, Cost: DefaultCostModel}
	base := clean.Makespan(tasks)
	slow := stragglerCluster(false).Makespan(tasks)
	if slow <= base {
		t.Fatalf("stragglers did not extend makespan: %v vs %v", slow, base)
	}
}

func TestSpeculativeExecutionRecoversMostOfTheTail(t *testing.T) {
	tasks := stragglerTasks(64, 10*time.Second)
	noSpec := stragglerCluster(false).Makespan(tasks)
	spec := stragglerCluster(true).Makespan(tasks)
	if spec >= noSpec {
		t.Fatalf("speculation did not help: %v vs %v", spec, noSpec)
	}
	clean := Cluster{Nodes: 4, SlotsPerNode: 2, Cost: DefaultCostModel}
	base := clean.Makespan(tasks)
	// Speculation should close most of the gap to the clean makespan.
	if float64(spec-base) > 0.6*float64(noSpec-base) {
		t.Fatalf("speculation recovered too little: base=%v spec=%v noSpec=%v", base, spec, noSpec)
	}
}

func TestStragglerModelDisabledByDefault(t *testing.T) {
	tasks := stragglerTasks(16, time.Second)
	c := Cluster{Nodes: 2, SlotsPerNode: 2, Cost: DefaultCostModel}
	if c.Makespan(tasks) != c.Makespan(tasks) {
		t.Fatal("makespan not deterministic")
	}
	// Zero fraction and slowdown <= 1 both disable the model.
	cost := DefaultCostModel
	cost.StragglerFraction = 0.5
	cost.StragglerSlowdown = 1
	c2 := Cluster{Nodes: 2, SlotsPerNode: 2, Cost: cost}
	if c2.Makespan(tasks) != c.Makespan(tasks) {
		t.Fatal("slowdown=1 should be inert")
	}
}

func TestIsStragglerFractionRoughlyHonored(t *testing.T) {
	n := 10000
	hits := 0
	for i := 0; i < n; i++ {
		if isStraggler(i, 0.1) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("straggler fraction %.3f, want ~0.10", frac)
	}
	// Deterministic.
	if isStraggler(42, 0.1) != isStraggler(42, 0.1) {
		t.Fatal("straggler pick not deterministic")
	}
}

func TestEngineRunsWithStragglerModel(t *testing.T) {
	e := MustEngine(stragglerCluster(true))
	res, err := run(e, wordCountJob([]string{"a b", "b c", "c d"}, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Virtual <= 0 {
		t.Fatal("no virtual time")
	}
}
