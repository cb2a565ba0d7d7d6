package mapreduce

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// TestScheduleGolden holds the simulator's fault-free placements to
// testdata/schedule.golden, recorded from the list scheduler it replaced:
// in every case each task runs one attempt on the recorded node and slot
// in the recorded window, and both the simulator and Cluster.Makespan
// report the recorded makespan. A mismatch prints the actual line.
func TestScheduleGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/schedule.golden")
	if err != nil {
		t.Fatal(err)
	}
	var (
		header string
		c      Cluster
		costs  []TaskCost
		want   []string
		cases  int
	)
	check := func(wantMakespan string) {
		sim := newFaultSim(c, nil, RetryPolicy{}, "golden", 0)
		tasks := sim.newTasks(costs, 0)
		if err := sim.runPhase(faults.PhaseMap, tasks); err != nil {
			t.Fatalf("%s: %v", header, err)
		}
		if len(sim.attempts) != len(tasks) {
			t.Errorf("%s: %d attempts for %d tasks", header, len(sim.attempts), len(tasks))
		}
		for i, task := range tasks {
			a := sim.attempts[task.final]
			got := fmt.Sprintf("task %d cost=%d node=%d slot=%d start=%d end=%d",
				i, int64(costs[i].Duration), a.Node, a.Slot, int64(a.Start), int64(a.End))
			if got != want[i] {
				t.Errorf("%s: placement differs from testdata/schedule.golden (recorded: %q); actual line:\n%s", header, want[i], got)
			}
		}
		for _, got := range []string{
			fmt.Sprintf("makespan %d", int64(sim.makespan())),
			fmt.Sprintf("makespan %d", int64(c.Makespan(costs))),
		} {
			if got != wantMakespan {
				t.Errorf("%s: makespan differs from testdata/schedule.golden (recorded: %q); actual line:\n%s", header, wantMakespan, got)
			}
		}
		cases++
	}
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "case "):
			header = line
			c = Cluster{Cost: DefaultCostModel}
			var id int
			if _, err := fmt.Sscanf(line, "case %d nodes=%d slots=%d straggler_fraction=%g straggler_slowdown=%g speculative=%t",
				&id, &c.Nodes, &c.SlotsPerNode, &c.Cost.StragglerFraction, &c.Cost.StragglerSlowdown, &c.Speculative); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			costs, want = nil, nil
		case strings.HasPrefix(line, "task "):
			var i int
			var ns int64
			if _, err := fmt.Sscanf(line, "task %d cost=%d", &i, &ns); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			costs = append(costs, TaskCost{Duration: time.Duration(ns)})
			want = append(want, line)
		case strings.HasPrefix(line, "makespan "):
			check(line)
		}
	}
	if cases < 50 {
		t.Fatalf("testdata/schedule.golden holds %d cases, want 50", cases)
	}
}

// TestScheduleMatchesMakespan checks the fault-free schedule on seeded
// random task sets, with and without stragglers and speculation: every
// task runs exactly one successful attempt on a slot of its node, for its
// straggler-adjusted cost floored at 1 ms; no slot runs two attempts at
// once; and the latest end is the makespan that both the simulator and
// Cluster.Makespan report.
func TestScheduleMatchesMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		c := Cluster{Nodes: 1 + rng.Intn(12), SlotsPerNode: 1 + rng.Intn(3), Cost: DefaultCostModel}
		if trial%3 > 0 {
			c.Cost.StragglerFraction = 0.1 + 0.4*rng.Float64()
			c.Cost.StragglerSlowdown = 1.5 + 3.5*rng.Float64()
			c.Speculative = trial%3 == 2
		}
		// Costs from zero (the 1 ms floor) up to 30 s.
		costs := make([]TaskCost, rng.Intn(60))
		for i := range costs {
			costs[i] = TaskCost{Duration: time.Duration(rng.Int63n(int64(30 * time.Second)))}
		}
		name := fmt.Sprintf("trial %d (%d nodes × %d slots, %d tasks)", trial, c.Nodes, c.SlotsPerNode, len(costs))
		sim := newFaultSim(c, nil, RetryPolicy{}, "schedule", 0)
		tasks := sim.newTasks(costs, 0)
		if err := sim.runPhase(faults.PhaseMap, tasks); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sim.attempts) != len(costs) {
			t.Fatalf("%s: %d attempts for %d tasks", name, len(sim.attempts), len(costs))
		}
		perSlot := make([][]TaskAttempt, c.TotalSlots())
		var latest time.Duration
		for i, a := range sim.attempts {
			if a.Outcome != AttemptSuccess || a.Attempt != 1 {
				t.Fatalf("%s: attempt %d is %v attempt %d, want one successful attempt per task", name, i, a.Outcome, a.Attempt)
			}
			if tasks[a.Task].final != i {
				t.Fatalf("%s: task %d has more than one attempt", name, a.Task)
			}
			if a.Slot < 0 || a.Slot >= c.TotalSlots() || a.Node != a.Slot/c.SlotsPerNode {
				t.Fatalf("%s: task %d on node %d slot %d", name, a.Task, a.Node, a.Slot)
			}
			want := max(c.effectiveDuration(a.Task, costs[a.Task].Duration), time.Millisecond)
			if a.Start < 0 || a.End-a.Start != want {
				t.Fatalf("%s: task %d runs [%v, %v), want %v long", name, a.Task, a.Start, a.End, want)
			}
			perSlot[a.Slot] = append(perSlot[a.Slot], a)
			latest = max(latest, a.End)
		}
		for slot, as := range perSlot {
			for i := range as {
				for j := i + 1; j < len(as); j++ {
					if as[i].Start < as[j].End && as[j].Start < as[i].End {
						t.Fatalf("%s: slot %d runs tasks %d and %d at once", name, slot, as[i].Task, as[j].Task)
					}
				}
			}
		}
		if got := sim.makespan(); got != latest {
			t.Fatalf("%s: simulator makespan %v, latest attempt end %v", name, got, latest)
		}
		if got := c.Makespan(costs); got != latest {
			t.Fatalf("%s: Cluster.Makespan %v, latest attempt end %v", name, got, latest)
		}
	}
}

// TestVirtualIsJobStartupPlusPhaseMakespans pins Engine.Run's virtual
// clock to Cluster.Makespan, which core.ModelRuntime prices whole runs
// with: a map-only job costs JobStartup plus the makespan of its map
// tasks, and a job with reducers adds the makespan of its reduce tasks
// after the map→reduce barrier.
func TestVirtualIsJobStartupPlusPhaseMakespans(t *testing.T) {
	straggly := Cluster{Nodes: 3, SlotsPerNode: 2, Cost: DefaultCostModel, Speculative: true}
	straggly.Cost.StragglerFraction = 0.3
	straggly.Cost.StragglerSlowdown = 4
	for _, c := range []Cluster{{Nodes: 3, SlotsPerNode: 2, Cost: DefaultCostModel}, straggly} {
		job := wordCountJob(manyLines(40), false)
		var mapCosts []TaskCost
		partRecords := make([]int, job.NumReducers)
		shuffleBytes := make([]int, job.NumReducers)
		for _, sp := range job.Input.Splits(c) {
			mapCosts = append(mapCosts, c.mapTaskCost(sp, job.MapCostFactor))
			for _, kv := range sp.Records {
				if err := job.Map(kv, func(out KeyValue) {
					p := DefaultPartition(out.Key, job.NumReducers)
					partRecords[p]++
					shuffleBytes[p] += len(out.Key) + approxValueBytes(out.Value)
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		var reduceCosts []TaskCost
		for p := range partRecords {
			reduceCosts = append(reduceCosts, c.reduceTaskCost(partRecords[p], shuffleBytes[p], 0, job.ReduceCostFactor))
		}

		res, err := MustEngine(c).Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.Cost.JobStartup + c.Makespan(mapCosts) + c.Makespan(reduceCosts); res.Virtual != want {
			t.Errorf("speculative=%v: job Virtual %v, want JobStartup + map + reduce makespans = %v", c.Speculative, res.Virtual, want)
		}
		job.Reduce = nil
		res, err = MustEngine(c).Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.Cost.JobStartup + c.Makespan(mapCosts); res.Virtual != want {
			t.Errorf("speculative=%v: map-only Virtual %v, want JobStartup + map makespan = %v", c.Speculative, res.Virtual, want)
		}
	}
}

// TestZeroCostClusterChargesOneMillisecondPerAttempt pins the simulator's
// 1 ms minimum attempt length: on a cluster with a zero CostModel every
// wave of tasks takes 1 ms, so a job's Virtual counts its waves.
func TestZeroCostClusterChargesOneMillisecondPerAttempt(t *testing.T) {
	e := MustEngine(Cluster{Nodes: 2, SlotsPerNode: 1})
	job := wordCountJob(manyLines(5), false)
	job.Input.SplitSize = 1 // five map tasks: three waves on two slots
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	// Three map waves, then two waves for the three reducers.
	if res.MapTasks != 5 || res.ReduceTask != 3 || res.Virtual != 5*time.Millisecond {
		t.Fatalf("%d maps, %d reduces in %v; want 5 maps, 3 reduces in 5ms", res.MapTasks, res.ReduceTask, res.Virtual)
	}
	job.Reduce = nil
	if res, err = e.Run(job); err != nil {
		t.Fatal(err)
	}
	if res.Virtual != 3*time.Millisecond {
		t.Fatalf("map-only job took %v, want 3ms", res.Virtual)
	}
}

// TestFaultFreeRunRecordsNoAttempts: without an injector, or with one
// whose plan is empty, a job publishes no attempt log, blacklist or
// recovery counters, and its task spans keep Attempt 0 and an empty
// Status as the trace.Span doc says.
func TestFaultFreeRunRecordsNoAttempts(t *testing.T) {
	var want time.Duration
	for _, inj := range []*faults.Injector{nil, faults.MustNew(faults.Plan{})} {
		e := MustEngine(chaosCluster)
		e.Faults = inj
		e.Trace = trace.New()
		res, err := e.Run(wordJob(64))
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempts != nil || res.Blacklisted != nil {
			t.Fatalf("injector %v: attempts %v, blacklisted %v", inj, res.Attempts, res.Blacklisted)
		}
		for _, name := range []string{
			CounterTaskAttempts, CounterTaskFailures, CounterTaskKilled, CounterMapReexecutions,
			CounterNodesBlacklisted, CounterSpeculative, CounterCommitCommitted, CounterCommitAborted,
		} {
			if got := res.Counters.Get(name); got != 0 {
				t.Errorf("injector %v: counter %s = %d", inj, name, got)
			}
		}
		tasks := map[trace.Kind]int{}
		for _, s := range e.Trace.Spans() {
			if s.Kind != trace.KindMap && s.Kind != trace.KindReduce {
				continue
			}
			tasks[s.Kind]++
			if s.Attempt != 0 || s.Status != "" {
				t.Errorf("injector %v: span %s has attempt %d status %q", inj, s.Name, s.Attempt, s.Status)
			}
		}
		if tasks[trace.KindMap] != res.MapTasks || tasks[trace.KindReduce] != res.ReduceTask {
			t.Errorf("injector %v: %d map and %d reduce spans for %d and %d tasks",
				inj, tasks[trace.KindMap], tasks[trace.KindReduce], res.MapTasks, res.ReduceTask)
		}
		if want == 0 {
			want = res.Virtual
		} else if res.Virtual != want {
			t.Errorf("empty plan changed Virtual: %v, want %v", res.Virtual, want)
		}
	}
}
