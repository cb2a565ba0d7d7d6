package mapreduce

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// chaosCluster is the standard deployment for fault tests: big enough to
// survive a node death, small enough to keep schedules readable.
var chaosCluster = Cluster{Nodes: 4, SlotsPerNode: 2, Cost: DefaultCostModel}

// manyLines builds n deterministic input lines so jobs have enough map
// tasks for faults to land on.
func manyLines(n int) []string {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	lines := make([]string, n)
	for i := range lines {
		lines[i] = words[i%len(words)] + " " + words[(i*3+1)%len(words)]
	}
	return lines
}

// runFaulted executes the wordcount job on a fresh engine with the plan.
func runFaulted(t *testing.T, plan faults.Plan, retry retryPolicy, lines []string) (outcome[string, int], error) {
	t.Helper()
	e := MustEngine(chaosCluster)
	e.Faults = faults.MustNew(plan)
	e.retry = retry
	return run(e, wordCountJob(lines, false))
}

func TestFaultedRunIdenticalOutput(t *testing.T) {
	lines := manyLines(16)
	baseline, err := run(MustEngine(chaosCluster), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	// Attempts 1 and 2 of map task 0 crash; attempt 3 succeeds within the
	// default budget of 4.
	faulted, err := runFaulted(t, faults.Plan{
		Crashes: []faults.TaskCrash{{Phase: faults.PhaseMap, Task: 0, UpToAttempt: 2}},
	}, retryPolicy{}, lines)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline.Output, faulted.Output) {
		t.Fatal("faulted run changed job output")
	}
	if got := faulted.Counters.Get(CounterTaskFailures); got != 2 {
		t.Fatalf("task.failures = %d, want 2", got)
	}
	if got := faulted.Counters.Get(CounterTaskAttempts); got != baseline.Counters.Get(CounterTaskAttempts)+int64(faulted.MapTasks+faulted.ReduceTask)+2 {
		// Baseline records no attempts counter (fault-free path); faulted
		// run logs one per attempt: every task once plus the two crashes.
		if got != int64(faulted.MapTasks+faulted.ReduceTask)+2 {
			t.Fatalf("task.attempts = %d, want %d", got, faulted.MapTasks+faulted.ReduceTask+2)
		}
	}
	if faulted.Virtual <= baseline.Virtual {
		t.Fatalf("recovery should cost virtual time: faulted %v <= baseline %v", faulted.Virtual, baseline.Virtual)
	}
	// The attempt log must show the retries with exponential backoff.
	var crashes []TaskAttempt
	for _, a := range faulted.Attempts {
		if a.Task == 0 && a.Phase == faults.PhaseMap {
			crashes = append(crashes, a)
		}
	}
	if len(crashes) != 3 {
		t.Fatalf("map task 0 attempts = %d, want 3 (%v)", len(crashes), crashes)
	}
	for i, a := range crashes {
		if a.Attempt != i+1 {
			t.Fatalf("attempt %d numbered %d", i, a.Attempt)
		}
	}
	if crashes[0].Outcome != AttemptCrashed || crashes[1].Outcome != AttemptCrashed || crashes[2].Outcome != AttemptSuccess {
		t.Fatalf("outcomes %v %v %v", crashes[0].Outcome, crashes[1].Outcome, crashes[2].Outcome)
	}
	gap1 := crashes[1].Start - crashes[0].End
	gap2 := crashes[2].Start - crashes[1].End
	if gap1 < defaultRetryPolicy.Backoff {
		t.Fatalf("first retry backoff %v < %v", gap1, defaultRetryPolicy.Backoff)
	}
	if gap2 < 2*defaultRetryPolicy.Backoff {
		t.Fatalf("second retry backoff %v not doubled (%v)", gap2, gap1)
	}
}

func TestTaskExhaustsRetriesTypedError(t *testing.T) {
	_, err := runFaulted(t, faults.Plan{
		Crashes: []faults.TaskCrash{{Phase: faults.PhaseMap, Task: 1, UpToAttempt: 99}},
	}, retryPolicy{}, manyLines(8))
	if err == nil {
		t.Fatal("always-crashing task should fail the job")
	}
	var tf *TaskFailedError
	if !errors.As(err, &tf) {
		t.Fatalf("error %v is not a *TaskFailedError", err)
	}
	if tf.Phase != faults.PhaseMap || tf.Task != 1 {
		t.Fatalf("failure site %s/%d, want map/1", tf.Phase, tf.Task)
	}
	if tf.Attempts != defaultRetryPolicy.MaxAttempts {
		t.Fatalf("attempts %d, want %d", tf.Attempts, defaultRetryPolicy.MaxAttempts)
	}
}

func TestReduceTaskExhaustsRetries(t *testing.T) {
	_, err := runFaulted(t, faults.Plan{
		Crashes: []faults.TaskCrash{{Phase: faults.PhaseReduce, Task: 0, UpToAttempt: 99}},
	}, retryPolicy{MaxAttempts: 2}, manyLines(8))
	var tf *TaskFailedError
	if !errors.As(err, &tf) {
		t.Fatalf("error %v is not a *TaskFailedError", err)
	}
	if tf.Phase != faults.PhaseReduce || tf.Attempts != 2 {
		t.Fatalf("failure %s after %d attempts, want reduce after 2", tf.Phase, tf.Attempts)
	}
}

func TestNodeDeathInMapPhaseRecovers(t *testing.T) {
	lines := manyLines(16) // 8 map tasks fill all 8 slots in one wave
	baseline, err := run(MustEngine(chaosCluster), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 dies 1s into the map window (JobStartup offsets the global
	// clock), killing its two running attempts.
	death := DefaultCostModel.JobStartup + time.Second
	faulted, err := runFaulted(t, faults.Plan{
		NodeDeaths: []faults.NodeDeath{{Node: 1, At: death}},
	}, retryPolicy{}, lines)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline.Output, faulted.Output) {
		t.Fatal("node death changed job output")
	}
	if got := faulted.Counters.Get(CounterTaskKilled); got < 1 {
		t.Fatalf("task.killed = %d, want >= 1", got)
	}
	// Killed attempts do not consume the retry budget.
	if got := faulted.Counters.Get(CounterTaskFailures); got != 0 {
		t.Fatalf("task.failures = %d, want 0 (node death is not the task's fault)", got)
	}
	// Nothing schedules on the dead node after its death.
	for _, a := range faulted.Attempts {
		if a.Node == 1 && a.Start >= time.Second {
			t.Fatalf("attempt scheduled on dead node 1 at %v: %+v", a.Start, a)
		}
	}
}

func TestNodeDeathDuringShuffleReexecutesMaps(t *testing.T) {
	lines := manyLines(16)
	baseline, err := run(MustEngine(chaosCluster), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	// Maps finish around 3s (one wave of TaskStartup-dominated tasks);
	// reducers shuffle until roughly 6s. Killing node 1 at 4.5s lands after
	// the map phase but before the shuffle drains, so its completed map
	// output is lost and Hadoop's rule demands re-execution.
	death := DefaultCostModel.JobStartup + 4500*time.Millisecond
	faulted, err := runFaulted(t, faults.Plan{
		NodeDeaths: []faults.NodeDeath{{Node: 1, At: death}},
	}, retryPolicy{}, lines)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline.Output, faulted.Output) {
		t.Fatal("shuffle-window node death changed job output")
	}
	if got := faulted.Counters.Get(CounterMapReexecutions); got < 1 {
		t.Fatalf("map.reexecutions = %d, want >= 1 (lost map output must re-run)", got)
	}
	if got := faulted.Counters.Get(CounterTaskKilled); got < 1 {
		t.Fatalf("task.killed = %d, want >= 1 (reducers lost their fetch)", got)
	}
	// The re-executed maps appear as extra successful attempts after the
	// death, on surviving nodes.
	reexec := 0
	for _, a := range faulted.Attempts {
		if a.Phase == faults.PhaseMap && a.Start >= 4500*time.Millisecond {
			if a.Node == 1 {
				t.Fatalf("re-execution placed on dead node: %+v", a)
			}
			reexec++
		}
	}
	if reexec < 1 {
		t.Fatal("no map attempts after the node death")
	}
	if faulted.Virtual <= baseline.Virtual {
		t.Fatalf("re-execution should cost virtual time: %v <= %v", faulted.Virtual, baseline.Virtual)
	}
}

func TestMapOnlyJobSkipsReexecution(t *testing.T) {
	// A map-only job writes its output straight to the job client; a node
	// death after its tasks completed loses nothing.
	recs := make([]KeyValue[string, int], 12)
	for i := range recs {
		recs[i] = KeyValue[string, int]{Key: fmt.Sprint(i), Value: i}
	}
	job := func() *Job[KeyValue[string, int], string, int] {
		return &Job[KeyValue[string, int], string, int]{
			Name:      "maponly",
			Input:     recs,
			splitSize: 2,
			Map:       identity[string, int],
		}
	}
	e := MustEngine(chaosCluster)
	e.Faults = faults.MustNew(faults.Plan{
		NodeDeaths: []faults.NodeDeath{{Node: 0, At: DefaultCostModel.JobStartup + time.Hour}},
	})
	res, err := run(e, job())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get(CounterMapReexecutions); got != 0 {
		t.Fatalf("map-only job re-executed %d maps after a post-job death", got)
	}
	if len(res.Output) != 12 {
		t.Fatalf("output %d records, want 12", len(res.Output))
	}
}

func TestBlacklistAfterRepeatedCrashes(t *testing.T) {
	lines := manyLines(16)
	faulted, err := runFaulted(t, faults.Plan{
		Crashes: []faults.TaskCrash{{Phase: faults.PhaseMap, Task: 0, UpToAttempt: 1}},
	}, retryPolicy{BlacklistAfter: 1}, lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulted.Blacklisted) != 1 {
		t.Fatalf("blacklisted = %v, want exactly one node", faulted.Blacklisted)
	}
	if got := faulted.Counters.Get(CounterNodesBlacklisted); got != 1 {
		t.Fatalf("node.blacklisted = %d, want 1", got)
	}
	// After the blacklist takes effect, no further attempts land on the node.
	bad := faulted.Blacklisted[0]
	var crashEnd time.Duration
	for _, a := range faulted.Attempts {
		if a.Outcome == AttemptCrashed {
			crashEnd = a.End
			if a.Node != bad {
				t.Fatalf("crash on node %d but blacklist hit node %d", a.Node, bad)
			}
		}
	}
	for _, a := range faulted.Attempts {
		if a.Node == bad && a.Start > crashEnd {
			t.Fatalf("attempt on blacklisted node %d at %v", bad, a.Start)
		}
	}
}

func TestLastNodeNeverBlacklisted(t *testing.T) {
	// On a one-node cluster every crash hits the only node; blacklisting it
	// would strand the job, so the guard must keep it usable.
	e := MustEngine(Cluster{Nodes: 1, SlotsPerNode: 2, Cost: DefaultCostModel})
	e.Faults = faults.MustNew(faults.Plan{
		Crashes: []faults.TaskCrash{{Phase: faults.PhaseMap, Task: 0, UpToAttempt: 2}},
	})
	e.retry = retryPolicy{BlacklistAfter: 1}
	res, err := run(e, wordCountJob(manyLines(6), false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blacklisted) != 0 {
		t.Fatalf("last usable node was blacklisted: %v", res.Blacklisted)
	}
}

func TestAllNodesDeadFailsTyped(t *testing.T) {
	_, err := runFaulted(t, faults.Plan{
		NodeDeaths: []faults.NodeDeath{{Node: 0}, {Node: 1}, {Node: 2}, {Node: 3}},
	}, retryPolicy{}, manyLines(4))
	var tf *TaskFailedError
	if !errors.As(err, &tf) {
		t.Fatalf("cluster-wide death should yield *TaskFailedError, got %v", err)
	}
}

func TestSlowNodeStretchesVirtualTime(t *testing.T) {
	lines := manyLines(16)
	baseline, err := runFaulted(t, faults.Plan{SlowNodes: []faults.SlowNode{{Node: 0, Factor: 1}}}, retryPolicy{}, lines)
	if err != nil {
		t.Fatal(err)
	}
	slowed, err := runFaulted(t, faults.Plan{SlowNodes: []faults.SlowNode{{Node: 0, Factor: 4}}}, retryPolicy{}, lines)
	if err != nil {
		t.Fatal(err)
	}
	if slowed.Virtual <= baseline.Virtual {
		t.Fatalf("slow node did not stretch the makespan: %v <= %v", slowed.Virtual, baseline.Virtual)
	}
	if !reflect.DeepEqual(baseline.Output, slowed.Output) {
		t.Fatal("slow node changed job output")
	}
}

func TestFaultedRunDeterminism(t *testing.T) {
	lines := manyLines(24)
	plan := faults.ChaosPlan(42)
	plan.NodeDeaths = []faults.NodeDeath{{Node: 2, At: DefaultCostModel.JobStartup + 4*time.Second}}
	a, err := runFaulted(t, plan, retryPolicy{}, lines)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runFaulted(t, plan, retryPolicy{}, lines)
	if err != nil {
		t.Fatal(err)
	}
	if a.Virtual != b.Virtual {
		t.Fatalf("virtual time diverged: %v vs %v", a.Virtual, b.Virtual)
	}
	if !reflect.DeepEqual(a.Attempts, b.Attempts) {
		t.Fatal("attempt logs diverged between identical faulted runs")
	}
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Fatal("outputs diverged between identical faulted runs")
	}
}

// chaosSeeds returns the seeds to sweep: CHAOS_SEED (set by the CI chaos
// matrix) selects one, otherwise all five default seeds run.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", s, err)
		}
		return []int64{n}
	}
	return []int64{1, 2, 3, 4, 5}
}

func TestChaosMatrix(t *testing.T) {
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
			res, err := runFaulted(t, plan, retryPolicy{}, lines)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline.Output, res.Output) {
				t.Fatal("chaos run changed job output")
			}
			if got := res.Counters.Get(CounterTaskKilled) + res.Counters.Get(CounterTaskFailures); got < 1 {
				t.Fatalf("chaos plan injected nothing observable (killed+failed = %d)", got)
			}
			again, err := runFaulted(t, plan, retryPolicy{}, lines)
			if err != nil {
				t.Fatal(err)
			}
			if again.Virtual != res.Virtual {
				t.Fatalf("seed %d not reproducible: %v vs %v", seed, res.Virtual, again.Virtual)
			}
		})
	}
}

func TestFaultTraceSpans(t *testing.T) {
	rec := trace.New()
	e := MustEngine(chaosCluster)
	e.Trace = rec
	e.Faults = faults.MustNew(faults.Plan{
		Crashes: []faults.TaskCrash{{Phase: faults.PhaseMap, Task: 0, UpToAttempt: 1}},
	})
	if _, err := run(e, wordCountJob(manyLines(8), true)); err != nil {
		t.Fatal(err)
	}
	var crashed, retried, combines int
	for _, s := range rec.Spans() {
		if s.Kind == trace.KindMap && s.Status == "crashed" {
			crashed++
			if s.Detail == "" {
				t.Fatal("crashed span missing failure reason")
			}
		}
		if s.Kind == trace.KindMap && s.Attempt >= 2 {
			retried++
		}
		if s.Kind == trace.KindCombine {
			combines++
		}
	}
	if crashed != 1 {
		t.Fatalf("crashed map spans = %d, want 1", crashed)
	}
	if retried != 1 {
		t.Fatalf("retry map spans = %d, want 1", retried)
	}
	if combines == 0 {
		t.Fatal("no combine spans on faulted run")
	}
}
