package mapreduce

import (
	"reflect"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/faults"
)

// slowNodePlan dilates node 1 heavily so every attempt landing there is a
// straggler the speculative scheduler should back up.
func slowNodePlan() faults.Plan {
	return faults.Plan{SlowNodes: []faults.SlowNode{{Node: 1, Factor: 6}}}
}

func speculativeEngine(t *testing.T, speculative bool) *Engine {
	t.Helper()
	c := chaosCluster
	c.Speculative = speculative
	e := MustEngine(c)
	e.Faults = faults.MustNew(slowNodePlan())
	return e
}

func TestSpeculativeBackupsLaunchOnSlowNodes(t *testing.T) {
	lines := manyLines(24)
	baseline, err := run(MustEngine(chaosCluster), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(speculativeEngine(t, true), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	// Speculation never changes job output.
	if !reflect.DeepEqual(baseline.Output, res.Output) {
		t.Fatal("speculative run changed job output")
	}
	spec := res.Counters.Get(CounterSpeculative)
	if spec == 0 {
		t.Fatal("no speculative backups launched despite a 6x slow node")
	}
	var backups int
	for _, a := range res.Attempts {
		if a.Speculative {
			backups++
		}
	}
	if int64(backups) != spec {
		t.Fatalf("attempt log has %d backups, counter says %d", backups, spec)
	}
}

func TestSpeculativeLoserKilledNotFailed(t *testing.T) {
	res, err := run(speculativeEngine(t, true), wordCountJob(manyLines(24), false))
	if err != nil {
		t.Fatal(err)
	}
	// Group attempts per (phase, task); wherever a backup ran, exactly one
	// attempt succeeds and the race's loser is KILLED — losing a race never
	// consumes retry budget, so no speculative pair may contain a failure.
	type key struct {
		phase string
		task  int
	}
	byTask := map[key][]TaskAttempt{}
	for _, a := range res.Attempts {
		k := key{a.Phase, a.Task}
		byTask[k] = append(byTask[k], a)
	}
	checked := 0
	for k, atts := range byTask {
		hasBackup := false
		for _, a := range atts {
			if a.Speculative {
				hasBackup = true
			}
		}
		if !hasBackup {
			continue
		}
		checked++
		var success, killed, crashed int
		for _, a := range atts {
			switch a.Outcome {
			case AttemptSuccess:
				success++
			case AttemptKilled:
				killed++
			case AttemptCrashed:
				crashed++
			}
		}
		if success != 1 {
			t.Fatalf("task %v: %d successes among %v", k, success, atts)
		}
		if crashed != 0 {
			t.Fatalf("task %v: race loser marked FAILED", k)
		}
		if killed == 0 {
			t.Fatalf("task %v: no attempt killed in a speculative pair", k)
		}
		// The loser dies when the winner commits, never after.
		var winEnd int64 = -1
		for _, a := range atts {
			if a.Outcome == AttemptSuccess {
				winEnd = int64(a.End)
			}
		}
		for _, a := range atts {
			if a.Outcome == AttemptKilled && int64(a.End) > winEnd {
				t.Fatalf("task %v: loser outlived the winner's commit", k)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no speculative pairs to check")
	}
	// Commit counters mirror the outcomes: only winners committed.
	var succeeded, others int64
	for _, a := range res.Attempts {
		if a.Outcome == AttemptSuccess {
			succeeded++
		} else {
			others++
		}
	}
	if got := res.Counters.Get(CounterCommitCommitted); got != succeeded {
		t.Fatalf("commit.committed = %d, want %d", got, succeeded)
	}
	if got := res.Counters.Get(CounterCommitAborted); got != others {
		t.Fatalf("commit.aborted = %d, want %d", got, others)
	}
}

func TestSpeculationShortensSlowNodeMakespan(t *testing.T) {
	lines := manyLines(24)
	without, err := run(speculativeEngine(t, false), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	with, err := run(speculativeEngine(t, true), wordCountJob(lines, false))
	if err != nil {
		t.Fatal(err)
	}
	if with.Virtual >= without.Virtual {
		t.Fatalf("speculation did not shorten the makespan: %v vs %v", with.Virtual, without.Virtual)
	}
	if without.Counters.Get(CounterSpeculative) != 0 {
		t.Fatal("backups launched with speculation disabled")
	}
}
