package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// End-to-end fault tolerance: the full MrMC-MinH pipeline, with task
// crashes and a node death injected into every MapReduce job, must
// produce clusters bit-identical to the fault-free run. Recovery is
// lossless by construction; only the modelled runtime grows.
func TestPipelineBitIdenticalUnderChaos(t *testing.T) {
	reads, _ := makeReads(4, 6, 200, 0.01, 5)

	for _, mode := range []Mode{GreedyMode, HierarchicalMode} {
		t.Run(mode.String(), func(t *testing.T) {
			opt := Options{
				K: 8, NumHashes: 50, Theta: 0.4, Mode: mode,
				Seed: 9, Cluster: smallCluster(),
			}
			baseline, err := Run(reads, opt)
			if err != nil {
				t.Fatal(err)
			}

			rec := trace.New()
			chaos := opt
			chaos.Trace = rec
			plan := faults.ChaosPlan(3)
			plan.Crashes = []faults.TaskCrash{{Phase: faults.PhaseMap, Task: 0, UpToAttempt: 1}}
			plan.NodeDeaths = []faults.NodeDeath{{Node: 2, At: 25 * time.Second}}
			chaos.Faults = faults.MustNew(plan)
			faulted, err := Run(reads, chaos)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(baseline.Assignments, faulted.Assignments) {
				t.Fatal("fault injection changed the clustering")
			}
			if faulted.NumClusters() != baseline.NumClusters() {
				t.Fatalf("cluster counts diverged: %d vs %d", faulted.NumClusters(), baseline.NumClusters())
			}
			if faulted.Virtual <= baseline.Virtual {
				t.Fatalf("recovery should cost virtual time: %v <= %v", faulted.Virtual, baseline.Virtual)
			}
			if chaos.Faults.Injected() == 0 {
				t.Fatal("the chaos plan injected nothing")
			}
			// The trace must show the recovery: retried attempts and at
			// least one non-success outcome.
			var retried, nonSuccess int
			for _, s := range rec.Spans() {
				if s.Attempt >= 2 {
					retried++
				}
				if s.Status == "crashed" || s.Status == "killed" {
					nonSuccess++
				}
			}
			if retried == 0 || nonSuccess == 0 {
				t.Fatalf("trace shows no recovery (retried=%d nonSuccess=%d)", retried, nonSuccess)
			}

			// Determinism: the same chaos seed reproduces the same schedule.
			again := opt
			again.Faults = faults.MustNew(plan)
			res2, err := Run(reads, again)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res2.Assignments, faulted.Assignments) {
				t.Fatal("faulted runs diverged")
			}
		})
	}
}
