package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
)

// End-to-end external shuffle: the pipeline with a sort buffer far smaller
// than one signature record — so the greedy job's map tasks spill on every
// emit — must cluster bit-identically to the in-memory shuffle, with and
// without chaos-plan fault injection. The hierarchical pipeline is map-only
// (sketch and similarity rows never shuffle), so its runs document the
// other invariant: map-only jobs ignore the buffer entirely.
func TestPipelineSpillShuffleBitIdenticalUnderChaos(t *testing.T) {
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
			if baseline.Counters[mapreduce.CounterShuffleSpills] != 0 {
				t.Fatal("in-memory pipeline recorded spills")
			}

			// A 50-hash signature record is >400 bytes; a 256-byte buffer
			// overflows on every emitted record, i.e. well over twice per
			// map task of the shuffling (greedy) job.
			spillOpt := opt
			spillOpt.ShuffleBufferBytes = 256
			spilled, err := Run(reads, spillOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline.Assignments, spilled.Assignments) {
				t.Fatal("external shuffle changed the clustering")
			}
			spills := spilled.Counters[mapreduce.CounterShuffleSpills]
			if mode == HierarchicalMode {
				// Sketch and similarity jobs are map-only: nothing shuffles,
				// so nothing may spill no matter how small the buffer.
				if spills != 0 {
					t.Fatalf("map-only pipeline spilled %d times", spills)
				}
				return
			}
			mapRecords := spilled.Counters[mapreduce.CounterMapOutputRecords]
			if spills == 0 || spilled.Counters[mapreduce.CounterShuffleSpilledBytes] == 0 {
				t.Fatalf("bounded pipeline did not spill (counters %v)", spilled.Counters)
			}
			// Every reduce-bound record overflowed the buffer on its own:
			// the map-only sketch job emits nothing, so mapRecords are the
			// greedy job's, all of which must have spilled.
			if spills*2 < mapRecords {
				t.Fatalf("spills = %d for %d map records; buffer not forcing per-record spills", spills, mapRecords)
			}
			if spilled.Virtual <= baseline.Virtual {
				t.Fatalf("spill I/O should cost virtual time: %v <= %v", spilled.Virtual, baseline.Virtual)
			}

			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					chaos := spillOpt
					chaos.Faults = faults.MustNew(faults.ChaosPlan(seed))
					res, err := Run(reads, chaos)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(baseline.Assignments, res.Assignments) {
						t.Fatalf("seed %d: chaos + spill changed the clustering", seed)
					}
					if res.Counters[mapreduce.CounterShuffleSpills] == 0 {
						t.Fatalf("seed %d: chaos run skipped the spill path", seed)
					}
				})
			}
		})
	}
}
