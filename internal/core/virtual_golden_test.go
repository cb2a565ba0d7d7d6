package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
)

// virtualCases are the runs testdata/virtual.golden pins: one line per
// case with the modelled runtime in nanoseconds and the job count, and
// for core.Run cases the deterministic counters of goldenCounters. The
// virtual times were recorded while fault-free jobs still ran on a
// separate list scheduler, so the file holds the one fault simulator to
// that scheduler's virtual clock across both modes, both candidate
// generators, the external shuffle, stragglers with speculation, a chaos
// plan and the Algorithm 3 script.
var virtualCases = []struct {
	name string
	mut  func(*Options) // nil runs the Algorithm 3 script
}{
	{"greedy", func(o *Options) { o.Mode = GreedyMode }},
	{"hierarchical", func(o *Options) { o.Mode = HierarchicalMode }},
	{"greedy-lshcc-4x6", func(o *Options) {
		o.Mode = GreedyMode
		o.Candidate = CandidateLSH
		o.LSH = cluster.LSHOptions{Bands: 4, Rows: 6}
	}},
	{"hierarchical-lshcc-spill4k", func(o *Options) {
		o.Mode = HierarchicalMode
		o.Candidate = CandidateLSH
		o.ShuffleBufferBytes = 4 << 10
	}},
	{"greedy-straggler-speculative", func(o *Options) {
		o.Mode = GreedyMode
		o.Cluster.Cost.StragglerFraction = 0.3
		o.Cluster.Cost.StragglerSlowdown = 4
		o.Cluster.Speculative = true
	}},
	{"hierarchical-chaos-seed1", func(o *Options) {
		o.Mode = HierarchicalMode
		o.Faults = faults.MustNew(faults.ChaosPlan(1))
	}},
	{"algorithm3", nil},
}

// goldenCounters are the Result.Counters a core.Run line pins after its
// job count: the communication and round structure of the run, which no
// change of host or scheduling can move.
var goldenCounters = []string{
	mapreduce.CounterShuffleBytes,
	mapreduce.CounterReduceInputGroups,
	"lsh.candidate_pairs",
	"lsh.edges",
	"cc.rounds",
}

// runVirtualCase returns the golden line of one case.
func runVirtualCase(t *testing.T, name string, mut func(*Options)) string {
	t.Helper()
	reads, _ := makeReads(4, 6, 200, 0.01, 5)
	var virtual time.Duration
	var jobs int
	var counters map[string]int64
	if mut == nil {
		fs := dfs.MustNew(dfs.Config{NumDataNodes: 4, BlockSize: 4096, Replication: 2})
		var sb strings.Builder
		for _, r := range reads {
			fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
		}
		if err := fs.WriteFile("/in/reads.fa", []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
		res, err := RunScriptTraced(fs, smallCluster(), ScriptParams{
			Input: "/in/reads.fa", Output1: "/out/hier", Output2: "/out/greedy",
			K: 8, NumHash: 48, Link: "average", Cutoff: 0.4,
		}, 9, nil)
		if err != nil {
			t.Fatal(err)
		}
		virtual, jobs = res.Virtual, res.Jobs
	} else {
		opt := Options{K: 8, NumHashes: 48, Theta: 0.4, Seed: 9, Cluster: smallCluster()}
		mut(&opt)
		res, err := Run(reads, opt)
		if err != nil {
			t.Fatal(err)
		}
		virtual, jobs, counters = res.Virtual, res.Jobs, res.Counters
	}
	line := fmt.Sprintf("%s %d %d", name, int64(virtual), jobs)
	if counters != nil {
		for _, c := range goldenCounters {
			line += fmt.Sprintf(" %d", counters[c])
		}
	}
	return line
}

// TestVirtualTimeGolden pins Result.Virtual, the job count and the
// golden counters of every case to testdata/virtual.golden. A mismatch
// prints the actual line.
func TestVirtualTimeGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/virtual.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			want[name] = line
		}
	}
	for _, tc := range virtualCases {
		got := runVirtualCase(t, tc.name, tc.mut)
		if got != want[tc.name] {
			t.Errorf("%s: line differs from testdata/virtual.golden (recorded: %q); actual line:\n%s", tc.name, want[tc.name], got)
		}
	}
}
