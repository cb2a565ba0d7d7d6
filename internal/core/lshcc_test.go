package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/faults"
)

// lshOptions are the ISSUE's equivalence parameters: k=5, θ=0.9, n=100
// hashes on the small simulated cluster.
func lshOptions(mode Mode, seed int64) Options {
	return Options{
		K: 5, NumHashes: 100, Theta: 0.9, Mode: mode,
		Seed: seed, Cluster: smallCluster(),
	}
}

func runBoth(t *testing.T, reads []fasta.Record, opt Options) (exact, lsh *Result) {
	t.Helper()
	exact, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Candidate = CandidateLSH
	lsh, err = Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	return exact, lsh
}

// TestClusterLSHCCEquivalence pins the LSH+CC path's assignments identical
// to the exact all-pairs path (the oracle) for greedy mode and both
// hierarchical linkages the equivalence argument covers, on n ≤ 200 reads
// in k=5/θ=0.9 whole-metagenome configuration.
func TestClusterLSHCCEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		reads, _ := makeReads(8, 25, 200, 0.004, seed)
		cases := []struct {
			name string
			mode Mode
			link cluster.Linkage
		}{
			{"greedy", GreedyMode, cluster.Single},
			{"single", HierarchicalMode, cluster.Single},
			{"complete", HierarchicalMode, cluster.Complete},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				opt := lshOptions(tc.mode, seed)
				opt.Linkage = tc.link
				// Equivalence needs every ≥θ pair to collide in some band.
				// The default knee geometry (5×17) trades recall at exactly
				// θ for fewer candidates; 20×5 puts the knee at 0.55 so a
				// θ=0.9 pair is missed with probability (1-0.9⁵)²⁰ ≈ 3e-8 —
				// the verify stage still discards every sub-θ candidate.
				opt.LSH = cluster.LSHOptions{Bands: 20, Rows: 5}
				exact, lsh := runBoth(t, reads, opt)
				if !reflect.DeepEqual(lsh.Assignments, exact.Assignments) {
					t.Fatalf("LSH assignments diverge from exact path\n lsh:   %v\n exact: %v",
						lsh.Assignments, exact.Assignments)
				}
				if lsh.Counters["lsh.candidate_pairs"] == 0 {
					t.Fatal("no candidate pairs counted")
				}
				if lsh.Counters["cc.rounds"] == 0 {
					t.Fatal("no connected-components rounds counted")
				}
			})
		}
	}
}

// TestClusterLSHCCExternalShuffleSpill routes every LSH-path job through
// the spill-and-merge external shuffle and requires bit-identical
// assignments.
func TestClusterLSHCCExternalShuffleSpill(t *testing.T) {
	reads, _ := makeReads(6, 20, 200, 0.004, 11)
	opt := lshOptions(GreedyMode, 11)
	opt.Candidate = CandidateLSH
	base, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.ShuffleBufferBytes = 1 << 10
	spilled, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spilled.Assignments, base.Assignments) {
		t.Fatal("external shuffle changed the LSH clustering")
	}
	if spilled.Counters["shuffle.spills"] == 0 {
		t.Fatal("expected map-side spills with a 1KiB sort buffer")
	}
}

// TestClusterLSHCCChaosBitIdentical runs the LSH path under injected task
// crashes and requires the clustering to be bit-identical to the
// fault-free run for every chaos seed — lossless recovery end to end
// through bands, verify, Large-Star/Small-Star and the finish job.
func TestClusterLSHCCChaosBitIdentical(t *testing.T) {
	reads, _ := makeReads(6, 20, 200, 0.004, 5)
	for _, mode := range []Mode{GreedyMode, HierarchicalMode} {
		opt := lshOptions(mode, 5)
		opt.Candidate = CandidateLSH
		baseline, err := Run(reads, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range resumeSeeds(t) {
			fopt := opt
			fopt.Faults = faults.MustNew(faults.Plan{Seed: seed, TaskCrashProb: 0.15})
			res, err := Run(reads, fopt)
			if err != nil {
				t.Fatalf("%s seed %d: %v", mode, seed, err)
			}
			if !reflect.DeepEqual(res.Assignments, baseline.Assignments) {
				t.Fatalf("%s seed %d: faulted run diverged from fault-free clustering", mode, seed)
			}
			if res.Counters["task.failures"] == 0 {
				t.Fatalf("%s seed %d: no crashes injected", mode, seed)
			}
		}
	}
}

// TestClusterLSHCCResumeBitIdentical kills the driver after every LSH-path
// stage boundary and resumes from the journal, requiring the resumed
// clustering to match an uninterrupted run exactly.
func TestClusterLSHCCResumeBitIdentical(t *testing.T) {
	reads, _ := makeReads(5, 15, 200, 0.004, 3)
	for _, mode := range []Mode{GreedyMode, HierarchicalMode} {
		opt := lshOptions(mode, 3)
		opt.Candidate = CandidateLSH
		baseline, err := Run(reads, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, crashAfter := range []string{StageSketch, StageLSHEdges, StageCC, StageLSHCluster} {
			dir := t.TempDir()
			run1 := opt
			run1.Checkpoint = openJournal(t, dir)
			run1.Faults = faults.MustNew(faults.Plan{
				DriverCrashes: []faults.DriverCrash{{AfterStage: crashAfter}},
			})
			_, err := Run(reads, run1)
			var dce *faults.DriverCrashError
			if !errors.As(err, &dce) || dce.Stage != crashAfter {
				t.Fatalf("%s crash after %s: got %v", mode, crashAfter, err)
			}

			run2 := opt
			run2.Checkpoint = openJournal(t, dir)
			run2.Resume = ResumeOn
			res, err := Run(reads, run2)
			if err != nil {
				t.Fatalf("%s resume after %s: %v", mode, crashAfter, err)
			}
			if !reflect.DeepEqual(res.Assignments, baseline.Assignments) {
				t.Fatalf("%s resume after %s changed the clustering", mode, crashAfter)
			}
			if len(res.SkippedStages) == 0 {
				t.Fatalf("%s resume after %s re-executed every stage", mode, crashAfter)
			}
		}
	}
}

// TestClusterLSHBucketCapOverflow floods one LSH bucket with identical
// reads and requires the per-bucket cap to fire (bounding pair expansion)
// with the overflow surfaced as a counter.
func TestClusterLSHBucketCapOverflow(t *testing.T) {
	var reads []fasta.Record
	seq := []byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT")
	for i := 0; i < 40; i++ {
		reads = append(reads, fasta.Record{ID: fmt.Sprintf("dup%d", i), Seq: seq})
	}
	opt := lshOptions(GreedyMode, 1)
	opt.Candidate = CandidateLSH
	opt.LSHBucketCap = 8
	res, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters["lsh.bucket_overflow"] == 0 {
		t.Fatal("expected bucket overflow with 40 identical reads and cap 8")
	}
	// Capped buckets bound candidate pairs: at most cap·(cap-1)/2 per
	// bucket instead of 40·39/2.
	if got, max := res.Counters["lsh.candidate_pairs"], int64(8*7/2); got > max {
		t.Fatalf("candidate pairs = %d, want ≤ %d under cap", got, max)
	}
}

// TestClusterLSHCCEmptySignatures checks reads with no k-mers (too short)
// cluster as singletons on both paths identically.
func TestClusterLSHCCEmptySignatures(t *testing.T) {
	reads, _ := makeReads(3, 6, 120, 0.0, 9)
	reads = append(reads,
		fasta.Record{ID: "tiny1", Seq: []byte("AC")},
		fasta.Record{ID: "tiny2", Seq: []byte("GT")},
	)
	exact, lsh := runBoth(t, reads, lshOptions(GreedyMode, 9))
	if !reflect.DeepEqual(lsh.Assignments, exact.Assignments) {
		t.Fatalf("empty-signature reads diverge\n lsh:   %v\n exact: %v", lsh.Assignments, exact.Assignments)
	}
	n := len(reads)
	if lsh.Assignments[n-1] == lsh.Assignments[n-2] {
		t.Fatal("two empty-signature reads landed in one cluster")
	}
}

// TestLSHScriptMatchesExactScript runs Algorithm3LSHScript and the
// paper's Algorithm3Script on the same DFS input and requires identical
// label maps from both clustering branches — the Pig-level equivalence of
// the sub-quadratic path.
func TestLSHScriptMatchesExactScript(t *testing.T) {
	reads, _ := makeReads(4, 6, 200, 0.004, 21)
	fs := dfs.MustNew(dfs.Config{NumDataNodes: 4, BlockSize: 4096, Replication: 2})
	var sb strings.Builder
	for _, r := range reads {
		fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
	}
	if err := fs.WriteFile("/in/reads.fa", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	params := ScriptParams{
		Input: "/in/reads.fa", Output1: "/out/hier", Output2: "/out/greedy",
		K: 8, NumHash: 50, Link: "single", Cutoff: 0.4,
	}
	opt := Options{Cluster: smallCluster(), Seed: 12}
	exact, err := RunScript(fs, params, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Candidate = CandidateLSH
	params.Output1, params.Output2 = "/out/hier-lsh", "/out/greedy-lsh"
	lsh, err := RunScript(fs, params, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lsh.Greedy, exact.Greedy) {
		t.Fatalf("greedy branch diverges\n lsh:   %v\n exact: %v", lsh.Greedy, exact.Greedy)
	}
	if !reflect.DeepEqual(lsh.Hierarchical, exact.Hierarchical) {
		t.Fatalf("hierarchical branch diverges\n lsh:   %v\n exact: %v", lsh.Hierarchical, exact.Hierarchical)
	}
	if !fs.Exists("/out/hier-lsh/part-00000") || !fs.Exists("/out/greedy-lsh/part-00000") {
		t.Fatal("LSH script did not store outputs")
	}

	opt.Candidate = CandidateGen(7)
	if _, err := RunScript(fs, params, opt); err == nil {
		t.Fatal("unknown script candidate accepted")
	}
}

func TestParseCandidateGen(t *testing.T) {
	for s, want := range map[string]CandidateGen{"": CandidateExact, "exact": CandidateExact, "lsh": CandidateLSH} {
		got, err := ParseCandidateGen(s)
		if err != nil || got != want {
			t.Fatalf("ParseCandidateGen(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCandidateGen("fuzzy"); err == nil {
		t.Fatal("expected error for unknown generator")
	}
	if CandidateExact.String() != "exact" || CandidateLSH.String() != "lsh" || CandidateGen(9).String() != "unknown" {
		t.Fatal("CandidateGen names wrong")
	}
}

func TestOptionsValidateLSH(t *testing.T) {
	base := lshOptions(GreedyMode, 1)
	base.Candidate = CandidateLSH

	bad := base
	bad.LSH = cluster.LSHOptions{Bands: 50, Rows: 3} // 150 > 100 slots
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized geometry accepted")
	}
	bad = base
	bad.LSHBucketCap = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative bucket cap accepted")
	}
	bad = base
	bad.Candidate = CandidateGen(7)
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid candidate generator accepted")
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid LSH options rejected: %v", err)
	}
}
