package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
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

// TestClusterLSHCCResumesFromEveryEdgeJournal resumes from a journal
// whose lsh-edges entry holds every verified θ-edge, as builds that
// checkpointed all of them wrote it, not the bucket forests: connected
// components then run over more edges with the same components, so the
// labels equal an uninterrupted run's.
func TestClusterLSHCCResumesFromEveryEdgeJournal(t *testing.T) {
	reads, _ := makeReads(5, 15, 200, 0.004, 3)
	for _, mode := range []Mode{GreedyMode, HierarchicalMode} {
		opt := lshOptions(mode, 3)
		opt.Candidate = CandidateLSH
		baseline, err := Run(reads, opt)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		run1 := opt
		run1.Checkpoint = openJournal(t, dir)
		run1.Faults = faults.MustNew(faults.Plan{
			DriverCrashes: []faults.DriverCrash{{AfterStage: StageLSHEdges}},
		})
		var dce *faults.DriverCrashError
		if _, err := Run(reads, run1); !errors.As(err, &dce) {
			t.Fatalf("%s crash after %s: got %v", mode, StageLSHEdges, err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
		if err != nil {
			t.Fatal(err)
		}
		var forest checkpoint.Entry
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var e checkpoint.Entry
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatal(err)
			}
			if e.Stage == StageLSHEdges {
				forest = e
			}
		}
		ref := computeLSHReference(sketchSource(t, reads, opt.withDefaults()), opt.withDefaults())
		if len(ref.edges) <= len(ref.forest) {
			t.Fatalf("%d θ-edges, %d forest edges: the corpus drops no edge", len(ref.edges), len(ref.forest))
		}
		j := openJournal(t, dir)
		if _, err := j.Commit(StageLSHEdges, forest.InputsHash, forest.Params, encodeEdges(ref.edges)); err != nil {
			t.Fatal(err)
		}
		run2 := opt
		run2.Checkpoint = openJournal(t, dir)
		run2.Resume = ResumeOn
		res, err := Run(reads, run2)
		if err != nil {
			t.Fatalf("%s resume: %v", mode, err)
		}
		if !slices.Equal(res.SkippedStages, []string{StageSketch, StageLSHEdges}) {
			t.Fatalf("%s resume skipped %v", mode, res.SkippedStages)
		}
		if got, forestRun := res.Counters["cc.active_edges"], baseline.Counters["cc.active_edges"]; got <= forestRun {
			t.Fatalf("%s: %d active CC edges resuming, %d uninterrupted: the journal's edges were not read", mode, got, forestRun)
		}
		if !reflect.DeepEqual(res.Assignments, baseline.Assignments) {
			t.Fatalf("%s: resuming from every verified edge changed the clustering", mode)
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

// TestRelabelComponentsFirstAppearance: each (component, local label)
// pair gets the next global label the first time it appears in read
// order, whatever the component ids.
func TestRelabelComponentsFirstAppearance(t *testing.T) {
	comps := []int{4, 4, 1, 4, 1, 9, 1}
	local := []int{0, 1, 0, 0, 0, 0, 1}
	want := metrics.Clustering{0, 1, 2, 0, 2, 3, 4}
	if got := relabelComponents(comps, local); !reflect.DeepEqual(got, want) {
		t.Fatalf("relabelComponents = %v, want %v", got, want)
	}
	if got := relabelComponents(nil, nil); len(got) != 0 {
		t.Fatalf("relabelComponents of no reads = %v", got)
	}
}

// TestComponentFinishReproducesExactLabels runs the LSH path's finish —
// clusterComponent on every connected component of the ≥θ similarity
// graph, then relabelComponents — and requires the exact algorithm's
// labels over the whole corpus, for greedy mode and the two linkages the
// equivalence argument covers.
func TestComponentFinishReproducesExactLabels(t *testing.T) {
	reads, _ := makeReads(6, 8, 200, 0.02, 4)
	const theta = 0.6
	sk, err := minhash.NewSketcher(64, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ex := &kmer.Extractor{K: 8}
	sigs := make([]minhash.Signature, len(reads))
	for i := range reads {
		sigs[i] = sk.Sketch(ex.Set(reads[i].Seq))
	}
	src := cluster.NewSliceSource(sigs, minhash.SetOverlap)
	var edges []cluster.Edge
	for i := 0; i < src.Len(); i++ {
		for j := i + 1; j < src.Len(); j++ {
			if src.Similarity(i, j) >= theta {
				edges = append(edges, cluster.Edge{U: i, V: j})
			}
		}
	}
	comps, err := cluster.ConnectedComponents(src.Len(), edges)
	if err != nil {
		t.Fatal(err)
	}
	members := map[int][]int{} // ascending read indices per component
	for i, c := range comps {
		members[c] = append(members[c], i)
	}
	if len(members) < 2 || len(members) == len(reads) {
		t.Fatalf("%d components of %d reads: the corpus does not exercise the finish", len(members), len(reads))
	}
	for _, tc := range []struct {
		name string
		mode Mode
		link cluster.Linkage
	}{
		{"greedy", GreedyMode, cluster.Single},
		{"single", HierarchicalMode, cluster.Single},
		{"complete", HierarchicalMode, cluster.Complete},
	} {
		var want metrics.Clustering
		if tc.mode == GreedyMode {
			want, err = cluster.Greedy(src, theta)
		} else {
			want, err = cluster.HierarchicalFromSource(src, tc.link, theta)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Single linkage cut at θ is the components themselves; greedy and
		// complete linkage must split some of them.
		if n := slices.Max(want) + 1; tc.name != "single" && n <= len(members) {
			t.Fatalf("%s: %d clusters in %d components: no component splits", tc.name, n, len(members))
		}
		local := make([]int, len(reads))
		for _, m := range members {
			labels, err := clusterComponent(src, m, tc.mode, tc.link, theta)
			if err != nil {
				t.Fatal(err)
			}
			for k, i := range m {
				local[i] = labels[k]
			}
		}
		if got := relabelComponents(comps, local); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: component finish %v, exact %v", tc.name, got, want)
		}
	}
}

// lshReference is the LSH stage computed directly from its definition:
// per band, the non-empty reads are bucketed by band hash; each bucket of
// two or more reads counts once, keeps its cap lowest ids and expands
// them into pairs. The union of those pairs over all bands is the
// candidate set, and the candidates of similarity ≥ θ are the edges. A
// pair belongs to the lowest band that keeps it, and each bucket's forest
// takes, in pair order, the edges of its own pairs that join two of its
// union-find components.
type lshReference struct {
	edges, forest        []cluster.Edge // sorted
	candidates, buckets  int64
	overflow, laterBands int64 // laterBands: candidates first colliding in a band that capped them out
}

func computeLSHReference(src cluster.SigSource, opt Options) lshReference {
	lsh, cap := lshGeometry(opt), lshBucketCap(opt)
	var ref lshReference
	first := map[cluster.Edge]int{} // lowest band in which a pair collides
	kept := map[cluster.Edge]bool{}
	for b := 0; b < lsh.Bands; b++ {
		buckets := map[uint64][]int{}
		for i := 0; i < src.Len(); i++ {
			if !src.Empty(i) {
				h := src.BandHash(i, b, lsh.Rows)
				buckets[h] = append(buckets[h], i) // ascending ids
			}
		}
		for _, ids := range buckets {
			if len(ids) < 2 {
				continue
			}
			ref.buckets++
			ref.overflow += int64(max(len(ids)-cap, 0))
			parent := make([]int, len(ids)) // the bucket's union-find, by position
			for x := range parent {
				parent[x] = x
			}
			root := func(x int) int {
				for parent[x] != x {
					x = parent[x]
				}
				return x
			}
			for x := range ids {
				for y := x + 1; y < len(ids); y++ {
					e := cluster.Edge{U: ids[x], V: ids[y]}
					if _, ok := first[e]; !ok {
						first[e] = b
					}
					if y >= cap || kept[e] {
						continue
					}
					kept[e] = true
					if first[e] < b {
						ref.laterBands++
					}
					if src.Similarity(e.U, e.V) < opt.Theta {
						continue
					}
					ref.edges = append(ref.edges, e)
					if rx, ry := root(x), root(y); rx != ry {
						parent[ry] = rx
						ref.forest = append(ref.forest, e)
					}
				}
			}
		}
	}
	ref.candidates = int64(len(kept))
	for _, edges := range [][]cluster.Edge{ref.edges, ref.forest} {
		slices.SortFunc(edges, func(a, b cluster.Edge) int {
			if a.U != b.U {
				return a.U - b.U
			}
			return a.V - b.V
		})
	}
	return ref
}

// sketchSource sketches reads as core.Run does, into a slice-backed
// source.
func sketchSource(t *testing.T, reads []fasta.Record, opt Options) cluster.SigSource {
	t.Helper()
	sk, err := minhash.NewSketcher(opt.NumHashes, opt.K, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ex := &kmer.Extractor{K: opt.K, Canonical: opt.Canonical}
	sigs := make([]minhash.Signature, len(reads))
	for i, r := range reads {
		sigs[i] = sk.Sketch(ex.Set(r.Seq))
	}
	return cluster.NewSliceSource(sigs, minhash.SetOverlap)
}

// TestLSHEdgesMatchReference holds lshEdgesJobs to computeLSHReference
// on corpora whose buckets overflow their cap in some bands and not in
// others, with duplicate reads and empty signatures: edges exactly the
// reference's bucket forests, lsh.edges its θ-edge count, and the same
// candidate, bucket and overflow counts. The forests must connect exactly
// what every θ-edge connects, and drop some edges somewhere. Across the
// corpora some candidates first collide in a band whose cap drops one of
// the two reads, and only a later band keeps them; the test fails if
// none do. One case keeps more than 256 reads of a bucket.
func TestLSHEdgesMatchReference(t *testing.T) {
	withEmpty := func(reads []fasta.Record) []fasta.Record {
		return append(reads, fasta.Record{ID: "tiny1", Seq: []byte("AC")}, fasta.Record{ID: "tiny2", Seq: []byte("GT")})
	}
	journal, _ := makeReads(6, 30, 80, 0.01, 7)
	dups, _ := makeReads(3, 12, 120, 0, 9)
	mixed, _ := makeReads(10, 20, 100, 0.02, 13)
	dense, _ := makeReads(8, 25, 200, 0.004, 1)
	wide, _ := makeReads(1, 330, 100, 0.01, 19)
	var identical []fasta.Record
	for i := 0; i < 40; i++ {
		identical = append(identical, fasta.Record{ID: fmt.Sprintf("dup%d", i), Seq: []byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT")})
	}
	identical = append(identical, mixed[:30]...)
	cases := []struct {
		name  string
		reads []fasta.Record
		k, n  int
		theta float64
		lsh   cluster.LSHOptions
		cap   int
	}{
		{"journal-cap7", journal, 5, 12, 0.5, cluster.LSHOptions{Bands: 6, Rows: 2}, 7},
		{"duplicates-empty-cap5", withEmpty(dups), 5, 24, 0.6, cluster.LSHOptions{Bands: 4, Rows: 3}, 5},
		{"mixed-k8-cap4", withEmpty(mixed), 8, 24, 0.5, cluster.LSHOptions{Bands: 4, Rows: 6}, 4},
		{"dense-cap3", dense, 5, 100, 0.9, cluster.LSHOptions{Bands: 20, Rows: 5}, 3},
		{"identical-cap8", identical, 5, 24, 0.4, cluster.LSHOptions{Bands: 8, Rows: 3}, 8},
		{"mixed-default-cap", mixed, 5, 48, 0.4, cluster.LSHOptions{}, 0},
		{"wide-cap260", wide, 5, 24, 0.6, cluster.LSHOptions{Bands: 8, Rows: 3}, 260},
	}
	var laterBands int64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{
				K: tc.k, NumHashes: tc.n, Theta: tc.theta, Seed: 3, Cluster: smallCluster(),
				Candidate: CandidateLSH, LSH: tc.lsh, LSHBucketCap: tc.cap,
			}.withDefaults()
			src := sketchSource(t, tc.reads, opt)
			engine, err := opt.engine()
			if err != nil {
				t.Fatal(err)
			}
			edges, results, err := lshEdgesJobs(engine, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			counters := []string{"lsh.candidate_pairs", "lsh.edges", "lsh.buckets", "lsh.bucket_overflow"}
			got := map[string]int64{}
			for _, r := range results {
				for _, c := range counters {
					got[c] += r.Counters.Get(c)
				}
			}
			ref := computeLSHReference(src, opt)
			if !slices.Equal(edges, ref.forest) {
				t.Errorf("edges differ from the reference's bucket forests: %d, want %d", len(edges), len(ref.forest))
			}
			want := map[string]int64{
				"lsh.candidate_pairs": ref.candidates, "lsh.edges": int64(len(ref.edges)),
				"lsh.buckets": ref.buckets, "lsh.bucket_overflow": ref.overflow,
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("counters %v, want %v", got, want)
			}
			if ref.edges == nil {
				t.Error("no edges: the corpus verifies nothing")
			}
			forestCC, err := cluster.ConnectedComponents(src.Len(), ref.forest)
			if err != nil {
				t.Fatal(err)
			}
			edgesCC, err := cluster.ConnectedComponents(src.Len(), ref.edges)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(forestCC, edgesCC) {
				t.Error("the bucket forests' components differ from the θ-edges'")
			}
			if tc.cap > DefaultLSHBucketCap && ref.overflow == 0 {
				t.Errorf("no bucket overflows cap %d: none keeps more than %d reads", tc.cap, DefaultLSHBucketCap)
			}
			t.Logf("%d candidates, %d edges, %d forest edges, %d kept only by a later band",
				ref.candidates, len(ref.edges), len(ref.forest), ref.laterBands)
			laterBands += ref.laterBands
		})
	}
	if laterBands == 0 {
		t.Fatal("no candidate is kept only by a band later than its first collision: the caps never decide")
	}
}
