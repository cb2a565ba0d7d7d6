package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/pig"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// makeReads builds g groups of m reads each: members of a group are copies
// of a random template with a small mutation rate, so groups are easy to
// recover at moderate thresholds.
func makeReads(g, m, length int, mutRate float64, seed int64) ([]fasta.Record, []string) {
	rng := rand.New(rand.NewSource(seed))
	var reads []fasta.Record
	var truth []string
	for gi := 0; gi < g; gi++ {
		template := make([]byte, length)
		for i := range template {
			template[i] = "ACGT"[rng.Intn(4)]
		}
		for mi := 0; mi < m; mi++ {
			seq := append([]byte{}, template...)
			for i := range seq {
				if rng.Float64() < mutRate {
					seq[i] = "ACGT"[rng.Intn(4)]
				}
			}
			reads = append(reads, fasta.Record{
				ID:  fmt.Sprintf("g%d_r%d", gi, mi),
				Seq: seq,
			})
			truth = append(truth, fmt.Sprintf("species%d", gi))
		}
	}
	return reads, truth
}

func smallCluster() mapreduce.Cluster {
	return mapreduce.Cluster{Nodes: 4, SlotsPerNode: 2, Cost: mapreduce.DefaultCostModel}
}

func TestModeString(t *testing.T) {
	if GreedyMode.String() != "MrMC-MinH^g" || HierarchicalMode.String() != "MrMC-MinH^h" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "unknown" {
		t.Fatal("unknown mode name wrong")
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{K: -1},
		{K: 40},
		{K: 31}, // packs into a uint64, but 4^31 exceeds the sketch modulus
		{NumHashes: -5},
		{Theta: 1.5},
		{Theta: -0.1},
		{Theta: math.NaN()},
		{Mode: Mode(7)},
		{StoreBits: -1}, // the per-run slice path is gone
		{StoreBits: 17},
		{ShuffleBufferBytes: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options %+v accepted", i, o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	if _, err := Run(nil, Options{Theta: math.NaN()}); err == nil {
		t.Fatal("Run accepted θ=NaN")
	}
}

func TestRunGreedyRecoversGroups(t *testing.T) {
	reads, truth := makeReads(3, 12, 300, 0.01, 1)
	res, err := Run(reads, Options{
		K: 8, NumHashes: 60, Theta: 0.35, Mode: GreedyMode,
		Cluster: smallCluster(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 3 {
		t.Fatalf("got %d clusters, want 3", res.NumClusters())
	}
	acc, err := metrics.WeightedAccuracy(res.Assignments, truth)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 99.9 {
		t.Fatalf("accuracy %.2f", acc)
	}
	if res.Jobs != 2 || res.Virtual <= 0 {
		t.Fatalf("jobs=%d virtual=%v", res.Jobs, res.Virtual)
	}
}

// TestRunHierarchicalMatchesLegacyKernels pins the pipeline's fast path
// (slice-based SketchInto, prepared similarity rows, both-triangle
// assembly) to a from-scratch legacy computation — map-based Sketch,
// per-pair Similarity, sequential matrix — at the paper's
// whole-metagenome defaults (k=5, n=100 hashes, θ=0.9). Clusterings
// must be identical, label for label.
func TestRunHierarchicalMatchesLegacyKernels(t *testing.T) {
	reads, _ := makeReads(5, 10, 200, 0.03, 17)
	opt := Options{K: 5, NumHashes: 100, Theta: 0.9, Mode: HierarchicalMode, Linkage: cluster.Average, Cluster: smallCluster(), Seed: 17}
	res, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	sk, err := minhash.NewSketcher(opt.NumHashes, opt.K, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ex := &kmer.Extractor{K: opt.K}
	sigs := make([]minhash.Signature, len(reads))
	for i := range reads {
		sigs[i] = sk.Sketch(ex.Set(reads[i].Seq))
	}
	dend, err := cluster.Hierarchical(cluster.SimilarityMatrix(sigs, minhash.SetOverlap), cluster.HierarchicalOptions{Linkage: cluster.Average})
	if err != nil {
		t.Fatal(err)
	}
	want := dend.CutAt(opt.Theta)
	if len(want) != len(res.Assignments) {
		t.Fatalf("%d labels vs %d", len(want), len(res.Assignments))
	}
	for i := range want {
		if res.Assignments[i] != want[i] {
			t.Fatalf("read %d: pipeline label %d, legacy label %d", i, res.Assignments[i], want[i])
		}
	}
}

func TestRunHierarchicalRecoversGroups(t *testing.T) {
	reads, truth := makeReads(4, 8, 250, 0.01, 3)
	res, err := Run(reads, Options{
		K: 8, NumHashes: 60, Theta: 0.35, Mode: HierarchicalMode,
		Cluster: smallCluster(), Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 4 {
		t.Fatalf("got %d clusters, want 4", res.NumClusters())
	}
	acc, err := metrics.WeightedAccuracy(res.Assignments, truth)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 99.9 {
		t.Fatalf("accuracy %.2f", acc)
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	reads, _ := makeReads(2, 6, 200, 0.02, 5)
	opt := Options{K: 6, NumHashes: 40, Theta: 0.4, Mode: HierarchicalMode, Cluster: smallCluster(), Seed: 6}
	r1, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Assignments {
		if r1.Assignments[i] != r2.Assignments[i] {
			t.Fatalf("run not deterministic at read %d", i)
		}
	}
}

func TestRunGreedyFasterModelThanHierarchical(t *testing.T) {
	reads, _ := makeReads(3, 100, 200, 0.02, 7)
	g, err := Run(reads, Options{K: 6, NumHashes: 50, Theta: 0.5, Mode: GreedyMode, Cluster: smallCluster(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Run(reads, Options{K: 6, NumHashes: 50, Theta: 0.5, Mode: HierarchicalMode, Cluster: smallCluster(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if g.Virtual >= h.Virtual {
		t.Fatalf("greedy model time %v not below hierarchical %v (paper Table III shape)", g.Virtual, h.Virtual)
	}
}

func TestRunEmptyInput(t *testing.T) {
	res, err := Run(nil, Options{Cluster: smallCluster()})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 0 {
		t.Fatalf("clusters %d", res.NumClusters())
	}
}

func TestClustersByID(t *testing.T) {
	reads, _ := makeReads(2, 3, 150, 0.0, 9)
	res, err := Run(reads, Options{K: 6, NumHashes: 30, Theta: 0.9, Mode: GreedyMode, Cluster: smallCluster(), Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	byID := res.ClustersByID()
	total := 0
	for _, ids := range byID {
		total += len(ids)
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatal("cluster ids not sorted")
			}
		}
	}
	if total != len(reads) {
		t.Fatalf("%d ids across clusters, want %d", total, len(reads))
	}
}

// TestScriptMatchesPipeline is the core integration check: the paper's
// Algorithm 3 Pig script produces the same partitions as the programmatic
// pipeline for both algorithms.
func TestScriptMatchesPipeline(t *testing.T) {
	reads, _ := makeReads(3, 5, 200, 0.01, 11)
	fs := dfs.MustNew(dfs.Config{NumDataNodes: 4, BlockSize: 4096, Replication: 2})
	var sb strings.Builder
	for _, r := range reads {
		fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
	}
	if err := fs.WriteFile("/in/reads.fa", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	const k, n, theta = 8, 50, 0.4
	sres, err := RunScript(fs, ScriptParams{
		Input: "/in/reads.fa", Output1: "/out/hier", Output2: "/out/greedy",
		K: k, NumHash: n, Link: "average", Cutoff: theta,
	}, Options{Cluster: smallCluster(), Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Hierarchical) != len(reads) || len(sres.Greedy) != len(reads) {
		t.Fatalf("script labelled %d/%d reads, want %d", len(sres.Hierarchical), len(sres.Greedy), len(reads))
	}
	if !fs.Exists("/out/hier/part-00000") || !fs.Exists("/out/greedy/part-00000") {
		t.Fatal("script did not store outputs")
	}
	if sres.Jobs < 5 {
		t.Fatalf("script ran %d jobs, want >= 5", sres.Jobs)
	}

	ids := make([]string, len(reads))
	for i := range reads {
		ids[i] = reads[i].ID
	}
	scriptHier, err := LabelsToClustering(sres.Hierarchical, ids)
	if err != nil {
		t.Fatal(err)
	}
	scriptGreedy, err := LabelsToClustering(sres.Greedy, ids)
	if err != nil {
		t.Fatal(err)
	}

	// Pipeline runs with matching parameters. Note: the script's hash
	// family uses modulus DIV (next prime above 4^k), while the pipeline
	// uses 4^k, so signatures differ in value but partitions should agree
	// on this well-separated input.
	pipeHier, err := Run(reads, Options{K: k, NumHashes: n, Theta: theta, Mode: HierarchicalMode, Cluster: smallCluster(), Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pipeGreedy, err := Run(reads, Options{K: k, NumHashes: n, Theta: theta, Mode: GreedyMode, Cluster: smallCluster(), Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !samePartition(scriptHier, pipeHier.Assignments) {
		t.Fatalf("hierarchical: script %v vs pipeline %v", scriptHier, pipeHier.Assignments)
	}
	if !samePartition(scriptGreedy, pipeGreedy.Assignments) {
		t.Fatalf("greedy: script %v vs pipeline %v", scriptGreedy, pipeGreedy.Assignments)
	}
}

// samePartition compares clusterings up to label renaming.
func samePartition(a, b metrics.Clustering) bool {
	if len(a) != len(b) {
		return false
	}
	fwd, rev := map[int]int{}, map[int]int{}
	for i := range a {
		if v, ok := fwd[a[i]]; ok && v != b[i] {
			return false
		}
		if v, ok := rev[b[i]]; ok && v != a[i] {
			return false
		}
		fwd[a[i]], rev[b[i]] = b[i], a[i]
	}
	return true
}

func TestRunScriptValidation(t *testing.T) {
	fs := dfs.MustNew(dfs.DefaultConfig)
	opt := Options{Cluster: smallCluster(), Seed: 1}
	if _, err := RunScript(fs, ScriptParams{K: 0, NumHash: 10}, opt); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := RunScript(fs, ScriptParams{K: 5, NumHash: 0}, opt); err == nil {
		t.Fatal("NumHash=0 accepted")
	}
	if _, err := RunScript(fs, ScriptParams{Input: "/missing", K: 5, NumHash: 10}, opt); err == nil {
		t.Fatal("missing input accepted")
	}
	for _, bits := range []int{-1, 17} {
		opt.StoreBits = bits
		if _, err := RunScript(fs, ScriptParams{K: 5, NumHash: 10}, opt); err == nil {
			t.Fatalf("StoreBits=%d accepted", bits)
		}
	}
}

// TestRunScriptRejectsDuplicateReadIDs: CalculateMinwiseHash groups
// k-mers by read ID, so two FASTA records sharing an ID would merge into
// one signature and one read would vanish from both outputs. FastaStorage
// refuses such input, naming the ID and both records, for both scripts.
func TestRunScriptRejectsDuplicateReadIDs(t *testing.T) {
	reads, _ := makeReads(3, 4, 150, 0.02, 41)
	reads[7].ID = reads[2].ID
	fs := dfs.MustNew(dfs.Config{NumDataNodes: 3, BlockSize: 4096, Replication: 2})
	var sb strings.Builder
	for _, r := range reads {
		fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
	}
	if err := fs.WriteFile("/in/reads.fa", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	for _, cand := range []CandidateGen{CandidateExact, CandidateLSH} {
		res, err := RunScript(fs, ScriptParams{
			Input: "/in/reads.fa", Output1: "/out/" + cand.String() + "/hier", Output2: "/out/" + cand.String() + "/greedy",
			K: 8, NumHash: 40, Cutoff: 0.4,
		}, Options{Cluster: smallCluster(), Seed: 41, Candidate: cand})
		if err == nil {
			t.Fatalf("%v: duplicate read ID accepted, %d labels for %d records", cand, len(res.Hierarchical), len(reads))
		}
		if msg := err.Error(); !strings.Contains(msg, `"g0_r2"`) || !strings.Contains(msg, "records 3 and 8") {
			t.Fatalf("%v: error %q does not name the ID and both records", cand, msg)
		}
	}
}

func TestNextPrimeAbove(t *testing.T) {
	cases := map[uint64]uint64{1: 2, 2: 3, 4: 5, 1024: 1031, 6: 7}
	for n, want := range cases {
		if got := nextPrimeAbove(n); got != want {
			t.Errorf("nextPrimeAbove(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLabelsToClustering(t *testing.T) {
	labels := map[string]int{"a": 0, "b": 1}
	c, err := LabelsToClustering(labels, []string{"a", "b"})
	if err != nil || c[0] != 0 || c[1] != 1 {
		t.Fatalf("c=%v err=%v", c, err)
	}
	if _, err := LabelsToClustering(labels, []string{"a", "z"}); err == nil {
		t.Fatal("missing id accepted")
	}
}

func TestSortedClusterIDs(t *testing.T) {
	got := SortedClusterIDs(map[string]int{"a": 2, "b": 0, "c": 2})
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("ids %v", got)
	}
}

// TestModelRuntimeFigure2Shape checks the two qualitative Figure-2 claims:
// large inputs speed up with more nodes; tiny inputs are overhead-flat.
func TestModelRuntimeFigure2Shape(t *testing.T) {
	mk := func(nodes int) mapreduce.Cluster {
		return mapreduce.Cluster{Nodes: nodes, SlotsPerNode: 2, Cost: mapreduce.DefaultCostModel}
	}
	big2 := ModelRuntime(10_000_000, mk(2), HierarchicalMode, 100)
	big12 := ModelRuntime(10_000_000, mk(12), HierarchicalMode, 100)
	if float64(big12) > 0.5*float64(big2) {
		t.Fatalf("10M reads: 12 nodes %v vs 2 nodes %v — insufficient speedup", big12, big2)
	}
	small2 := ModelRuntime(1000, mk(2), HierarchicalMode, 100)
	small12 := ModelRuntime(1000, mk(12), HierarchicalMode, 100)
	ratio := float64(small2) / float64(small12)
	if ratio > 1.3 {
		t.Fatalf("1k reads: 2 nodes %v vs 12 nodes %v — should be flat", small2, small12)
	}
	// Monotone in reads.
	if ModelRuntime(1000, mk(8), HierarchicalMode, 100) > ModelRuntime(100000, mk(8), HierarchicalMode, 100) {
		t.Fatal("model not monotone in input size")
	}
	if ModelRuntime(0, mk(8), HierarchicalMode, 100) != 0 {
		t.Fatal("zero reads should cost nothing")
	}
	// Greedy models cheaper than hierarchical.
	if ModelRuntime(100000, mk(8), GreedyMode, 100) >= ModelRuntime(100000, mk(8), HierarchicalMode, 100) {
		t.Fatal("greedy model should be cheaper")
	}
}

func TestRegisterUDFsCompleteness(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{
		"StringGenerator", "TranslateToKmer", "CalculateMinwiseHash",
		"CalculatePairwiseSimilarity", "AgglomerativeHierarchicalClustering",
		"GreedyClustering",
	} {
		if _, ok := reg.UDF(name); !ok {
			t.Errorf("UDF %s not registered", name)
		}
	}
	if _, ok := reg.Loader("FastaStorage"); !ok {
		t.Error("FastaStorage loader not registered")
	}
}

func TestUDFArgValidation(t *testing.T) {
	ctx := &pig.Context{Seed: 1}
	if _, err := stringGenerator(ctx, []pig.Value{"ACGT"}); err == nil {
		t.Error("StringGenerator arity not checked")
	}
	if _, err := translateToKmer(ctx, []pig.Value{"0123", "id", int64(99)}); err == nil {
		t.Error("TranslateToKmer k range not checked")
	}
	if _, err := calculateMinwiseHash(ctx, []pig.Value{"notaslice", "id", int64(10), int64(100)}); err == nil {
		t.Error("CalculateMinwiseHash value type not checked")
	}
	if _, err := calculateMinwiseHash(ctx, []pig.Value{[]pig.Value{}, "id", int64(10), int64(1)}); err == nil {
		t.Error("CalculateMinwiseHash div range not checked")
	}
	if _, err := calculatePairwiseSimilarity(ctx, []pig.Value{"notasig", pig.Bag{}}); err == nil {
		t.Error("CalculatePairwiseSimilarity sig type not checked")
	}
	if _, err := agglomerativeClusteringUDF(ctx, []pig.Value{"notrows", "average", int64(10), 0.5}); err == nil {
		t.Error("Agglomerative rows type not checked")
	}
	if _, err := greedyClusteringUDF(ctx, []pig.Value{"notabag", int64(10), 0.5}); err == nil {
		t.Error("Greedy bag type not checked")
	}
	// Mode and link are checked before clustering, even on an empty bag.
	if _, err := lshClusteringUDF(ctx, []pig.Value{pig.Bag{}, int64(10), 0.5, "kmeans", "average"}); err == nil {
		t.Error("LSHClustering mode not checked")
	}
	if _, err := lshClusteringUDF(ctx, []pig.Value{pig.Bag{}, int64(10), 0.5, "hierarchical", "ward"}); err == nil {
		t.Error("LSHClustering link not checked")
	}
}

func TestStringGeneratorEncoding(t *testing.T) {
	v, err := stringGenerator(nil, []pig.Value{"ACGTNacgt", "r1"})
	if err != nil {
		t.Fatal(err)
	}
	tup := v.(pig.Tuple)
	if tup.Fields[0] != "0123.0123" || tup.Fields[1] != "r1" {
		t.Fatalf("encoded %+v", tup)
	}
}

func TestTranslateToKmerWindows(t *testing.T) {
	v, err := translateToKmer(nil, []pig.Value{"0123", "r1", int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	bag := v.(pig.Bag)
	// k-mers: 01, 12, 23 -> packed 0b0001=1, 0b0110=6, 0b1011=11
	want := []int64{1, 6, 11}
	if len(bag) != 3 {
		t.Fatalf("bag %+v", bag)
	}
	for i, w := range want {
		if bag[i].Fields[0].(int64) != w {
			t.Fatalf("kmer %d = %v, want %d", i, bag[i].Fields[0], w)
		}
	}
	// Ambiguity breaks windows.
	v, err = translateToKmer(nil, []pig.Value{"01.23", "r1", int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.(pig.Bag)) != 2 {
		t.Fatalf("ambiguous bag %+v", v)
	}
}

// TestTranslateToKmerBoxedTable: a k up to boxedKmersMaxK takes its k-mer
// fields from the table of boxed values, a larger k boxes each, and both
// give every window's packed value as an int64.
func TestTranslateToKmerBoxedTable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	enc := make([]byte, 200)
	for i := range enc {
		enc[i] = "0123"[rng.Intn(4)]
	}
	for _, k := range []int{1, 5, boxedKmersMaxK, boxedKmersMaxK + 1, 12} {
		args := []pig.Value{string(enc), "r1", int64(k)}
		v, err := translateToKmer(nil, args)
		if err != nil {
			t.Fatal(err)
		}
		bag := v.(pig.Bag)
		if len(bag) != len(enc)-k+1 {
			t.Fatalf("k=%d: %d k-mers, want %d", k, len(bag), len(enc)-k+1)
		}
		for i, tup := range bag {
			var want int64
			for _, c := range enc[i : i+k] {
				want = want<<2 | int64(c-'0')
			}
			if got, ok := tup.Fields[0].(int64); !ok || got != want || tup.Fields[1] != "r1" {
				t.Fatalf("k=%d: window %d = %v, want (%d, r1)", k, i, tup.Fields, want)
			}
		}
		// The bag, its slab of fields, the boxed read id and the boxed bag.
		allocs := testing.AllocsPerRun(20, func() { _, _ = translateToKmer(nil, args) })
		if small := k <= boxedKmersMaxK; small != (allocs <= 4) {
			t.Errorf("k=%d: %v allocations per call", k, allocs)
		}
	}
}

func TestSortTuplesByFirstField(t *testing.T) {
	bag := pig.Bag{pig.NewTuple("b"), pig.NewTuple("a")}
	sortTuplesByFirstField(bag)
	if bag[0].Fields[0] != "a" {
		t.Fatal("sort failed")
	}
}

func TestRunGreedyLSHMatchesExactOnSeparatedGroups(t *testing.T) {
	reads, truth := makeReads(3, 10, 250, 0.01, 21)
	base := Options{K: 8, NumHashes: 100, Theta: 0.4, Mode: GreedyMode, Cluster: smallCluster(), Seed: 22}
	exact, err := Run(reads, base)
	if err != nil {
		t.Fatal(err)
	}
	lshOpt := base
	lshOpt.UseLSH = true
	lsh, err := Run(reads, lshOpt)
	if err != nil {
		t.Fatal(err)
	}
	if exact.NumClusters() != lsh.NumClusters() {
		t.Fatalf("exact %d clusters, LSH %d", exact.NumClusters(), lsh.NumClusters())
	}
	acc, err := metrics.WeightedAccuracy(lsh.Assignments, truth)
	if err != nil || acc < 99.9 {
		t.Fatalf("LSH accuracy %.2f err=%v", acc, err)
	}
}

// TestScriptPaperVerbatimTwoArgForm runs a variant of Algorithm 3 using
// the paper's literal 2-argument CalculatePairwiseSimilarity (row located
// by signature equality rather than seqid) and checks it still produces a
// full labelling on reads with distinct sketches.
func TestScriptPaperVerbatimTwoArgForm(t *testing.T) {
	reads, _ := makeReads(2, 4, 150, 0.02, 31)
	fs := dfs.MustNew(dfs.Config{NumDataNodes: 3, BlockSize: 4096, Replication: 2})
	var sb strings.Builder
	for _, r := range reads {
		fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
	}
	if err := fs.WriteFile("/in/reads.fa", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	script := `
A = LOAD '/in/reads.fa' USING FastaStorage AS (readid:chararray, d:int, seq:bytearray, header:chararray);
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid)) AS (seq:chararray, seqid:chararray);
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, 8)) AS (seqkmer:long, seqid2:chararray);
E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(seqkmer, seqid2, 40, 65537)) AS (minwise:long, seqid3:chararray);
F = FOREACH E GENERATE FLATTEN(minwise), FLATTEN(seqid3);
I = GROUP F ALL;
J = FOREACH F GENERATE CalculatePairwiseSimilarity(minwise, I.F) AS similaritymatrix:double;
K = FOREACH J GENERATE FLATTEN(AgglomerativeHierarchicalClustering(similaritymatrix, 'average', 40, 0.4)) AS (sid:chararray, label:int);
`
	compiled, err := pig.Compile(script)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := mapreduce.NewEngine(smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	ctx := &pig.Context{
		FS: fs, Engine: engine, Registry: NewRegistry(), Seed: 31,
		Params: map[string]string{},
	}
	res, err := compiled.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	k := res.Aliases["K"]
	if len(k.Tuples) != len(reads) {
		t.Fatalf("labelled %d of %d reads", len(k.Tuples), len(reads))
	}
	labels := map[int]bool{}
	for _, tup := range k.Tuples {
		l, err := pig.AsInt(tup.Fields[1])
		if err != nil {
			t.Fatal(err)
		}
		labels[l] = true
	}
	if len(labels) != 2 {
		t.Fatalf("got %d clusters, want 2", len(labels))
	}
}

// engineSettings is the options every run's engine must carry.
func engineSettings() Options {
	return Options{
		Cluster:            mapreduce.Cluster{Nodes: 3, SlotsPerNode: 1, Cost: mapreduce.DefaultCostModel, Speculative: true},
		Trace:              trace.New(),
		Faults:             faults.MustNew(faults.ChaosPlan(1)),
		ShuffleBufferBytes: 4096,
	}
}

// checkEngine fails unless e carries opt's cluster, trace, faults and
// shuffle buffer.
func checkEngine(t *testing.T, e *mapreduce.Engine, opt Options) {
	t.Helper()
	if !reflect.DeepEqual(e.Cluster, opt.Cluster) {
		t.Errorf("engine cluster %+v, want %+v", e.Cluster, opt.Cluster)
	}
	if e.Trace != opt.Trace || e.Faults != opt.Faults {
		t.Error("engine does not carry the options' trace recorder and fault injector")
	}
	if e.ShuffleBufferBytes != opt.ShuffleBufferBytes {
		t.Errorf("engine shuffle buffer %d, want %d", e.ShuffleBufferBytes, opt.ShuffleBufferBytes)
	}
}

// TestOptionsEngineCarriesRunSettings: Options.engine builds every
// engine of a run, so it must carry all of the run's engine settings and
// reject a cluster that cannot run a job.
func TestOptionsEngineCarriesRunSettings(t *testing.T) {
	opt := engineSettings()
	e, err := opt.engine()
	if err != nil {
		t.Fatal(err)
	}
	checkEngine(t, e, opt)
	opt.Cluster.SlotsPerNode = 0
	if _, err := opt.engine(); err == nil {
		t.Fatal("cluster without slots accepted")
	}
}

// TestNewPigContextCarriesRunSettings: Pig scripts run their jobs on the
// context's engine, which must carry the same settings as Run's.
func TestNewPigContextCarriesRunSettings(t *testing.T) {
	opt := engineSettings()
	ctx, err := NewPigContext(dfs.MustNew(dfs.DefaultConfig), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkEngine(t, ctx.Engine, opt)
}

// TestUntracedRunDetachesRecorder: an untraced script run on a file
// system that a traced run used must not write DFS spans into the traced
// run's recorder.
func TestUntracedRunDetachesRecorder(t *testing.T) {
	reads, _ := makeReads(2, 3, 120, 0.02, 7)
	fs := dfs.MustNew(dfs.DefaultConfig)
	var sb strings.Builder
	for _, r := range reads {
		fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
	}
	if err := fs.WriteFile("/in/reads.fa", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	p := ScriptParams{Input: "/in/reads.fa", Output1: "/out/hier", Output2: "/out/greedy", K: 5, NumHash: 20, Cutoff: 0.5}
	rec := trace.New()
	if _, err := RunScriptTraced(fs, smallCluster(), p, 1, rec); err != nil {
		t.Fatal(err)
	}
	traced := rec.Len()
	if _, err := RunScriptTraced(fs, smallCluster(), p, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := rec.Len(); got != traced {
		t.Fatalf("the untraced run added %d spans to the traced run's recorder", got-traced)
	}
}
