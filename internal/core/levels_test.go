package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// sketchAgain runs the sketch job over reads again, as medoid picking
// did before a Result kept the signatures its run clustered. opt must
// have its defaults filled.
func sketchAgain(t *testing.T, reads []fasta.Record, opt Options) minhash.Signature {
	t.Helper()
	engine, err := opt.engine()
	if err != nil {
		t.Fatal(err)
	}
	slab, _, err := sketchJob(engine, reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	return slab
}

// fullWidthSource sketches reads again into a slice source of full-width
// signatures compared by est.
func fullWidthSource(t *testing.T, reads []fasta.Record, opt Options, est minhash.Estimator) cluster.SigSource {
	t.Helper()
	opt = opt.withDefaults()
	return cluster.NewSliceSource(sigRows(sketchAgain(t, reads, opt), opt.NumHashes), est)
}

// evenReads builds g groups of m reads: each member is its group's
// template after subs substitutions at random positions, so no member
// stands out and which one is the medoid turns on the estimator.
func evenReads(g, m, length, subs int, seed int64) []fasta.Record {
	rng := rand.New(rand.NewSource(seed))
	var reads []fasta.Record
	for gi := 0; gi < g; gi++ {
		template := make([]byte, length)
		for i := range template {
			template[i] = "ACGT"[rng.Intn(4)]
		}
		for mi := 0; mi < m; mi++ {
			seq := append([]byte{}, template...)
			for s := 0; s < subs; s++ {
				p := rng.Intn(length)
				seq[p] = "ACGT"[(strings.IndexByte("ACGT", seq[p])+1+rng.Intn(3))%4]
			}
			reads = append(reads, fasta.Record{ID: fmt.Sprintf("g%d_r%d", gi, mi), Seq: seq})
		}
	}
	return reads
}

func representatives(t *testing.T, labels metrics.Clustering, src cluster.SigSource) map[int]int {
	t.Helper()
	reps, err := cluster.Representatives(labels, src)
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

func TestRunLevelsCoreAndRepresentatives(t *testing.T) {
	reads, _ := makeReads(2, 6, 200, 0.01, 41)
	opt := Options{K: 8, NumHashes: 60, Theta: 0.6, Mode: HierarchicalMode, Cluster: smallCluster(), Seed: 42}
	res, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := res.Levels([]float64{0.2, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 2 || levels[0].Theta != 0.6 {
		t.Fatalf("levels %+v", levels)
	}
	if !reflect.DeepEqual(levels[0].Labels, res.Assignments) {
		t.Fatal("the level at the run's own θ differs from its clusters")
	}
	for _, bad := range [][]float64{nil, {-1}, {1.5}, {math.NaN()}} {
		if _, err := res.Levels(bad); err == nil {
			t.Fatalf("thresholds %v accepted", bad)
		}
	}
	reps, err := res.Representatives()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != res.NumClusters() {
		t.Fatalf("reps %d", len(reps))
	}
	for id, idx := range reps {
		if res.Assignments[idx] != id {
			t.Fatalf("representative %d not in cluster %d", idx, id)
		}
	}
}

// TestRepresentativesMatchFullWidthSketch holds the medoids of
// full-width greedy, exact hierarchical and LSH runs to the ones a fresh
// full-width sketch of the reads gives, and the levels of the
// hierarchical run to cuts of a dendrogram built from that sketch. Some
// medoid must differ under the matched-positions estimator, so that
// scoring by another estimator than the run's fails the test.
func TestRepresentativesMatchFullWidthSketch(t *testing.T) {
	reads := evenReads(8, 10, 150, 3, 5)
	base := Options{K: 8, NumHashes: 32, Theta: 0.3, Seed: 9, Cluster: smallCluster()}
	for _, c := range []struct {
		name string
		mut  func(*Options)
	}{
		{"greedy", func(o *Options) { o.Mode = GreedyMode }},
		{"hierarchical", func(o *Options) { o.Mode = HierarchicalMode }},
		{"lsh", func(o *Options) { o.Mode, o.Candidate = HierarchicalMode, CandidateLSH }},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := base
			c.mut(&opt)
			res, err := Run(reads, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumClusters() == len(reads) {
				t.Fatal("every cluster is a singleton: the medoids are not tested")
			}
			got, err := res.Representatives()
			if err != nil {
				t.Fatal(err)
			}
			if want := representatives(t, res.Assignments, fullWidthSource(t, reads, opt, minhash.SetOverlap)); !reflect.DeepEqual(got, want) {
				t.Fatalf("medoids %v, a fresh full-width sketch gives %v", got, want)
			}
			if other := representatives(t, res.Assignments, fullWidthSource(t, reads, opt, minhash.MatchedPositions)); reflect.DeepEqual(got, other) {
				t.Fatal("the matched-positions estimator picks the same medoids: the estimator is not tested")
			}
			if c.name != "hierarchical" {
				return
			}
			thetas := []float64{0.2, 0.4, 0.7}
			levels, err := res.Levels(thetas)
			if err != nil {
				t.Fatal(err)
			}
			src := fullWidthSource(t, reads, opt, minhash.SetOverlap)
			dend, err := cluster.Hierarchical(cluster.BuildMatrixParallel(src.Len(), 1, src.Similarity), cluster.HierarchicalOptions{Linkage: opt.Linkage})
			if err != nil {
				t.Fatal(err)
			}
			if want := dend.CutLevels(thetas); !reflect.DeepEqual(levels, want) {
				t.Fatalf("levels %+v, a fresh full-width dendrogram gives %+v", levels, want)
			}
		})
	}
}

// TestLevelsRefusedWithoutDendrogram: greedy and LSH runs build no
// dendrogram, and a resumed run that restored its cluster stage holds
// only labels; Levels must say so rather than cut something else. A
// Result that Run did not return has neither levels nor medoids.
func TestLevelsRefusedWithoutDendrogram(t *testing.T) {
	reads, _ := makeReads(3, 5, 180, 0.01, 4)
	opt := Options{K: 8, NumHashes: 40, Theta: 0.4, Seed: 4, Cluster: smallCluster()}
	refused := func(name string, res *Result) {
		t.Helper()
		if _, err := res.Levels([]float64{0.5}); err == nil || !strings.Contains(err.Error(), "no dendrogram") {
			t.Fatalf("%s: Levels gave %v, want a refusal", name, err)
		}
	}
	for _, mut := range []func(*Options){
		func(o *Options) { o.Mode = GreedyMode },
		func(o *Options) { o.Mode, o.Candidate = GreedyMode, CandidateLSH },
		func(o *Options) { o.Mode, o.Candidate = HierarchicalMode, CandidateLSH },
	} {
		o := opt
		mut(&o)
		res, err := Run(reads, o)
		if err != nil {
			t.Fatal(err)
		}
		refused(o.Mode.String()+"/"+o.Candidate.String(), res)
	}

	dir := t.TempDir()
	o := opt
	o.Mode = HierarchicalMode
	o.Checkpoint = openJournal(t, dir)
	if _, err := Run(reads, o); err != nil {
		t.Fatal(err)
	}
	o.Checkpoint = openJournal(t, dir)
	o.Resume = ResumeOn
	res, err := Run(reads, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.SkippedStages, stagesOf(HierarchicalMode)) {
		t.Fatalf("skipped %v", res.SkippedStages)
	}
	refused("restored cluster stage", res)
	if _, err := res.Representatives(); err != nil {
		t.Fatalf("a restored run has no medoids: %v", err)
	}

	var zero Result
	refused("zero Result", &zero)
	if _, err := zero.Representatives(); err == nil {
		t.Fatal("a zero Result has medoids")
	}
}

// TestLevelsAndRepresentativesSurviveResume crashes a hierarchical run
// after its sketch and after its similarity stage: the resumed runs,
// which restore the signatures and rerun the cluster stage, give the
// fresh run's medoids and levels.
func TestLevelsAndRepresentativesSurviveResume(t *testing.T) {
	reads, _ := makeReads(4, 6, 200, 0.01, 3)
	opt := resumeOptions(HierarchicalMode, 3)
	thetas := []float64{0.2, 0.6}
	fresh, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantReps, err := fresh.Representatives()
	if err != nil {
		t.Fatal(err)
	}
	wantLevels, err := fresh.Levels(thetas)
	if err != nil {
		t.Fatal(err)
	}
	for _, crashAfter := range []string{StageSketch, StageSimilarity} {
		dir := t.TempDir()
		first := opt
		first.Checkpoint = openJournal(t, dir)
		first.Faults = faults.MustNew(faults.Plan{DriverCrashes: []faults.DriverCrash{{AfterStage: crashAfter}}})
		if _, err := Run(reads, first); err == nil {
			t.Fatal("planned driver crash did not fire")
		}
		resumed := opt
		resumed.Checkpoint = openJournal(t, dir)
		resumed.Resume = ResumeOn
		res, err := Run(reads, resumed)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.SkippedStages) == 0 || res.SkippedStages[0] != StageSketch {
			t.Fatalf("crash after %s: skipped %v", crashAfter, res.SkippedStages)
		}
		if reps, err := res.Representatives(); err != nil || !reflect.DeepEqual(reps, wantReps) {
			t.Fatalf("crash after %s: medoids %v (%v), fresh run %v", crashAfter, reps, err, wantReps)
		}
		if levels, err := res.Levels(thetas); err != nil || !reflect.DeepEqual(levels, wantLevels) {
			t.Fatalf("crash after %s: levels %+v (%v), fresh run %+v", crashAfter, levels, err, wantLevels)
		}
	}
}

// TestLevelsAndRepresentativesUnderFaults runs the pipeline under a plan
// that crashes the first two attempts of map task 0 in every job: the
// faults must fire, and the levels and medoids must be the clean run's.
func TestLevelsAndRepresentativesUnderFaults(t *testing.T) {
	reads, _ := makeReads(4, 6, 200, 0.01, 5)
	opt := Options{K: 8, NumHashes: 48, Theta: 0.4, Mode: HierarchicalMode, Seed: 9, Cluster: smallCluster()}
	thetas := []float64{0.2, 0.4, 0.6}
	plan, err := faults.ParsePlan("taskfail=*:map:0:2", 1)
	if err != nil {
		t.Fatal(err)
	}
	faulted := opt
	faulted.Faults = faults.MustNew(plan)
	var levels [2][]cluster.Level
	var reps [2]map[int]int
	for i, o := range []Options{opt, faulted} {
		res, err := Run(reads, o)
		if err != nil {
			t.Fatal(err)
		}
		if levels[i], err = res.Levels(thetas); err != nil {
			t.Fatal(err)
		}
		if reps[i], err = res.Representatives(); err != nil {
			t.Fatal(err)
		}
	}
	if faulted.Faults.Injected() == 0 {
		t.Fatal("the run injected no faults")
	}
	if !reflect.DeepEqual(levels[0], levels[1]) || !reflect.DeepEqual(reps[0], reps[1]) {
		t.Fatal("fault injection changed the levels or the medoids")
	}
}

// TestPackedRepresentativesUsePackedEstimator: under StoreBits the
// medoids are scored by the packed estimator the clustering used, equal
// to those of a packed store of a fresh sketch. On this corpus some
// medoid differs from the full-width one, so scoring a full-width
// re-sketch fails the test.
func TestPackedRepresentativesUsePackedEstimator(t *testing.T) {
	reads := evenReads(8, 10, 150, 3, 5)
	opt := Options{K: 8, NumHashes: 32, Theta: 0.3, Mode: HierarchicalMode, Seed: 9, Cluster: smallCluster(), StoreBits: 8}
	res, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Representatives()
	if err != nil {
		t.Fatal(err)
	}
	o := opt.withDefaults()
	store, err := buildStore(sketchAgain(t, reads, o), o)
	if err != nil {
		t.Fatal(err)
	}
	if want := representatives(t, res.Assignments, store.View(minhash.SetOverlap)); !reflect.DeepEqual(got, want) {
		t.Fatalf("medoids %v, the packed store of a fresh sketch gives %v", got, want)
	}
	if full := representatives(t, res.Assignments, fullWidthSource(t, reads, opt, minhash.SetOverlap)); reflect.DeepEqual(got, full) {
		t.Fatal("packed and full-width signatures pick the same medoids: the estimator is not tested")
	}
}
