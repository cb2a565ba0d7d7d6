package core

import (
	"reflect"
	"slices"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// jobOptions runs every job on several slots, so map and reduce tasks
// write the results in parallel.
func jobOptions(t *testing.T) (Options, *mapreduce.Engine) {
	t.Helper()
	opt := Options{
		Mode:    HierarchicalMode,
		Theta:   0.5,
		Cluster: mapreduce.Cluster{Nodes: 3, SlotsPerNode: 2, Cost: mapreduce.DefaultCostModel},
	}.withDefaults()
	engine, err := opt.engine()
	if err != nil {
		t.Fatal(err)
	}
	return opt, engine
}

// checkEmitsNothing fails unless res counts n input records and no output.
func checkEmitsNothing(t *testing.T, res *mapreduce.Result, n int) {
	t.Helper()
	if got := res.Counters.Get(mapreduce.CounterMapInputRecords); got != int64(n) {
		t.Errorf("map input records %d, want %d", got, n)
	}
	if got := res.Counters.Get(mapreduce.CounterMapOutputRecords); got != 0 {
		t.Errorf("map output records %d, want 0", got)
	}
}

func TestSketchJobWritesEveryRowAndEmitsNothing(t *testing.T) {
	opt, engine := jobOptions(t)
	reads, _ := makeReads(3, 8, 150, 0.02, 61)
	slab, res, err := sketchJob(engine, reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitsNothing(t, res, len(reads))
	if res.MapTasks < 2 {
		t.Fatalf("%d map tasks; the test needs several", res.MapTasks)
	}
	sk := minhash.MustSketcher(opt.NumHashes, opt.K, opt.Seed)
	ex := kmer.Extractor{K: opt.K, Canonical: opt.Canonical}
	for i, sig := range sigRows(slab, opt.NumHashes) {
		if want := sk.Sketch(ex.Set(reads[i].Seq)); !slices.Equal(sig, want) {
			t.Fatalf("row %d = %v, want %v", i, sig, want)
		}
	}
}

func TestSimilarityJobMatchesSequentialMatrix(t *testing.T) {
	opt, engine := jobOptions(t)
	reads, _ := makeReads(3, 8, 150, 0.02, 62)
	sigs := sigRows(sketchAgain(t, reads, opt), opt.NumHashes)
	m, res, err := similarityJob(engine, cluster.NewSliceSource(sigs, minhash.MatchedPositions), opt)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitsNothing(t, res, len(reads))
	want := cluster.SimilarityMatrix(sigs, minhash.MatchedPositions)
	for i := range sigs {
		for j := range sigs {
			if m.Get(i, j) != want.Get(i, j) {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, j, m.Get(i, j), want.Get(i, j))
			}
		}
	}
}

func TestLSHFinishJobMatchesExactClustering(t *testing.T) {
	opt, engine := jobOptions(t)
	reads, _ := makeReads(4, 6, 150, 0.02, 63)
	src := cluster.NewSliceSource(sigRows(sketchAgain(t, reads, opt), opt.NumHashes), minhash.MatchedPositions)
	exact, err := cluster.HierarchicalFromSource(src, opt.Linkage, opt.Theta)
	if err != nil {
		t.Fatal(err)
	}
	if exact.NumClusters() < 2 {
		t.Fatalf("exact clustering has %d clusters; the test needs several", exact.NumClusters())
	}
	for name, comps := range map[string][]int{
		"one component":             make([]int, len(reads)),
		"one component per cluster": exact,
	} {
		t.Run(name, func(t *testing.T) {
			got, res, err := lshFinishJob(engine, src, comps, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, exact) {
				t.Fatalf("labels %v, want %v", got, exact)
			}
			if out := res.Counters.Get(mapreduce.CounterReduceOutput); out != 0 {
				t.Fatalf("reduce output records %d, want 0", out)
			}
		})
	}
}
