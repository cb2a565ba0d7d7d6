package cluster

import (
	"math/rand"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

func TestGeometryFor(t *testing.T) {
	g := GeometryFor(100, 0.5)
	if g.Bands*g.Rows > 100 {
		t.Fatalf("geometry %+v exceeds signature length", g)
	}
	knee := kneeOf(g.Bands, g.Rows)
	if knee < 0.35 || knee > 0.75 {
		t.Fatalf("knee %.2f for θ=0.5 (%+v)", knee, g)
	}
	// Higher θ wants more rows per band.
	tight := GeometryFor(100, 0.9)
	if tight.Rows < g.Rows {
		t.Fatalf("θ=0.9 geometry %+v not stricter than θ=0.5 %+v", tight, g)
	}
	// Degenerate inputs.
	if got := GeometryFor(1, 0.5); got.Bands != 1 || got.Rows != 1 {
		t.Fatalf("n=1 geometry %+v", got)
	}
}

func TestLSHOptionsValidate(t *testing.T) {
	if err := (LSHOptions{Bands: 0, Rows: 1}).Validate(10); err == nil {
		t.Error("bands=0 accepted")
	}
	if err := (LSHOptions{Bands: 4, Rows: 4}).Validate(10); err == nil {
		t.Error("oversized geometry accepted")
	}
	if err := (LSHOptions{Bands: 2, Rows: 5}).Validate(10); err != nil {
		t.Error(err)
	}
}

func TestGreedyLSHMatchesGreedyOnSeparatedGroups(t *testing.T) {
	sigs, truth := sketchGroups(t, 5, 10, 41)
	src := NewSliceSource(sigs, minhash.MatchedPositions)
	exact, err := Greedy(src, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lsh, err := GreedyLSH(src, 0.5, GeometryFor(len(sigs[0]), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if exact.NumClusters() != lsh.NumClusters() {
		t.Fatalf("exact %d clusters vs LSH %d", exact.NumClusters(), lsh.NumClusters())
	}
	// Both must agree with ground truth exactly on this easy input.
	agreesWithTruth(t, lsh, truth, 5)
}

func TestGreedyLSHEmptyInputAndValidation(t *testing.T) {
	empty := NewSliceSource(nil, minhash.SetOverlap)
	c, err := GreedyLSH(empty, 0.5, LSHOptions{Bands: 2, Rows: 2})
	if err != nil || len(c) != 0 {
		t.Fatalf("c=%v err=%v", c, err)
	}
	if _, err := GreedyLSH(empty, 2, LSHOptions{Bands: 2, Rows: 2}); err == nil {
		t.Fatal("bad threshold accepted")
	}
	sigs, _ := sketchGroups(t, 1, 3, 42)
	if _, err := GreedyLSH(NewSliceSource(sigs, minhash.SetOverlap), 0.5, LSHOptions{Bands: 100, Rows: 100}); err == nil {
		t.Fatal("oversized geometry accepted")
	}
}

func TestGreedyLSHScalesBetterThanExact(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	// Many tiny clusters: exact greedy scans all representatives per
	// read (O(N·C)), LSH only bucket collisions.
	rng := rand.New(rand.NewSource(43))
	sk := minhash.MustSketcher(100, 10, 43)
	n := 1500
	sigs := make([]minhash.Signature, n)
	for i := range sigs {
		set := kmer.Set{}
		for len(set) < 80 {
			set.Add(rng.Uint64() % kmer.FeatureSpace(10))
		}
		sigs[i] = sk.Sketch(set)
	}
	src := NewSliceSource(sigs, minhash.MatchedPositions)
	start := time.Now()
	if _, err := Greedy(src, 0.6); err != nil {
		t.Fatal(err)
	}
	exactTime := time.Since(start)
	start = time.Now()
	if _, err := GreedyLSH(src, 0.6, GeometryFor(100, 0.6)); err != nil {
		t.Fatal(err)
	}
	lshTime := time.Since(start)
	if lshTime > exactTime {
		t.Fatalf("LSH path (%v) slower than exact (%v) on dust-heavy input", lshTime, exactTime)
	}
}
