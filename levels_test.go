package mrmcminh

import (
	"math"
	"reflect"
	"testing"
)

func TestLevelsNestedCuts(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-pipeline run")
	}
	reads, _ := sampleReads(t)
	res, err := Cluster(reads, Options{
		K: 20, NumHashes: 100, Theta: 0.55, Mode: Hierarchical, Linkage: SingleLinkage,
		Canonical: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	levels, err := res.Levels([]float64{0.3, 0.55, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("got %d levels", len(levels))
	}
	if levels[0].Theta != 0.8 || levels[2].Theta != 0.3 {
		t.Fatalf("levels not finest-first: %v %v", levels[0].Theta, levels[2].Theta)
	}
	prev := 1 << 30
	for _, lv := range levels {
		n := lv.Labels.NumClusters()
		if n > prev {
			t.Fatalf("coarser level has more clusters (%d > %d)", n, prev)
		}
		prev = n
	}
	if !reflect.DeepEqual(levels[1].Labels, res.Assignments) {
		t.Fatal("the level at the run's own θ differs from its clusters")
	}
}

func TestLevelsValidation(t *testing.T) {
	reads, _ := sampleReads(t)
	opt := Options{K: 20, NumHashes: 60, Theta: 0.3, Mode: Hierarchical, Canonical: true, Seed: 1}
	res, err := Cluster(reads[:40], opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, thetas := range [][]float64{nil, {1.5}, {-0.1}, {0.5, math.NaN()}} {
		if _, err := res.Levels(thetas); err == nil {
			t.Fatalf("thresholds %v accepted", thetas)
		}
	}
	opt.Mode = Greedy
	greedy, err := Cluster(reads[:40], opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := greedy.Levels([]float64{0.5}); err == nil {
		t.Fatal("a greedy run, which builds no dendrogram, was cut into levels")
	}
	if _, err := new(Result).Levels([]float64{0.5}); err == nil {
		t.Fatal("a Result no run returned was cut into levels")
	}
}

func TestRepresentativesPublic(t *testing.T) {
	reads, _ := sampleReads(t)
	opt := Options{K: 20, NumHashes: 60, Theta: 0.3, Mode: Greedy, Canonical: true, Seed: 1}
	res, err := Cluster(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := res.Representatives()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != res.NumClusters() {
		t.Fatalf("%d reps for %d clusters", len(reps), res.NumClusters())
	}
	for id, idx := range reps {
		if res.Assignments[idx] != id {
			t.Fatalf("representative %d not in cluster %d", idx, id)
		}
	}
	if _, err := new(Result).Representatives(); err == nil {
		t.Fatal("a Result no run returned has representatives")
	}
}

func TestDiversityPublic(t *testing.T) {
	reads, _ := sampleReads(t)
	res, err := Cluster(reads, Options{K: 20, NumHashes: 60, Theta: 0.3, Mode: Greedy, Canonical: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := Diversity(res)
	if p.Total != len(reads) {
		t.Fatalf("profile total %d for %d reads", p.Total, len(reads))
	}
	if p.Richness() != res.NumClusters() {
		t.Fatalf("richness %d vs clusters %d", p.Richness(), res.NumClusters())
	}
	if p.Chao1() < float64(p.Richness()) {
		t.Fatal("Chao1 below observed richness")
	}
}

func TestConsensusPublic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-pipeline run")
	}
	reads, _ := sampleReads(t)
	opt := Options{K: 20, NumHashes: 60, Theta: 0.3, Mode: Greedy, Canonical: true, Seed: 1}
	res, err := Cluster(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Consensus(reads, res, ConsensusOptions{MaxMembers: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != res.NumClusters() {
		t.Fatalf("%d consensi for %d clusters", len(cons), res.NumClusters())
	}
	for id, seq := range cons {
		if len(seq) == 0 {
			t.Fatalf("cluster %d has empty consensus", id)
		}
	}
}

func TestChimeraPublic(t *testing.T) {
	reads, _ := sampleReads(t)
	refs := reads[:5]
	det, err := NewChimeraDetector(refs, ChimeraOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chimeras, _, err := SimulateChimeras(refs, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	flaggedCount := 0
	for _, c := range chimeras {
		v, err := det.Check(c.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if v.Chimeric {
			flaggedCount++
		}
	}
	if flaggedCount < 2 {
		t.Fatalf("only %d/3 simulated chimeras flagged", flaggedCount)
	}
}

func TestTaxonomyPublic(t *testing.T) {
	c, err := NewTaxonomyClassifier(TaxonomyOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	ref := []byte("ACGTACGGTTCAGGCATTACGGATCAGGTTACGGATTACGAATTCCGGAAGG")
	if err := c.AddReference("refA", Lineage{"Bacteria", "TestPhylum"}, ref); err != nil {
		t.Fatal(err)
	}
	other := []byte("TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAATTTTGGGGCCCCAAAATTTT")
	if err := c.AddReference("refB", Lineage{"Bacteria", "OtherPhylum"}, other); err != nil {
		t.Fatal(err)
	}
	a, err := c.Classify(ref[5:40])
	if err != nil {
		t.Fatal(err)
	}
	if !a.Classified || a.Reference != "refA" {
		t.Fatalf("assignment %+v", a)
	}
}
