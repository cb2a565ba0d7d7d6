package cluster

import (
	"testing"

	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

func TestCutLevelsNested(t *testing.T) {
	d, err := Hierarchical(knownMatrix(), HierarchicalOptions{Linkage: Average})
	if err != nil {
		t.Fatal(err)
	}
	levels := d.CutLevels([]float64{0.05, 0.7, 0.95, 0.7}) // dup collapses
	if len(levels) != 3 {
		t.Fatalf("got %d levels", len(levels))
	}
	// Finest first.
	if levels[0].Theta != 0.95 || levels[2].Theta != 0.05 {
		t.Fatalf("levels order %v %v", levels[0].Theta, levels[2].Theta)
	}
	// Cluster counts shrink toward coarser levels.
	for i := 1; i < len(levels); i++ {
		if levels[i].Clusters > levels[i-1].Clusters {
			t.Fatalf("level %d has more clusters than finer level", i)
		}
	}
	if !LevelsAreNested(levels) {
		t.Fatal("dendrogram levels not nested")
	}
}

func TestLevelsAreNestedDetectsViolation(t *testing.T) {
	fine := Level{Theta: 0.9, Labels: []int{0, 0, 1, 1}}
	badCoarse := Level{Theta: 0.5, Labels: []int{0, 1, 0, 1}} // splits fine cluster 0
	if LevelsAreNested([]Level{fine, badCoarse}) {
		t.Fatal("violation not detected")
	}
	short := Level{Theta: 0.5, Labels: []int{0}}
	if LevelsAreNested([]Level{fine, short}) {
		t.Fatal("length mismatch not detected")
	}
	goodCoarse := Level{Theta: 0.5, Labels: []int{0, 0, 0, 0}}
	if !LevelsAreNested([]Level{fine, goodCoarse}) {
		t.Fatal("valid nesting rejected")
	}
}

func TestRepresentatives(t *testing.T) {
	sigs, _ := sketchGroups(t, 2, 5, 31)
	src := NewSliceSource(sigs, minhash.MatchedPositions)
	labels, err := Greedy(src, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := Representatives(labels, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != labels.NumClusters() {
		t.Fatalf("%d reps for %d clusters", len(reps), labels.NumClusters())
	}
	for id, rep := range reps {
		if labels[rep] != id {
			t.Fatalf("rep %d not a member of cluster %d", rep, id)
		}
	}
}

func TestRepresentativesSingleton(t *testing.T) {
	sk := minhash.MustSketcher(10, 5, 1)
	sigs := []minhash.Signature{sk.Sketch(kmer.FromSlice([]uint64{1, 2}))}
	reps, err := Representatives([]int{0}, NewSliceSource(sigs, minhash.MatchedPositions))
	if err != nil || reps[0] != 0 {
		t.Fatalf("reps %v err %v", reps, err)
	}
}

func TestRepresentativesMedoidChoice(t *testing.T) {
	// Three signatures: a and b identical, c distinct but same cluster.
	// The medoid must be a or b (highest summed similarity), never c.
	sk := minhash.MustSketcher(60, 8, 2)
	shared := kmer.FromSlice([]uint64{10, 20, 30, 40, 50})
	distinct := kmer.FromSlice([]uint64{10, 20, 99, 98, 97})
	sigs := []minhash.Signature{sk.Sketch(shared), sk.Sketch(shared), sk.Sketch(distinct)}
	reps, err := Representatives([]int{0, 0, 0}, NewSliceSource(sigs, minhash.MatchedPositions))
	if err != nil {
		t.Fatal(err)
	}
	if reps[0] == 2 {
		t.Fatal("outlier chosen as medoid")
	}
}

func TestRepresentativesValidation(t *testing.T) {
	if _, err := Representatives([]int{0, 0}, NewSliceSource(nil, minhash.MatchedPositions)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
