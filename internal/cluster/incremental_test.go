package cluster

import (
	"testing"

	"github.com/metagenomics/mrmcminh/internal/minhash"
)

func TestIncrementalMatchesBatchGreedyExactly(t *testing.T) {
	sigs, _ := sketchGroups(t, 4, 12, 51)
	src := NewSliceSource(sigs, minhash.MatchedPositions)
	batch, err := Greedy(src, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(src, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sigs {
		label, err := inc.Add(i)
		if err != nil {
			t.Fatal(err)
		}
		if label != batch[i] {
			t.Fatalf("read %d: incremental label %d != batch %d", i, label, batch[i])
		}
	}
	if inc.NumClusters() != batch.NumClusters() || inc.NumReads() != len(sigs) {
		t.Fatalf("counters %d/%d", inc.NumClusters(), inc.NumReads())
	}
}

func TestIncrementalLSHMatchesGreedyLSH(t *testing.T) {
	sigs, _ := sketchGroups(t, 3, 10, 52)
	src := NewSliceSource(sigs, minhash.MatchedPositions)
	geo := GeometryFor(len(sigs[0]), 0.5)
	batch, err := GreedyLSH(src, 0.5, geo)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(src, 0.5, &geo)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sigs {
		label, err := inc.Add(i)
		if err != nil {
			t.Fatal(err)
		}
		if label != batch[i] {
			t.Fatalf("read %d: incremental-LSH label %d != batch %d", i, label, batch[i])
		}
	}
}

func TestIncrementalValidation(t *testing.T) {
	src := NewSliceSource([]minhash.Signature{make(minhash.Signature, 8)}, minhash.SetOverlap)
	if _, err := NewIncremental(src, 2, nil); err == nil {
		t.Fatal("bad threshold accepted")
	}
	if _, err := NewIncremental(src, 0.5, &LSHOptions{Bands: 0, Rows: 1}); err == nil {
		t.Fatal("bad geometry accepted")
	}
	if _, err := NewIncremental(src, 0.5, &LSHOptions{Bands: 4, Rows: 4}); err == nil {
		t.Fatal("geometry wider than the signatures accepted")
	}
	inc, err := NewIncremental(src, 0.5, &LSHOptions{Bands: 4, Rows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Add(1); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestIncrementalEmptySignaturesAreSingletons(t *testing.T) {
	sk := minhash.MustSketcher(10, 5, 1)
	empty := sk.Sketch(nil)
	inc, err := NewIncremental(NewSliceSource([]minhash.Signature{empty, empty.Clone()}, minhash.SetOverlap), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := inc.Add(0)
	l2, _ := inc.Add(1)
	if l1 == l2 {
		t.Fatal("empty signatures merged")
	}
}

// TestIncrementalLSHGenerationWrap drives the daemon's banded clusterer
// through a wrap of the band index's generation counter: with the
// counter two queries from wrapping, the labels must still match a
// fresh clusterer's. Without the wrap reset, representatives never seen
// by a query keep mark 0 and would be skipped once the counter reads 0.
func TestIncrementalLSHGenerationWrap(t *testing.T) {
	sigs, _ := sketchGroups(t, 3, 4, 53)
	src := NewSliceSource(sigs, minhash.SetOverlap)
	geo := GeometryFor(len(sigs[0]), 0.5)
	fresh, err := NewIncremental(src, 0.5, &geo)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := NewIncremental(src, 0.5, &geo)
	if err != nil {
		t.Fatal(err)
	}
	wrapped.lsh.gen = ^uint32(0) - 1
	for i := range sigs {
		want, err := fresh.Add(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wrapped.Add(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("read %d: label %d after the wrap, want %d", i, got, want)
		}
	}
	if wrapped.lsh.gen >= ^uint32(0)-1 {
		t.Fatalf("generation counter %d did not wrap", wrapped.lsh.gen)
	}
}
