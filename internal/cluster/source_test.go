package cluster

import (
	"math/rand"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// sourceTestSigs builds n deterministic signatures in g groups: members
// of a group share most slots (high Jaccard), across groups they are
// random — plus every emptyEvery-th signature empty.
func sourceTestSigs(n, numHashes, groups, emptyEvery int, seed int64) []minhash.Signature {
	rng := rand.New(rand.NewSource(seed))
	bases := make([]minhash.Signature, groups)
	for g := range bases {
		bases[g] = make(minhash.Signature, numHashes)
		for j := range bases[g] {
			bases[g][j] = rng.Uint64() % (1 << 61)
		}
	}
	sigs := make([]minhash.Signature, n)
	for i := range sigs {
		sig := make(minhash.Signature, numHashes)
		if emptyEvery > 0 && i%emptyEvery == emptyEvery-1 {
			for j := range sig {
				sig[j] = minhash.EmptyMin
			}
		} else {
			copy(sig, bases[i%groups])
			// perturb a few slots so within-group similarity is high but
			// not exactly 1
			for k := 0; k < 1+i%3; k++ {
				sig[rng.Intn(numHashes)] = rng.Uint64() % (1 << 61)
			}
		}
		sigs[i] = sig
	}
	return sigs
}

func clusteringsEqual(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

// greedyReference is Algorithm 1 written directly over signature slices
// with the unprepared Estimator.Similarity — the independent reference
// Greedy over a source is pinned to.
func greedyReference(sigs []minhash.Signature, est minhash.Estimator, theta float64) metrics.Clustering {
	assign := make(metrics.Clustering, len(sigs))
	for i := range assign {
		assign[i] = -1
	}
	next := 0
	for first := range sigs {
		if assign[first] >= 0 {
			continue
		}
		assign[first] = next
		for j := first + 1; j < len(sigs) && !sigs[first].Empty(); j++ {
			if assign[j] < 0 && est.Similarity(sigs[first], sigs[j]) >= theta {
				assign[j] = next
			}
		}
		next++
	}
	return assign
}

// greedyLSHReference is banded Algorithm 1 written directly over
// signature slices: per-band maps from band hash to representative
// labels, a fresh seen-set per query, candidates tried in first-seen
// order across bands, and the unprepared Estimator.Similarity.
func greedyLSHReference(sigs []minhash.Signature, est minhash.Estimator, theta float64, geo LSHOptions) metrics.Clustering {
	buckets := make([]map[uint64][]int, geo.Bands)
	for b := range buckets {
		buckets[b] = map[uint64][]int{}
	}
	var reps []int
	assign := make(metrics.Clustering, len(sigs))
	for i, sig := range sigs {
		assign[i] = -1
		seen := map[int]bool{}
		for b := 0; b < geo.Bands && assign[i] < 0 && !sig.Empty(); b++ {
			for _, label := range buckets[b][minhash.BandHash(sig, b, geo.Rows)] {
				if !seen[label] && assign[i] < 0 {
					seen[label] = true
					if est.Similarity(sig, sigs[reps[label]]) >= theta {
						assign[i] = label
					}
				}
			}
		}
		if assign[i] < 0 {
			assign[i] = len(reps)
			for b := range buckets {
				h := minhash.BandHash(sig, b, geo.Rows)
				buckets[b][h] = append(buckets[b][h], len(reps))
			}
			reps = append(reps, i)
		}
	}
	return assign
}

// TestGreedySourceEquivalence pins Greedy over a SliceSource to the
// slice-level reference.
func TestGreedySourceEquivalence(t *testing.T) {
	sigs := sourceTestSigs(150, 40, 6, 11, 1)
	for _, est := range []minhash.Estimator{minhash.SetOverlap, minhash.MatchedPositions} {
		got, err := Greedy(NewSliceSource(sigs, est), 0.6)
		if err != nil {
			t.Fatal(err)
		}
		clusteringsEqual(t, "Greedy", got, greedyReference(sigs, est, 0.6))
	}
	if _, err := Greedy(NewSliceSource(nil, minhash.SetOverlap), 2); err == nil {
		t.Fatal("bad threshold: expected error")
	}
}

// TestGreedyLSHSourceEquivalence pins GreedyLSH — including the band
// index's candidate order — to the slice-level banded reference.
func TestGreedyLSHSourceEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		sigs := sourceTestSigs(200, 40, 8, 13, seed)
		lsh := LSHOptions{Bands: 8, Rows: 5}
		got, err := GreedyLSH(NewSliceSource(sigs, minhash.SetOverlap), 0.6, lsh)
		if err != nil {
			t.Fatal(err)
		}
		clusteringsEqual(t, "GreedyLSH", got, greedyLSHReference(sigs, minhash.SetOverlap, 0.6, lsh))
	}
}

func TestGreedyLSHSourceValidation(t *testing.T) {
	src := NewSliceSource(sourceTestSigs(10, 20, 2, 0, 4), minhash.SetOverlap)
	if _, err := GreedyLSH(src, 0.5, LSHOptions{Bands: 7, Rows: 5}); err == nil {
		t.Fatal("oversized geometry: expected error")
	}
	if _, err := GreedyLSH(src, -1, LSHOptions{Bands: 4, Rows: 5}); err == nil {
		t.Fatal("bad threshold: expected error")
	}
	empty := NewSliceSource(nil, minhash.SetOverlap)
	if _, err := GreedyLSH(empty, 0.5, LSHOptions{Bands: 0, Rows: 5}); err == nil {
		t.Fatal("zero bands: expected error even on empty input")
	}
	got, err := GreedyLSH(empty, 0.5, LSHOptions{Bands: 4, Rows: 5})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty source: got %v, %v", got, err)
	}
}

// TestHierarchicalFromSourceEquivalence pins HierarchicalFromSource to
// the dendrogram of the sequential unprepared SimilarityMatrix, for
// every linkage.
func TestHierarchicalFromSourceEquivalence(t *testing.T) {
	sigs := sourceTestSigs(90, 30, 5, 10, 2)
	for _, link := range []Linkage{Single, Average, Complete} {
		d, err := Hierarchical(SimilarityMatrix(sigs, minhash.SetOverlap), HierarchicalOptions{Linkage: link})
		if err != nil {
			t.Fatal(err)
		}
		got, err := HierarchicalFromSource(NewSliceSource(sigs, minhash.SetOverlap), link, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		clusteringsEqual(t, link.String(), got, d.CutAt(0.6))
	}
	if _, err := HierarchicalFromSource(NewSliceSource(sigs, minhash.SetOverlap), Single, 1.5); err == nil {
		t.Fatal("bad threshold: expected error")
	}
}

// TestIncrementalSourceEquivalence pins Incremental to the slice-level
// references given the same arrival order: the exact scan to the greedy
// reference, the banded path to the banded one.
func TestIncrementalSourceEquivalence(t *testing.T) {
	sigs := sourceTestSigs(120, 40, 6, 9, 3)
	src := NewSliceSource(sigs, minhash.SetOverlap)
	for _, geo := range []*LSHOptions{nil, {Bands: 8, Rows: 5}} {
		want := greedyReference(sigs, minhash.SetOverlap, 0.6)
		if geo != nil {
			want = greedyLSHReference(sigs, minhash.SetOverlap, 0.6, *geo)
		}
		inc, err := NewIncremental(src, 0.6, geo)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sigs {
			got, err := inc.Add(i)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Fatalf("geo=%v read %d: label %d, want %d", geo, i, got, want[i])
			}
		}
		if inc.NumClusters() != want.NumClusters() || inc.NumReads() != len(sigs) {
			t.Fatalf("geo=%v: counts %d/%d vs %d/%d", geo,
				inc.NumClusters(), inc.NumReads(), want.NumClusters(), len(sigs))
		}
	}
	inc, _ := NewIncremental(src, 0.6, nil)
	if _, err := inc.Add(len(sigs)); err == nil {
		t.Fatal("out-of-range index: expected error")
	}
}

// TestSubsetSourceProjects checks SubsetSource's index remapping against
// direct slicing.
func TestSubsetSourceProjects(t *testing.T) {
	sigs := sourceTestSigs(60, 30, 4, 7, 5)
	src := NewSliceSource(sigs, minhash.SetOverlap)
	ids := []int{3, 17, 41, 8, 59, 20}
	sub := Subset(src, ids)
	if sub.Len() != len(ids) || sub.NumHashes() != src.NumHashes() {
		t.Fatalf("subset geometry %d/%d", sub.Len(), sub.NumHashes())
	}
	picked := make([]minhash.Signature, len(ids))
	for i, id := range ids {
		picked[i] = sigs[id]
	}
	direct := NewSliceSource(picked, minhash.SetOverlap)
	for i := range ids {
		if sub.Empty(i) != direct.Empty(i) {
			t.Fatalf("Empty(%d) mismatch", i)
		}
		if sub.BandHash(i, 1, 5) != direct.BandHash(i, 1, 5) {
			t.Fatalf("BandHash(%d) mismatch", i)
		}
		for j := i + 1; j < len(ids); j++ {
			if sub.Similarity(i, j) != direct.Similarity(i, j) {
				t.Fatalf("Similarity(%d,%d) mismatch", i, j)
			}
		}
	}
	// Clustering a subset equals clustering the copied-out slice.
	got, err := Greedy(sub, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	clusteringsEqual(t, "subset greedy", got, greedyReference(picked, minhash.SetOverlap, 0.6))
}
