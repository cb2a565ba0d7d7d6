package cluster

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// benchSigs sketches n overlapping k-mer sets at the paper's defaults
// (k=5, 100 hashes), mixing near-duplicate groups with background reads
// so similarity values span the full range.
func benchSigs(n int, seed int64) []minhash.Signature {
	rng := rand.New(rand.NewSource(seed))
	sk := minhash.MustSketcher(100, 5, 1)
	sigs := make([]minhash.Signature, n)
	base := make([]uint64, 200)
	for i := range base {
		base[i] = rng.Uint64() % kmer.FeatureSpace(5)
	}
	for i := range sigs {
		set := kmer.Set{}
		for _, x := range base[:50+rng.Intn(100)] { // shared core
			set.Add(x)
		}
		for j := 0; j < 100; j++ { // private tail
			set.Add(rng.Uint64() % kmer.FeatureSpace(5))
		}
		sigs[i] = sk.Sketch(set)
	}
	return sigs
}

// TestBuildMatrixParallelMatchesSequential pins the tiled parallel
// builder over a source to the sequential unprepared reference, cell for
// cell, for both estimators and several worker counts (including counts
// that do not divide the tile grid).
func TestBuildMatrixParallelMatchesSequential(t *testing.T) {
	sigs := benchSigs(150, 3)
	sigs[17] = minhash.Signature(nil)                             // nil signature
	sigs[63] = minhash.MustSketcher(100, 5, 1).Sketch(kmer.Set{}) // empty feature set
	for _, est := range []minhash.Estimator{minhash.SetOverlap, minhash.MatchedPositions} {
		want := SimilarityMatrix(sigs, est)
		src := NewSliceSource(sigs, est)
		for _, workers := range []int{0, 1, 2, 3, 7, 16} {
			got := BuildMatrixParallel(src.Len(), workers, src.Similarity)
			if got.N() != want.N() {
				t.Fatalf("est %v workers %d: size %d != %d", est, workers, got.N(), want.N())
			}
			for i := 0; i < want.N(); i++ {
				for j := 0; j < want.N(); j++ {
					if got.Get(i, j) != want.Get(i, j) {
						t.Fatalf("est %v workers %d: cell (%d,%d) = %v, want %v", est, workers, i, j, got.Get(i, j), want.Get(i, j))
					}
				}
			}
		}
	}
}

func TestBuildMatrixParallelFuncTiny(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		m := BuildMatrixParallel(n, 4, func(i, j int) float64 { return 0.5 })
		if m.N() != n {
			t.Fatalf("n=%d: got size %d", n, m.N())
		}
		if n == 2 && (m.Get(0, 1) != 0.5 || m.Get(1, 0) != 0.5) {
			t.Fatal("n=2: pair cell not filled symmetrically")
		}
	}
}

// TestBuildMatrixParallelConcurrentStress drives many concurrent builds
// with more workers than row blocks; run under -race (the CI race job
// covers this package) it proves the row-block writers never overlap.
func TestBuildMatrixParallelConcurrentStress(t *testing.T) {
	src := NewSliceSource(benchSigs(130, 5), minhash.SetOverlap) // 3 row blocks of 64, workers capped to blocks
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := BuildMatrixParallel(src.Len(), 8, src.Similarity)
			for i := 0; i < m.N(); i++ {
				for j := 0; j < i; j++ {
					if m.Get(i, j) != m.Get(j, i) {
						t.Errorf("asymmetric cell (%d,%d)", i, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestHierarchicalKernelPathEquivalence is the acceptance check at the
// paper's whole-metagenome defaults (k=5, n=100 hashes, θ=0.9): the
// sequential unprepared matrix and the parallel prepared-kernel matrix
// over a source must produce identical dendrograms and identical flat
// clusterings.
func TestHierarchicalKernelPathEquivalence(t *testing.T) {
	sigs := benchSigs(120, 9)
	for _, link := range []Linkage{Single, Average, Complete} {
		legacy, err := Hierarchical(SimilarityMatrix(sigs, minhash.SetOverlap), HierarchicalOptions{Linkage: link})
		if err != nil {
			t.Fatal(err)
		}
		src := NewSliceSource(sigs, minhash.SetOverlap)
		kernel, err := Hierarchical(BuildMatrixParallel(src.Len(), 0, src.Similarity), HierarchicalOptions{Linkage: link})
		if err != nil {
			t.Fatal(err)
		}
		if len(legacy.Merges) != len(kernel.Merges) {
			t.Fatalf("link %v: %d merges vs %d", link, len(legacy.Merges), len(kernel.Merges))
		}
		for i := range legacy.Merges {
			if legacy.Merges[i] != kernel.Merges[i] {
				t.Fatalf("link %v: merge %d differs: %+v vs %+v", link, i, legacy.Merges[i], kernel.Merges[i])
			}
		}
		la, lb := legacy.CutAt(0.9), kernel.CutAt(0.9)
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("link %v: label %d differs", link, i)
			}
		}
	}
}

// BenchmarkBuildMatrixSequential500 is the pre-kernel all-pairs build:
// per-pair set-overlap with re-sorting allocations, single-threaded.
func BenchmarkBuildMatrixSequential500(b *testing.B) {
	sigs := benchSigs(500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SimilarityMatrix(sigs, minhash.SetOverlap)
	}
}

// buildOverSource prepares sigs as a source and builds the matrix from
// its kernel — preparation included, as in every batch clustering call.
func buildOverSource(sigs []minhash.Signature, workers int) *Matrix {
	src := NewSliceSource(sigs, minhash.SetOverlap)
	return BuildMatrixParallel(src.Len(), workers, src.Similarity)
}

// BenchmarkBuildMatrixParallel500 is the kernel path: prepared
// signatures, tiled row blocks over all cores.
func BenchmarkBuildMatrixParallel500(b *testing.B) {
	sigs := benchSigs(500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = buildOverSource(sigs, 0)
	}
}

// BenchmarkBuildMatrixParallel500OneWorker isolates the kernel gain from
// the parallel gain: prepared signatures on a single worker.
func BenchmarkBuildMatrixParallel500OneWorker(b *testing.B) {
	sigs := benchSigs(500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = buildOverSource(sigs, 1)
	}
}
