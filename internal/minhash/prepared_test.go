package minhash

import (
	"math/rand"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/kmer"
)

// randomSignature draws a length-n signature whose values cluster in a
// small range so duplicates (within and across signatures) are common —
// the regime where set-overlap and matched-positions disagree and edge
// cases live.
func randomSignature(rng *rand.Rand, n int) Signature {
	sig := make(Signature, n)
	for i := range sig {
		sig[i] = uint64(rng.Intn(50))
	}
	return sig
}

// TestSimilarityPreparedEquivalence is the property test behind the
// kernel swap: for random signatures (shared values, empty slices,
// EmptyMin slots) both estimators must return bit-identical floats on
// the prepared and legacy paths.
func TestSimilarityPreparedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ests := []Estimator{MatchedPositions, SetOverlap}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(20)
		a := randomSignature(rng, n)
		b := randomSignature(rng, n)
		// Sometimes force empty feature sets or other edge shapes.
		switch trial % 5 {
		case 1:
			for i := range a {
				a[i] = EmptyMin
			}
		case 2:
			copy(b, a) // identical signatures
		case 3:
			if n > 0 {
				b[0] = EmptyMin // Empty() true even with trailing values
			}
		}
		pa, pb := Prepare(a), Prepare(b)
		for _, est := range ests {
			want := est.Similarity(a, b)
			got := est.SimilarityPrepared(pa, pb)
			if got != want {
				t.Fatalf("trial %d est %v: prepared %v != legacy %v (a=%v b=%v)", trial, est, got, want, a, b)
			}
			if sym := est.SimilarityPrepared(pb, pa); sym != got {
				t.Fatalf("trial %d est %v: not symmetric (%v vs %v)", trial, est, got, sym)
			}
		}
	}
}

func TestSimilarityPreparedEmpty(t *testing.T) {
	sk := MustSketcher(10, 5, 1)
	full := Prepare(sk.Sketch(kmer.FromSlice([]uint64{1, 2, 3})))
	empty := Prepare(sk.Sketch(kmer.Set{}))
	nilSig := Prepare(nil)
	for _, est := range []Estimator{MatchedPositions, SetOverlap} {
		if got := est.SimilarityPrepared(empty, empty); got != 0 {
			t.Fatalf("empty-empty similarity %v", got)
		}
		if got := est.SimilarityPrepared(empty, full); got != 0 {
			t.Fatalf("empty-full similarity %v", got)
		}
		if got := est.SimilarityPrepared(nilSig, full); got != 0 {
			t.Fatalf("nil-full similarity %v", got)
		}
	}
	if !empty.Empty() || !nilSig.Empty() || full.Empty() {
		t.Fatal("Prepared.Empty disagrees with Signature.Empty")
	}
}

// TestSketchIntoMatchesSketch pins the slice kernel to the legacy map
// path: same features (with duplicates), same signature, for a
// power-of-two range (the kernel's mask) and a prime one (its division),
// hash counts that are and are not multiples of four, and dst reuse.
func TestSketchIntoMatchesSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []uint64{kmer.FeatureSpace(5), 1031} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 100} {
			sk := &Sketcher{Family: MustHashFamily(n, m, 3)}
			var dst Signature
			for trial := 0; trial < 20; trial++ {
				kms := make([]uint64, rng.Intn(200))
				for i := range kms {
					kms[i] = rng.Uint64() % kmer.FeatureSpace(5)
				}
				if len(kms) > 1 {
					kms[0] = kms[1] // guarantee a duplicate occurrence
				}
				want := sk.Sketch(kmer.FromSlice(kms))
				got := sk.SketchSlice(kms)
				if !got.Equal(want) {
					t.Fatalf("m=%d n=%d: SketchSlice != Sketch", m, n)
				}
				dst = sk.SketchInto(dst, kms) // reuses backing array after trial 0
				if !dst.Equal(want) {
					t.Fatalf("m=%d n=%d: SketchInto != Sketch", m, n)
				}
			}
			empty := sk.SketchInto(nil, nil)
			if !empty.Empty() || len(empty) != n {
				t.Fatalf("m=%d n=%d: SketchInto(nil, nil) not an empty signature", m, n)
			}
		}
	}
}

// benchSigPair sketches two overlapping k-mer sets at the paper's
// whole-metagenome defaults (k=5, n=100 hashes) for pair benchmarks.
func benchSigPair() (Signature, Signature) {
	sk := MustSketcher(100, 5, 1)
	rng := rand.New(rand.NewSource(9))
	a, b := kmer.Set{}, kmer.Set{}
	for i := 0; i < 300; i++ {
		x := rng.Uint64() % kmer.FeatureSpace(5)
		a.Add(x)
		if i%2 == 0 {
			b.Add(x) // ~50% overlap
		}
	}
	for i := 0; i < 150; i++ {
		b.Add(rng.Uint64() % kmer.FeatureSpace(5))
	}
	return sk.Sketch(a), sk.Sketch(b)
}

// BenchmarkSimilaritySetOverlapLegacy is the pre-kernel per-pair cost:
// both signatures are re-sorted and re-allocated on every call.
func BenchmarkSimilaritySetOverlapLegacy(b *testing.B) {
	sa, sb := benchSigPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SetOverlap.Similarity(sa, sb)
	}
}

// BenchmarkSimilarityPrepared is the kernel path: signatures prepared
// once, each pair a single allocation-free merge.
func BenchmarkSimilarityPrepared(b *testing.B) {
	sa, sb := benchSigPair()
	pa, pb := Prepare(sa), Prepare(sb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SetOverlap.SimilarityPrepared(pa, pb)
	}
}

// BenchmarkSketchInto100Hashes is the slice-kernel counterpart of
// BenchmarkSketch100Hashes: the same distinct feature set (so both
// kernels do identical hash-evaluation work), fed as a slice with the
// destination reused.
func BenchmarkSketchInto100Hashes(b *testing.B) {
	s := MustSketcher(100, 5, 1)
	rng := rand.New(rand.NewSource(2))
	set := kmer.Set{}
	for i := 0; i < 1000; i++ {
		set.Add(rng.Uint64() % kmer.FeatureSpace(5))
	}
	kms := set.Sorted()
	dst := make(Signature, s.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.SketchInto(dst, kms)
	}
}

// benchRead is an unambiguous read of n bases for the per-read sketch
// benchmarks.
func benchRead(n int) []byte {
	rng := rand.New(rand.NewSource(4))
	seq := make([]byte, n)
	for i := range seq {
		seq[i] = "ACGT"[rng.Intn(4)]
	}
	return seq
}

// BenchmarkSketchReadLegacy measures the pipeline's pre-kernel per-read
// cost: materialize the k-mer set map, then walk it lane by lane.
func BenchmarkSketchReadLegacy(b *testing.B) {
	s := MustSketcher(100, 5, 1)
	ex := kmer.MustExtractor(5)
	seq := benchRead(250)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Sketch(ex.Set(seq))
	}
}

// BenchmarkSketchReadKernel measures the kernel per-read cost: stream
// occurrences into a reused slice and sketch with the slice kernel
// (the signature itself is still allocated — it is retained downstream).
func BenchmarkSketchReadKernel(b *testing.B) {
	s := MustSketcher(100, 5, 1)
	ex := kmer.MustExtractor(5)
	seq := benchRead(250)
	var buf []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ex.SliceInto(buf[:0], seq)
		_ = s.SketchInto(nil, buf)
	}
}

// BenchmarkSketchReadK12N64 is BenchmarkSketchReadKernel at the daemon's
// default geometry (k=12, 64 hashes, canonical k-mers) on a 200bp read,
// the per-read cost of the serving write path: the feature range 4^12
// takes the kernel's power-of-two range reduction.
func BenchmarkSketchReadK12N64(b *testing.B) {
	s := MustSketcher(64, 12, 3)
	ex := &kmer.Extractor{K: 12, Canonical: true}
	seq := benchRead(200)
	var buf []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ex.SliceInto(buf[:0], seq)
		_ = s.SketchInto(nil, buf)
	}
}
