package minhash

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/metagenomics/mrmcminh/internal/kmer"
)

func TestNewHashFamilyValidation(t *testing.T) {
	if _, err := NewHashFamily(0, 100, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewHashFamily(5, 0, 1); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := NewHashFamily(5, MersennePrime61, 1); err == nil {
		t.Error("m >= p should fail")
	}
	f, err := NewHashFamily(5, 1024, 1)
	if err != nil || f.N() != 5 {
		t.Fatalf("valid family failed: %v", err)
	}
	for i := range f.A {
		if f.A[i] == 0 || f.A[i] >= f.P || f.B[i] >= f.P {
			t.Fatalf("parameter out of range: a=%d b=%d", f.A[i], f.B[i])
		}
	}
}

func TestNewSketcherMaxK(t *testing.T) {
	if _, err := NewSketcher(8, MaxK, 1); err != nil {
		t.Fatalf("k=MaxK rejected: %v", err)
	}
	for _, k := range []int{0, MaxK + 1} {
		_, err := NewSketcher(8, k, 1)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("k=%d", k)) {
			t.Errorf("k=%d: error %v does not reject k by name", k, err)
		}
	}
}

func TestHashFamilyDeterminism(t *testing.T) {
	f1 := MustHashFamily(10, 1024, 42)
	f2 := MustHashFamily(10, 1024, 42)
	for i := 0; i < 10; i++ {
		if f1.A[i] != f2.A[i] || f1.B[i] != f2.B[i] {
			t.Fatal("same seed produced different families")
		}
	}
	f3 := MustHashFamily(10, 1024, 43)
	same := true
	for i := 0; i < 10; i++ {
		if f1.A[i] != f3.A[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical families")
	}
}

func TestHashRange(t *testing.T) {
	f := MustHashFamily(8, 1<<10, 3)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 1000; trial++ {
		x := rng.Uint64() % (1 << 10)
		for i := 0; i < f.N(); i++ {
			if h := f.Hash(i, x); h >= f.M {
				t.Fatalf("hash %d out of range %d", h, f.M)
			}
		}
	}
}

// TestMulAddMod61 cross-checks the Mersenne folding arithmetic against
// math/big on every input the kernel can get: a and b below p, as
// NewHashFamily draws them, and x anywhere in the uint64 range, since
// SketchSlice and the Pig UDF pass arbitrary values. Edge triples cover
// the extremes of each operand.
func TestMulAddMod61(t *testing.T) {
	ref := func(a, x, b uint64) uint64 {
		p := new(big.Int).SetUint64(MersennePrime61)
		v := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(x))
		v.Add(v, new(big.Int).SetUint64(b))
		return v.Mod(v, p).Uint64()
	}
	check := func(a, x, b uint64) {
		t.Helper()
		if got, want := mulAddMod61(a, x, b), ref(a, x, b); got != want {
			t.Fatalf("mulAddMod61(%d,%d,%d) = %d, want %d", a, x, b, got, want)
		}
	}
	const p = MersennePrime61
	for _, a := range []uint64{1, p - 1} {
		for _, b := range []uint64{0, p - 1} {
			for _, x := range []uint64{0, 1, p - 1, p, 1 << 61, 1<<64 - 1} {
				check(a, x, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5000; trial++ {
		check(rng.Uint64()%p, rng.Uint64(), rng.Uint64()%p)
	}
}

func TestSketchEmptySet(t *testing.T) {
	s := MustSketcher(10, 5, 1)
	sig := s.Sketch(kmer.Set{})
	if !sig.Empty() {
		t.Fatal("empty set should give empty signature")
	}
	if MatchedPositions.Similarity(sig, sig) != 0 {
		t.Fatal("empty signatures must have similarity 0")
	}
}

func TestSketchIdenticalSets(t *testing.T) {
	s := MustSketcher(50, 5, 1)
	set := kmer.FromSlice([]uint64{1, 5, 9, 100, 77})
	a := s.Sketch(set)
	b := s.Sketch(set)
	if !a.Equal(b) {
		t.Fatal("same set must sketch identically")
	}
	if MatchedPositions.Similarity(a, b) != 1 {
		t.Fatal("identical sketches must have similarity 1")
	}
	if SetOverlap.Similarity(a, b) != 1 {
		t.Fatal("identical sketches must have set-overlap similarity 1")
	}
}

func TestSketchSliceMatchesSet(t *testing.T) {
	s := MustSketcher(20, 5, 2)
	kms := []uint64{3, 3, 7, 7, 7, 11}
	a := s.SketchSlice(kms)
	b := s.Sketch(kmer.FromSlice(kms))
	if !a.Equal(b) {
		t.Fatal("SketchSlice and Sketch disagree")
	}
}

// TestEstimatorConvergence verifies the statistical heart of the paper:
// the matched-positions estimate converges to the true Jaccard similarity
// as the number of hash functions grows (Eq. 3).
func TestEstimatorConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k := 8
	for _, wantJ := range []float64{0.2, 0.5, 0.8} {
		// Build two sets with a controlled overlap.
		shared := int(wantJ * 600)
		only := 600 - shared
		a, b := kmer.Set{}, kmer.Set{}
		for i := 0; i < shared; i++ {
			v := rng.Uint64() % kmer.FeatureSpace(k)
			a.Add(v)
			b.Add(v)
		}
		for i := 0; i < only; i++ {
			a.Add(rng.Uint64() % kmer.FeatureSpace(k))
			b.Add(rng.Uint64() % kmer.FeatureSpace(k))
		}
		trueJ := kmer.Jaccard(a, b)
		s := MustSketcher(500, k, 13)
		got := MatchedPositions.Similarity(s.Sketch(a), s.Sketch(b))
		if math.Abs(got-trueJ) > 0.08 {
			t.Errorf("estimate %.3f too far from true %.3f", got, trueJ)
		}
	}
}

func TestEstimatorSymmetryAndRange(t *testing.T) {
	s := MustSketcher(30, 6, 5)
	f := func(xs, ys []uint64) bool {
		mask := kmer.FeatureSpace(6) - 1
		a, b := kmer.Set{}, kmer.Set{}
		for _, x := range xs {
			a.Add(x & mask)
		}
		for _, y := range ys {
			b.Add(y & mask)
		}
		sa, sb := s.Sketch(a), s.Sketch(b)
		for _, est := range []Estimator{MatchedPositions, SetOverlap} {
			v1, v2 := est.Similarity(sa, sb), est.Similarity(sb, sa)
			if v1 != v2 || v1 < 0 || v1 > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorString(t *testing.T) {
	if MatchedPositions.String() != "matched-positions" || SetOverlap.String() != "set-overlap" {
		t.Fatal("estimator names wrong")
	}
	if Estimator(99).String() != "unknown" {
		t.Fatal("unknown estimator name wrong")
	}
}

func TestSignatureClone(t *testing.T) {
	s := Signature{1, 2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestSignatureEqualLengthMismatch(t *testing.T) {
	if (Signature{1, 2}).Equal(Signature{1}) {
		t.Fatal("different lengths must not be equal")
	}
}

func TestCollisionProbability(t *testing.T) {
	// s=1 always collides, s=0 never.
	if p := CollisionProbability(1, 10, 4); p != 1 {
		t.Fatalf("p(1) = %v", p)
	}
	if p := CollisionProbability(0, 10, 4); p != 0 {
		t.Fatalf("p(0) = %v", p)
	}
	// Monotonic in s.
	prev := -1.0
	for s := 0.0; s <= 1.0; s += 0.1 {
		p := CollisionProbability(s, 10, 4)
		if p < prev {
			t.Fatal("collision probability not monotonic")
		}
		prev = p
	}
}

func BenchmarkSketch100Hashes(b *testing.B) {
	s := MustSketcher(100, 5, 1)
	rng := rand.New(rand.NewSource(2))
	set := kmer.Set{}
	for i := 0; i < 1000; i++ {
		set.Add(rng.Uint64() % kmer.FeatureSpace(5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Sketch(set)
	}
}

func BenchmarkSimilarityMatched(b *testing.B) {
	s := MustSketcher(100, 5, 1)
	set := kmer.FromSlice([]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	sig := s.Sketch(set)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatchedPositions.Similarity(sig, sig)
	}
}
