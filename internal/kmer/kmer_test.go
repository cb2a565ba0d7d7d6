package kmer

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewExtractorBounds(t *testing.T) {
	if _, err := NewExtractor(0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewExtractor(32); err == nil {
		t.Error("k=32 should fail")
	}
	if _, err := NewExtractor(31); err != nil {
		t.Errorf("k=31 should succeed: %v", err)
	}
}

func TestSliceOrderAndValues(t *testing.T) {
	e := MustExtractor(3)
	got := e.Slice([]byte("ACGTA"))
	// ACG, CGT, GTA in the 2-bit code A=0 C=1 G=2 T=3.
	want := []uint64{0b00_01_10, 0b01_10_11, 0b10_11_00}
	if !slices.Equal(got, want) {
		t.Fatalf("got %b, want %b", got, want)
	}
}

func TestSliceIntoReusesBuffer(t *testing.T) {
	e := MustExtractor(3)
	buf := make([]uint64, 0, 16)
	a := e.SliceInto(buf, []byte("ACGTA"))
	if len(a) != 3 || &a[0] != &buf[:1][0] {
		t.Fatalf("SliceInto did not reuse the buffer (len %d)", len(a))
	}
	b := e.SliceInto(a[:0], []byte("TTTT"))
	want := e.Slice([]byte("TTTT"))
	if len(b) != len(want) {
		t.Fatalf("got %d kmers, want %d", len(b), len(want))
	}
	for i := range b {
		if b[i] != want[i] {
			t.Errorf("kmer %d = %d, want %d", i, b[i], want[i])
		}
	}
}

func TestAmbiguousBasesBreakWindows(t *testing.T) {
	e := MustExtractor(3)
	got := e.Slice([]byte("ACNGTA"))
	// windows: ACN, CNG, NGT all contain N -> only GTA remains
	if len(got) != 1 || got[0] != 0b10_11_00 { // GTA
		t.Fatalf("got %v", got)
	}
}

func TestShortSequenceYieldsEmpty(t *testing.T) {
	e := MustExtractor(5)
	if got := e.Slice([]byte("ACGT")); len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
	if got := e.Set([]byte("ACGT")); got.Len() != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestSetDeduplicates(t *testing.T) {
	e := MustExtractor(2)
	s := e.Set([]byte("AAAA")) // AA three times
	if s.Len() != 1 {
		t.Fatalf("set size %d, want 1", s.Len())
	}
}

func TestCanonicalMatchesReverseComplement(t *testing.T) {
	e := &Extractor{K: 5, Canonical: true}
	fwd := e.Set([]byte("ACGTACGGTTCA"))
	rc := e.Set([]byte("TGAACCGTACGT")) // reverse complement of the above
	if Jaccard(fwd, rc) != 1 {
		t.Fatalf("canonical sets differ: %v vs %v", fwd.Sorted(), rc.Sorted())
	}
}

func TestRollingMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(12)
		n := rng.Intn(100)
		seq := make([]byte, n)
		for i := range seq {
			seq[i] = "ACGTN"[rng.Intn(5)] // occasionally ambiguous
		}
		e := MustExtractor(k)
		got := e.Slice(seq)
		var want []uint64
		for i := 0; i+k <= n; i++ {
			var v uint64
			ok := true
			for _, b := range seq[i : i+k] {
				c := strings.IndexByte("ACGT", b)
				ok = ok && c >= 0
				v = v<<2 | uint64(c&3)
			}
			if ok {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d seq=%q: got %d kmers, want %d", k, seq, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d seq=%q: kmer %d mismatch", k, seq, i)
			}
		}
	}
}

func TestReverseComplementPacked(t *testing.T) {
	const acggt, accgt = 0b00_01_10_10_11, 0b00_01_01_10_11
	if rc := ReverseComplement(acggt, 5); rc != accgt {
		t.Fatalf("rc = %010b, want %010b (ACCGT)", rc, accgt)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(v uint64) bool {
		km := v & (1<<40 - 1) // k=20
		return ReverseComplement(ReverseComplement(km, 20), 20) == km
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureSpace(t *testing.T) {
	if FeatureSpace(1) != 4 || FeatureSpace(5) != 1024 || FeatureSpace(10) != 1<<20 {
		t.Fatal("FeatureSpace wrong")
	}
	if FeatureSpace(32) != ^uint64(0) {
		t.Fatal("FeatureSpace should saturate")
	}
}

func TestJaccardBasics(t *testing.T) {
	a := FromSlice([]uint64{1, 2, 3, 4})
	b := FromSlice([]uint64{3, 4, 5, 6})
	if got := Jaccard(a, b); got != 2.0/6.0 {
		t.Fatalf("Jaccard = %v, want 1/3", got)
	}
	if Jaccard(a, a) != 1 {
		t.Fatal("self Jaccard should be 1")
	}
	if Jaccard(Set{}, Set{}) != 0 {
		t.Fatal("empty Jaccard should be 0")
	}
	if Jaccard(a, Set{}) != 0 {
		t.Fatal("disjoint-with-empty Jaccard should be 0")
	}
}

func TestJaccardSymmetry(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		a, b := FromSlice(xs), FromSlice(ys)
		return Jaccard(a, b) == Jaccard(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJaccardRange(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		j := Jaccard(FromSlice(xs), FromSlice(ys))
		return j >= 0 && j <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortedIsSorted(t *testing.T) {
	s := FromSlice([]uint64{9, 1, 5, 3})
	got := s.Sorted()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestCounterBasics(t *testing.T) {
	c := NewCounter(2)
	c.Observe([]byte("AAAA"), MustExtractor(2)) // AA x3
	const aa = 0
	if c.Distinct() != 1 || c.Count(aa) != 3 {
		t.Fatalf("distinct=%d count=%d", c.Distinct(), c.Count(aa))
	}
}

func TestFrequencyVector(t *testing.T) {
	v := FrequencyVector([]byte("ACGT"), 1)
	for i := 0; i < 4; i++ {
		if v[i] != 0.25 {
			t.Fatalf("v=%v", v)
		}
	}
	sum := 0.0
	for _, x := range FrequencyVector([]byte("ACGTACGGTT"), 2) {
		sum += x
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("frequencies sum to %v", sum)
	}
}

func TestFrequencyVectorPanicsForLargeK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > 8")
		}
	}()
	c := NewCounter(9)
	c.FrequencyVector()
}

func TestRanks(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 5})
	want := []float64{2, 3.5, 3.5, 1}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestSpearmanDistance(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if d := SpearmanDistance(a, a); d > 1e-12 {
		t.Fatalf("self distance %v", d)
	}
	rev := []float64{4, 3, 2, 1}
	if d := SpearmanDistance(a, rev); d < 1.99 || d > 2.01 {
		t.Fatalf("reversed distance %v, want 2", d)
	}
	flat := []float64{1, 1, 1, 1}
	if d := SpearmanDistance(a, flat); d != 1 {
		t.Fatalf("constant distance %v, want 1", d)
	}
}

func TestWordDistance(t *testing.T) {
	e := MustExtractor(3)
	c1, c2 := NewCounter(3), NewCounter(3)
	s1 := []byte("ACGTACGT")
	c1.Observe(s1, e)
	c2.Observe(s1, e)
	if d := WordDistance(c1, c2, len(s1), len(s1)); d != 0 {
		t.Fatalf("identical word distance %v", d)
	}
	c3 := NewCounter(3)
	c3.Observe([]byte("TTTTTTTT"), e)
	if d := WordDistance(c1, c3, 8, 8); d != 1 {
		t.Fatalf("disjoint word distance %v", d)
	}
}

func BenchmarkExtractSet(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	seq := make([]byte, 1000)
	for i := range seq {
		seq[i] = "ACGT"[rng.Intn(4)]
	}
	e := MustExtractor(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Set(seq)
	}
}

func TestCounterEach(t *testing.T) {
	c := NewCounter(2)
	c.Observe([]byte("ACGTACGTA"), MustExtractor(2)) // AC CG GT TA, twice each
	calls, sum := 0, 0
	c.Each(func(km uint64, n int) {
		calls++
		sum += n
		if n != c.Count(km) || n != 2 {
			t.Errorf("k-mer %d: Each gave %d, Count %d, want 2", km, n, c.Count(km))
		}
	})
	if calls != c.Distinct() || calls != 4 || sum != 8 {
		t.Fatalf("Each made %d calls summing to %d; want 4 distinct k-mers, 8 occurrences", calls, sum)
	}
}

func TestMustExtractorPanicsOutsideRange(t *testing.T) {
	for _, k := range []int{0, MaxK + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustExtractor(%d) did not panic", k)
				}
			}()
			MustExtractor(k)
		}()
	}
	if e := MustExtractor(MaxK); e.K != MaxK {
		t.Fatalf("MustExtractor(MaxK).K = %d", e.K)
	}
}

func TestWordDistancePartialOverlapAndShortReads(t *testing.T) {
	e := MustExtractor(3)
	c1, c2 := NewCounter(3), NewCounter(3)
	c1.Observe([]byte("ACGTACGT"), e) // ACG×2 CGT×2 GTA TAC
	c2.Observe([]byte("ACGTTTTT"), e) // ACG CGT GTT TTT×3
	// Shared occurrences: min(2,1) ACG + min(2,1) CGT = 2 of 8-3+1 = 6 windows.
	want := 1 - 2.0/6
	if d := WordDistance(c1, c2, 8, 8); math.Abs(d-want) > 1e-12 {
		t.Fatalf("WordDistance = %v, want %v", d, want)
	}
	if d := WordDistance(c2, c1, 8, 8); math.Abs(d-want) > 1e-12 {
		t.Fatalf("WordDistance is not symmetric: %v", d)
	}
	// A read shorter than k has no windows to share.
	if d := WordDistance(c1, NewCounter(3), 8, 2); d != 1 {
		t.Fatalf("short-read distance %v, want 1", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WordDistance across different k did not panic")
		}
	}()
	WordDistance(c1, NewCounter(4), 8, 8)
}
