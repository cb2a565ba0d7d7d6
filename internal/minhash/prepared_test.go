package minhash

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/kmer"
)

// bitmapSignature draws a length-n signature over [0, m) whose values
// stay below a random power-of-two fraction of m, so that signatures of
// one range both do and do not build a bitmap. It repeats slots and
// plants the word-edge values 0, 63, 64 and 127.
func bitmapSignature(rng *rand.Rand, n int, m uint64) Signature {
	bound := m >> rng.Intn(bits.Len64(m))
	sig := make(Signature, n)
	for i := range sig {
		sig[i] = rng.Uint64() % bound
	}
	edges := []uint64{0, 63, 64, 127}
	for i := range sig {
		switch rng.Intn(8) {
		case 0:
			if e := edges[rng.Intn(len(edges))]; e < m {
				sig[i] = e
			}
		case 1:
			sig[i] = sig[rng.Intn(n)]
		}
	}
	return sig
}

// TestSimilarityPreparedEquivalence is the property test behind the
// prepared kernels: both estimators must return bit-identical floats on
// the prepared and unprepared paths, in either order. It draws values
// over the ranges of a power-of-two k-mer space (64, 1,024, 4,096 and
// 65,536 are 4^k for k = 3, 5, 6 and 8) and the Pig script's prime $DIV
// 1,031, at the signature lengths the pipelines use. Set-overlap pairs
// fall into every case the kernel distinguishes: both sides with a
// bitmap (of equal and of unequal length), one side only, neither, and
// empty signatures (all EmptyMin, nil, or EmptyMin in slot 0 only).
func TestSimilarityPreparedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var both, unequal, one, neither, empty int
	for _, m := range []uint64{64, 1024, 1031, 4096, 65536} {
		for _, n := range []int{1, 2, 16, 24, 50, 100} {
			for trial := 0; trial < 300; trial++ {
				a, b := bitmapSignature(rng, n, m), bitmapSignature(rng, n, m)
				switch trial % 10 {
				case 1:
					for i := range a {
						a[i] = EmptyMin
					}
				case 2:
					b = nil
				case 3:
					copy(b, a)
				case 4:
					b[0] = EmptyMin
				}
				pa, pb := Prepare(a), Prepare(b)
				for _, est := range []Estimator{MatchedPositions, SetOverlap} {
					want := est.Similarity(a, b)
					got := est.SimilarityPrepared(pa, pb)
					if got != want {
						t.Fatalf("m=%d n=%d %v: prepared %v != unprepared %v (a=%v b=%v)", m, n, est, got, want, a, b)
					}
					if sym := est.SimilarityPrepared(pb, pa); sym != got {
						t.Fatalf("m=%d n=%d %v: not symmetric (%v vs %v)", m, n, est, got, sym)
					}
				}
				switch {
				case pa.Empty() || pb.Empty():
					empty++
				case pa.bitmap != nil && pb.bitmap != nil:
					both++
					if len(pa.bitmap) != len(pb.bitmap) && SetOverlap.SimilarityPrepared(pa, pb) > 0 {
						unequal++
					}
				case pa.bitmap != nil || pb.bitmap != nil:
					one++
				default:
					neither++
				}
			}
		}
	}
	t.Logf("set-overlap pairs: %d both bitmaps (%d overlapping of unequal length), %d one, %d neither, %d empty", both, unequal, one, neither, empty)
	if both == 0 || unequal == 0 || one == 0 || neither == 0 || empty == 0 {
		t.Fatal("a kernel case was never exercised")
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

// TestPrepareBitmapRule: Prepare builds a bitmap exactly when the largest
// value is below 64·len(Vals), one bit per distinct value and no more
// words than the largest value needs, never for an empty signature, and
// caps Vals so that an append cannot reach the bitmap.
func TestPrepareBitmapRule(t *testing.T) {
	check := func(sig Signature) {
		t.Helper()
		p := Prepare(sig)
		if cap(p.Vals) != len(p.Vals) {
			t.Fatalf("%v: Vals has len %d cap %d", sig, len(p.Vals), cap(p.Vals))
		}
		d := len(p.Vals)
		if d == 0 || p.Vals[d-1] >= 64*uint64(d) {
			if p.bitmap != nil {
				t.Fatalf("%v: bitmap of %d words, want none", sig, len(p.bitmap))
			}
			return
		}
		if words := int(p.Vals[d-1]/64) + 1; len(p.bitmap) != words {
			t.Fatalf("%v: bitmap of %d words, want %d", sig, len(p.bitmap), words)
		}
		set := 0
		for _, w := range p.bitmap {
			set += bits.OnesCount64(w)
		}
		for _, v := range p.Vals {
			if p.bitmap[v/64]&(1<<(v%64)) == 0 {
				t.Fatalf("%v: value %d not in the bitmap", sig, v)
			}
		}
		if set != d {
			t.Fatalf("%v: bitmap has %d bits for %d values", sig, set, d)
		}
		before := slices.Clone(p.bitmap)
		_ = append(p.Vals, 1<<40)
		if !slices.Equal(before, p.bitmap) {
			t.Fatalf("%v: an append to Vals changed the bitmap", sig)
		}
	}
	for _, c := range []struct {
		sig   Signature
		words int
	}{
		{nil, 0},
		{Signature{EmptyMin, EmptyMin, EmptyMin}, 0},
		{Signature{EmptyMin, 3, 4}, 0},
		{Signature{3, 4, EmptyMin}, 0},
		{Signature{0}, 1},
		{Signature{63}, 1},
		{Signature{64}, 0},
		{Signature{64, 64, 64}, 0},
		{Signature{0, 127}, 2},
		{Signature{127, 0, 127}, 2},
		{Signature{0, 128}, 0},
		{Signature{1, 2, 191}, 3},
		{Signature{1, 2, 192}, 0},
	} {
		if p := Prepare(c.sig); len(p.bitmap) != c.words {
			t.Fatalf("%v: bitmap of %d words, want %d", c.sig, len(p.bitmap), c.words)
		}
		check(c.sig)
	}
	rng := rand.New(rand.NewSource(31))
	for _, m := range []uint64{64, 1031, 65536} {
		for _, n := range []int{1, 2, 24, 100, 300} {
			for trial := 0; trial < 50; trial++ {
				check(bitmapSignature(rng, n, m))
			}
		}
	}
}

// TestPrepareAllMatchesPrepare: every element PrepareAll returns equals
// Prepare of its signature, with the same Vals, the same bitmap or none
// and the same signature, on batches below and above the split into
// goroutines. Rows with and without a bitmap, empty signatures and
// repeated values are mixed, and appending to any row's Vals, or to its
// bitmap, leaves every row unchanged: each cut of a slab is capped.
func TestPrepareAllMatchesPrepare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(41))
	for _, rows := range []int{0, 1, 7, prepareSplit - 1, 2 * prepareSplit, 3*prepareSplit + 5} {
		sigs := make([]Signature, rows)
		for i := range sigs {
			switch n := 1 + rng.Intn(30); i % 7 {
			case 3:
				sigs[i] = nil
			case 5:
				sigs[i] = Signature{EmptyMin, EmptyMin}
			case 6:
				sigs[i] = bitmapSignature(rng, n, 1<<40) // no bitmap
			default:
				sigs[i] = bitmapSignature(rng, n, 1031)
			}
		}
		got := PrepareAll(sigs)
		check := func(when string) {
			t.Helper()
			if len(got) != rows {
				t.Fatalf("%d rows: PrepareAll returned %d", rows, len(got))
			}
			for i, p := range got {
				want := Prepare(sigs[i])
				if !slices.Equal(p.Sig, want.Sig) || !slices.Equal(p.Vals, want.Vals) || cap(p.Vals) != len(p.Vals) ||
					!slices.Equal(p.bitmap, want.bitmap) || (p.bitmap == nil) != (want.bitmap == nil) || cap(p.bitmap) != len(p.bitmap) {
					t.Fatalf("%d rows, %s: row %d = %+v, Prepare gives %+v", rows, when, i, p, want)
				}
			}
		}
		check("as built")
		withBitmap := 0
		for _, p := range got {
			_ = append(p.Vals, 1<<40)
			_ = append(p.bitmap, 1<<40)
			if p.bitmap != nil {
				withBitmap++
			}
		}
		check("after appends")
		if rows >= 7 && (withBitmap == 0 || withBitmap == rows) {
			t.Fatalf("%d rows: %d with a bitmap, want some with and some without", rows, withBitmap)
		}
	}
}

// TestSortedDistinctMatchesSort holds sortedDistinct, which sorts rows of
// up to networkMax values by a sorting network, to slices.Sort and
// Compact at every length from 0 to networkMax+2: random rows over a
// range small enough to repeat values, over the whole uint64 range, and
// with EmptyMin and 0 planted.
func TestSortedDistinctMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch [prepareScratch]uint64
	for n := 0; n <= networkMax+2; n++ {
		for trial := 0; trial < 40; trial++ {
			sig := make(Signature, n)
			for i := range sig {
				switch {
				case trial%4 == 0:
					sig[i] = rng.Uint64()
				case rng.Intn(6) == 0:
					sig[i] = []uint64{EmptyMin, 0}[rng.Intn(2)]
				default:
					sig[i] = rng.Uint64() % uint64(1+trial*n/8)
				}
			}
			want := slices.Clone(sig)
			slices.Sort(want)
			want = slices.Compact(want)
			if got := sortedDistinct(scratch[:0], sig); !slices.Equal(got, want) {
				t.Fatalf("n=%d: sortedDistinct(%v) = %v, want %v", n, sig, got, want)
			}
		}
	}
}

var preparedSink Prepared

// TestPreparedAllocations: Prepare allocates once, with or without a
// bitmap, PrepareAll cuts a batch from a few slabs instead of allocating
// per row, and SimilarityPrepared allocates nothing on any of its paths.
func TestPreparedAllocations(t *testing.T) {
	small := Signature{3, 9, 3, 70}
	large := Signature{3, 9, 1 << 20, 70}
	for _, sig := range []Signature{small, large} {
		if a := testing.AllocsPerRun(100, func() { preparedSink = Prepare(sig) }); a != 1 {
			t.Fatalf("Prepare(%v) allocates %v times, want 1", sig, a)
		}
	}
	batch := make([]Signature, 3*prepareSplit)
	for i := range batch {
		batch[i] = []Signature{small, large}[i%2]
	}
	if a := testing.AllocsPerRun(5, func() { _ = PrepareAll(batch) }); a > 64 {
		t.Fatalf("PrepareAll of %d rows allocates %v times", len(batch), a)
	}
	ps, pl := Prepare(small), Prepare(large)
	if ps.bitmap == nil || pl.bitmap != nil {
		t.Fatal("test signatures do not cover both paths")
	}
	for _, pair := range [][2]Prepared{{ps, ps}, {ps, pl}, {pl, pl}} {
		for _, est := range []Estimator{MatchedPositions, SetOverlap} {
			if a := testing.AllocsPerRun(100, func() { _ = est.SimilarityPrepared(pair[0], pair[1]) }); a != 0 {
				t.Fatalf("%v SimilarityPrepared allocates %v times", est, a)
			}
		}
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
// once, each pair allocation-free. At k=5 both signatures build a
// bitmap, so it times the popcount.
func BenchmarkSimilarityPrepared(b *testing.B) {
	sa, sb := benchSigPair()
	pa, pb := Prepare(sa), Prepare(sb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SetOverlap.SimilarityPrepared(pa, pb)
	}
}

// BenchmarkSimilarityPreparedMerge times the sorted-list merge that
// signatures too spread for a bitmap keep, at the daemon's geometry
// (k=12, 64 hashes, canonical k-mers) on two 200-bp reads that share
// half their bases.
func BenchmarkSimilarityPreparedMerge(b *testing.B) {
	s := MustSketcher(64, 12, 3)
	ex := &kmer.Extractor{K: 12, Canonical: true}
	seq := benchRead(300)
	pa := Prepare(s.SketchSlice(ex.Slice(seq[:200])))
	pb := Prepare(s.SketchSlice(ex.Slice(seq[100:])))
	if pa.bitmap != nil || pb.bitmap != nil {
		b.Fatal("a signature built a bitmap; this benchmark times the merge")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SetOverlap.SimilarityPrepared(pa, pb)
	}
}

// BenchmarkSketchInto100Hashes is the slice-kernel counterpart of
// BenchmarkSketch100Hashes: the same distinct feature set, fed as a
// slice with the destination reused. The sketcher is warmed first, so
// it times the hash-value table and allocates nothing.
func BenchmarkSketchInto100Hashes(b *testing.B) {
	s := MustSketcher(100, 5, 1)
	warm(s)
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
// The sketcher is warmed first, so it times the hash-value table.
func BenchmarkSketchReadKernel(b *testing.B) {
	s := MustSketcher(100, 5, 1)
	warm(s)
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
