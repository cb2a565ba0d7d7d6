package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/pig"
)

// pairwiseBag returns a GROUP … ALL style bag of size (signature, seqid)
// tuples: n-value signatures over $DIV=1031 of random 5-mer sets. Read
// 4i+1 is a near copy of read 4i and read 4i+3 an exact copy of read
// 4i+2 under its own seqid, so rows hold a spread of similarities and the
// 2-arg form meets duplicate signatures.
func pairwiseBag(t testing.TB, size, n int, seed int64) pig.Bag {
	t.Helper()
	fam, err := minhash.NewHashFamily(n, 1031, seed)
	if err != nil {
		t.Fatal(err)
	}
	sk := &minhash.Sketcher{Family: fam}
	rng := rand.New(rand.NewSource(seed))
	bag := make(pig.Bag, size)
	var kms []uint64
	for i := range bag {
		switch i % 4 {
		case 0, 2:
			kms = kms[:0]
			for range 140 {
				kms = append(kms, uint64(rng.Intn(1024)))
			}
		case 1:
			kms[rng.Intn(len(kms))] = uint64(rng.Intn(1024))
		}
		bag[i] = pig.NewTuple(sk.SketchSlice(kms), fmt.Sprintf("s%d_r%d", seed, i))
	}
	return bag
}

// referenceRow is one similarity row by the unprepared estimator, which
// the UDF's prepared rows must match bit for bit.
func referenceRow(self minhash.Signature, bag pig.Bag) []float64 {
	row := make([]float64, len(bag))
	for j, tup := range bag {
		row[j] = minhash.SetOverlap.Similarity(self, tup.Fields[0].(minhash.Signature))
	}
	return row
}

// checkRow calls CalculatePairwiseSimilarity for bag row i, in the 3-arg
// form when withID is set and the paper's 2-arg form otherwise, and
// checks the row's bits against referenceRow and its row index against
// wantIdx.
func checkRow(bag pig.Bag, i int, withID bool, wantIdx int) error {
	sig, id := bag[i].Fields[0], bag[i].Fields[1]
	args := []pig.Value{sig, bag}
	if withID {
		args = []pig.Value{sig, id, bag}
	}
	v, err := calculatePairwiseSimilarity(nil, args)
	if err != nil {
		return err
	}
	tup := v.(pig.Tuple)
	got := tup.Fields[0].([]float64)
	want := referenceRow(sig.(minhash.Signature), bag)
	if len(got) != len(want) {
		return fmt.Errorf("row %d has %d values, want %d", i, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return fmt.Errorf("row %d col %d = %v, reference %v", i, j, got[j], want[j])
		}
	}
	if idx := tup.Fields[1].(int64); idx != int64(wantIdx) {
		return fmt.Errorf("row %d located at index %d, want %d", i, idx, wantIdx)
	}
	return nil
}

// firstEqual is the paper's 2-arg row rule: the first bag signature equal
// to row i's.
func firstEqual(bag pig.Bag, i int) int {
	sig := bag[i].Fields[0].(minhash.Signature)
	for j, tup := range bag {
		if sig.Equal(tup.Fields[0].(minhash.Signature)) {
			return j
		}
	}
	return -1
}

// TestPairwiseSimilarityRowAllocsIndependentOfBag pins the point of the
// prepared bag: a repeated row call allocates a small constant, not two
// sorted copies per pair.
func TestPairwiseSimilarityRowAllocsIndependentOfBag(t *testing.T) {
	allocs := func(size int) float64 {
		bag := pairwiseBag(t, size, 50, 1)
		args := []pig.Value{bag[0].Fields[0], bag[0].Fields[1], bag}
		return testing.AllocsPerRun(20, func() {
			if _, err := calculatePairwiseSimilarity(nil, args); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(50), allocs(500)
	if large != small || large > 8 {
		t.Fatalf("row call allocates %v on a 50-signature bag and %v on a 500-signature bag; want the same small constant", small, large)
	}
}

// TestPairwiseSimilarityBagsOfEqualLength alternates two bags of one
// length but different signatures, in both forms, so a slot keyed on the
// length alone would serve the wrong bag's rows.
func TestPairwiseSimilarityBagsOfEqualLength(t *testing.T) {
	a, b := pairwiseBag(t, 40, 50, 2), pairwiseBag(t, 40, 50, 3)
	for round := range 3 {
		for _, bag := range []pig.Bag{a, b} {
			for _, i := range []int{0, 1, 17, 39} {
				if err := checkRow(bag, i, true, i); err != nil {
					t.Fatalf("round %d, 3-arg: %v", round, err)
				}
				if err := checkRow(bag, i, false, firstEqual(bag, i)); err != nil {
					t.Fatalf("round %d, 2-arg: %v", round, err)
				}
			}
		}
	}
}

// TestPairwiseSimilarityMalformedBag checks that a bag tuple that is not
// a signature still fails the call with the per-tuple type error, every
// time, and that the next valid call succeeds.
func TestPairwiseSimilarityMalformedBag(t *testing.T) {
	good := pairwiseBag(t, 10, 50, 4)
	if err := checkRow(good, 2, true, 2); err != nil {
		t.Fatal(err)
	}
	bad := append(pig.Bag{}, good...)
	bad[5] = pig.NewTuple("notasig", "x")
	const want = "CalculatePairwiseSimilarity: bag tuple field is string"
	for range 2 {
		_, err := calculatePairwiseSimilarity(nil, []pig.Value{good[2].Fields[0], good[2].Fields[1], bad})
		if err == nil || err.Error() != want {
			t.Fatalf("malformed bag: err = %v, want %q", err, want)
		}
	}
	for _, bag := range []pig.Bag{good, pairwiseBag(t, 10, 50, 5)} {
		if err := checkRow(bag, 3, true, 3); err != nil {
			t.Fatalf("valid call after a malformed bag: %v", err)
		}
	}
}

// TestPairwiseSimilarityConcurrentRows has eight goroutines compute every
// row of one fresh bag at once, as parallel map tasks do; CI runs it under
// the race detector.
func TestPairwiseSimilarityConcurrentRows(t *testing.T) {
	bag := pairwiseBag(t, 64, 50, 6)
	const workers = 8
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(bag) && errs[w] == nil; i += workers {
				if errs[w] = checkRow(bag, i, true, i); errs[w] == nil {
					errs[w] = checkRow(bag, i, false, firstEqual(bag, i))
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}

// BenchmarkPairwiseSimilarityRow is one CalculatePairwiseSimilarity row
// call against a 500-signature, n=50 bag, the shape of one map call of
// Algorithm 3's all-pairs step.
func BenchmarkPairwiseSimilarityRow(b *testing.B) {
	bag := pairwiseBag(b, 500, 50, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup := bag[i%len(bag)]
		if _, err := calculatePairwiseSimilarity(nil, []pig.Value{tup.Fields[0], tup.Fields[1], bag}); err != nil {
			b.Fatal(err)
		}
	}
}
