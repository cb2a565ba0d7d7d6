package cluster

import (
	"math/rand"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// collidingSigs draws n signatures whose slots come from 32 base values
// times 4 offsets, so band buckets hold many entries.
func collidingSigs(n, sigLen int, seed int64) []minhash.Signature {
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]minhash.Signature, n)
	for i := range sigs {
		s := make(minhash.Signature, sigLen)
		base := rng.Uint64() % 32 // force bucket collisions
		for j := range s {
			s[j] = base*1000 + uint64(rng.Intn(4))
		}
		sigs[i] = s
	}
	return sigs
}

// candidatesReference enumerates ix's candidates for source element i
// with a fresh map per query — the reference the generation-stamped
// dedup of Candidates is pinned to.
func candidatesReference(ix *LSHIndex, i int) []int {
	seen := make(map[int]struct{})
	var out []int
	for b := range ix.buckets {
		for _, id := range ix.buckets[b][ix.src.BandHash(i, b, ix.geo.Rows)] {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	return out
}

func TestCandidatesIntoMatchesCandidates(t *testing.T) {
	sigs := collidingSigs(200, 64, 11)
	ix, err := NewLSHIndex(NewSliceSource(sigs, minhash.SetOverlap), LSHOptions{Bands: 16, Rows: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sigs {
		ix.Add(i)
	}
	var buf []int
	for i := range sigs {
		want := candidatesReference(ix, i)
		buf = ix.Candidates(i, buf[:0])
		if len(buf) != len(want) {
			t.Fatalf("sig %d: Candidates found %d candidates, reference %d", i, len(buf), len(want))
		}
		for j := range buf {
			if buf[j] != want[j] {
				t.Fatalf("sig %d: candidate order diverges at %d: %d vs %d", i, j, buf[j], want[j])
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = ix.Candidates(7, buf[:0]) }); allocs != 0 {
		t.Fatalf("Candidates with a grown buffer allocates %v times per query", allocs)
	}
}

func TestCandidatesIntoGenerationWrap(t *testing.T) {
	sig := minhash.Signature{1, 2, 3, 4, 5, 6, 7, 8}
	ix, err := NewLSHIndex(NewSliceSource([]minhash.Signature{sig, sig.Clone()}, minhash.SetOverlap), LSHOptions{Bands: 4, Rows: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix.Add(0)
	ix.gen = ^uint32(0) - 1 // force the counter through zero
	if got := ix.Candidates(0, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("query before wrap: got %v, want [0]", got)
	}
	// Entry 1 keeps mark 0 until a query sees it, so the first query at
	// the wrapped generation must not mistake it for already seen.
	ix.Add(1)
	for i := 0; i < 3; i++ {
		got := ix.Candidates(0, nil)
		if len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("query %d after wrap: got %v, want [0 1]", i, got)
		}
	}
}

func TestBandIndexValidation(t *testing.T) {
	src := NewSliceSource([]minhash.Signature{make(minhash.Signature, 10)}, minhash.SetOverlap)
	if _, err := NewLSHIndex(src, LSHOptions{Bands: 0, Rows: 5}); err == nil {
		t.Error("bands=0 should fail")
	}
	if _, err := NewLSHIndex(src, LSHOptions{Bands: 5, Rows: 0}); err == nil {
		t.Error("rows=0 should fail")
	}
	if _, err := NewLSHIndex(src, LSHOptions{Bands: 5, Rows: 4}); err == nil {
		t.Error("short signature should fail")
	}
	if _, err := NewLSHIndex(NewSliceSource(nil, minhash.SetOverlap), LSHOptions{Bands: 5, Rows: 4}); err != nil {
		t.Errorf("empty source: %v", err)
	}
}

func TestBandIndexFindsSimilar(t *testing.T) {
	s := minhash.MustSketcher(40, 8, 21)
	rng := rand.New(rand.NewSource(22))
	base := kmer.Set{}
	for i := 0; i < 300; i++ {
		base.Add(rng.Uint64() % kmer.FeatureSpace(8))
	}
	// near: shares ~90% of elements with base
	near := kmer.Set{}
	i := 0
	for v := range base {
		if i%10 != 0 {
			near.Add(v)
		}
		i++
	}
	for len(near) < len(base) {
		near.Add(rng.Uint64() % kmer.FeatureSpace(8))
	}
	// far: disjoint random set
	far := kmer.Set{}
	for len(far) < 300 {
		far.Add(rng.Uint64() % kmer.FeatureSpace(8))
	}

	src := NewSliceSource([]minhash.Signature{s.Sketch(base), s.Sketch(near), s.Sketch(far)}, minhash.SetOverlap)
	ix, err := NewLSHIndex(src, LSHOptions{Bands: 10, Rows: 4})
	if err != nil {
		t.Fatal(err)
	}
	baseID := ix.Add(0)
	found := false
	for _, id := range ix.Candidates(1, nil) {
		if id == baseID {
			found = true
		}
	}
	if !found {
		t.Fatal("band index missed a highly similar signature")
	}
	if len(ix.Candidates(2, nil)) != 0 {
		t.Fatal("band index matched a disjoint signature")
	}
	if ix.Member(baseID) != 0 {
		t.Fatalf("Member(%d) = %d, want source index 0", baseID, ix.Member(baseID))
	}
}

func BenchmarkLSHIndexCandidates(b *testing.B) {
	sigs := collidingSigs(1000, 64, 5)
	ix, err := NewLSHIndex(NewSliceSource(sigs, minhash.SetOverlap), LSHOptions{Bands: 16, Rows: 4})
	if err != nil {
		b.Fatal(err)
	}
	for i := range sigs {
		ix.Add(i)
	}
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ix.Candidates(i%len(sigs), buf[:0])
	}
}
