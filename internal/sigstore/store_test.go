package sigstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// randSigs builds n deterministic signatures of length numHashes, with
// every emptyEvery-th one empty (0 disables).
func randSigs(t testing.TB, n, numHashes, emptyEvery int, seed int64) []minhash.Signature {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]minhash.Signature, n)
	for i := range sigs {
		sig := make(minhash.Signature, numHashes)
		if emptyEvery > 0 && i%emptyEvery == emptyEvery-1 {
			for j := range sig {
				sig[j] = minhash.EmptyMin
			}
		} else {
			for j := range sig {
				sig[j] = rng.Uint64() % (1 << 61)
			}
		}
		sigs[i] = sig
	}
	return sigs
}

func keysFor(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("read_%06d", i)
	}
	return keys
}

// keyedStore stores n deterministic signatures the way the daemon does:
// each under the dense ID its read key translates to.
func keyedStore(t testing.TB, cfg Config, n, emptyEvery int, seed int64) *Store {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sigs := randSigs(t, n, cfg.NumHashes, emptyEvery, seed)
	for i, k := range keysFor(n) {
		if err := s.Put(s.Translator().Translate(k), sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{NumHashes: 0},
		{NumHashes: 10, Bits: -1},
		{NumHashes: 10, Bits: 17},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%+v): expected error", bad)
		}
	}
	if _, err := New(Config{NumHashes: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTripFull(t *testing.T) {
	sigs := randSigs(t, 200, 24, 7, 1)
	s, err := New(Config{NumHashes: 24})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(0, sigs); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(sigs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(sigs))
	}
	v := s.View(minhash.SetOverlap)
	for i, sig := range sigs {
		if !v.Sig(i).Equal(sig) {
			t.Fatalf("signature %d mismatch", i)
		}
		if v.PackedSig(i).Words != nil {
			t.Fatalf("PackedSig(%d) on a full view returned words", i)
		}
	}
}

func TestPutGetRoundTripPacked(t *testing.T) {
	sigs := randSigs(t, 200, 24, 7, 2)
	s, err := New(Config{NumHashes: 24, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(0, sigs); err != nil {
		t.Fatal(err)
	}
	v := s.View(minhash.SetOverlap)
	for i, sig := range sigs {
		got := v.PackedSig(i)
		want, err := minhash.Compact(sig, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got.Empty() != sig.Empty() {
			t.Fatalf("signature %d: empty flag mismatch", i)
		}
		for w, word := range want.Words {
			if got.Words[w] != word {
				t.Fatalf("signature %d word %d: %x != %x", i, w, got.Words[w], word)
			}
		}
		if v.Sig(i) != nil {
			t.Fatalf("Sig(%d) on a packed view returned a signature", i)
		}
	}
}

func TestPutOverwritesInPlace(t *testing.T) {
	for _, bits := range []int{0, 3, 4} {
		s, err := New(Config{NumHashes: 16, Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		first := randSigs(t, 50, 16, 0, 3)
		second := randSigs(t, 50, 16, 5, 4)
		if err := s.PutBatch(0, first); err != nil {
			t.Fatal(err)
		}
		bytesBefore := s.ResidentBytes()
		if err := s.PutBatch(0, second); err != nil {
			t.Fatal(err)
		}
		if s.Len() != 50 {
			t.Fatalf("bits=%d: Len after overwrite = %d, want 50", bits, s.Len())
		}
		if got := s.ResidentBytes(); got != bytesBefore {
			t.Fatalf("bits=%d: overwrite grew arena %d -> %d", bits, bytesBefore, got)
		}
		// The overwritten rows must carry the new values, not an OR of both.
		for i, sig := range second {
			w := s.row(i)
			if s.empty[i] != sig.Empty() {
				t.Fatalf("bits=%d: id %d empty flag stale", bits, i)
			}
			if bits == 0 {
				if !minhash.Signature(w).Equal(sig) {
					t.Fatalf("bits=%d: id %d holds stale words", bits, i)
				}
			} else {
				want, _ := minhash.Compact(sig, bits)
				for k, word := range want.Words {
					if w[k] != word {
						t.Fatalf("bits=%d: id %d word %d stale", bits, i, k)
					}
				}
			}
		}
	}
}

func TestPutRejectsWrongLength(t *testing.T) {
	s, _ := New(Config{NumHashes: 8})
	if err := s.Put(0, make(minhash.Signature, 7)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestViewFullMatchesSlicePath(t *testing.T) {
	sigs := randSigs(t, 150, 20, 6, 7)
	for _, est := range []minhash.Estimator{minhash.SetOverlap, minhash.MatchedPositions} {
		s, err := New(Config{NumHashes: 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutBatch(0, sigs); err != nil {
			t.Fatal(err)
		}
		v := s.View(est)
		if v.Len() != len(sigs) || v.NumHashes() != 20 {
			t.Fatalf("view geometry %d/%d", v.Len(), v.NumHashes())
		}
		prep := minhash.PrepareAll(sigs)
		for i := 0; i < len(sigs); i++ {
			if v.Empty(i) != sigs[i].Empty() {
				t.Fatalf("Empty(%d) mismatch", i)
			}
			if !v.Sig(i).Equal(sigs[i]) {
				t.Fatalf("Sig(%d) mismatch", i)
			}
			for b := 0; b < 4; b++ {
				if v.BandHash(i, b, 5) != minhash.BandHash(sigs[i], b, 5) {
					t.Fatalf("BandHash(%d, %d) mismatch", i, b)
				}
			}
			for j := i + 1; j < len(sigs); j += 17 {
				want := est.SimilarityPrepared(prep[i], prep[j])
				if got := v.Similarity(i, j); got != want {
					t.Fatalf("est %v Similarity(%d,%d) = %v, want %v (must be bit-identical)",
						est, i, j, got, want)
				}
			}
		}
	}
}

func TestViewPackedMatchesCompact(t *testing.T) {
	sigs := randSigs(t, 120, 20, 6, 8)
	for _, bits := range []int{1, 3, 4, 8} {
		s, err := New(Config{NumHashes: 20, Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutBatch(0, sigs); err != nil {
			t.Fatal(err)
		}
		v := s.View(minhash.SetOverlap)
		packed := make([]minhash.BBitSignature, len(sigs))
		for i, sig := range sigs {
			packed[i], err = minhash.Compact(sig, bits)
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := range sigs {
			if v.Empty(i) != sigs[i].Empty() {
				t.Fatalf("b=%d: Empty(%d) mismatch", bits, i)
			}
			for b := 0; b < 4; b++ {
				if v.BandHash(i, b, 5) != packed[i].BandHash(b, 5) {
					t.Fatalf("b=%d: BandHash(%d,%d) mismatch", bits, i, b)
				}
			}
			for j := i + 1; j < len(sigs); j += 13 {
				want, err := packed[i].Similarity(packed[j])
				if err != nil {
					t.Fatal(err)
				}
				if got := v.Similarity(i, j); got != want {
					t.Fatalf("b=%d: Similarity(%d,%d) = %v, want %v", bits, i, j, got, want)
				}
			}
		}
	}
}

// TestPutRejectsSparseIDs: rows are dense IDs 0..Len-1, so a Put or
// PutBatch that would skip an ID fails and stores nothing.
func TestPutRejectsSparseIDs(t *testing.T) {
	s, _ := New(Config{NumHashes: 8})
	if err := s.Put(5, make(minhash.Signature, 8)); err == nil {
		t.Fatal("Put past Len succeeded")
	}
	if err := s.PutBatch(1, randSigs(t, 3, 8, 0, 1)); err == nil {
		t.Fatal("PutBatch past Len succeeded")
	}
	if s.Len() != 0 || s.ResidentBytes() != 0 {
		t.Fatalf("rejected puts left Len %d, %d resident bytes", s.Len(), s.ResidentBytes())
	}
}

// TestViewGrowMatchesView grows a view one stored row at a time, the
// serving committer's pattern, and checks it against the view built over
// the finished store.
func TestViewGrowMatchesView(t *testing.T) {
	sigs := randSigs(t, 90, 20, 7, 10)
	for _, bits := range []int{0, 4} {
		s, err := New(Config{NumHashes: 20, Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		grown := s.View(minhash.SetOverlap)
		if err := grown.Grow(s); err == nil {
			t.Fatalf("bits=%d: Grow past the stored rows succeeded", bits)
		}
		for i, sig := range sigs {
			if err := s.Put(uint32(i), sig); err != nil {
				t.Fatal(err)
			}
			if err := grown.Grow(s); err != nil {
				t.Fatal(err)
			}
		}
		built := s.View(minhash.SetOverlap)
		if grown.Len() != built.Len() {
			t.Fatalf("bits=%d: grown Len %d, built %d", bits, grown.Len(), built.Len())
		}
		for i := 0; i < built.Len(); i++ {
			if grown.Empty(i) != built.Empty(i) {
				t.Fatalf("bits=%d: Empty(%d) differs", bits, i)
			}
			for b := 0; b < 4; b++ {
				if grown.BandHash(i, b, 5) != built.BandHash(i, b, 5) {
					t.Fatalf("bits=%d: BandHash(%d, %d) differs", bits, i, b)
				}
			}
			for j := 0; j < built.Len(); j++ {
				if grown.Similarity(i, j) != built.Similarity(i, j) {
					t.Fatalf("bits=%d: Similarity(%d, %d) differs", bits, i, j)
				}
			}
		}
	}
}

// TestViewsBuiltConcurrently builds views of one full store from several
// goroutines at once (run it under -race). The store is large enough for
// minhash.PrepareAll to split its rows over goroutines, with rows that
// do and do not build a bitmap and empty rows, and each view must match
// the row-by-row Prepare path.
func TestViewsBuiltConcurrently(t *testing.T) {
	const rows, n, views = 9000, 24, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(17))
	sigs := make([]minhash.Signature, rows)
	prep := make([]minhash.Prepared, rows)
	for i := range sigs {
		bound := uint64(1031) // small values build a bitmap
		if i%2 == 1 {
			bound = 1 << 61
		}
		sigs[i] = make(minhash.Signature, n)
		for j := range sigs[i] {
			sigs[i][j] = rng.Uint64() % bound
			if i%97 == 0 {
				sigs[i][j] = minhash.EmptyMin
			}
		}
		prep[i] = minhash.Prepare(sigs[i])
	}
	s, err := New(Config{NumHashes: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(0, sigs); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, views)
	var wg sync.WaitGroup
	for g := 0; g < views; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := s.View(minhash.SetOverlap)
			for i := 0; i < rows; i++ {
				j := (i*7919 + 1) % rows
				if !slices.Equal(v.prep[i].Vals, prep[i].Vals) {
					errs <- fmt.Errorf("row %d: Vals %v, want %v", i, v.prep[i].Vals, prep[i].Vals)
					return
				}
				if got, want := v.Similarity(i, j), minhash.SetOverlap.SimilarityPrepared(prep[i], prep[j]); got != want {
					errs <- fmt.Errorf("Similarity(%d, %d) = %v, want %v", i, j, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPackedResidentBytesRatio pins the headline compression claim: b=4
// packing stores the same corpus in >= 8x fewer resident signature bytes
// than full 64-bit storage (at n=100 the exact ratio is 800/56 ≈ 14.3x).
func TestPackedResidentBytesRatio(t *testing.T) {
	sigs := randSigs(t, 256, 100, 0, 9)
	full, err := New(Config{NumHashes: 100})
	if err != nil {
		t.Fatal(err)
	}
	b4, err := New(Config{NumHashes: 100, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := full.PutBatch(0, sigs); err != nil {
		t.Fatal(err)
	}
	if err := b4.PutBatch(0, sigs); err != nil {
		t.Fatal(err)
	}
	fb, pb := full.ResidentBytes(), b4.ResidentBytes()
	if fb != int64(len(sigs))*100*8 {
		t.Fatalf("full store resident bytes = %d, want %d", fb, len(sigs)*800)
	}
	if pb != int64(len(sigs))*7*8 {
		t.Fatalf("b=4 store resident bytes = %d, want %d", pb, len(sigs)*56)
	}
	if ratio := float64(fb) / float64(pb); ratio < 8 {
		t.Fatalf("compression ratio %.2fx < 8x", ratio)
	}
}

// TestAdoptMatchesPutBatch: a store that adopts a slab of rows equals the
// store a PutBatch of the same rows builds, in Len, every row, every
// empty flag and the Snapshot bytes, and it reads the slab in place.
// Adopt refuses a slab that is not whole rows.
func TestAdoptMatchesPutBatch(t *testing.T) {
	for _, rows := range []int{0, 1, 37} {
		sigs := randSigs(t, rows, 24, 5, int64(rows))
		slab := slices.Concat(sigs...)
		want, err := New(Config{NumHashes: 24})
		if err != nil {
			t.Fatal(err)
		}
		if err := want.PutBatch(0, sigs); err != nil {
			t.Fatal(err)
		}
		got, err := Adopt(24, slab)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() || got.NumHashes() != 24 || got.Bits() != 0 {
			t.Fatalf("%d rows: adopted geometry %d/%d/%d", rows, got.Len(), got.NumHashes(), got.Bits())
		}
		for id := 0; id < rows; id++ {
			if !slices.Equal(got.row(id), want.row(id)) || got.empty[id] != want.empty[id] {
				t.Fatalf("%d rows: row %d differs", rows, id)
			}
		}
		if rows >= 5 && !got.empty[4] {
			t.Fatalf("%d rows: empty row 4 not flagged", rows)
		}
		if !bytes.Equal(got.Snapshot(), want.Snapshot()) {
			t.Fatalf("%d rows: snapshots differ", rows)
		}
		if rows > 0 && &got.row(rows - 1)[23] != &slab[len(slab)-1] {
			t.Fatalf("%d rows: the store copied the slab", rows)
		}
	}
	if _, err := Adopt(24, make([]uint64, 25)); err == nil {
		t.Fatal("Adopt accepted 25 words as rows of 24")
	}
	if _, err := Adopt(0, nil); err == nil {
		t.Fatal("Adopt accepted rows of 0 words")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, bits := range []int{0, 1, 4} {
		s := keyedStore(t, Config{NumHashes: 24, Bits: bits}, 300, 11, 10)
		snap := s.Snapshot()
		r, err := Restore(snap)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if r.Len() != s.Len() || r.NumHashes() != 24 || r.Bits() != bits {
			t.Fatalf("bits=%d: restored geometry %d/%d/%d", bits, r.Len(), r.NumHashes(), r.Bits())
		}
		if k, ok := r.Translator().Key(7); !ok || k != "read_000007" {
			t.Fatalf("bits=%d: translator lost key 7 (%q)", bits, k)
		}
		// The restored store must re-snapshot byte-identically: the
		// property that makes --resume bit-identical.
		if resnap := r.Snapshot(); !bytes.Equal(resnap, snap) {
			t.Fatalf("bits=%d: re-snapshot differs (%d vs %d bytes)", bits, len(resnap), len(snap))
		}
	}
}

// TestSnapshotCorruptionDetected flips one bit at every byte offset of a
// small packed snapshot: each flip must surface as *CorruptSnapshotError.
func TestSnapshotCorruptionDetected(t *testing.T) {
	snap := keyedStore(t, Config{NumHashes: 16, Bits: 2}, 64, 9, 11).Snapshot()
	bad := make([]byte, len(snap))
	for off := range snap {
		copy(bad, snap)
		bad[off] ^= 1 << (off % 8)
		_, err := Restore(bad)
		var corrupt *CorruptSnapshotError
		if !errors.As(err, &corrupt) {
			t.Fatalf("flip at byte %d of %d: Restore returned %v, want *CorruptSnapshotError", off, len(snap), err)
		}
	}
	if _, err := Restore([]byte("BOGUS")); err == nil {
		t.Fatal("restore of garbage succeeded")
	}
	if _, err := Restore(snap[:len(snap)-3]); err == nil {
		t.Fatal("restore of truncated snapshot succeeded")
	}
}
