package sigstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
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

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{NumHashes: 0},
		{NumHashes: 10, Bits: -1},
		{NumHashes: 10, Bits: 17},
		{NumHashes: 10, Shards: 3},
		{NumHashes: 10, Shards: -4},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%+v): expected error", bad)
		}
	}
	s, err := New(Config{NumHashes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.shards); got != DefaultShards {
		t.Fatalf("default shards = %d, want %d", got, DefaultShards)
	}
}

func TestPutGetRoundTripFull(t *testing.T) {
	sigs := randSigs(t, 200, 24, 7, 1)
	s, err := New(Config{NumHashes: 24, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(0, sigs); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(sigs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(sigs))
	}
	ids := make([]uint32, len(sigs))
	for i := range ids {
		ids[i] = uint32(i)
	}
	got, err := s.GetInto(nil, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, sig := range sigs {
		if !got[i].Equal(sig) {
			t.Fatalf("signature %d mismatch", i)
		}
	}
	if _, err := s.PackedInto(nil, ids); err == nil {
		t.Fatal("PackedInto on a full store: expected error")
	}
	if _, err := s.GetInto(nil, []uint32{9999}); err == nil {
		t.Fatal("GetInto of a missing id: expected error")
	}
}

func TestPutGetRoundTripPacked(t *testing.T) {
	sigs := randSigs(t, 200, 24, 7, 2)
	s, err := New(Config{NumHashes: 24, Bits: 4, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(0, sigs); err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, len(sigs))
	for i := range ids {
		ids[i] = uint32(i)
	}
	got, err := s.PackedInto(nil, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, sig := range sigs {
		want, err := minhash.Compact(sig, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Empty() != sig.Empty() {
			t.Fatalf("signature %d: empty flag mismatch", i)
		}
		for w, word := range want.Words {
			if got[i].Words[w] != word {
				t.Fatalf("signature %d word %d: %x != %x", i, w, got[i].Words[w], word)
			}
		}
	}
	if _, err := s.GetInto(nil, ids); err == nil {
		t.Fatal("GetInto on a packed store: expected error")
	}
}

func TestPutOverwritesInPlace(t *testing.T) {
	for _, bits := range []int{0, 3, 4} {
		s, err := New(Config{NumHashes: 16, Bits: bits, Shards: 4})
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
			w, empty, ok := s.row(uint32(i))
			if !ok {
				t.Fatalf("bits=%d: id %d missing", bits, i)
			}
			if empty != sig.Empty() {
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

func TestIngestTranslatesKeys(t *testing.T) {
	sigs := randSigs(t, 100, 12, 0, 5)
	keys := keysFor(100)
	s, err := New(Config{NumHashes: 12, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.Ingest(nil, keys, sigs)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id != uint32(i) {
			t.Fatalf("ingest order broken: key %d got id %d", i, id)
		}
		back, ok := s.Translator().Key(id)
		if !ok || back != keys[i] {
			t.Fatalf("Key(%d) = %q, %v; want %q", id, back, ok, keys[i])
		}
		if got, ok := s.Translator().Lookup(keys[i]); !ok || got != id {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", keys[i], got, ok, id)
		}
	}
	if _, ok := s.Translator().Lookup("never_seen"); ok {
		t.Fatal("Lookup of an unknown key succeeded")
	}
	if _, ok := s.Translator().Key(9999); ok {
		t.Fatal("Key of an unallocated id succeeded")
	}
	if _, err := s.Ingest(nil, keys[:3], sigs[:2]); err == nil {
		t.Fatal("mismatched keys/sigs lengths: expected error")
	}
}

func TestTranslatorConcurrentStableIDs(t *testing.T) {
	tr := NewTranslator()
	keys := keysFor(500)
	const goroutines = 8
	got := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = tr.TranslateBatch(nil, keys)
		}(g)
	}
	wg.Wait()
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	for g := 1; g < goroutines; g++ {
		for i := range keys {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d saw id %d for key %d, goroutine 0 saw %d",
					g, got[g][i], i, got[0][i])
			}
		}
	}
	// Every id maps back to its key.
	for i, k := range keys {
		if back, ok := tr.Key(got[0][i]); !ok || back != k {
			t.Fatalf("Key(%d) = %q, want %q", got[0][i], back, k)
		}
	}
}

func TestStoreConcurrentPutGet(t *testing.T) {
	sigs := randSigs(t, 400, 16, 9, 6)
	s, err := New(Config{NumHashes: 16, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * 100; i < (g+1)*100; i++ {
				if err := s.Put(uint32(i), sigs[i]); err != nil {
					t.Error(err)
					return
				}
				if !s.Has(uint32(i)) {
					t.Errorf("id %d vanished", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len = %d, want 400", s.Len())
	}
}

func TestViewFullMatchesSlicePath(t *testing.T) {
	sigs := randSigs(t, 150, 20, 6, 7)
	for _, est := range []minhash.Estimator{minhash.SetOverlap, minhash.MatchedPositions} {
		s, err := New(Config{NumHashes: 20, Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(nil, keysFor(len(sigs)), sigs); err != nil {
			t.Fatal(err)
		}
		v, err := s.View(est)
		if err != nil {
			t.Fatal(err)
		}
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
		s, err := New(Config{NumHashes: 20, Bits: bits, Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutBatch(0, sigs); err != nil {
			t.Fatal(err)
		}
		v, err := s.View(minhash.SetOverlap)
		if err != nil {
			t.Fatal(err)
		}
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

func TestViewRequiresDenseIDs(t *testing.T) {
	s, _ := New(Config{NumHashes: 8})
	if err := s.Put(5, make(minhash.Signature, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(minhash.SetOverlap); err == nil {
		t.Fatal("sparse id space: expected View error")
	}
}

// TestViewGrowMatchesView grows a view one stored row at a time, the
// serving committer's pattern, and checks it against the view built over
// the finished store.
func TestViewGrowMatchesView(t *testing.T) {
	sigs := randSigs(t, 90, 20, 7, 10)
	for _, bits := range []int{0, 4} {
		s, err := New(Config{NumHashes: 20, Bits: bits, Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		grown, err := s.View(minhash.SetOverlap)
		if err != nil {
			t.Fatal(err)
		}
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
		built, err := s.View(minhash.SetOverlap)
		if err != nil {
			t.Fatal(err)
		}
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

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, bits := range []int{0, 1, 4} {
		sigs := randSigs(t, 300, 24, 11, 10)
		s, err := New(Config{NumHashes: 24, Bits: bits, Shards: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(nil, keysFor(len(sigs)), sigs); err != nil {
			t.Fatal(err)
		}
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
		resnap := r.Snapshot()
		if len(resnap) != len(snap) {
			t.Fatalf("bits=%d: re-snapshot length %d != %d", bits, len(resnap), len(snap))
		}
		for i := range snap {
			if snap[i] != resnap[i] {
				t.Fatalf("bits=%d: re-snapshot differs at byte %d", bits, i)
			}
		}
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	sigs := randSigs(t, 64, 16, 0, 11)
	s, err := New(Config{NumHashes: 16, Bits: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(nil, keysFor(len(sigs)), sigs); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()

	// Any single flipped bit must be caught by the overall hash.
	for _, off := range []int{0, len(snap) / 3, len(snap) / 2, len(snap) - 40} {
		bad := append([]byte(nil), snap...)
		bad[off] ^= 0x40
		if _, err := Restore(bad); err == nil {
			t.Fatalf("flip at %d: restore succeeded on corrupt snapshot", off)
		}
	}
	// A shard blob flipped together with a recomputed overall hash must be
	// caught by that shard's own manifest entry. Walk the layout to the
	// first shard blob: magic, three u64s, then the translator section.
	off := len(snapshotMagic) + 3*8
	keyCount := int(binary.LittleEndian.Uint64(snap[off:]))
	off += 8
	for i := 0; i < keyCount; i++ {
		off += 8 + int(binary.LittleEndian.Uint64(snap[off:]))
	}
	bad := append([]byte(nil), snap[:len(snap)-32]...) // drop overall hash
	bad[off+8] ^= 0x01                                 // first byte inside shard 0's blob
	sum := sha256.Sum256(bad)
	bad = append(bad, sum[:]...)
	_, err = Restore(bad)
	if err == nil {
		t.Fatal("restore succeeded on shard-corrupt snapshot")
	}
	var corrupt *CorruptSnapshotError
	if !errors.As(err, &corrupt) {
		t.Fatalf("shard corruption surfaced as %v, want CorruptSnapshotError", err)
	}
	if corrupt.Section != "shard 0" {
		t.Fatalf("corruption attributed to %q, want \"shard 0\"", corrupt.Section)
	}

	if _, err := Restore([]byte("BOGUS")); err == nil {
		t.Fatal("restore of garbage succeeded")
	}
	if _, err := Restore(snap[:len(snap)-3]); err == nil {
		t.Fatal("restore of truncated snapshot succeeded")
	}
}
