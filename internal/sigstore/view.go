package sigstore

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// View is an index-aligned, read-only projection of a store whose dense
// IDs are contiguous (0..Len-1 — the pipeline's ingest order): element i
// of the view is dense ID i. Construction materializes borrowed row
// views (and, for full stores, the Prepared caches the zero-alloc
// kernels need) exactly once, so the O(N²) pair loops downstream index
// plain slices with no locking and no per-pair allocation.
//
// A View satisfies cluster.SigSource. It assumes the store is quiescent
// while the view is read: either ingest finishes before clustering
// begins (the pipeline's stage order), or the store's only writer is also
// the view's only reader and grows the view row by row with Grow (the
// serving committer). For a full store, Similarity returns floats
// bit-identical to the slice-backed Estimator.SimilarityPrepared path;
// for a packed store it applies the b-bit collision-corrected estimator
// over the packed words.
type View struct {
	est       minhash.Estimator
	bits      int
	numHashes int
	// Full storage:
	sigs []minhash.Signature
	prep []minhash.Prepared
	// Packed storage:
	packed []minhash.BBitSignature
}

// View builds a projection over dense IDs 0..Len-1. It errors if any ID
// in that range is missing (sparse ID spaces have no index alignment).
func (s *Store) View(est minhash.Estimator) (*View, error) {
	n := s.Len()
	v := &View{est: est, bits: s.cfg.Bits, numHashes: s.cfg.NumHashes}
	if s.cfg.Bits == 0 {
		v.sigs = make([]minhash.Signature, n)
	} else {
		v.packed = make([]minhash.BBitSignature, n)
	}
	seen := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for row, id := range sh.ids {
			if int(id) >= n {
				sh.mu.RUnlock()
				return nil, fmt.Errorf("sigstore: view needs dense IDs 0..%d, found %d", n-1, id)
			}
			w := sh.words[row*s.stride : (row+1)*s.stride : (row+1)*s.stride]
			if s.cfg.Bits == 0 {
				v.sigs[id] = minhash.Signature(w)
			} else {
				v.packed[id] = minhash.Borrow(s.cfg.Bits, s.cfg.NumHashes, w, sh.empty[row])
			}
			seen++
		}
		sh.mu.RUnlock()
	}
	if seen != n {
		return nil, fmt.Errorf("sigstore: view saw %d rows for %d IDs", seen, n)
	}
	if s.cfg.Bits == 0 {
		v.prep = minhash.PrepareAll(v.sigs)
	}
	return v, nil
}

// Grow extends the view by one element: the row of dense ID Len() in s,
// the store the view was built from, which the caller has just stored.
// (The view keeps no reference to s, so a finished view does not pin the
// store's index maps and translator.)
func (v *View) Grow(s *Store) error {
	id := uint32(v.Len())
	w, empty, ok := s.row(id)
	if !ok {
		return fmt.Errorf("sigstore: view grow needs dense ID %d, not stored", id)
	}
	if v.bits == 0 {
		sig := minhash.Signature(w)
		v.sigs = append(v.sigs, sig)
		v.prep = append(v.prep, minhash.Prepare(sig))
	} else {
		v.packed = append(v.packed, minhash.Borrow(v.bits, v.numHashes, w, empty))
	}
	return nil
}

// Len returns the number of signatures in the view.
func (v *View) Len() int {
	if v.bits == 0 {
		return len(v.sigs)
	}
	return len(v.packed)
}

// NumHashes returns the signature length n.
func (v *View) NumHashes() int { return v.numHashes }

// Empty reports whether signature i came from an empty feature set.
func (v *View) Empty(i int) bool {
	if v.bits == 0 {
		return v.sigs[i].Empty()
	}
	return v.packed[i].Empty()
}

// Similarity estimates the Jaccard similarity of signatures i and j.
func (v *View) Similarity(i, j int) float64 {
	if v.bits == 0 {
		return v.est.SimilarityPrepared(v.prep[i], v.prep[j])
	}
	return v.packed[i].SimilarityFast(v.packed[j])
}

// BandHash returns the LSH band hash of signature i.
func (v *View) BandHash(i, band, rows int) uint64 {
	if v.bits == 0 {
		return minhash.BandHash(v.sigs[i], band, rows)
	}
	return v.packed[i].BandHash(band, rows)
}

// Sig returns the borrowed full signature for i (nil on packed views) —
// the payload the pipeline's shuffle emits without copying.
func (v *View) Sig(i int) minhash.Signature {
	if v.bits == 0 {
		return v.sigs[i]
	}
	return nil
}

// PackedSig returns the borrowed packed signature for i (zero value on
// full views).
func (v *View) PackedSig(i int) minhash.BBitSignature {
	if v.bits != 0 {
		return v.packed[i]
	}
	return minhash.BBitSignature{}
}

// Prepared returns the cached Prepared view for i (full views only; the
// zero value on packed views).
func (v *View) Prepared(i int) minhash.Prepared {
	if v.bits == 0 {
		return v.prep[i]
	}
	return minhash.Prepared{}
}
