package sigstore

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// View is an index-aligned, read-only projection of a store: element i
// of the view is dense ID i. Construction materializes borrowed row
// views (and, for full stores, the Prepared caches the zero-alloc
// kernels need, built by minhash.PrepareAll: in parallel for a large
// store, their values cut from a few slabs) exactly once, so the O(N²)
// pair loops downstream index plain slices with no locking and no
// per-pair allocation.
//
// A View satisfies cluster.SigSource. It assumes the store is quiescent
// while the view is read: either ingest finishes before clustering
// begins (the pipeline's stage order), or the store's only writer is also
// the view's only reader and grows the view row by row with Grow (the
// serving committer). Rows a view has borrowed are never overwritten,
// because the daemon only appends. An appending Put may move the arena;
// the view keeps reading the old array, which is safe for that reason.
// For a full store, Similarity returns floats
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

// View builds a projection over dense IDs 0..Len-1.
func (s *Store) View(est minhash.Estimator) *View {
	n := s.Len()
	v := &View{est: est, bits: s.cfg.Bits, numHashes: s.cfg.NumHashes}
	if s.cfg.Bits == 0 {
		v.sigs = make([]minhash.Signature, n)
		for id := range v.sigs {
			v.sigs[id] = minhash.Signature(s.row(id))
		}
		v.prep = minhash.PrepareAll(v.sigs)
		return v
	}
	v.packed = make([]minhash.BBitSignature, 0, n)
	for id := 0; id < n; id++ {
		v.appendRow(s, id)
	}
	return v
}

// Grow extends the view by one element: the row of dense ID Len() in s,
// the store the view was built from, which the caller has just stored.
// (The view keeps no reference to s, so a finished view does not pin the
// store's translator.)
func (v *View) Grow(s *Store) error {
	id := v.Len()
	if id >= s.Len() {
		return fmt.Errorf("sigstore: view grow needs dense ID %d, not stored", id)
	}
	v.appendRow(s, id)
	return nil
}

// appendRow borrows the stored row of dense ID id as the view's next
// element.
func (v *View) appendRow(s *Store, id int) {
	w := s.row(id)
	if v.bits == 0 {
		sig := minhash.Signature(w)
		v.sigs = append(v.sigs, sig)
		v.prep = append(v.prep, minhash.Prepare(sig))
	} else {
		v.packed = append(v.packed, minhash.Borrow(v.bits, v.numHashes, w, s.empty[id]))
	}
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
