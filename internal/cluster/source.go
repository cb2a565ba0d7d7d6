package cluster

import "github.com/metagenomics/mrmcminh/internal/minhash"

// SigSource is index-aligned, borrowed access to a signature corpus: the
// one input of every clustering algorithm here. The resident signature
// store (sigstore.View satisfies this interface structurally —
// cluster must not import sigstore) is the production source; SliceSource
// wraps plain signature slices. Implementations must be safe for
// concurrent Similarity/BandHash calls: the parallel matrix builder and
// map tasks fan pairs out over a worker pool.
type SigSource interface {
	// Len returns the number of signatures.
	Len() int
	// NumHashes returns the signature length n (for slice sources with
	// ragged lengths, the maximum).
	NumHashes() int
	// Empty reports whether signature i came from an empty feature set.
	Empty(i int) bool
	// Similarity estimates the Jaccard similarity of signatures i and j,
	// bit-identical to Estimator.SimilarityPrepared on the same corpus
	// for full-width sources.
	Similarity(i, j int) float64
	// BandHash returns the LSH band hash of signature i.
	BandHash(i, band, rows int) uint64
}

// SliceSource adapts a signature slice (Prepared once) to SigSource, for
// callers that hold signatures rather than a store: representative
// picking, the MC-LSH baseline and the tests. Its Similarity is the same
// SimilarityPrepared kernel a full-width store view uses.
type SliceSource struct {
	sigs   []minhash.Signature
	prep   []minhash.Prepared
	est    minhash.Estimator
	sigLen int
}

// NewSliceSource prepares sigs once and wraps them as a source.
func NewSliceSource(sigs []minhash.Signature, est minhash.Estimator) *SliceSource {
	sigLen := 0
	for _, s := range sigs {
		if len(s) > sigLen {
			sigLen = len(s)
		}
	}
	return &SliceSource{sigs: sigs, prep: minhash.PrepareAll(sigs), est: est, sigLen: sigLen}
}

func (s *SliceSource) Len() int       { return len(s.sigs) }
func (s *SliceSource) NumHashes() int { return s.sigLen }
func (s *SliceSource) Empty(i int) bool {
	return s.sigs[i].Empty()
}
func (s *SliceSource) Similarity(i, j int) float64 {
	return s.est.SimilarityPrepared(s.prep[i], s.prep[j])
}
func (s *SliceSource) BandHash(i, band, rows int) uint64 {
	return minhash.BandHash(s.sigs[i], band, rows)
}

// SubsetSource restricts a source to ids: element i of the subset is
// element ids[i] of the parent. The per-component cluster stages use it
// to run the exact algorithms over one component's members without
// copying signatures out of the store.
type SubsetSource struct {
	src SigSource
	ids []int
}

// Subset returns a view of src restricted to ids (not copied; the caller
// must not mutate ids while the subset is in use).
func Subset(src SigSource, ids []int) *SubsetSource {
	return &SubsetSource{src: src, ids: ids}
}

func (s *SubsetSource) Len() int                    { return len(s.ids) }
func (s *SubsetSource) NumHashes() int              { return s.src.NumHashes() }
func (s *SubsetSource) Empty(i int) bool            { return s.src.Empty(s.ids[i]) }
func (s *SubsetSource) Similarity(i, j int) float64 { return s.src.Similarity(s.ids[i], s.ids[j]) }
func (s *SubsetSource) BandHash(i, band, rows int) uint64 {
	return s.src.BandHash(s.ids[i], band, rows)
}
