package sigstore

import (
	"fmt"
	"slices"

	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// Config fixes a store's geometry. Every signature in a store shares one
// geometry, which is what lets rows live at a fixed stride in one
// contiguous arena and lets packed similarity skip all per-pair
// validation.
type Config struct {
	// NumHashes is the signature length n (required, >= 1).
	NumHashes int
	// Bits selects the representation: 0 stores full 64-bit signatures;
	// 1..16 stores b-bit packed sketches at ceil(n*b/64) words per read.
	Bits int
}

func (c Config) validate() error {
	if c.NumHashes < 1 {
		return fmt.Errorf("sigstore: NumHashes must be >= 1, got %d", c.NumHashes)
	}
	if c.Bits < 0 || c.Bits > 16 {
		return fmt.Errorf("sigstore: Bits must be in [0,16], got %d", c.Bits)
	}
	return nil
}

// stride returns the arena words per stored signature.
func (c Config) stride() int {
	if c.Bits == 0 {
		return c.NumHashes
	}
	return minhash.PackedWords(c.NumHashes, c.Bits)
}

// Store is a dense signature arena: row i holds the signature of dense ID
// i, so rows 0..Len-1 are the dense IDs in the order ingest assigned
// them. Rows sit at a fixed stride in one []uint64, which the clustering
// kernels borrow from without copying.
//
// A Store has a single writer, and no method takes a lock. Its writers
// are core's buildStore (the driver goroutine, after the sketch job has
// returned), core's clusterSource (a store private to one UDF call), the
// daemon's committer (serve.State.applyRead, or Open before serving
// starts) and perfbench's store layer (one goroutine). The one operation
// safe beside the writer is Translator().Lookup.
type Store struct {
	cfg    Config
	stride int
	words  []uint64 // row i is words[i*stride : (i+1)*stride]
	empty  []bool   // row i's source signature was empty
	trans  *Translator
}

// New creates an empty store with the given geometry.
func New(cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Store{cfg: cfg, stride: cfg.stride(), trans: NewTranslator()}, nil
}

// Adopt returns a full store (Bits 0) of signature length numHashes whose
// arena is words, row i being words[i·numHashes : (i+1)·numHashes]: the
// store a PutBatch of those rows from dense ID 0 builds, without copying
// them. The store owns words from then on.
func Adopt(numHashes int, words []uint64) (*Store, error) {
	s, err := New(Config{NumHashes: numHashes})
	if err != nil {
		return nil, err
	}
	if len(words)%numHashes != 0 {
		return nil, fmt.Errorf("sigstore: %d words are not whole rows of %d", len(words), numHashes)
	}
	s.words = words
	s.empty = make([]bool, len(words)/numHashes)
	for id := range s.empty {
		s.empty[id] = minhash.Signature(s.row(id)).Empty()
	}
	return s, nil
}

// NumHashes returns the signature length n.
func (s *Store) NumHashes() int { return s.cfg.NumHashes }

// Bits returns 0 for full storage or the packing width b.
func (s *Store) Bits() int { return s.cfg.Bits }

// Translator returns the store's read-ID translator.
func (s *Store) Translator() *Translator { return s.trans }

// Len returns the number of stored signatures.
func (s *Store) Len() int { return len(s.empty) }

// Put stores sig under dense ID id: it appends a row when id == Len()
// and overwrites row id in place when id < Len(). An id past Len()
// is an error, which keeps the dense IDs 0..Len-1. len(sig) must equal
// the store's NumHashes.
func (s *Store) Put(id uint32, sig minhash.Signature) error {
	if len(sig) != s.cfg.NumHashes {
		return fmt.Errorf("sigstore: signature length %d != store NumHashes %d", len(sig), s.cfg.NumHashes)
	}
	row := int(id)
	switch {
	case row > s.Len():
		return fmt.Errorf("sigstore: dense ID %d skips past the %d stored rows", id, s.Len())
	case row == s.Len():
		s.words = append(s.words, make([]uint64, s.stride)...)
		s.empty = append(s.empty, false)
	}
	dst := s.row(row)
	if s.cfg.Bits == 0 {
		copy(dst, sig)
	} else {
		clear(dst) // CompactInto ORs bits in; overwrites need a clean row
		minhash.CompactInto(dst, sig, s.cfg.Bits)
	}
	s.empty[row] = sig.Empty()
	return nil
}

// PutBatch stores sigs[i] under dense ID base+i — the ingest shape of the
// pipeline, where dense IDs are read indices — growing the arena once
// for the whole batch.
func (s *Store) PutBatch(base uint32, sigs []minhash.Signature) error {
	if extra := int(base) + len(sigs) - s.Len(); extra > 0 {
		s.words = slices.Grow(s.words, extra*s.stride)
		s.empty = slices.Grow(s.empty, extra)
	}
	for i, sig := range sigs {
		if err := s.Put(base+uint32(i), sig); err != nil {
			return err
		}
	}
	return nil
}

// row returns the borrowed arena row of dense ID id, capped so an append
// through it cannot reach the next row.
func (s *Store) row(id int) []uint64 {
	return s.words[id*s.stride : (id+1)*s.stride : (id+1)*s.stride]
}

// ResidentBytes returns the resident signature-arena footprint: the
// number the memory table in the README and the sig-bytes/read benchmark
// metric report. Translator keys and the empty flags are excluded — they
// are identical across representations; the arena is what b-bit packing
// shrinks.
func (s *Store) ResidentBytes() int64 { return 8 * int64(len(s.words)) }
