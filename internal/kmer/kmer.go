// Package kmer extracts fixed-length subsequences (k-mers) from DNA reads
// and represents them as packed 64-bit integers.
//
// This is the paper's TranslateToKmer step: every read becomes a *set* of
// k-mer features over which minwise hashing estimates Jaccard similarity.
// A k-mer of length k <= 31 packs into a uint64 using the 2-bit code
// A=0 C=1 G=2 T=3; windows containing an ambiguous base are skipped.
package kmer

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/fasta"
)

// MaxK is the largest supported k-mer size (2 bits per base in a uint64,
// with one sentinel bit reserved so encodings of different k never collide).
const MaxK = 31

// Extractor turns sequences into k-mer feature sets.
type Extractor struct {
	// K is the k-mer length, 1..MaxK.
	K int
	// Canonical, when set, replaces each k-mer with the lexicographically
	// smaller of itself and its reverse complement so that strand
	// orientation does not affect the feature set. Whole-metagenome
	// shotgun reads come from both strands; 16S amplicons do not.
	Canonical bool
}

// NewExtractor returns an extractor for k-mers of length k.
func NewExtractor(k int) (*Extractor, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("kmer: k must be in [1,%d], got %d", MaxK, k)
	}
	return &Extractor{K: k}, nil
}

// MustExtractor is NewExtractor for known-good k, panicking otherwise.
func MustExtractor(k int) *Extractor {
	e, err := NewExtractor(k)
	if err != nil {
		panic(err)
	}
	return e
}

// Set returns the distinct k-mers of seq as packed integers.
// Windows containing ambiguous bases are skipped. The result order is
// unspecified. A sequence shorter than k yields an empty set.
func (e *Extractor) Set(seq []byte) Set {
	kms := e.Slice(seq)
	set := make(Set, len(kms))
	for _, km := range kms {
		set[km] = struct{}{}
	}
	return set
}

// Slice returns every k-mer occurrence of seq in order, including
// duplicates. Windows containing ambiguous bases are skipped.
func (e *Extractor) Slice(seq []byte) []uint64 {
	return e.SliceInto(make([]uint64, 0, max(0, len(seq)-e.K+1)), seq)
}

// SliceInto appends every k-mer occurrence of seq to dst and returns the
// extended slice, reusing dst's backing array when it has capacity —
// the buffer-recycling form of Slice for hot loops that process many
// sequences. It streams the packed k-mers of seq through a rolling
// window.
func (e *Extractor) SliceInto(dst []uint64, seq []byte) []uint64 {
	k := e.K
	if len(seq) < k {
		return dst
	}
	mask := uint64(1)<<(2*k) - 1
	var fwd, rc uint64
	valid := 0 // number of consecutive unambiguous bases ending at i
	rcShift := uint(2 * (k - 1))
	for i := 0; i < len(seq); i++ {
		c := fasta.BaseCode(seq[i])
		if c < 0 {
			valid = 0
			fwd, rc = 0, 0
			continue
		}
		fwd = ((fwd << 2) | uint64(c)) & mask
		rc = (rc >> 2) | (uint64(3-c) << rcShift)
		if valid < k {
			valid++
		}
		if valid == k {
			km := fwd
			if e.Canonical && rc < km {
				km = rc
			}
			dst = append(dst, km)
		}
	}
	return dst
}

// ReverseComplement returns the reverse complement of a packed k-mer.
func ReverseComplement(km uint64, k int) uint64 {
	var rc uint64
	for i := 0; i < k; i++ {
		rc = (rc << 2) | (3 - (km & 3))
		km >>= 2
	}
	return rc
}

// FeatureSpace returns the number of possible k-mers, 4^k, saturating at
// the maximum uint64 for large k (k <= MaxK keeps this exact).
func FeatureSpace(k int) uint64 {
	if k >= 32 {
		return ^uint64(0)
	}
	return uint64(1) << (2 * k)
}
