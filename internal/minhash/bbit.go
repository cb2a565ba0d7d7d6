package minhash

import (
	"fmt"
	"math/bits"
)

// b-bit minwise hashing (Li & König, 2010; the paper cites the follow-up
// GPU implementation) — an extension that stores only the lowest b bits of
// each minwise value, shrinking sketches 64/b-fold. Equal minima still
// match, but unequal minima now collide with probability ~2^-b; the
// estimator removes that inflation analytically:
//
//	E[match fraction] = J + (1-J)·2^-b
//	Ĵ = (match - 2^-b) / (1 - 2^-b)
//
// At b=1 a 100-hash sketch is 100 *bits* per read — the storage regime
// that makes terabyte-scale collections (paper §II) sketchable in RAM.

// BBitSignature is a compacted signature: b bits per hash function,
// packed little-endian into 64-bit words.
type BBitSignature struct {
	B     int
	N     int
	Words []uint64
	empty bool
}

// PackedWords returns the number of 64-bit words a b-bit packing of an
// n-slot signature occupies: ceil(n*b/64), computed so that no n
// overflows it (a snapshot header may claim any n).
func PackedWords(n, b int) int { return n/64*b + (n%64*b+63)/64 }

// Compact reduces a full signature to its lowest b bits per slot.
// b must be in [1,16] (larger b defeats the purpose; use Signature).
func Compact(sig Signature, b int) (BBitSignature, error) {
	if b < 1 || b > 16 {
		return BBitSignature{}, fmt.Errorf("minhash: b must be in [1,16], got %d", b)
	}
	words := make([]uint64, PackedWords(len(sig), b))
	CompactInto(words, sig, b)
	return BBitSignature{B: b, N: len(sig), Words: words, empty: sig.Empty()}, nil
}

// CompactInto packs the lowest b bits of each slot of sig little-endian
// into dst, which must hold PackedWords(len(sig), b) zeroed words. It is
// the allocation-free core of Compact, used by the signature store to pack
// straight into an arena row. b is trusted to be in [1,16] (callers
// validate once per store, not per read).
func CompactInto(dst []uint64, sig Signature, b int) {
	mask := uint64(1)<<b - 1
	for i, v := range sig {
		chunk := v & mask
		bit := i * b
		word, off := bit/64, uint(bit%64)
		dst[word] |= chunk << off
		if off+uint(b) > 64 && word+1 < len(dst) {
			dst[word+1] |= chunk >> (64 - off)
		}
	}
}

// Borrow wraps already-packed words — typically a signature-store arena
// row — as a BBitSignature without copying. The caller asserts the
// geometry and whether the source signature was empty.
func Borrow(b, n int, words []uint64, empty bool) BBitSignature {
	return BBitSignature{B: b, N: n, Words: words, empty: empty}
}

// slot extracts the i-th b-bit value.
func (s BBitSignature) slot(i int) uint64 {
	bit := i * s.B
	word, off := bit/64, uint(bit%64)
	mask := uint64(1)<<s.B - 1
	v := s.Words[word] >> off
	if off+uint(s.B) > 64 && word+1 < len(s.Words) {
		v |= s.Words[word+1] << (64 - off)
	}
	return v & mask
}

// Empty reports whether the source signature was empty.
func (s BBitSignature) Empty() bool { return s.empty }

// Bytes returns the storage footprint in bytes.
func (s BBitSignature) Bytes() int { return 8 * len(s.Words) }

// Similarity estimates Jaccard similarity from two b-bit signatures with
// the collision correction. Estimates are clamped to [0,1]. Mismatched
// geometry is an error.
func (s BBitSignature) Similarity(o BBitSignature) (float64, error) {
	if s.B != o.B || s.N != o.N {
		return 0, fmt.Errorf("minhash: b-bit geometry mismatch (%d/%d vs %d/%d)", s.B, s.N, o.B, o.N)
	}
	return s.SimilarityFast(o), nil
}

// SimilarityFast is Similarity for callers that already guarantee equal
// geometry — two views into the same signature store — so the hot pair
// loop carries no error path.
func (s BBitSignature) SimilarityFast(o BBitSignature) float64 {
	if s.Empty() || o.Empty() || s.N == 0 {
		return 0
	}
	frac := float64(s.MatchCount(o)) / float64(s.N)
	// 2^-b computed as an exact reciprocal: identical float to
	// math.Pow(2, -b) for b in [1,16], without the libm call per pair.
	c := 1 / float64(uint64(1)<<uint(s.B))
	est := (frac - c) / (1 - c)
	if est < 0 {
		est = 0
	}
	if est > 1 {
		est = 1
	}
	return est
}

// MatchCount counts equal b-bit slots. For the word-aligned widths
// (b ∈ {1,2,4,8,16}) it runs branch-free SWAR over whole words: XOR the
// words, OR-fold each b-bit lane onto its lowest bit (cumulative shift
// reach is b-1, so no bits leak across lane boundaries), then popcount
// the lane-LSB mask to count *differing* lanes. Padding lanes past N are
// zero in both signatures and are subtracted back out. Other widths fall
// back to the per-slot extraction loop. Geometry must match (see
// Similarity for the checked entry point).
func (s BBitSignature) MatchCount(o BBitSignature) int {
	b := s.B
	if b == 64 || (b&(b-1)) != 0 { // not a power of two: slots straddle words
		match := 0
		for i := 0; i < s.N; i++ {
			if s.slot(i) == o.slot(i) {
				match++
			}
		}
		return match
	}
	lsbMask := laneLSBMask(b)
	diff := 0
	for w, sw := range s.Words {
		x := sw ^ o.Words[w]
		for sh := 1; sh < b; sh <<= 1 {
			x |= x >> uint(sh)
		}
		diff += popcount64(x & lsbMask)
	}
	// Every lane that differs is a real slot (padding lanes are 0^0), so
	// matches = N - differing lanes.
	return s.N - diff
}

// laneLSBMask returns a word with bit i*b set for every lane i, the
// popcount mask of the SWAR fold. b must be a power of two in [1,32].
func laneLSBMask(b int) uint64 {
	switch b {
	case 1:
		return ^uint64(0)
	case 2:
		return 0x5555555555555555
	case 4:
		return 0x1111111111111111
	case 8:
		return 0x0101010101010101
	case 16:
		return 0x0001000100010001
	}
	m := uint64(0)
	for bit := 0; bit < 64; bit += b {
		m |= 1 << uint(bit)
	}
	return m
}

// popcount64 is math/bits.OnesCount64 spelled locally to keep the import
// surface of the hot loop obvious.
func popcount64(x uint64) int { return bits.OnesCount64(x) }

// BandHash hashes rows [band*rows, (band+1)*rows) of the packed signature
// with FNV-1a over each b-bit slot value widened to 8 little-endian bytes
// — the packed analogue of the full-signature BandHash. Because equal
// 64-bit minima compact to equal b-bit slots, any pair that collides on a
// band of full values also collides on the packed band: packed buckets
// are a superset of full buckets, so banding recall is preserved (at the
// cost of ~2^-(b·rows) extra false candidates per band, which θ
// verification removes).
func (s BBitSignature) BandHash(band, rows int) uint64 {
	h := uint64(fnvOffset64)
	for r := band * rows; r < band*rows+rows; r++ {
		h = fnvMix64(h, s.slot(r))
	}
	return h
}
