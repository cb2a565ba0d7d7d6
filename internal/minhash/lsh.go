package minhash

// Banding: an LSH scheme splits a signature into b bands of r rows and
// treats two signatures as candidates when any band hashes identically.
// A pair with Jaccard similarity s collides in at least one band with
// probability 1 - (1 - s^r)^b, an S-curve with threshold near
// (1/b)^(1/r). The index itself lives in internal/cluster (LSHIndex);
// this file holds the band hash and the collision curve.

// FNV-1a parameters (hash/fnv's 64-bit variant).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// BandHash hashes rows [band*rows, (band+1)*rows) of sig with FNV-1a over
// the little-endian bytes of each row value — bit-compatible with feeding
// the same bytes through hash/fnv, but inlined so hashing a band performs
// zero allocations (the hasher + 8-byte buffer the stdlib path allocated
// per band per signature). This is both the LSH index's bucket hash and
// the map-side bucket key of the LSH candidate-generation MapReduce stage.
func BandHash(sig Signature, band, rows int) uint64 {
	h := uint64(fnvOffset64)
	for r := band * rows; r < band*rows+rows; r++ {
		h = fnvMix64(h, sig[r])
	}
	return h
}

// fnvMix64 folds the 8 little-endian bytes of v into the running FNV-1a
// state h. Shared by the full-signature BandHash and the b-bit packed
// BBitSignature.BandHash so both produce stdlib-fnv-compatible hashes.
func fnvMix64(h, v uint64) uint64 {
	h = (h ^ (v & 0xff)) * fnvPrime64
	h = (h ^ (v >> 8 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 16 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 24 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 32 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 40 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 48 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 56)) * fnvPrime64
	return h
}

// CollisionProbability returns the analytic probability that a pair with
// Jaccard similarity s becomes a candidate: 1 - (1 - s^r)^b.
func CollisionProbability(s float64, bands, rows int) float64 {
	p := 1.0
	sr := 1.0
	for i := 0; i < rows; i++ {
		sr *= s
	}
	for i := 0; i < bands; i++ {
		p *= 1 - sr
	}
	return 1 - p
}
