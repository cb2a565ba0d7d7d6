package sigstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Snapshot format (all integers little-endian):
//
//	magic "SIGSNAP2"                    8 bytes
//	numHashes, bits                     u64 each
//	translator: keyCount u64, then per key: len u64 + raw bytes
//	rowCount                            u64
//	empty-flag bitset                   (rowCount+7)/8 bytes
//	arena words                         rowCount*stride u64
//	SHA-256 over everything above       32 bytes
//
// Rows serialize in dense-ID order, so a store built by a deterministic
// ingest — or rebuilt by Restore — snapshots to byte-identical blobs.
// Restore re-hashes the blob before trusting a byte, so a torn or
// bit-flipped checkpoint surfaces as a typed corruption error instead of
// silently wrong clusters. SIGSNAP1, the per-shard layout of older
// builds, is refused.

const snapshotMagic = "SIGSNAP2"

// CorruptSnapshotError reports a snapshot whose bytes do not match its
// trailing SHA-256.
type CorruptSnapshotError struct{}

func (e *CorruptSnapshotError) Error() string {
	return "sigstore: snapshot corrupt (SHA-256 mismatch)"
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// Snapshot serializes the store (signatures and translator) into a
// self-verifying blob. Like every other method it belongs to the store's
// writer.
func (s *Store) Snapshot() []byte {
	rows := s.Len()
	size := len(snapshotMagic) + 4*8 + (rows+7)/8 + 8*len(s.words) + sha256.Size
	for _, k := range s.trans.keys {
		size += 8 + len(k)
	}
	out := make([]byte, 0, size)
	out = append(out, snapshotMagic...)
	out = appendU64(out, uint64(s.cfg.NumHashes))
	out = appendU64(out, uint64(s.cfg.Bits))
	out = appendU64(out, uint64(len(s.trans.keys)))
	for _, k := range s.trans.keys {
		out = appendU64(out, uint64(len(k)))
		out = append(out, k...)
	}
	out = appendU64(out, uint64(rows))
	flags := len(out)
	out = append(out, make([]byte, (rows+7)/8)...)
	for row, e := range s.empty {
		if e {
			out[flags+row/8] |= 1 << (row % 8)
		}
	}
	for _, w := range s.words {
		out = appendU64(out, w)
	}
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// snapReader walks a snapshot blob with bounds checks. The first read
// past the end sets err, and every later read returns zero values.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.err = fmt.Errorf("sigstore: snapshot truncated at offset %d (+%d)", r.off, n)
		return nil
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Restore rebuilds a store from Snapshot bytes. It verifies the trailing
// SHA-256 first, so any flipped bit, the magic's included, is a
// *CorruptSnapshotError; it then refuses any magic but SIGSNAP2 before
// reading another field. The geometry in the header is trusted only once
// the arena's byte count matches it, so a self-consistent blob cannot
// make Restore allocate rows it does not hold. The rebuilt store
// re-snapshots byte-identically — the property --resume relies on.
func Restore(data []byte) (*Store, error) {
	if len(data) < len(snapshotMagic)+sha256.Size {
		return nil, fmt.Errorf("sigstore: %d bytes is too short for a snapshot", len(data))
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], tail) {
		return nil, &CorruptSnapshotError{}
	}
	if magic := string(body[:len(snapshotMagic)]); magic != snapshotMagic {
		return nil, fmt.Errorf("sigstore: not a %s signature-store snapshot (magic %q)", snapshotMagic, magic)
	}
	r := &snapReader{b: body, off: len(snapshotMagic)}
	numHashes, bits, keyCount := r.u64(), r.u64(), r.u64()
	if r.err != nil {
		return nil, r.err
	}
	s, err := New(Config{NumHashes: int(numHashes), Bits: int(bits)})
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < keyCount && r.err == nil; i++ {
		key := string(r.take(r.u64()))
		if r.err == nil && s.trans.Translate(key) != uint32(i) {
			return nil, fmt.Errorf("sigstore: duplicate key %q in snapshot", key)
		}
	}
	rows := r.u64()
	bitset := r.take((rows + 7) / 8)
	if r.err != nil {
		return nil, r.err
	}
	// The rest is the arena, and it must hold exactly rows*stride words.
	// Compare by division: a header claiming a huge stride would overflow
	// the product.
	arena := body[r.off:]
	words, stride := uint64(len(arena)/8), uint64(s.stride)
	if len(arena)%8 != 0 || words/stride != rows || words%stride != 0 {
		return nil, fmt.Errorf("sigstore: snapshot arena of %d bytes does not hold %d rows of %d words", len(arena), rows, stride)
	}
	s.empty = make([]bool, rows)
	for i := range s.empty {
		s.empty[i] = bitset[i/8]&(1<<(i%8)) != 0
	}
	s.words = make([]uint64, words)
	for i := range s.words {
		s.words[i] = binary.LittleEndian.Uint64(arena[8*i:])
	}
	return s, nil
}
