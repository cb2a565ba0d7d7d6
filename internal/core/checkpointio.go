package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// Checkpoint codecs. Stage outputs are serialized with exact binary
// representations — the signature store's own snapshot, the float32 bit
// patterns the similarity matrix actually stores, integer labels — so a
// stage restored from its checkpoint is bit-identical to one that just
// ran. That exactness is what lets a resumed pipeline reproduce the
// uninterrupted run's clusters byte for byte.

// HashReads content-addresses a read set: the SHA-256 of the canonical
// ">id\nseq\n" rendering, the inputs hash of the sketch stage.
func HashReads(reads []fasta.Record) string {
	var buf []byte
	for _, r := range reads {
		buf = append(buf, '>')
		buf = append(buf, r.ID...)
		buf = append(buf, '\n')
		buf = append(buf, r.Seq...)
		buf = append(buf, '\n')
	}
	return checkpoint.HashBytes(buf)
}

// encodeMatrix renders the strict upper triangle as the float32 bit
// patterns the matrix stores internally, preceded by n.
func encodeMatrix(m *cluster.Matrix) []byte {
	n := m.N()
	out := make([]byte, 0, 8+4*n*(n-1)/2)
	out = binary.LittleEndian.AppendUint64(out, uint64(n))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(m.Get(i, j))))
		}
	}
	return out
}

// decodeMatrix inverts encodeMatrix.
func decodeMatrix(data []byte) (*cluster.Matrix, error) {
	n64, data, err := readU64(data)
	if err != nil {
		return nil, err
	}
	n := int(n64)
	m, err := cluster.NewMatrix(n)
	if err != nil {
		return nil, err
	}
	if want := 4 * n * (n - 1) / 2; len(data) != want {
		return nil, fmt.Errorf("core: matrix payload is %d bytes, want %d", len(data), want)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, float64(math.Float32frombits(binary.LittleEndian.Uint32(data))))
			data = data[4:]
		}
	}
	return m, nil
}

// encodeLabels renders cluster labels as little-endian int64s.
func encodeLabels(labels metrics.Clustering) []byte {
	out := make([]byte, 0, 8+8*len(labels))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(labels)))
	for _, l := range labels {
		out = binary.LittleEndian.AppendUint64(out, uint64(int64(l)))
	}
	return out
}

// decodeLabels inverts encodeLabels.
func decodeLabels(data []byte) (metrics.Clustering, error) {
	n, data, err := readU64(data)
	if err != nil {
		return nil, err
	}
	if len(data) != 8*int(n) {
		return nil, fmt.Errorf("core: label payload is %d bytes, want %d", len(data), 8*n)
	}
	labels := make(metrics.Clustering, n)
	for i := range labels {
		var v uint64
		v, data, _ = readU64(data)
		labels[i] = int(int64(v))
	}
	return labels, nil
}

// encodeEdges renders verified candidate edges as little-endian int64
// pairs: count, then per edge U and V.
func encodeEdges(edges []cluster.Edge) []byte {
	out := make([]byte, 0, 8+16*len(edges))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(edges)))
	for _, e := range edges {
		out = binary.LittleEndian.AppendUint64(out, uint64(int64(e.U)))
		out = binary.LittleEndian.AppendUint64(out, uint64(int64(e.V)))
	}
	return out
}

// decodeEdges inverts encodeEdges.
func decodeEdges(data []byte) ([]cluster.Edge, error) {
	n, data, err := readU64(data)
	if err != nil {
		return nil, err
	}
	if len(data) != 16*int(n) {
		return nil, fmt.Errorf("core: edge payload is %d bytes, want %d", len(data), 16*n)
	}
	edges := make([]cluster.Edge, n)
	for i := range edges {
		var u, v uint64
		u, data, _ = readU64(data)
		v, data, _ = readU64(data)
		edges[i] = cluster.Edge{U: int(int64(u)), V: int(int64(v))}
	}
	return edges, nil
}

// readU64 pops one little-endian uint64 off data.
func readU64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("core: truncated checkpoint data")
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}
