package cluster

import "fmt"

// Matrix is a symmetric all-pairs similarity matrix (float32 to halve the
// memory of the paper's dominant data structure). The diagonal is fixed
// at 1.
type Matrix struct {
	n    int
	data []float32
}

// NewMatrix allocates an n×n similarity matrix initialized to zero
// off-diagonal similarity.
func NewMatrix(n int) (*Matrix, error) {
	if n < 0 {
		return nil, fmt.Errorf("cluster: negative matrix size %d", n)
	}
	return &Matrix{n: n, data: make([]float32, n*n)}, nil
}

// MustMatrix is NewMatrix panicking on error.
func MustMatrix(n int) *Matrix {
	m, err := NewMatrix(n)
	if err != nil {
		panic(err)
	}
	return m
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// Set stores similarity v between i and j (both orders).
func (m *Matrix) Set(i, j int, v float64) {
	if i == j {
		return
	}
	m.data[i*m.n+j] = float32(v)
	m.data[j*m.n+i] = float32(v)
}

// SetRow fills row i from a dense slice of length N (used by the MR path,
// which computes whole rows in map tasks). Both triangles are written —
// (i,j) and (j,i) — so a matrix assembled row by row is symmetric.
// Values at [i] are ignored.
func (m *Matrix) SetRow(i int, row []float64) error {
	if len(row) != m.n {
		return fmt.Errorf("cluster: row length %d != matrix size %d", len(row), m.n)
	}
	for j, v := range row {
		if j != i {
			m.data[i*m.n+j] = float32(v)
			m.data[j*m.n+i] = float32(v)
		}
	}
	return nil
}

// rowSlice exposes row i's backing storage for kernel-level writers
// (BuildMatrixParallel fills disjoint row blocks lock-free).
func (m *Matrix) rowSlice(i int) []float32 {
	return m.data[i*m.n : (i+1)*m.n]
}

// Get returns the similarity between i and j (1 on the diagonal).
func (m *Matrix) Get(i, j int) float64 {
	if i == j {
		return 1
	}
	return float64(m.data[i*m.n+j])
}
