package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// matrixTile is the row/column block edge of the parallel matrix build.
// A tile pair touches 2·matrixTile signatures (~100 sorted values each),
// small enough to stay in L2 while the tile's matrixTile² cells are
// filled.
const matrixTile = 64

// BuildMatrixParallel fills an n×n symmetric similarity matrix from a
// pairwise kernel — a source's Similarity, or an alignment score —
// tiled and fanned out over a worker pool (0 workers means GOMAXPROCS).
// Row blocks go to the workers, each writing only its own rows, so the
// build is lock-free and race-free by construction and its result is
// the same for every worker count. sim is called once per unordered pair
// (i<j) and must be safe for concurrent calls; the diagonal is fixed at
// 1 by the Matrix type. The alignment-based baselines (DOTUR, Mothur,
// ESPRIT) share this builder with the sketch path.
func BuildMatrixParallel(n, workers int, sim func(i, j int) float64) *Matrix {
	m := MustMatrix(n)
	if n < 2 {
		return m
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nBlocks := (n + matrixTile - 1) / matrixTile
	if workers > nBlocks {
		workers = nBlocks
	}

	// Phase 1: upper triangle. Each worker claims whole row blocks from
	// an atomic counter (dynamic balancing: early rows hold more pairs)
	// and sweeps them in column tiles for locality, writing only cells
	// (i,j) with i inside the claimed block and j > i.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				lo := b * matrixTile
				hi := min(n, lo+matrixTile)
				for jlo := lo; jlo < n; jlo += matrixTile {
					jhi := min(n, jlo+matrixTile)
					for i := lo; i < hi; i++ {
						row := m.rowSlice(i)
						for j := max(i+1, jlo); j < jhi; j++ {
							row[j] = float32(sim(i, j))
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	// Phase 2: mirror the lower triangle. Workers again own disjoint row
	// blocks and only write their own rows, reading the upper triangle
	// completed before the barrier above.
	next.Store(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				lo := b * matrixTile
				hi := min(n, lo+matrixTile)
				for i := lo; i < hi; i++ {
					row := m.rowSlice(i)
					for j := 0; j < i; j++ {
						row[j] = m.data[j*n+i]
					}
				}
			}
		}()
	}
	wg.Wait()
	return m
}
