package cluster

import (
	"fmt"
	"sort"

	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// Linkage selects the cluster-pair similarity update rule.
type Linkage int

const (
	// Single linkage merges on the most similar member pair.
	Single Linkage = iota
	// Average linkage merges on the size-weighted mean similarity (UPGMA).
	Average
	// Complete linkage merges on the least similar member pair.
	Complete
)

// ParseLinkage maps the paper's $LINK parameter values.
func ParseLinkage(s string) (Linkage, error) {
	switch s {
	case "single":
		return Single, nil
	case "average":
		return Average, nil
	case "complete":
		return Complete, nil
	default:
		return 0, fmt.Errorf("cluster: unknown linkage %q (want single, average or complete)", s)
	}
}

// String names the linkage.
func (l Linkage) String() string {
	switch l {
	case Single:
		return "single"
	case Average:
		return "average"
	case Complete:
		return "complete"
	default:
		return "unknown"
	}
}

// Merge records one dendrogram join: clusters containing representatives
// A and B merged at the given similarity level.
type Merge struct {
	A, B       int
	Similarity float64
}

// Dendrogram is the full merge history of agglomerative clustering over n
// leaves (n-1 merges, not ordered by similarity for non-single linkages;
// use CutAt to extract flat clusterings).
type Dendrogram struct {
	N      int
	Merges []Merge
}

// HierarchicalOptions parameterizes Algorithm 2.
type HierarchicalOptions struct {
	Linkage Linkage
}

// Hierarchical builds the complete dendrogram from a similarity matrix
// using the nearest-neighbor-chain algorithm, which is exact for the
// reducible linkages single/average/complete and runs in O(n²) time and
// memory. The matrix is consumed (its cells are overwritten during
// merging) — pass a copy if it is needed afterwards.
func Hierarchical(m *Matrix, opt HierarchicalOptions) (*Dendrogram, error) {
	if opt.Linkage != Single && opt.Linkage != Average && opt.Linkage != Complete {
		return nil, fmt.Errorf("cluster: invalid linkage %d", opt.Linkage)
	}
	n := m.N()
	d := &Dendrogram{N: n}
	if n <= 1 {
		return d, nil
	}
	active := make([]bool, n)
	size := make([]int, n)
	for i := range active {
		active[i] = true
		size[i] = 1
	}
	remaining := n
	chain := make([]int, 0, n)
	for remaining > 1 {
		if len(chain) == 0 {
			for i := 0; i < n; i++ {
				if active[i] {
					chain = append(chain, i)
					break
				}
			}
		}
		for {
			tip := chain[len(chain)-1]
			// Nearest neighbor of tip: highest similarity, ties broken by
			// smallest index for determinism.
			nn, best := -1, -1.0
			for j := 0; j < n; j++ {
				if j == tip || !active[j] {
					continue
				}
				if s := m.Get(tip, j); s > best {
					best, nn = s, j
				}
			}
			if len(chain) >= 2 && nn == chain[len(chain)-2] {
				// Reciprocal pair: merge tip and nn.
				a, b := chain[len(chain)-2], tip
				chain = chain[:len(chain)-2]
				d.Merges = append(d.Merges, Merge{A: a, B: b, Similarity: best})
				mergeInto(m, active, size, a, b, opt.Linkage)
				remaining--
				break
			}
			chain = append(chain, nn)
		}
	}
	return d, nil
}

// mergeInto folds cluster b into cluster a, updating row a by the linkage
// rule and deactivating b.
func mergeInto(m *Matrix, active []bool, size []int, a, b int, link Linkage) {
	na, nb := float64(size[a]), float64(size[b])
	for k := 0; k < m.N(); k++ {
		if k == a || k == b || !active[k] {
			continue
		}
		sa, sb := m.Get(a, k), m.Get(b, k)
		var s float64
		switch link {
		case Single:
			s = sa
			if sb > s {
				s = sb
			}
		case Complete:
			s = sa
			if sb < s {
				s = sb
			}
		default: // Average
			s = (na*sa + nb*sb) / (na + nb)
		}
		m.Set(a, k, s)
	}
	size[a] += size[b]
	active[b] = false
}

// CutAt flattens the dendrogram at similarity threshold θ: all merges at
// similarity >= θ are applied, and connected components become clusters.
// Cluster labels are assigned in first-member order.
func (d *Dendrogram) CutAt(theta float64) metrics.Clustering {
	parent := make([]int, d.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, mg := range d.Merges {
		if mg.Similarity >= theta {
			ra, rb := find(mg.A), find(mg.B)
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	labels := make(metrics.Clustering, d.N)
	next := 0
	byRoot := make(map[int]int)
	for i := 0; i < d.N; i++ {
		r := find(i)
		l, ok := byRoot[r]
		if !ok {
			l = next
			next++
			byRoot[r] = l
		}
		labels[i] = l
	}
	return labels
}

// Heights returns the merge similarities sorted descending — the levels at
// which the dendrogram changes shape, useful for multi-level OTU reports.
func (d *Dendrogram) Heights() []float64 {
	hs := make([]float64, len(d.Merges))
	for i, m := range d.Merges {
		hs[i] = m.Similarity
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(hs)))
	return hs
}

// SimilarityMatrix computes the dense all-pairs matrix from signatures
// sequentially with the unprepared per-pair estimator — the independent
// reference that BuildMatrixParallel over a source must match cell for
// cell. Production paths use BuildMatrixParallel (prepared signatures,
// tiled worker fan-out); the MapReduce row-parallel path lives in
// internal/core.
func SimilarityMatrix(sigs []minhash.Signature, est minhash.Estimator) *Matrix {
	n := len(sigs)
	m := MustMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, est.Similarity(sigs[i], sigs[j]))
		}
	}
	return m
}

// HierarchicalFromSource is the end-to-end Algorithm 2 over a signature
// source: parallel tiled matrix build from the source's pairwise kernel,
// dendrogram, cut at θ.
func HierarchicalFromSource(src SigSource, link Linkage, theta float64) (metrics.Clustering, error) {
	if err := checkTheta(theta); err != nil {
		return nil, err
	}
	m := BuildMatrixParallel(src.Len(), 0, src.Similarity)
	d, err := Hierarchical(m, HierarchicalOptions{Linkage: link})
	if err != nil {
		return nil, err
	}
	return d.CutAt(theta), nil
}
