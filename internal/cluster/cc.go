package cluster

import (
	"fmt"
	"slices"

	"github.com/metagenomics/mrmcminh/internal/mapreduce"
)

// Edge is one undirected candidate-pair edge between two read indices.
type Edge struct {
	U, V int
}

// DefaultCCMaxRounds bounds the star jobs, one MapReduce round each, far
// above the logarithmic count real graphs need: a path, the slowest shape
// tested, takes about 2·log₂N jobs, so the bound covers paths of about
// 2^32 nodes. The star operations preserve connectivity, so hitting the
// bound still yields exact components; only the modelled per-round cost
// stops accruing.
const DefaultCCMaxRounds = 64

// CCStats reports how a connected-components run converged.
type CCStats struct {
	// Rounds is the number of star jobs executed, Large-Star and
	// Small-Star alike: one MapReduce round each.
	Rounds int
	// Converged reports whether the edge set reached a star forest within
	// DefaultCCMaxRounds (labels are exact either way).
	Converged bool
	// InputEdges counts the distinct canonical input edges; FinalEdges the
	// star edges of the converged graph (one per non-minimum member).
	InputEdges int
	FinalEdges int
}

// ConnectedComponents is the sequential union-find reference: labels[i] is
// the smallest read index in i's component, the oracle that
// ConnectedComponentsMR must reproduce exactly.
func ConnectedComponents(n int, edges []Edge) ([]int, error) {
	parent := make([]int, n)
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
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("cluster: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[rv] = ru
		}
	}
	// Label every node with the minimum member of its component.
	min := make([]int, n)
	for i := range min {
		min[i] = -1
	}
	for i := 0; i < n; i++ {
		r := find(i)
		if min[r] < 0 || i < min[r] {
			min[r] = i
		}
	}
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = min[find(i)]
	}
	return labels, nil
}

// ConnectedComponentsMR finds the connected components of the candidate
// graph with Kiveris et al.'s logarithmic-round algorithm ("Connected
// Components in MapReduce and Beyond", SoCC 2014): alternate the
// Large-Star and Small-Star operations, each a MapReduce job on the
// simulated engine, until the edge set is a forest of stars whose centers
// are the component minima. Before every job, the first included, the
// driver tests the canonical edge list it already holds for that star
// forest, which both operations would map to itself. labels[i] is the
// smallest read index of i's component, identical to ConnectedComponents.
// The returned results carry each job's virtual time and counters (the
// engine's per-job counters plus cc.rounds/cc.active_edges recorded by the
// driver).
func ConnectedComponentsMR(engine *mapreduce.Engine, n int, edges []Edge) ([]int, []*mapreduce.Result, CCStats, error) {
	return connectedComponentsMR(engine, n, edges, DefaultCCMaxRounds)
}

// connectedComponentsMR is ConnectedComponentsMR stopping after at most
// maxRounds star jobs.
func connectedComponentsMR(engine *mapreduce.Engine, n int, edges []Edge, maxRounds int) ([]int, []*mapreduce.Result, CCStats, error) {
	var stats CCStats
	cur, err := CanonicalEdges(n, edges)
	if err != nil {
		return nil, nil, stats, err
	}
	stats.InputEdges = len(cur)
	var results []*mapreduce.Result
	for large := true; ; large = !large {
		if isStarForest(n, cur) {
			stats.Converged = true
			break
		}
		if stats.Rounds >= maxRounds {
			break
		}
		next, res, err := starJob(engine, n, cur, large)
		if err != nil {
			return nil, nil, stats, err
		}
		stats.Rounds++
		res.Counters.Add("cc.rounds", 1) // one star job is one round
		res.Counters.Add("cc.active_edges", int64(len(cur)))
		results = append(results, res)
		cur = next
	}
	stats.FinalEdges = len(cur)
	// Label extraction. At a star forest this is a direct read-off; at
	// the round cap it is still exact because both star operations
	// preserve connectivity.
	labels, err := ConnectedComponents(n, cur)
	if err != nil {
		return nil, nil, stats, err
	}
	return labels, results, stats, nil
}

// isStarForest reports whether a canonical edge set is a forest of stars
// centered on their minima: each V occurs once, and no U is also some
// edge's V.
func isStarForest(n int, edges []Edge) bool {
	leaf := make([]bool, n)
	for _, e := range edges {
		if leaf[e.V] {
			return false
		}
		leaf[e.V] = true
	}
	for _, e := range edges {
		if leaf[e.U] {
			return false
		}
	}
	return true
}

// CanonicalEdges validates, orients (min,max), sorts and dedups an edge
// list, dropping self-loops: the normal form every star job reads and the
// LSH stage checkpoints. A list already in that form, as the LSH stage
// hands to ConnectedComponentsMR, is copied after one linear check.
// Otherwise node ids lie in [0, n), so two stable counting passes, by V
// and then by U, sort it in O(E + n). The input is not modified.
func CanonicalEdges(n int, edges []Edge) ([]Edge, error) {
	if isCanonical(n, edges) {
		out := make([]Edge, len(edges))
		copy(out, edges)
		return out, nil
	}
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("cluster: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out = append(out, e)
	}
	byV := make([]Edge, len(out))
	count := make([]int, n)
	countingSort(byV, out, count, false)
	countingSort(out, byV, count, true)
	return slices.Compact(out), nil
}

// isCanonical reports whether edges is in CanonicalEdges' normal form:
// each edge in range with U < V, in strictly increasing (U, V) order.
func isCanonical(n int, edges []Edge) bool {
	prev := Edge{U: -1}
	for _, e := range edges {
		if e.U < 0 || e.U >= e.V || e.V >= n || e.U < prev.U || e.U == prev.U && e.V <= prev.V {
			return false
		}
		prev = e
	}
	return true
}

// countingSort writes src to dst in stable order of each edge's U (byU)
// or V, every one of which lies in [0, len(count)).
func countingSort(dst, src []Edge, count []int, byU bool) {
	key := func(e Edge) int {
		if byU {
			return e.U
		}
		return e.V
	}
	clear(count)
	for _, e := range src {
		count[key(e)]++
	}
	sum := 0
	for i, c := range count {
		count[i] = sum
		sum += c
	}
	for _, e := range src {
		k := key(e)
		dst[count[k]] = e
		count[k]++
	}
}

// starJob runs one Large-Star (large=true) or Small-Star operation as a
// MapReduce job and returns the canonicalized output edge set.
//
//   - Large-Star groups the full neighborhood Γ(u) at every node u and
//     connects each strictly larger neighbor to m = min(Γ(u) ∪ {u}):
//     emit (v, m) for v ∈ Γ(u), v > u.
//   - Small-Star groups each edge at its larger endpoint and connects
//     every gathered node (and u itself) to the minimum:
//     emit (v, m) for v ∈ Γ(u) ∪ {u} \ {m}.
//
// Both operations preserve connectivity; alternating them converges to
// per-component stars centered on the minimum node in a logarithmic
// number of rounds.
func starJob(engine *mapreduce.Engine, n int, edges []Edge, large bool) ([]Edge, *mapreduce.Result, error) {
	name := "cc-small-star"
	if large {
		name = "cc-large-star"
	}
	// Each node is a Key64 and each neighbour an int. The reducer emits
	// each output edge (v, m) as the key v with the value m.
	job := &mapreduce.Job[Edge, mapreduce.Key64, int]{
		Name:  name,
		Input: edges,
		Map: func(e Edge, emit func(mapreduce.Key64, int)) error {
			if large {
				emit(mapreduce.Key64(e.U), e.V)
				emit(mapreduce.Key64(e.V), e.U)
			} else {
				// Canonical edges already satisfy U < V: group at the
				// larger endpoint.
				emit(mapreduce.Key64(e.V), e.U)
			}
			return nil
		},
		Reduce: func(key mapreduce.Key64, nbrs []int, emit func(mapreduce.Key64, int)) error {
			u := int(key)
			m := min(u, slices.Min(nbrs))
			if large {
				for _, v := range nbrs {
					if v > u {
						emit(mapreduce.Key64(v), m)
					}
				}
			} else {
				for _, v := range nbrs {
					if v != m {
						emit(mapreduce.Key64(v), m)
					}
				}
				if u != m {
					emit(key, m)
				}
			}
			return nil
		},
	}
	star, res, err := mapreduce.Run(engine, job)
	if err != nil {
		return nil, nil, err
	}
	out := make([]Edge, len(star))
	for i, kv := range star {
		out[i] = Edge{U: int(kv.Key), V: kv.Value}
	}
	// The star graph is a set: canonicalize it for the next job and the
	// star-forest test.
	canon, err := CanonicalEdges(n, out)
	if err != nil {
		return nil, nil, err
	}
	return canon, res, nil
}
