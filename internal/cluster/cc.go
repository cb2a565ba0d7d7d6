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

// CCOptions parameterizes the MapReduce connected-components run.
type CCOptions struct {
	// MaxRounds bounds the alternating Large-Star/Small-Star rounds (0 =
	// DefaultCCMaxRounds). The star operations preserve connectivity, so
	// hitting the bound still yields exact components — only the modelled
	// per-round cost stops accruing.
	MaxRounds int
}

// DefaultCCMaxRounds bounds the alternating rounds far above the
// logarithmic count any real graph needs (2^64 nodes would converge first).
const DefaultCCMaxRounds = 64

// CCStats reports how a connected-components run converged.
type CCStats struct {
	// Rounds is the number of Large-Star/Small-Star round pairs executed.
	Rounds int
	// Converged reports whether the edge set reached a fixed point within
	// MaxRounds (labels are exact either way).
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
// simulated engine, until the edge set is a fixed point — a forest of
// stars whose centers are the component minima. labels[i] is the smallest
// read index of i's component, identical to ConnectedComponents. The
// returned results carry each job's virtual time and counters (the
// engine's per-job counters plus cc.round/cc.active_edges recorded by the
// driver).
func ConnectedComponentsMR(engine *mapreduce.Engine, n int, edges []Edge, opt CCOptions) ([]int, []*mapreduce.Result, CCStats, error) {
	var stats CCStats
	cur, err := canonicalEdges(n, edges)
	if err != nil {
		return nil, nil, stats, err
	}
	stats.InputEdges = len(cur)
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultCCMaxRounds
	}
	var results []*mapreduce.Result
	for stats.Rounds < maxRounds && len(cur) > 0 {
		large, lres, err := starJob(engine, cur, true)
		if err != nil {
			return nil, nil, stats, err
		}
		small, sres, err := starJob(engine, large, false)
		if err != nil {
			return nil, nil, stats, err
		}
		stats.Rounds++
		for _, r := range []*mapreduce.Result{lres, sres} {
			r.Counters.Add("cc.rounds", 1) // each job belongs to one round
			r.Counters.Add("cc.active_edges", int64(len(cur)))
			results = append(results, r)
		}
		if slices.Equal(small, cur) {
			stats.Converged = true
			cur = small
			break
		}
		cur = small
	}
	if len(cur) == 0 {
		stats.Converged = true
	}
	stats.FinalEdges = len(cur)
	// Label extraction. At the fixed point cur is a star forest and this
	// is a direct read-off; before MaxRounds exhaustion it is still exact
	// because both star operations preserve connectivity.
	labels, err := ConnectedComponents(n, cur)
	if err != nil {
		return nil, nil, stats, err
	}
	return labels, results, stats, nil
}

// canonicalEdges validates, orients (min,max), sorts and dedups an edge
// list, dropping self-loops — the normal form compared across rounds.
func canonicalEdges(n int, edges []Edge) ([]Edge, error) {
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
	slices.SortFunc(out, compareEdges)
	return slices.Compact(out), nil
}

func compareEdges(a, b Edge) int {
	if a.U != b.U {
		return a.U - b.U
	}
	return a.V - b.V
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
func starJob(engine *mapreduce.Engine, edges []Edge, large bool) ([]Edge, *mapreduce.Result, error) {
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
	// The star graph is a set: canonicalize for the fixed-point test.
	maxNode := 0
	for _, e := range out {
		if e.U > maxNode {
			maxNode = e.U
		}
		if e.V > maxNode {
			maxNode = e.V
		}
	}
	canon, err := canonicalEdges(maxNode+1, out)
	if err != nil {
		return nil, nil, err
	}
	return canon, res, nil
}
