package cluster

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
)

func ccEngine(t testing.TB) *mapreduce.Engine {
	t.Helper()
	engine, err := mapreduce.NewEngine(mapreduce.Cluster{Nodes: 4, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

func randomGraph(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: rng.Intn(n), V: rng.Intn(n)}
	}
	return edges
}

func TestConnectedComponentsUnionFind(t *testing.T) {
	labels, err := ConnectedComponents(6, []Edge{{0, 1}, {1, 2}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 3, 4, 4}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
	if _, err := ConnectedComponents(3, []Edge{{0, 3}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

// components counts the components of a union-find labelling: the nodes
// that are their own component minimum.
func components(labels []int) int {
	c := 0
	for i, l := range labels {
		if l == i {
			c++
		}
	}
	return c
}

func TestConnectedComponentsMRMatchesUnionFind(t *testing.T) {
	engine := ccEngine(t)
	// path adds a path through that many shuffled nodes to the random
	// edges, so long chains mix with the random graph's short cycles.
	cases := []struct{ n, m, path int }{
		{1, 0, 0}, {2, 1, 0}, {10, 5, 0}, {50, 30, 0}, {100, 200, 0}, {200, 100, 0}, {500, 1200, 0},
		{60, 20, 40}, {300, 150, 300}, {1000, 400, 200},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			edges := randomGraph(tc.n, tc.m, seed*31+int64(tc.n))
			perm := rand.New(rand.NewSource(seed)).Perm(tc.n)
			for i := 1; i < tc.path; i++ {
				edges = append(edges, Edge{U: perm[i-1], V: perm[i]})
			}
			want, err := ConnectedComponents(tc.n, edges)
			if err != nil {
				t.Fatal(err)
			}
			got, results, stats, err := ConnectedComponentsMR(engine, tc.n, edges)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d m=%d seed=%d: MR labels diverge from union-find\n got %v\nwant %v", tc.n, tc.m, seed, got, want)
			}
			if !stats.Converged {
				t.Fatalf("n=%d m=%d seed=%d: did not converge in %d rounds", tc.n, tc.m, seed, stats.Rounds)
			}
			// A star forest over union-find's components has one edge per
			// member that is not its component's minimum.
			if leaves := tc.n - components(want); stats.FinalEdges != leaves {
				t.Fatalf("n=%d m=%d seed=%d: stopped at %d edges, a star forest has %d", tc.n, tc.m, seed, stats.FinalEdges, leaves)
			}
			if len(results) != stats.Rounds {
				t.Fatalf("expected 1 job result per round, got %d for %d rounds", len(results), stats.Rounds)
			}
		}
	}
}

func TestConnectedComponentsMRLogarithmicRounds(t *testing.T) {
	engine := ccEngine(t)
	// A path graph is the adversarial case for hook-to-min label
	// propagation (diameter n-1); the star transforms must still finish in
	// O(log n) rounds, one round per star job.
	for _, n := range []int{16, 64, 256, 1024} {
		edges := make([]Edge, n-1)
		for i := range edges {
			edges[i] = Edge{U: i, V: i + 1}
		}
		want, err := ConnectedComponents(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		got, _, stats, err := ConnectedComponentsMR(engine, n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("path n=%d: labels diverge", n)
		}
		bound := int(2*math.Log2(float64(n))) + 3
		if stats.Rounds > bound {
			t.Fatalf("path n=%d took %d rounds, want ≤ %d (logarithmic)", n, stats.Rounds, bound)
		}
		if stats.FinalEdges != n-1 {
			t.Fatalf("path n=%d: star forest has %d edges, want %d", n, stats.FinalEdges, n-1)
		}
	}
}

// TestConnectedComponentsMRStopsAtStarForest pins the job count of the
// star-forest stop: an input that is already a star forest runs no job,
// and a run stops after the first job that leaves one.
func TestConnectedComponentsMRStopsAtStarForest(t *testing.T) {
	engine := ccEngine(t)
	cases := []struct {
		name  string
		n     int
		edges []Edge
		jobs  int
	}{
		{"one star", 4, []Edge{{3, 0}, {0, 1}, {2, 0}}, 0},
		{"disjoint pairs", 6, []Edge{{0, 1}, {3, 2}, {4, 5}}, 0},
		{"duplicate pair and self-loop", 4, []Edge{{2, 2}, {1, 0}, {0, 1}, {0, 1}}, 0},
		// Large-Star hooks 2 to 0, which leaves the stars 0–{1,2} and 3–4.
		{"path 0-1-2 plus 3-4", 5, []Edge{{0, 1}, {1, 2}, {3, 4}}, 1},
		// Large-Star leaves 2's two smaller neighbours as they are;
		// Small-Star then hooks 1 to 0.
		{"two leaves share a larger node", 3, []Edge{{0, 2}, {1, 2}}, 2},
	}
	for _, tc := range cases {
		want, err := ConnectedComponents(tc.n, tc.edges)
		if err != nil {
			t.Fatal(err)
		}
		labels, results, stats, err := ConnectedComponentsMR(engine, tc.n, tc.edges)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(labels, want) {
			t.Fatalf("%s: labels = %v, want %v", tc.name, labels, want)
		}
		if len(results) != tc.jobs || stats.Rounds != tc.jobs || !stats.Converged {
			t.Fatalf("%s: %d jobs, %d rounds, converged %v; want %d jobs, converged", tc.name, len(results), stats.Rounds, stats.Converged, tc.jobs)
		}
		if leaves := tc.n - components(want); stats.FinalEdges != leaves {
			t.Fatalf("%s: stopped at %d edges, a star forest has %d", tc.name, stats.FinalEdges, leaves)
		}
	}
}

// TestCanonicalEdgesMatchesSortReference holds the counting sort to a
// comparison sort and compaction of the oriented, loop-free edges.
func TestCanonicalEdgesMatchesSortReference(t *testing.T) {
	reference := func(edges []Edge) []Edge {
		var out []Edge
		for _, e := range edges {
			if e.U != e.V {
				out = append(out, Edge{U: min(e.U, e.V), V: max(e.U, e.V)})
			}
		}
		slices.SortFunc(out, func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
		})
		return slices.Compact(out)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		edges := make([]Edge, rng.Intn(3*n))
		for i := range edges {
			// Draw from a few nodes now and then, so duplicates, reversed
			// pairs and self-loops all occur.
			span := n
			if trial%3 == 0 {
				span = min(n, 3)
			}
			edges[i] = Edge{U: rng.Intn(span), V: rng.Intn(span)}
		}
		in := slices.Clone(edges)
		got, err := CanonicalEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(edges); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, %v):\n got %v\nwant %v", trial, n, edges, got, want)
		}
		if !slices.Equal(edges, in) {
			t.Fatalf("trial %d: CanonicalEdges modified its input", trial)
		}
		// An already-canonical list comes back equal, as a copy.
		canon := slices.Clone(got)
		again, err := CanonicalEdges(n, canon)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again, got) || !slices.Equal(canon, got) {
			t.Fatalf("trial %d: canonical %v came back as %v", trial, got, again)
		}
		if len(again) > 0 {
			again[0].U = -7
			if canon[0].U == -7 {
				t.Fatalf("trial %d: CanonicalEdges returned its canonical input, not a copy", trial)
			}
		}
	}
	// Lists one step from canonical take the counting passes.
	for _, edges := range [][]Edge{
		{{0, 1}, {0, 1}},
		{{0, 1}, {1, 1}, {1, 2}},
		{{0, 2}, {2, 1}},
		{{0, 2}, {0, 1}},
		{{1, 2}, {0, 2}},
	} {
		got, err := CanonicalEdges(3, edges)
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(edges); !slices.Equal(got, want) {
			t.Fatalf("%v:\n got %v\nwant %v", edges, got, want)
		}
	}
	if got, err := CanonicalEdges(3, nil); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("no edges: got %v, %v; want an empty list", got, err)
	}
	for _, bad := range []Edge{{-1, 0}, {0, 3}, {3, 1}, {0, -2}, {1, 3}, {2, 5}} {
		if _, err := CanonicalEdges(3, []Edge{{0, 1}, bad}); err == nil {
			t.Fatalf("edge %v on 3 nodes: want an out-of-range error", bad)
		}
	}
}

func TestConnectedComponentsMRDeterministic(t *testing.T) {
	engine := ccEngine(t)
	edges := randomGraph(300, 500, 42)
	first, _, firstStats, err := ConnectedComponentsMR(engine, 300, edges)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, _, stats, err := ConnectedComponentsMR(engine, 300, edges)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) || stats != firstStats {
			t.Fatalf("run %d: nondeterministic labels or stats", i)
		}
	}
}

func TestConnectedComponentsMREdgeCases(t *testing.T) {
	engine := ccEngine(t)

	labels, results, stats, err := ConnectedComponentsMR(engine, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, []int{0, 1, 2, 3, 4}) || len(results) != 0 || !stats.Converged {
		t.Fatalf("empty edge set: labels=%v results=%d converged=%v", labels, len(results), stats.Converged)
	}

	// Self-loops and duplicates collapse during canonicalization.
	labels, _, stats, err = ConnectedComponentsMR(engine, 4, []Edge{{2, 2}, {1, 0}, {0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, []int{0, 0, 2, 3}) {
		t.Fatalf("labels = %v", labels)
	}
	if stats.InputEdges != 1 {
		t.Fatalf("InputEdges = %d, want 1 after dedup", stats.InputEdges)
	}

	if _, _, _, err := ConnectedComponentsMR(engine, 3, []Edge{{0, 7}}); err == nil {
		t.Fatal("expected out-of-range error")
	}

	// One round on a long path: labels must still be exact (star
	// operations preserve connectivity) even though convergence is cut off.
	edges := make([]Edge, 63)
	for i := range edges {
		edges[i] = Edge{U: i, V: i + 1}
	}
	want, err := ConnectedComponents(64, edges)
	if err != nil {
		t.Fatal(err)
	}
	labels, _, stats, err = connectedComponentsMR(engine, 64, edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 {
		t.Fatalf("Rounds = %d, want 1", stats.Rounds)
	}
	if !reflect.DeepEqual(labels, want) {
		t.Fatal("the round cap changed the labels")
	}
}

func TestConnectedComponentsMRCounters(t *testing.T) {
	engine := ccEngine(t)
	edges := []Edge{{0, 1}, {1, 2}, {3, 4}}
	_, results, stats, err := ConnectedComponentsMR(engine, 5, edges)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no job results")
	}
	var rounds, active int64
	for _, r := range results {
		rounds += r.Counters.Get("cc.rounds")
		active += r.Counters.Get("cc.active_edges")
	}
	if rounds != int64(stats.Rounds) {
		t.Fatalf("cc.rounds total = %d, want %d", rounds, stats.Rounds)
	}
	if active <= 0 {
		t.Fatalf("cc.active_edges total = %d, want > 0", active)
	}
}

// TestConnectedComponentsMRLargeStarFaults pins label bit-identity when the
// star jobs run under injected task crashes and a node death: recovery is
// lossless, so a faulted run must reproduce the fault-free labels exactly.
func TestConnectedComponentsMRLargeStarFaults(t *testing.T) {
	edges := randomGraph(200, 350, 9)
	clean := ccEngine(t)
	want, _, _, err := ConnectedComponentsMR(clean, 200, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7, 1234} {
		faulted := ccEngine(t)
		faulted.Faults = faults.MustNew(faults.Plan{Seed: seed, TaskCrashProb: 0.2})
		got, _, _, err := ConnectedComponentsMR(faulted, 200, edges)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: faulted labels diverge from fault-free run", seed)
		}
	}
}

// TestConnectedComponentsMRSmallStarExternalShuffle routes the star jobs
// through the spill-and-merge external shuffle and checks labels match the
// in-memory path.
func TestConnectedComponentsMRSmallStarExternalShuffle(t *testing.T) {
	engine := ccEngine(t)
	edges := randomGraph(400, 900, 17)
	want, _, _, err := ConnectedComponentsMR(engine, 400, edges)
	if err != nil {
		t.Fatal(err)
	}
	spill := ccEngine(t)
	spill.ShuffleBufferBytes = 512
	got, _, _, err := ConnectedComponentsMR(spill, 400, edges)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("external-shuffle labels diverge from in-memory shuffle")
	}
}
