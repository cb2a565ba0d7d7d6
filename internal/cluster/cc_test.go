package cluster

import (
	"math"
	"math/rand"
	"reflect"
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

func TestConnectedComponentsMRMatchesUnionFind(t *testing.T) {
	engine := ccEngine(t)
	cases := []struct{ n, m int }{
		{1, 0}, {2, 1}, {10, 5}, {50, 30}, {100, 200}, {200, 100}, {500, 1200},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			edges := randomGraph(tc.n, tc.m, seed*31+int64(tc.n))
			want, err := ConnectedComponents(tc.n, edges)
			if err != nil {
				t.Fatal(err)
			}
			got, results, stats, err := ConnectedComponentsMR(engine, tc.n, edges, CCOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d m=%d seed=%d: MR labels diverge from union-find\n got %v\nwant %v", tc.n, tc.m, seed, got, want)
			}
			if !stats.Converged {
				t.Fatalf("n=%d m=%d seed=%d: did not converge in %d rounds", tc.n, tc.m, seed, stats.Rounds)
			}
			if stats.InputEdges > 0 && len(results) != 2*stats.Rounds {
				t.Fatalf("expected 2 job results per round, got %d for %d rounds", len(results), stats.Rounds)
			}
		}
	}
}

func TestConnectedComponentsMRLogarithmicRounds(t *testing.T) {
	engine := ccEngine(t)
	// A path graph is the adversarial case for hook-to-min label
	// propagation (diameter n-1); the star transforms must still finish in
	// O(log n) rounds.
	for _, n := range []int{16, 64, 256, 1024} {
		edges := make([]Edge, n-1)
		for i := range edges {
			edges[i] = Edge{U: i, V: i + 1}
		}
		want, err := ConnectedComponents(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		got, _, stats, err := ConnectedComponentsMR(engine, n, edges, CCOptions{})
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

func TestConnectedComponentsMRDeterministic(t *testing.T) {
	engine := ccEngine(t)
	edges := randomGraph(300, 500, 42)
	first, _, firstStats, err := ConnectedComponentsMR(engine, 300, edges, CCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, _, stats, err := ConnectedComponentsMR(engine, 300, edges, CCOptions{})
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

	labels, results, stats, err := ConnectedComponentsMR(engine, 5, nil, CCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, []int{0, 1, 2, 3, 4}) || len(results) != 0 || !stats.Converged {
		t.Fatalf("empty edge set: labels=%v results=%d converged=%v", labels, len(results), stats.Converged)
	}

	// Self-loops and duplicates collapse during canonicalization.
	labels, _, stats, err = ConnectedComponentsMR(engine, 4, []Edge{{2, 2}, {1, 0}, {0, 1}, {0, 1}}, CCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, []int{0, 0, 2, 3}) {
		t.Fatalf("labels = %v", labels)
	}
	if stats.InputEdges != 1 {
		t.Fatalf("InputEdges = %d, want 1 after dedup", stats.InputEdges)
	}

	if _, _, _, err := ConnectedComponentsMR(engine, 3, []Edge{{0, 7}}, CCOptions{}); err == nil {
		t.Fatal("expected out-of-range error")
	}

	// MaxRounds=1 on a long path: labels must still be exact (star
	// operations preserve connectivity) even though convergence is cut off.
	edges := make([]Edge, 63)
	for i := range edges {
		edges[i] = Edge{U: i, V: i + 1}
	}
	want, err := ConnectedComponents(64, edges)
	if err != nil {
		t.Fatal(err)
	}
	labels, _, stats, err = ConnectedComponentsMR(engine, 64, edges, CCOptions{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 {
		t.Fatalf("Rounds = %d, want 1", stats.Rounds)
	}
	if !reflect.DeepEqual(labels, want) {
		t.Fatal("MaxRounds cutoff changed the labels")
	}
}

func TestConnectedComponentsMRCounters(t *testing.T) {
	engine := ccEngine(t)
	edges := []Edge{{0, 1}, {1, 2}, {3, 4}}
	_, results, stats, err := ConnectedComponentsMR(engine, 5, edges, CCOptions{})
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
	if rounds != int64(2*stats.Rounds) {
		t.Fatalf("cc.rounds total = %d, want %d", rounds, 2*stats.Rounds)
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
	want, _, _, err := ConnectedComponentsMR(clean, 200, edges, CCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7, 1234} {
		faulted := ccEngine(t)
		faulted.Faults = faults.MustNew(faults.Plan{Seed: seed, TaskCrashProb: 0.2})
		got, _, _, err := ConnectedComponentsMR(faulted, 200, edges, CCOptions{})
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
	want, _, _, err := ConnectedComponentsMR(engine, 400, edges, CCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spill := ccEngine(t)
	spill.ShuffleBufferBytes = 512
	got, _, _, err := ConnectedComponentsMR(spill, 400, edges, CCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("external-shuffle labels diverge from in-memory shuffle")
	}
}
