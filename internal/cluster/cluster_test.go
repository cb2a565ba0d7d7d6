package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// sketchGroups builds signatures for g well-separated groups of m near-
// identical members each: members of a group share ~95% of features while
// groups are disjoint.
func sketchGroups(t *testing.T, g, m int, seed int64) ([]minhash.Signature, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sk := minhash.MustSketcher(100, 10, seed)
	var sigs []minhash.Signature
	var truth []int
	for gi := 0; gi < g; gi++ {
		base := kmer.Set{}
		for len(base) < 400 {
			base.Add(rng.Uint64() % kmer.FeatureSpace(10))
		}
		elems := base.Sorted()
		for mi := 0; mi < m; mi++ {
			member := kmer.Set{}
			for _, v := range elems {
				if rng.Float64() < 0.97 {
					member.Add(v)
				}
			}
			sigs = append(sigs, sk.Sketch(member))
			truth = append(truth, gi)
		}
	}
	return sigs, truth
}

func agreesWithTruth(t *testing.T, c metrics.Clustering, truth []int, wantClusters int) {
	t.Helper()
	if got := c.NumClusters(); got != wantClusters {
		t.Fatalf("got %d clusters, want %d", got, wantClusters)
	}
	// Same truth group -> same cluster; different -> different.
	for i := range truth {
		for j := i + 1; j < len(truth); j++ {
			same := c[i] == c[j]
			if (truth[i] == truth[j]) != same {
				t.Fatalf("pair (%d,%d): truth %v/%v but clusters %d/%d", i, j, truth[i], truth[j], c[i], c[j])
			}
		}
	}
}

func TestGreedyRecoversGroups(t *testing.T) {
	sigs, truth := sketchGroups(t, 4, 10, 1)
	c, err := Greedy(NewSliceSource(sigs, minhash.MatchedPositions), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	agreesWithTruth(t, c, truth, 4)
}

func TestGreedySetOverlapEstimator(t *testing.T) {
	sigs, truth := sketchGroups(t, 3, 8, 2)
	c, err := Greedy(NewSliceSource(sigs, minhash.SetOverlap), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	agreesWithTruth(t, c, truth, 3)
}

func TestGreedyThresholdOneSplitsNonIdentical(t *testing.T) {
	sigs, _ := sketchGroups(t, 1, 5, 3)
	c, err := Greedy(NewSliceSource(sigs, minhash.MatchedPositions), 1)
	if err != nil {
		t.Fatal(err)
	}
	// At θ=1 only exactly-identical signatures cluster; the 97%-noise
	// members should mostly split apart.
	if c.NumClusters() < 2 {
		t.Fatalf("θ=1 produced %d clusters", c.NumClusters())
	}
}

func TestGreedyThresholdZeroMergesAll(t *testing.T) {
	sigs, _ := sketchGroups(t, 4, 5, 4)
	c, err := Greedy(NewSliceSource(sigs, minhash.MatchedPositions), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClusters() != 1 {
		t.Fatalf("θ=0 produced %d clusters, want 1", c.NumClusters())
	}
}

func TestGreedyLowerThresholdFewerClusters(t *testing.T) {
	sigs, _ := sketchGroups(t, 5, 6, 5)
	prev := -1
	for _, theta := range []float64{0.9, 0.5, 0.1} {
		c, err := Greedy(NewSliceSource(sigs, minhash.MatchedPositions), theta)
		if err != nil {
			t.Fatal(err)
		}
		n := c.NumClusters()
		if prev >= 0 && n > prev {
			t.Fatalf("θ=%v gave %d clusters, more than %d at higher θ", theta, n, prev)
		}
		prev = n
	}
}

// TestGreedyEmptySignaturesSingletons runs an empty signature (a read
// shorter than k) before and between two non-empty ones at θ = 0, where
// its similarity 0 to everything passes: through Greedy, GreedyLSH and
// Incremental the empty read stays alone and the non-empty ones join.
func TestGreedyEmptySignaturesSingletons(t *testing.T) {
	sk := minhash.MustSketcher(20, 5, 1)
	empty := sk.Sketch(kmer.Set{})
	a := sk.Sketch(kmer.FromSlice([]uint64{1, 2, 3}))
	b := sk.Sketch(kmer.FromSlice([]uint64{1, 2, 3, 4}))
	for _, c := range []struct {
		sigs []minhash.Signature
		want metrics.Clustering
	}{
		{[]minhash.Signature{empty, a, b}, metrics.Clustering{0, 1, 1}},
		{[]minhash.Signature{a, empty, b}, metrics.Clustering{0, 1, 0}},
	} {
		src := NewSliceSource(c.sigs, minhash.MatchedPositions)
		geo := GeometryFor(len(a), 0)
		inc, err := NewIncremental(src, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		online := make(metrics.Clustering, len(c.sigs))
		for i := range online {
			if online[i], err = inc.Add(i); err != nil {
				t.Fatal(err)
			}
		}
		greedy, err := Greedy(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		banded, err := GreedyLSH(src, 0, geo)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]metrics.Clustering{"Greedy": greedy, "GreedyLSH": banded, "Incremental": online} {
			if !slices.Equal(got, c.want) {
				t.Errorf("%s: labels %v, want %v", name, got, c.want)
			}
		}
	}
}

func TestGreedyValidation(t *testing.T) {
	empty := NewSliceSource(nil, minhash.SetOverlap)
	if _, err := Greedy(empty, -0.1); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := Greedy(empty, 1.1); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
	if _, err := Greedy(empty, math.NaN()); err == nil {
		t.Fatal("threshold NaN accepted")
	}
}

func TestGreedyEmptyInput(t *testing.T) {
	c, err := Greedy(NewSliceSource(nil, minhash.SetOverlap), 0.5)
	if err != nil || len(c) != 0 {
		t.Fatalf("c=%v err=%v", c, err)
	}
}

func TestGreedyAllAssigned(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sk := minhash.MustSketcher(10, 5, seed)
		sigs := make([]minhash.Signature, 20)
		for i := range sigs {
			set := kmer.Set{}
			for k := 0; k < rng.Intn(30); k++ {
				set.Add(rng.Uint64() % kmer.FeatureSpace(5))
			}
			sigs[i] = sk.Sketch(set)
		}
		c, err := Greedy(NewSliceSource(sigs, minhash.MatchedPositions), 0.5)
		if err != nil {
			return false
		}
		for _, l := range c {
			if l < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyOrdered runs Algorithm 1 in an explicit processing order
// (reverse input order here), expressed as a permuted Subset of the
// source, and maps the labels back to input positions.
func TestGreedyOrdered(t *testing.T) {
	sigs, truth := sketchGroups(t, 3, 6, 7)
	order := make([]int, len(sigs))
	for i := range order {
		order[i] = len(sigs) - 1 - i // reverse order
	}
	got, err := Greedy(Subset(NewSliceSource(sigs, minhash.MatchedPositions), order), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c := make(metrics.Clustering, len(sigs))
	for k, i := range order {
		c[i] = got[k]
	}
	agreesWithTruth(t, c, truth, 3)
	if c[len(sigs)-1] != 0 {
		t.Fatalf("the first read processed got label %d, want 0", c[len(sigs)-1])
	}
}

func TestMatrixBasics(t *testing.T) {
	m := MustMatrix(3)
	if m.N() != 3 {
		t.Fatal("N wrong")
	}
	m.Set(0, 1, 0.5)
	if m.Get(0, 1) != 0.5 || m.Get(1, 0) != 0.5 {
		t.Fatal("Set/Get not symmetric")
	}
	if m.Get(2, 2) != 1 {
		t.Fatal("diagonal not 1")
	}
	m.Set(1, 1, 0.3) // ignored
	if m.Get(1, 1) != 1 {
		t.Fatal("diagonal overwritten")
	}
	if err := m.SetRow(0, []float64{1, 0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if m.Get(0, 2) != 0.75 {
		t.Fatal("SetRow failed")
	}
	if m.Get(2, 0) != 0.75 || m.Get(1, 0) != 0.25 {
		t.Fatal("SetRow did not write the mirror triangle")
	}
	if err := m.SetRow(0, []float64{1}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := NewMatrix(-1); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestParseLinkage(t *testing.T) {
	for s, want := range map[string]Linkage{"single": Single, "average": Average, "complete": Complete} {
		got, err := ParseLinkage(s)
		if err != nil || got != want {
			t.Fatalf("ParseLinkage(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q", got.String())
		}
	}
	if _, err := ParseLinkage("median"); err == nil {
		t.Fatal("bad linkage accepted")
	}
	if Linkage(9).String() != "unknown" {
		t.Fatal("unknown name")
	}
}

// knownMatrix builds the textbook 5-leaf example where hierarchical
// results are hand-checkable: two tight pairs plus an outlier.
func knownMatrix() *Matrix {
	m := MustMatrix(5)
	// leaves 0,1 similar (0.9); 2,3 similar (0.8); cross pairs 0.3;
	// leaf 4 dissimilar to everything (0.1).
	m.Set(0, 1, 0.9)
	m.Set(2, 3, 0.8)
	for _, p := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		m.Set(p[0], p[1], 0.3)
	}
	for i := 0; i < 4; i++ {
		m.Set(i, 4, 0.1)
	}
	return m
}

func TestHierarchicalKnownDendrogram(t *testing.T) {
	for _, link := range []Linkage{Single, Average, Complete} {
		d, err := Hierarchical(knownMatrix(), HierarchicalOptions{Linkage: link})
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Merges) != 4 {
			t.Fatalf("%v: %d merges, want 4", link, len(d.Merges))
		}
		// Cut at 0.7: {0,1}, {2,3}, {4}.
		c := d.CutAt(0.7)
		if c.NumClusters() != 3 || c[0] != c[1] || c[2] != c[3] || c[0] == c[2] || c[4] == c[0] || c[4] == c[2] {
			t.Fatalf("%v: cut at 0.7 = %v", link, c)
		}
		// Cut at 0.05: everything merges.
		if all := d.CutAt(0.05); all.NumClusters() != 1 {
			t.Fatalf("%v: cut at 0.05 = %v", link, all)
		}
		// Cut above 1: all singletons.
		if none := d.CutAt(1.01); none.NumClusters() != 5 {
			t.Fatalf("%v: cut at 1.01 = %v", link, none)
		}
	}
}

func TestHierarchicalLinkageDifference(t *testing.T) {
	// Chain topology: 0-1 (0.9), 1-2 (0.9), 0-2 (0.2).
	// Single linkage at θ=0.5 chains all three; complete linkage keeps
	// the far pair apart at a 3-way merge level near min(0.9, 0.2).
	build := func() *Matrix {
		m := MustMatrix(3)
		m.Set(0, 1, 0.9)
		m.Set(1, 2, 0.9)
		m.Set(0, 2, 0.2)
		return m
	}
	dSingle, err := Hierarchical(build(), HierarchicalOptions{Linkage: Single})
	if err != nil {
		t.Fatal(err)
	}
	if c := dSingle.CutAt(0.5); c.NumClusters() != 1 {
		t.Fatalf("single cut: %v", c)
	}
	dComplete, err := Hierarchical(build(), HierarchicalOptions{Linkage: Complete})
	if err != nil {
		t.Fatal(err)
	}
	if c := dComplete.CutAt(0.5); c.NumClusters() != 2 {
		t.Fatalf("complete cut: %v", c)
	}
}

func TestHierarchicalTrivialSizes(t *testing.T) {
	d, err := Hierarchical(MustMatrix(0), HierarchicalOptions{Linkage: Average})
	if err != nil || len(d.Merges) != 0 {
		t.Fatalf("size 0: %+v, %v", d, err)
	}
	d, err = Hierarchical(MustMatrix(1), HierarchicalOptions{Linkage: Average})
	if err != nil || len(d.Merges) != 0 {
		t.Fatalf("size 1: %+v, %v", d, err)
	}
	c := d.CutAt(0.5)
	if len(c) != 1 || c[0] != 0 {
		t.Fatalf("size-1 cut %v", c)
	}
}

func TestHierarchicalInvalidLinkage(t *testing.T) {
	if _, err := Hierarchical(MustMatrix(2), HierarchicalOptions{Linkage: Linkage(9)}); err == nil {
		t.Fatal("bad linkage accepted")
	}
}

func TestHierarchicalFromSignaturesRecoversGroups(t *testing.T) {
	sigs, truth := sketchGroups(t, 4, 8, 11)
	for _, link := range []Linkage{Single, Average, Complete} {
		c, err := HierarchicalFromSource(NewSliceSource(sigs, minhash.MatchedPositions), link, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		agreesWithTruth(t, c, truth, 4)
	}
}

func TestHierarchicalThresholdValidation(t *testing.T) {
	if _, err := HierarchicalFromSource(NewSliceSource(nil, minhash.MatchedPositions), Average, 1.5); err == nil {
		t.Fatal("bad threshold accepted")
	}
}

// TestHierarchicalMatchesNaive cross-checks NN-chain against a brute-force
// O(n³) implementation on random matrices.
func TestHierarchicalMatchesNaive(t *testing.T) {
	for _, link := range []Linkage{Single, Average, Complete} {
		for trial := 0; trial < 10; trial++ {
			rng := rand.New(rand.NewSource(int64(trial + 100)))
			n := 3 + rng.Intn(12)
			build := func() *Matrix {
				m := MustMatrix(n)
				r := rand.New(rand.NewSource(int64(trial + 100)))
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						m.Set(i, j, r.Float64())
					}
				}
				return m
			}
			d, err := Hierarchical(build(), HierarchicalOptions{Linkage: link})
			if err != nil {
				t.Fatal(err)
			}
			naive := naiveHierarchical(build(), link)
			for _, theta := range []float64{0.2, 0.5, 0.8} {
				got := d.CutAt(theta)
				want := naive.CutAt(theta)
				if !sameClustering(got, want) {
					t.Fatalf("link %v trial %d θ=%v: NN-chain %v vs naive %v", link, trial, theta, got, want)
				}
			}
		}
	}
}

// naiveHierarchical merges the globally most similar pair each round.
func naiveHierarchical(m *Matrix, link Linkage) *Dendrogram {
	n := m.N()
	d := &Dendrogram{N: n}
	active := make([]bool, n)
	size := make([]int, n)
	for i := range active {
		active[i], size[i] = true, 1
	}
	for rem := n; rem > 1; rem-- {
		bi, bj, best := -1, -1, -1.0
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if s := m.Get(i, j); s > best {
					best, bi, bj = s, i, j
				}
			}
		}
		d.Merges = append(d.Merges, Merge{A: bi, B: bj, Similarity: best})
		mergeInto(m, active, size, bi, bj, link)
	}
	return d
}

// sameClustering compares two clusterings up to label renaming.
func sameClustering(a, b metrics.Clustering) bool {
	if len(a) != len(b) {
		return false
	}
	fwd, rev := map[int]int{}, map[int]int{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if m, ok := rev[b[i]]; ok {
			if m != a[i] {
				return false
			}
		} else {
			rev[b[i]] = a[i]
		}
	}
	return true
}

func TestSimilarityMatrixValues(t *testing.T) {
	sk := minhash.MustSketcher(50, 5, 1)
	a := sk.Sketch(kmer.FromSlice([]uint64{1, 2, 3, 4}))
	b := sk.Sketch(kmer.FromSlice([]uint64{1, 2, 3, 4}))
	cst := sk.Sketch(kmer.FromSlice([]uint64{900, 901, 902}))
	m := SimilarityMatrix([]minhash.Signature{a, b, cst}, minhash.MatchedPositions)
	if m.Get(0, 1) != 1 {
		t.Fatalf("identical sets similarity %v", m.Get(0, 1))
	}
	if m.Get(0, 2) > 0.2 {
		t.Fatalf("disjoint sets similarity %v", m.Get(0, 2))
	}
}

func BenchmarkGreedy1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sk := minhash.MustSketcher(100, 10, 1)
	sigs := make([]minhash.Signature, 1000)
	for i := range sigs {
		set := kmer.Set{}
		for len(set) < 100 {
			set.Add(rng.Uint64() % kmer.FeatureSpace(10))
		}
		sigs[i] = sk.Sketch(set)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The source is built per iteration: preparing the signatures is
		// part of every batch clustering call.
		if _, err := Greedy(NewSliceSource(sigs, minhash.MatchedPositions), 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHierarchical500(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 500
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := MustMatrix(n)
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				m.Set(x, y, rng.Float64())
			}
		}
		b.StartTimer()
		if _, err := Hierarchical(m, HierarchicalOptions{Linkage: Average}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDendrogramMergesFormASpanningTree checks that each merge joins two
// clusters still apart, so a cut at θ leaves one cluster per leaf less
// one per merge at similarity ≥ θ.
func TestDendrogramMergesFormASpanningTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 12
	for _, link := range []Linkage{Single, Average, Complete} {
		m := MustMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, rng.Float64())
			}
		}
		d, err := Hierarchical(m, HierarchicalOptions{Linkage: link})
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Merges) != n-1 {
			t.Fatalf("%v: %d merges for %d leaves", link, len(d.Merges), n)
		}
		for _, cut := range d.Merges {
			above := 0
			for _, mg := range d.Merges {
				if mg.Similarity >= cut.Similarity {
					above++
				}
			}
			if got := d.CutAt(cut.Similarity).NumClusters(); got != n-above {
				t.Fatalf("%v: cut at %v gives %d clusters, want %d", link, cut.Similarity, got, n-above)
			}
		}
	}
}
