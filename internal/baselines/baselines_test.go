package baselines

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/simulate"
)

// testSample builds a small whole-metagenome-like sample with well
// separated groups (order-level divergence) for recovery tests.
func testSample(t *testing.T, groups, perGroup, readLen int, seed int64) ([]fasta.Record, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base, err := simulate.GenerateGenome("g0", 20*readLen, 0.35+0.3*rng.Float64(), seed)
	if err != nil {
		t.Fatal(err)
	}
	genomes := []*simulate.Genome{base}
	for gi := 1; gi < groups; gi++ {
		g, err := simulate.GenerateGenome(fmt.Sprintf("g%d", gi), 20*readLen, 0.35+0.3*rng.Float64(), seed+int64(gi))
		if err != nil {
			t.Fatal(err)
		}
		genomes = append(genomes, g)
	}
	weights := make([]float64, groups)
	for i := range weights {
		weights[i] = 1
	}
	comm, err := simulate.NewCommunity(genomes, weights)
	if err != nil {
		t.Fatal(err)
	}
	reads, truth, err := comm.Reads(simulate.ReadOptions{
		Count: groups * perGroup, Length: readLen, Jitter: readLen / 20,
		ErrorRate: 0.005, Seed: seed + 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reads, truth
}

// amplicon16S builds a small 16S-style sample: near-identical reads per
// taxon (alignment identity within taxon >> across taxa).
func amplicon16S(t *testing.T, taxa, per int, errRate float64, seed int64) ([]fasta.Record, []string) {
	t.Helper()
	reads, truth, err := simulate.Amplicons(simulate.AmpliconOptions{
		Taxa: taxa, ReadsPerTaxon: per, ReadLength: 80, ErrorRate: errRate, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reads, truth
}

func accuracyOf(t *testing.T, c metrics.Clustering, truth []string) float64 {
	t.Helper()
	acc, err := metrics.WeightedAccuracy(c, truth)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestAllMethodsListed(t *testing.T) {
	methods := All()
	if len(methods) != 7 {
		t.Fatalf("got %d methods, want 7", len(methods))
	}
	names := map[string]bool{}
	for _, m := range methods {
		names[m.Name()] = true
	}
	for _, want := range []string{"CD-HIT", "UCLUST", "ESPRIT", "DOTUR", "Mothur", "MC-LSH", "MetaCluster"} {
		if !names[want] {
			t.Errorf("method %s missing", want)
		}
	}
	if _, err := ByName("UCLUST"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestOptionsValidation(t *testing.T) {
	for _, m := range All() {
		if _, err := m.Cluster(nil, Options{Threshold: -1}); err == nil {
			t.Errorf("%s accepted bad threshold", m.Name())
		}
	}
	if err := (Options{Threshold: 0.5, WordSize: 99}).Validate(); err == nil {
		t.Error("bad word size accepted")
	}
}

func TestAllMethodsAssignEveryRead(t *testing.T) {
	reads, _ := amplicon16S(t, 5, 8, 0.01, 1)
	for _, m := range All() {
		c, err := m.Cluster(reads, Options{Threshold: 0.9, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(c) != len(reads) {
			t.Fatalf("%s: %d assignments for %d reads", m.Name(), len(c), len(reads))
		}
		for i, l := range c {
			if l < 0 {
				t.Fatalf("%s: read %d unassigned", m.Name(), i)
			}
		}
	}
}

func TestAlignmentBasedMethodsRecoverTaxa(t *testing.T) {
	reads, truth := amplicon16S(t, 6, 10, 0.01, 2)
	for _, m := range []Method{CDHit{}, UClust{}, Dotur{}, Mothur{}, Esprit{}} {
		c, err := m.Cluster(reads, Options{Threshold: 0.9, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if acc := accuracyOf(t, c, truth); acc < 95 {
			t.Errorf("%s: accuracy %.1f", m.Name(), acc)
		}
		nc := c.NumClusters()
		// ESPRIT's word distance over-estimates alignment distance, so it
		// over-clusters heavily (paper Table IV: 180 clusters for 43 taxa).
		limit := 18
		if m.Name() == "ESPRIT" {
			limit = 45
		}
		if nc < 6 || nc > limit {
			t.Errorf("%s: %d clusters for 6 taxa", m.Name(), nc)
		}
	}
}

func TestMCLSHRecoversTaxa(t *testing.T) {
	reads, truth := amplicon16S(t, 6, 10, 0.005, 3)
	c, err := MCLSH{}.Cluster(reads, Options{Threshold: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(t, c, truth); acc < 90 {
		t.Errorf("MC-LSH accuracy %.1f", acc)
	}
}

// TestMCLSHMatchesGoldens pins MC-LSH to the assignments recorded in
// testdata/mclsh.golden on Table II samples whose band buckets hold many
// representatives, so the candidate order decides labels. On a mismatch
// it prints the actual line, ready to paste in when the change is
// intended.
func TestMCLSHMatchesGoldens(t *testing.T) {
	data, err := os.ReadFile("testdata/mclsh.golden")
	if err != nil {
		t.Fatal(err)
	}
	goldens := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, labels, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			goldens[name] = labels
		}
	}
	for _, sid := range []string{"S1", "S2", "S3"} {
		spec, err := simulate.TableIISpec(sid)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			reads, _, err := simulate.BuildWholeMetagenome(spec, 0.002, 0.01, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, theta := range []float64{0.3, 0.5, 0.7} {
				c, err := MCLSH{}.Cluster(reads, Options{Threshold: theta, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/seed=%d/theta=%.1f", sid, seed, theta)
				got := strings.Trim(fmt.Sprint([]int(c)), "[]")
				if want, ok := goldens[name]; !ok || got != want {
					t.Errorf("%s differs from testdata/mclsh.golden (recorded: %t); actual line:\n%s %s", name, ok, name, got)
				}
			}
		}
	}
}

func TestMetaClusterSeparatesByComposition(t *testing.T) {
	// Two genomes with very different GC: composition binning should
	// separate their reads.
	a, _ := simulate.GenerateGenome("lowGC", 20000, 0.25, 4)
	b, _ := simulate.GenerateGenome("highGC", 20000, 0.70, 5)
	comm, _ := simulate.NewCommunity([]*simulate.Genome{a, b}, []float64{1, 1})
	reads, truth, err := comm.Reads(simulate.ReadOptions{Count: 60, Length: 800, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := MetaCluster{}.Cluster(reads, Options{Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(t, c, truth); acc < 90 {
		t.Errorf("MetaCluster accuracy %.1f with clusters=%d", acc, c.NumClusters())
	}
}

func TestMetaClusterEmptyInput(t *testing.T) {
	c, err := MetaCluster{}.Cluster(nil, Options{Threshold: 0.9})
	if err != nil || len(c) != 0 {
		t.Fatalf("c=%v err=%v", c, err)
	}
}

func TestCDHitLongestFirstRepresentatives(t *testing.T) {
	// CD-HIT clusters around the longest sequence: feed a short fragment
	// of a long read; the long read should seed the cluster.
	long := []byte("ACGTACGGTTCAGGCATTACGGATCAGGTTACGGATTACGAATTCCGGAAGGTTACGATC")
	short := long[:40]
	reads := []fasta.Record{
		{ID: "short", Seq: short},
		{ID: "long", Seq: long},
	}
	c, err := CDHit{}.Cluster(reads, Options{Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if c[0] != c[1] {
		t.Fatalf("fragment did not join its source: %v", c)
	}
}

func TestGreedyOrderSensitivityDiffersAcrossMethods(t *testing.T) {
	// UCLUST processes input order, CD-HIT length order — with mixed
	// lengths they can produce different cluster counts; both remain valid
	// partitions of all reads.
	reads, _ := testSample(t, 3, 15, 300, 7)
	u, err := UClust{}.Cluster(reads, Options{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CDHit{}.Cluster(reads, Options{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != len(d) {
		t.Fatal("length mismatch")
	}
}

func TestEspritPruningStillSeparates(t *testing.T) {
	reads, truth := testSample(t, 4, 8, 200, 8)
	c, err := Esprit{}.Cluster(reads, Options{Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// Reads from distinct random genomes share few words; ESPRIT should
	// not merge across genomes.
	if acc := accuracyOf(t, c, truth); acc < 95 {
		t.Errorf("ESPRIT accuracy %.1f", acc)
	}
}

// TestRuntimeOrdering verifies the paper's Table V runtime shape on a
// small 16S sample: sketch/greedy methods are much faster than the
// alignment-matrix methods (DOTUR/Mothur).
func TestRuntimeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime comparison skipped in -short mode")
	}
	reads, _ := amplicon16S(t, 20, 15, 0.01, 9)
	timeOf := func(m Method, opt Options) time.Duration {
		start := time.Now()
		if _, err := m.Cluster(reads, opt); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	fast := timeOf(MCLSH{}, Options{Threshold: 0.5, Seed: 9})
	slow := timeOf(Mothur{}, Options{Threshold: 0.9})
	if slow < fast {
		t.Errorf("Mothur (%v) faster than MC-LSH (%v) — Table V shape broken", slow, fast)
	}
}

func BenchmarkCDHit300Reads(b *testing.B) {
	reads, _, err := simulate.Amplicons(simulate.AmpliconOptions{Taxa: 20, ReadsPerTaxon: 15, ReadLength: 80, ErrorRate: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (CDHit{}).Cluster(reads, Options{Threshold: 0.95}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDotur300Reads(b *testing.B) {
	reads, _, err := simulate.Amplicons(simulate.AmpliconOptions{Taxa: 20, ReadsPerTaxon: 15, ReadLength: 80, ErrorRate: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Dotur{}).Cluster(reads, Options{Threshold: 0.95}); err != nil {
			b.Fatal(err)
		}
	}
}
