package core

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/cluster"
)

// scaleOptions is the shared configuration of the scaling benchmarks: a
// short signature keeps the per-comparison cost low so the *number* of
// comparisons — the quantity the LSH stage attacks — dominates the
// measurement. The explicit 4×6 geometry keeps band-collision recall at
// θ=0.9 high (1-(1-0.9⁶)⁴ ≈ 0.95) without needing 100 hashes.
func scaleOptions() Options {
	return Options{
		K:         8,
		NumHashes: 24,
		Theta:     0.9,
		Mode:      GreedyMode,
		Cluster:   smallCluster(),
	}
}

// lshScaleGeometry is the 24-slot banding used by the scale benchmarks
// and the million-read run (see scaleOptions for the recall math).
var lshScaleGeometry = cluster.LSHOptions{Bands: 4, Rows: 6}

// The benchmark datasets are built in groups of 10 near-duplicates: the
// group count — and with it the number of clusters — grows linearly with
// N, the regime where exact greedy degenerates to Θ(N²/20) representative
// scans (every read is compared against every preceding cluster) while
// the LSH path only ever verifies bucket collisions.

// BenchmarkClusterExactScale measures the exact all-pairs greedy pipeline
// at growing read counts. Together with BenchmarkClusterLSHCCScale this
// feeds BENCH_lsh.json: quadrupling N should roughly 16× the exact path
// but stay well under 8× for the LSH path.
func BenchmarkClusterExactScale(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			reads, _ := makeReads(n/10, 10, 100, 0.004, 1)
			opt := scaleOptions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(reads, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterLSHCCScale measures the sub-quadratic path — banded
// candidate generation, θ-verification, logarithmic-round connected
// components, per-component clustering — one size further than the exact
// benchmark can afford.
func BenchmarkClusterLSHCCScale(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			reads, _ := makeReads(n/10, 10, 100, 0.004, 1)
			opt := scaleOptions()
			opt.Candidate = CandidateLSH
			opt.LSH = lshScaleGeometry
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(reads, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Counters["lsh.candidate_pairs"]), "cand-pairs")
				}
			}
		})
	}
}

// TestClusterLSHCCMillionReads is the end-to-end scale run of ISSUE 7:
// one million synthetic reads (100k clusters of 10 near-duplicates)
// through the full LSH+CC pipeline with the external spill-and-merge
// shuffle enabled. It takes minutes and real memory, so it only runs when
// explicitly requested:
//
//	LSH_1M=1 go test -run ClusterLSHCCMillionReads -timeout 60m ./internal/core/
//
// The run goes through the signature store (the StoreBits zero
// value); LSH_1M_STORE_BITS selects b-bit packing (e.g. 4) so the
// nightly can exercise the compressed arena at scale.
func TestClusterLSHCCMillionReads(t *testing.T) {
	if os.Getenv("LSH_1M") == "" {
		t.Skip("set LSH_1M=1 to run the million-read end-to-end test")
	}
	const groups, members = 100_000, 10
	reads, _ := makeReads(groups, members, 100, 0.002, 7)
	opt := scaleOptions()
	opt.Candidate = CandidateLSH
	opt.LSH = lshScaleGeometry
	opt.ShuffleBufferBytes = 4 << 20 // force the external shuffle end-to-end
	if s := os.Getenv("LSH_1M_STORE_BITS"); s != "" {
		bits, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("LSH_1M_STORE_BITS=%q: %v", s, err)
		}
		opt.StoreBits = bits
	}
	res, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Assignments.NumClusters()
	t.Logf("1M reads -> %d clusters in %v (modelled %v, %d jobs)", n, res.Real, res.Virtual, res.Jobs)
	t.Logf("counters: pairs=%d edges=%d cc.rounds=%d spills=%d",
		res.Counters["lsh.candidate_pairs"], res.Counters["lsh.edges"],
		res.Counters["cc.rounds"], res.Counters["shuffle.spills"])
	t.Logf("sigstore: %d reads, %d resident signature bytes (b=%d)",
		res.Counters["sigstore.reads"], res.Counters["sigstore.resident_bytes"], opt.StoreBits)
	// The grouping is generous (near-duplicate members, θ=0.9): the
	// cluster count must land near the planted 100k, not at 1M singletons
	// (no candidates found) nor collapse toward a handful (bucket soup).
	if n < groups/2 || n > groups*3 {
		t.Fatalf("got %d clusters for %d planted groups", n, groups)
	}
	if res.Counters["shuffle.spills"] == 0 {
		t.Fatal("external shuffle produced no spills at 1M reads")
	}
}
