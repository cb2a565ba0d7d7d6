package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// declared reads the metric lists BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(names), len(workloads))
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsReportDeclaredMetrics runs every workload at a tiny size,
// untraced and traced, under two seeds: each run must be correct and
// report exactly the declared metrics with their declared units, every
// end-to-end metric non-zero.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, seed := range []int64{1, 2} {
				cfg := runConfig{seed: seed, iters: 2, workdir: t.TempDir(), trace: traced, tiny: true}
				res, err := run(w, cfg)
				if err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d",
						w.name, seed, traced, res.Correct, res.Attempted, res.Failed)
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
					case got.Unit != unit:
						t.Errorf("%s traced=%v: metric %s in %s, declared %s", w.name, traced, name, got.Unit, unit)
					case !traced && got.Value <= 0:
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, got.Value)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s traced=%v: %d metrics, declared %d", w.name, traced, len(res.Metrics), len(want))
				}
			}
		}
	}
}

// TestSeedChangesInputs: the same seed regenerates the same corpus and
// another seed a different one; TestWorkloadsReportDeclaredMetrics shows
// the metric set does not change with the seed.
func TestSeedChangesInputs(t *testing.T) {
	spec := corpusSpec{groups: 20, members: 10, length: 100, mutRate: 0.01}
	a, b, c := spec.generate(1), spec.generate(1), spec.generate(2)
	if string(a.fastaBytes()) != string(b.fastaBytes()) {
		t.Fatal("seed 1 generated two different corpora")
	}
	if string(a.fastaBytes()) == string(c.fastaBytes()) {
		t.Fatal("seeds 1 and 2 generated the same corpus")
	}
}

// TestLayersExercised: on its own workload each layer reports work.
func TestLayersExercised(t *testing.T) {
	want := map[string][]string{
		"alg3-pig-exact": {"pig.op_s.FOREACH", "mapreduce.jobs", "mapreduce.shuffle_bytes", "mapreduce.virtual_map_s", "dfs.write_s"},
		"lsh-cc-65k":     {"cluster.candidate_pairs", "cluster.edges", "cluster.cc_rounds", "mapreduce.reduce_records", "sigstore.resident_bytes"},
		"serve-ingest":   {"serve.commit_ms", "serve.wal_sync_us", "serve.decode_us", "serve.drain_s", "serve.sig_bytes", "serve.point_lookup_ns", "serve.submit_p99_ms"},
	}
	for _, w := range workloads {
		res, err := run(w, runConfig{seed: 3, iters: 2, workdir: t.TempDir(), trace: true, tiny: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, name := range want[w.name] {
			if res.Metrics[name].Value == 0 {
				t.Errorf("%s: %s reads 0 on its own workload", w.name, name)
			}
		}
	}
}

// TestCalibrationNormalizes: a region run at the calibrated speed of the
// reference machine keeps its time, one run at half speed is halved.
func TestCalibrationNormalizes(t *testing.T) {
	if s := slowdown(refCalibration, refCalibration); s != 1 {
		t.Fatalf("slowdown at reference speed = %v, want 1", s)
	}
	slow := slowdown(2*refCalibration, 2*refCalibration)
	if got := normalized([]float64{3, 5}, []float64{1, slow}); got[0] != 3 || got[1] != 2.5 {
		t.Fatalf("normalized = %v, want [3 2.5]", got)
	}
	if d := calibrate(); d <= 0 {
		t.Fatalf("calibrate = %v", d)
	}
}
