package bench

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/simulate"
)

// tinyConfig keeps experiment tests fast.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.004
	cfg.SimOptions.MaxPairsPerCluster = 20
	return cfg
}

func TestJaccardThresholdForIdentity(t *testing.T) {
	// Identity 1 -> Jaccard 1.
	if got := JaccardThresholdForIdentity(1, 15); got != 1 {
		t.Fatalf("J(1) = %v", got)
	}
	// Monotone in identity.
	prev := -1.0
	for _, id := range []float64{0.8, 0.9, 0.95, 0.99} {
		j := JaccardThresholdForIdentity(id, 15)
		if j <= prev {
			t.Fatalf("not monotone at %v", id)
		}
		prev = j
	}
	// Known value: 0.95^15 / (2 - 0.95^15) ≈ 0.30.
	j := JaccardThresholdForIdentity(0.95, 15)
	if j < 0.28 || j > 0.33 {
		t.Fatalf("J(0.95, 15) = %v", j)
	}
	// Larger k -> stricter mapping.
	if JaccardThresholdForIdentity(0.95, 20) >= j {
		t.Fatal("larger k should reduce the Jaccard threshold")
	}
}

func TestTable3ShapeOnS9(t *testing.T) {
	if testing.Short() {
		t.Skip("slow end-to-end table run")
	}
	cfg := tinyConfig()
	// The greedy-faster-than-hierarchical model shape needs enough reads
	// that the O(N²) similarity phase outweighs fixed job overheads —
	// exactly as on real Hadoop, where tiny jobs are startup-dominated.
	cfg.Scale = 0.012
	rows, err := Table3(cfg, []string{"S9"})
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, rowLines("table3", rows))
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byMethod := map[string]Row{}
	for _, r := range rows {
		if r.Dataset != "S9" {
			t.Fatalf("dataset %q", r.Dataset)
		}
		byMethod[r.Method] = r
	}
	h, g, m := byMethod["MrMC-MinH^h"], byMethod["MrMC-MinH^g"], byMethod["MetaCluster"]
	// Paper shape: hierarchical W.Acc >= greedy >= MetaCluster (within a
	// couple points), and the MrMC modes report a model time.
	if !h.Summary.HasAcc || !g.Summary.HasAcc {
		t.Fatal("accuracy missing")
	}
	if h.Summary.WAcc < g.Summary.WAcc-2 {
		t.Errorf("hierarchical W.Acc %.1f below greedy %.1f", h.Summary.WAcc, g.Summary.WAcc)
	}
	if h.Summary.WAcc < m.Summary.WAcc-2 {
		t.Errorf("hierarchical W.Acc %.1f below MetaCluster %.1f", h.Summary.WAcc, m.Summary.WAcc)
	}
	if h.Model <= 0 || g.Model <= 0 {
		t.Error("MrMC rows missing model time")
	}
	if m.Model != 0 {
		t.Error("baseline row has model time")
	}
	if g.Model >= h.Model {
		t.Errorf("greedy model time %v not below hierarchical %v", g.Model, h.Model)
	}
	// Table III reports ground truth for simulated samples.
	if h.Summary.NumClusters < 1 {
		t.Error("no clusters survived trimming")
	}
}

func TestTable3R1HasNoAccuracy(t *testing.T) {
	rows, err := Table3(tinyConfig(), []string{"R1"})
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, rowLines("table3", rows))
	for _, r := range rows {
		if r.Summary.HasAcc {
			t.Errorf("%s reports accuracy for R1 (no ground truth)", r.Method)
		}
	}
}

func TestTable3UnknownSample(t *testing.T) {
	if _, err := Table3(tinyConfig(), []string{"S99"}); err == nil {
		t.Fatal("unknown sample accepted")
	}
}

func TestTable4AllMethodsBothErrorRates(t *testing.T) {
	if testing.Short() {
		t.Skip("slow end-to-end table run")
	}
	cfg := tinyConfig()
	cfg.Scale = 0.0006 // ~200 reads
	rows, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, rowLines("table4", rows))
	if len(rows) != 16 {
		t.Fatalf("got %d rows, want 16 (8 methods x 2 error rates)", len(rows))
	}
	datasets := map[string]int{}
	for _, r := range rows {
		datasets[r.Dataset]++
		if r.Summary.HasSim && (r.Summary.WSim < 80 || r.Summary.WSim > 100) {
			t.Errorf("%s/%s W.Sim %.1f implausible", r.Dataset, r.Method, r.Summary.WSim)
		}
	}
	if datasets["err3%"] != 8 || datasets["err5%"] != 8 {
		t.Fatalf("datasets %v", datasets)
	}
}

func TestTable5OneSampleShape(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.015
	rows, err := Table5(cfg, []string{"55R"})
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, rowLines("table5", rows))
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	var hier, dotur Row
	for _, r := range rows {
		switch r.Method {
		case "MrMC-MinH^h":
			hier = r
		case "DOTUR":
			dotur = r
		}
	}
	// Paper's Table V claims: MrMC-MinH^h produces similar W.Sim with
	// fewer clusters than DOTUR, and runs orders of magnitude faster than
	// the alignment-matrix methods.
	if hier.Summary.NumClusters > dotur.Summary.NumClusters {
		t.Errorf("MrMC-h clusters %d above DOTUR %d", hier.Summary.NumClusters, dotur.Summary.NumClusters)
	}
	if hier.Summary.HasSim && dotur.Summary.HasSim {
		if diff := dotur.Summary.WSim - hier.Summary.WSim; diff > 6 {
			t.Errorf("W.Sim gap %.1f too large", diff)
		}
	}
	if hier.Summary.Elapsed > dotur.Summary.Elapsed {
		t.Errorf("MrMC-h measured %v slower than DOTUR %v", hier.Summary.Elapsed, dotur.Summary.Elapsed)
	}
}

func TestTableRendering(t *testing.T) {
	rows := []Row{
		{Dataset: "S1", Method: "A", Summary: summaryWith("A", 5), Model: time.Minute},
		{Dataset: "S1", Method: "B", Summary: summaryWith("B", 7)},
		{Dataset: "S2", Method: "A", Summary: summaryWith("A", 2)},
	}
	out := Table("Title", rows)
	for _, frag := range []string{"Title", "S1", "S2", "T.model", "1m 00s"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table output missing %q:\n%s", frag, out)
		}
	}
	// Second S1 row should not repeat the SID.
	if strings.Count(out, "S1") != 1 {
		t.Errorf("SID repeated:\n%s", out)
	}
}

func summaryWith(name string, clusters int) metrics.Summary {
	return metrics.Summary{Name: name, NumClusters: clusters, Elapsed: time.Second}
}

func TestFigure2GridAndShape(t *testing.T) {
	cfg := Figure2Config{
		Nodes:        []int{2, 8},
		Reads:        []int{200, 1000000},
		ExecuteLimit: 300,
		Seed:         1,
	}
	points, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, figure2Lines(points))
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	byKey := map[[2]int]Figure2Point{}
	for _, p := range points {
		byKey[[2]int{p.Reads, p.Nodes}] = p
	}
	small2, small8 := byKey[[2]int{200, 2}], byKey[[2]int{200, 8}]
	big2, big8 := byKey[[2]int{1000000, 2}], byKey[[2]int{1000000, 8}]
	if !small2.Executed || big2.Executed {
		t.Fatalf("execute/model split wrong: %+v %+v", small2, big2)
	}
	if big8.Runtime >= big2.Runtime {
		t.Errorf("1M reads: 8 nodes %v not faster than 2 nodes %v", big8.Runtime, big2.Runtime)
	}
	ratio := float64(small2.Runtime) / float64(small8.Runtime)
	if ratio > 1.6 {
		t.Errorf("200 reads should be overhead-flat: 2n=%v 8n=%v", small2.Runtime, small8.Runtime)
	}
	out := FormatFigure2(points)
	for _, frag := range []string{"Figure 2", "1000000", "(modelled)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("figure output missing %q:\n%s", frag, out)
		}
	}
}

func TestAblationThetaHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow parameter sweep")
	}
	cfg := tinyConfig()
	cfg.Scale = 0.002
	points, err := AblationThetaHashes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, ablationLines(points))
	if len(points) != 20 {
		t.Fatalf("got %d points, want 20", len(points))
	}
	// Within one mode and hash count, cluster count grows with theta.
	prev := -1
	for _, p := range points {
		if p.Mode.String() == "MrMC-MinH^g" && p.NumHashes == 100 {
			if prev >= 0 && p.Clusters < prev {
				t.Errorf("greedy clusters not monotone in theta: %d after %d", p.Clusters, prev)
			}
			prev = p.Clusters
		}
	}
	if !strings.Contains(FormatAblation(points), "theta") {
		t.Error("ablation formatting broken")
	}
}

func TestEstimatorAblation(t *testing.T) {
	points, err := EstimatorAblation(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, estimatorLines(points))
	if len(points) != 8 {
		t.Fatalf("got %d points, want 8", len(points))
	}
	// Matched-positions error shrinks as hashes grow.
	var m25, m200 float64
	for _, p := range points {
		if p.Estimator == minhash.MatchedPositions {
			switch p.NumHashes {
			case 25:
				m25 = p.MAE
			case 200:
				m200 = p.MAE
			}
		}
	}
	if m200 >= m25 {
		t.Errorf("matched-positions MAE not shrinking: n=25 %.4f vs n=200 %.4f", m25, m200)
	}
	// The set-overlap estimator carries a visible bias; matched-positions
	// is near-unbiased at high hash counts.
	for _, p := range points {
		if p.Estimator == minhash.MatchedPositions && p.NumHashes == 200 {
			if p.Bias > 0.05 || p.Bias < -0.05 {
				t.Errorf("matched-positions bias %.4f at n=200", p.Bias)
			}
		}
	}
	if !strings.Contains(FormatEstimator(points), "estimator") {
		t.Error("estimator formatting broken")
	}
}

func TestAblationSpeculative(t *testing.T) {
	points := AblationSpeculative(1000000, []int{2, 8}, 100)
	checkPaperGolden(t, speculativeLines(points))
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Straggled <= p.Clean {
			t.Errorf("nodes=%d: stragglers did not slow the model", p.Nodes)
		}
		if p.Speculative >= p.Straggled {
			t.Errorf("nodes=%d: speculation did not help", p.Nodes)
		}
		if p.Speculative < p.Clean {
			t.Errorf("nodes=%d: speculation beat the clean run", p.Nodes)
		}
	}
	if !strings.Contains(FormatSpeculative(points), "recovered") {
		t.Error("speculative formatting broken")
	}
}

func TestAblationErrorModel(t *testing.T) {
	points, err := AblationErrorModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, errorModelLines(points))
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Clusters < p.Taxa {
			t.Errorf("%s: %d clusters below %d taxa", p.Channel, p.Clusters, p.Taxa)
		}
		if p.WAccPct < 95 {
			t.Errorf("%s: accuracy %.1f", p.Channel, p.WAccPct)
		}
	}
	if !strings.Contains(FormatErrorModel(points), "inflation") {
		t.Error("error-model formatting broken")
	}
}

func TestAblationBBit(t *testing.T) {
	points, err := AblationBBit(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, bbitLines(points))
	if len(points) != 5 {
		t.Fatalf("got %d points", len(points))
	}
	full := points[0]
	if full.Bits != 0 || full.Compressio != 1 {
		t.Fatalf("baseline %+v", full)
	}
	// Error decreases as bits grow; b=8 should be near the full signature.
	for i := 2; i < len(points); i++ {
		if points[i].MAE > points[i-1].MAE+0.01 {
			t.Errorf("MAE not improving with bits: %+v then %+v", points[i-1], points[i])
		}
	}
	if points[len(points)-1].MAE > full.MAE+0.01 {
		t.Errorf("b=8 MAE %v far above full %v", points[len(points)-1].MAE, full.MAE)
	}
	// Compression ratios: b=1 is 64x smaller than 64-bit slots.
	if points[1].Compressio != 64 {
		t.Errorf("b=1 compression %v", points[1].Compressio)
	}
	if !strings.Contains(FormatBBit(points), "compression") {
		t.Error("formatting broken")
	}
}

func TestFigure2SVG(t *testing.T) {
	cfg := Figure2Config{Nodes: []int{2, 8}, Reads: []int{1000, 100000}, Seed: 1}
	points, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, figure2Lines(points))
	svg := Figure2SVG(points)
	for _, frag := range []string{"<svg", "</svg>", "1k reads", "100k reads", "<path", "nodes"} {
		if !strings.Contains(svg, frag) {
			t.Errorf("svg missing %q", frag)
		}
	}
	if strings.Contains(svg, "NaN") || strings.Contains(svg, "Inf") {
		t.Error("svg contains invalid coordinates")
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int]string{1000: "1k", 10000000: "10M", 1500: "1500", 250000: "250k"}
	for n, want := range cases {
		if got := humanCount(n); got != want {
			t.Errorf("humanCount(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestRuntimeScaling takes each method's best of three runs at each scale
// before comparing ratios: RuntimeScaling times one wall-clock sample per
// point, and on a loaded host a single sample can run several times slow.
func TestRuntimeScaling(t *testing.T) {
	var points []ScalingPoint
	for run := 0; run < 3; run++ {
		got, err := RuntimeScaling([]float64{0.005, 0.02}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if points == nil {
			points = got
		}
		for i := range points {
			points[i].Greedy = min(points[i].Greedy, got[i].Greedy)
			points[i].Dotur = min(points[i].Dotur, got[i].Dotur)
			points[i].Ratio = float64(points[i].Dotur) / float64(points[i].Greedy)
		}
	}
	if len(points) != 2 {
		t.Fatalf("points %d", len(points))
	}
	if points[1].Reads <= points[0].Reads {
		t.Fatal("reads not growing")
	}
	// DOTUR's quadratic cost must outpace the sketch clusterer as N grows.
	if points[1].Ratio <= points[0].Ratio*0.8 {
		t.Fatalf("divergence not visible: ratios %.1f then %.1f", points[0].Ratio, points[1].Ratio)
	}
	if !strings.Contains(FormatScaling(points), "DOTUR") {
		t.Error("formatting broken")
	}
}

func TestSampleLists(t *testing.T) {
	t3 := Table3Samples()
	if len(t3) != 13 || t3[0] != "S1" || t3[11] != "S12" || t3[12] != "R1" {
		t.Fatalf("Table III samples %v, want S1–S12 and R1", t3)
	}
	for _, sid := range t3[:12] {
		if _, err := simulate.TableIISpec(sid); err != nil {
			t.Errorf("Table III sample %s: %v", sid, err)
		}
	}
	t5 := Table5Samples()
	if len(t5) != 8 {
		t.Fatalf("Table V samples %v, want the eight environmental samples", t5)
	}
	for i, s := range simulate.TableI() {
		if t5[i] != s.SID {
			t.Fatalf("Table V sample %d is %s, want %s", i, t5[i], s.SID)
		}
	}
}

func TestDefaultFigure2ConfigIsThePaperGrid(t *testing.T) {
	cfg := DefaultFigure2Config()
	if !slices.Equal(cfg.Nodes, []int{2, 4, 6, 8, 10, 12}) {
		t.Errorf("nodes %v", cfg.Nodes)
	}
	if !slices.Equal(cfg.Reads, []int{1e3, 1e4, 1e5, 1e6, 1e7}) {
		t.Errorf("reads %v", cfg.Reads)
	}
	if cfg.ExecuteLimit != 0 {
		t.Errorf("ExecuteLimit %d: every printed point must come from the cost model", cfg.ExecuteLimit)
	}
}
