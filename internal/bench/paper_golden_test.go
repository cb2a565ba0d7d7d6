package bench

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// checkPaperGolden compares each line with the line of the same key (its
// first field) in testdata/paper.golden, which pins every deterministic
// column the experiment tests compute: Table III–V cluster counts, W.Acc,
// W.Sim and T.model, the Figure 2 grid's modelled times and the ablations'
// values. Wall-clock columns are not pinned. A mismatch prints the actual
// line; there is no update flag.
func checkPaperGolden(t *testing.T, lines []string) {
	t.Helper()
	data, err := os.ReadFile("testdata/paper.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if key, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			want[key] = line
		}
	}
	for _, got := range lines {
		key, _, _ := strings.Cut(got, " ")
		if got != want[key] {
			t.Errorf("%s: line differs from testdata/paper.golden (recorded: %q); actual line:\n%s", key, want[key], got)
		}
	}
}

// exactFloat formats a float exactly (shortest round-trip form).
func exactFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// rowLines renders table rows as golden lines keyed table/dataset/method.
// W.Acc and W.Sim read "-" where the row has none.
func rowLines(table string, rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		acc, sim := "-", "-"
		if r.Summary.HasAcc {
			acc = exactFloat(r.Summary.WAcc)
		}
		if r.Summary.HasSim {
			sim = exactFloat(r.Summary.WSim)
		}
		out[i] = fmt.Sprintf("%s/%s/%s clusters=%d wacc=%s wsim=%s model=%d",
			table, r.Dataset, r.Method, r.Summary.NumClusters, acc, sim, int64(r.Model))
	}
	return out
}

func figure2Lines(points []Figure2Point) []string {
	out := make([]string, len(points))
	for i, p := range points {
		out[i] = fmt.Sprintf("figure2/%d/%d runtime=%d executed=%t", p.Reads, p.Nodes, int64(p.Runtime), p.Executed)
	}
	return out
}

func ablationLines(points []AblationPoint) []string {
	out := make([]string, len(points))
	for i, p := range points {
		out[i] = fmt.Sprintf("theta-hashes/%s/%s/%d clusters=%d wacc=%s", p.Mode, exactFloat(p.Theta), p.NumHashes, p.Clusters, exactFloat(p.WAcc))
	}
	return out
}

func estimatorLines(points []EstimatorPoint) []string {
	out := make([]string, len(points))
	for i, p := range points {
		out[i] = fmt.Sprintf("estimator/%s/%d mae=%s bias=%s", p.Estimator, p.NumHashes, exactFloat(p.MAE), exactFloat(p.Bias))
	}
	return out
}

func speculativeLines(points []SpeculativePoint) []string {
	out := make([]string, len(points))
	for i, p := range points {
		out[i] = fmt.Sprintf("speculative/%d/%d clean=%d straggled=%d speculative=%d",
			p.Reads, p.Nodes, int64(p.Clean), int64(p.Straggled), int64(p.Speculative))
	}
	return out
}

func errorModelLines(points []ErrorModelPoint) []string {
	out := make([]string, len(points))
	for i, p := range points {
		out[i] = fmt.Sprintf("error-model/%s taxa=%d reads=%d clusters=%d wacc=%s", p.Channel, p.Taxa, p.Reads, p.Clusters, exactFloat(p.WAccPct))
	}
	return out
}

func bbitLines(points []BBitPoint) []string {
	out := make([]string, len(points))
	for i, p := range points {
		out[i] = fmt.Sprintf("bbit/%d bytes=%d mae=%s bias=%s compression=%s", p.Bits, p.BytesPer, exactFloat(p.MAE), exactFloat(p.Bias), exactFloat(p.Compressio))
	}
	return out
}
