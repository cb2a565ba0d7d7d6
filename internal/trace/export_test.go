package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// goldenSpans is a fixed miniature run: one Pig operator wrapping one job
// with two map tasks, a shuffle transfer, a reduce task and a DFS read.
func goldenSpans() []Span {
	ms := time.Millisecond
	return []Span{
		{ID: 1, Kind: KindPigOp, Name: "FOREACH B", Node: -1, VStart: 0, VDur: 26000 * ms, RDur: 1500 * time.Microsecond},
		{ID: 2, Parent: 1, Kind: KindJob, Name: "foreach-B", Node: -1, VStart: 0, VDur: 26000 * ms, RDur: 1200 * time.Microsecond},
		{ID: 3, Parent: 2, Kind: KindDFSRead, Name: "dfs.read", Node: 1, Bytes: 4096, Detail: "/in/reads.fa", VStart: 0},
		{ID: 4, Parent: 2, Kind: KindMap, Name: "foreach-B/map[0]", Node: 0, Records: 100, Bytes: 2048, VStart: 20000 * ms, VDur: 3000 * ms, RDur: 800 * time.Microsecond},
		{ID: 5, Parent: 2, Kind: KindMap, Name: "foreach-B/map[1]", Node: 1, Records: 80, Bytes: 1600, VStart: 20000 * ms, VDur: 2400 * ms, RDur: 700 * time.Microsecond},
		{ID: 6, Parent: 7, Kind: KindShuffle, Name: "foreach-B/shuffle[0]", Node: 2, Bytes: 3648, VStart: 23100 * ms, VDur: 100 * ms},
		{ID: 7, Parent: 2, Kind: KindReduce, Name: "foreach-B/reduce[0]", Node: 2, Records: 180, Bytes: 3648, VStart: 23000 * ms, VDur: 3000 * ms, RDur: 900 * time.Microsecond},
	}
}

// TestChromeTraceGolden locks the Chrome exporter's byte-exact output.
// Regenerate with: go test ./internal/trace -run Golden -update-golden
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome trace drifted from golden file.\n-- got --\n%s\n-- want --\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceWellFormed parses the export and checks the trace_event
// invariants chrome://tracing relies on.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	cats := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if cat, ok := ev["cat"].(string); ok {
			cats[cat]++
		}
		switch ph {
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event without dur: %v", ev)
			}
		case "M", "i":
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["i"] == 0 {
		t.Fatalf("missing phases: %v", phases)
	}
	for _, want := range []string{"map", "shuffle", "reduce", "dfs.read", "pig.op", "job"} {
		if cats[want] == 0 {
			t.Fatalf("no %q events in export: %v", want, cats)
		}
	}
}

// TestWriteJSONL checks one-object-per-line output round-trips.
func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(goldenSpans()) {
		t.Fatalf("got %d lines, want %d", len(lines), len(goldenSpans()))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "pig.op" || first["v_dur_us"] != float64(26_000_000) {
		t.Fatalf("first line = %v", first)
	}
}

// TestWriteFilePicksFormatByExtension checks that ".jsonl" and ".ndjson"
// paths get one span per line and any other path the Chrome format,
// byte for byte what the writers produce.
func TestWriteFilePicksFormatByExtension(t *testing.T) {
	var jsonl, chrome bytes.Buffer
	if err := WriteJSONL(&jsonl, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&chrome, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, want := range map[string][]byte{"t.jsonl": jsonl.Bytes(), "t.ndjson": jsonl.Bytes(), "t.json": chrome.Bytes(), "t": chrome.Bytes()} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, goldenSpans()); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wrong format (%d bytes, want %d)", name, len(got), len(want))
		}
	}
	if err := WriteFile(filepath.Join(dir, "missing", "t.json"), goldenSpans()); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
}
