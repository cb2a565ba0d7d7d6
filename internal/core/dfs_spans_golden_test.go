package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// dfsSpanLines runs the Algorithm 3 script traced, the way pigrun -dump
// does: it stages a fixed corpus (makeReads(20, 10, 150, 0.02, 19)) on a
// 4-node DFS with 4 KiB blocks and 2 replicas, runs the script (k=5,
// n=50, $DIV=1031, average linkage, cutoff 0.7, seed 19), then reads back
// every visible output under the hierarchical output directory. It returns one line per DFS
// span in emission order (kind, name, node, bytes, detail and the kind of
// the parent span, "-" at the root) and a last line with the SHA-256 of
// the dumped files.
func dfsSpanLines(t *testing.T) []string {
	t.Helper()
	reads, _ := makeReads(20, 10, 150, 0.02, 19)
	rec := trace.New()
	fs := dfs.MustNew(dfs.Config{NumDataNodes: 4, BlockSize: 4096, Replication: 2})
	fs.SetTrace(rec)
	var sb strings.Builder
	for _, r := range reads {
		fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
	}
	if err := fs.WriteFile("/in/reads.fa", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	if _, err := RunScriptTraced(fs, smallCluster(), ScriptParams{
		Input: "/in/reads.fa", Output1: "/out/hier", Output2: "/out/greedy",
		K: 5, NumHash: 50, Div: 1031, Link: "average", Cutoff: 0.7,
	}, 19, rec); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range fs.ListOutputs("/out/hier") {
		lines, err := fs.ReadLines(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "-- %s --\n", p)
		for _, l := range lines {
			fmt.Fprintln(h, l)
		}
	}
	spans := rec.Spans()
	kinds := make(map[int64]trace.Kind, len(spans))
	for _, s := range spans {
		kinds[s.ID] = s.Kind
	}
	var out []string
	for _, s := range spans {
		if s.Kind != trace.KindDFSRead && s.Kind != trace.KindDFSWrite {
			continue
		}
		parent := "-"
		if s.Parent != 0 {
			parent = kinds[s.Parent].String()
		}
		out = append(out, fmt.Sprintf("%s %s %d %d %s %s", s.Kind, s.Name, s.Node, s.Bytes, s.Detail, parent))
	}
	return append(out, fmt.Sprintf("dump %x", h.Sum(nil)))
}

// TestDFSSpansGolden pins every DFS span of a traced Algorithm 3 run, and
// the bytes its hierarchical output dumps, to testdata/dfs_spans.golden:
// which file each LOAD, STORE and dump touches, on which node, with how
// many bytes (a write counts every replica), under which parent span. A
// mismatch prints the actual lines.
func TestDFSSpansGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/dfs_spans.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	got := dfsSpanLines(t)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("DFS spans differ from testdata/dfs_spans.golden; actual lines:\n%s", strings.Join(got, "\n"))
	}
}
