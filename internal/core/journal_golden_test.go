package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/dfs"
)

// journalCases are the core.Run configurations testdata/journal.golden
// pins: every stage chain the pipeline journals, and a packed store.
var journalCases = []struct {
	name string
	mut  func(*Options)
}{
	{"greedy", func(o *Options) { o.Mode = GreedyMode }},
	{"greedy-uselsh", func(o *Options) { o.Mode = GreedyMode; o.UseLSH = true }},
	{"hierarchical", func(o *Options) { o.Mode = HierarchicalMode }},
	{"lshcc-greedy", func(o *Options) { o.Mode = GreedyMode; o.Candidate = CandidateLSH }},
	{"lshcc-hierarchical", func(o *Options) { o.Mode = HierarchicalMode; o.Candidate = CandidateLSH }},
	{"greedy-bbits4", func(o *Options) { o.Mode = GreedyMode; o.StoreBits = 4 }},
}

// journalLines runs one case with a checkpoint journal on an in-memory
// DFS and renders the manifest's entries in commit order: the case name,
// stage, inputs hash, params hash and output hash.
func journalLines(t *testing.T, name string, mut func(*Options)) []string {
	t.Helper()
	reads, _ := makeReads(4, 6, 200, 0.01, 5)
	fs := dfs.MustNew(dfs.Config{NumDataNodes: 2, BlockSize: 4096, Replication: 1})
	j, err := checkpoint.Open(fs, "/ck")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{K: 8, NumHashes: 48, Theta: 0.4, Seed: 9, Cluster: smallCluster(), Checkpoint: j}
	mut(&opt)
	if _, err := Run(reads, opt); err != nil {
		t.Fatal(err)
	}
	raw, err := fs.ReadFile("/ck/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e checkpoint.Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s %s %s %s %s", name, e.Stage, e.InputsHash, e.ParamsHash, e.OutputHash))
	}
	return out
}

// TestJournalGolden pins the checkpoint manifest core.Run writes for each
// journalCases run to testdata/journal.golden, so a journal written by
// one build keeps resuming under the next: the same stages, in the same
// order, with the same inputs, parameter and output hashes. A mismatch
// prints the actual lines.
func TestJournalGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/journal.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	var got []string
	for _, c := range journalCases {
		got = append(got, journalLines(t, c.name, c.mut)...)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("manifests differ from testdata/journal.golden; actual lines:\n%s", strings.Join(got, "\n"))
	}
}
