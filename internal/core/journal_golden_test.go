package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/dfs"
)

// journalCases are the core.Run configurations testdata/journal.golden
// pins: every stage chain the pipeline journals and a packed store, on
// makeReads(4, 6, 200, 0.01, 5) unless a case brings its own reads. The
// last two cases sketch corpora whose k-mer occurrences outnumber the
// k-mer space 4^k several times over, at lsh-cc-65k's geometry (2,000
// 100-bp reads: 186,000 occurrences of 65,536 k-mers) and at mrmcminh's
// defaults (300 200-bp reads: 58,800 occurrences of 1,024 k-mers), so
// the sketch job sketches reads both before and after its sketcher
// tabulates its hash functions.
var journalCases = []struct {
	name  string
	reads journalReads
	mut   func(*Options)
}{
	{"greedy", defaultJournalReads, func(o *Options) { o.Mode = GreedyMode }},
	{"greedy-uselsh", defaultJournalReads, func(o *Options) { o.Mode = GreedyMode; o.UseLSH = true }},
	{"hierarchical", defaultJournalReads, func(o *Options) { o.Mode = HierarchicalMode }},
	{"lshcc-greedy", defaultJournalReads, func(o *Options) { o.Mode = GreedyMode; o.Candidate = CandidateLSH }},
	{"lshcc-hierarchical", defaultJournalReads, func(o *Options) { o.Mode = HierarchicalMode; o.Candidate = CandidateLSH }},
	{"greedy-bbits4", defaultJournalReads, func(o *Options) { o.Mode = GreedyMode; o.StoreBits = 4 }},
	{"lshcc-k8-n24", journalReads{200, 10, 100, 0.002, 31}, func(o *Options) {
		o.K, o.NumHashes, o.Theta, o.Seed = 8, 24, 0.9, 2
		o.Mode, o.Candidate, o.LSH = GreedyMode, CandidateLSH, cluster.LSHOptions{Bands: 4, Rows: 6}
	}},
	{"cli-k5-n100", journalReads{30, 10, 200, 0.01, 37}, func(o *Options) {
		o.K, o.NumHashes, o.Theta, o.Seed = 5, 100, 0.9, 1
		o.Mode, o.Linkage = HierarchicalMode, cluster.Average
	}},
}

// journalReads are the arguments of makeReads.
type journalReads struct {
	groups, members, length int
	mutRate                 float64
	seed                    int64
}

var defaultJournalReads = journalReads{4, 6, 200, 0.01, 5}

// journalLines runs one case with a checkpoint journal on an in-memory
// DFS and renders the manifest's entries in commit order: the case name,
// stage, inputs hash, params hash and output hash.
func journalLines(t *testing.T, name string, r journalReads, mut func(*Options)) []string {
	t.Helper()
	reads, _ := makeReads(r.groups, r.members, r.length, r.mutRate, r.seed)
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
		got = append(got, journalLines(t, c.name, c.reads, c.mut)...)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("manifests differ from testdata/journal.golden; actual lines:\n%s", strings.Join(got, "\n"))
	}
}
