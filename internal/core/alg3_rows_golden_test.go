package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/pig"
)

// alg3RowsCases are the scripts testdata/alg3_rows.golden pins: the
// canonical Algorithm 3 script, whose CalculatePairwiseSimilarity locates
// its row by seqid, and the paper's 2-argument form, which locates it by
// the first equal signature in the bag.
var alg3RowsCases = []struct {
	name, from, to string
}{
	{"seqid-3arg", "", ""},
	{"paper-2arg", "CalculatePairwiseSimilarity(minwise, seqid3, I.F)", "CalculatePairwiseSimilarity(minwise, I.F)"},
}

// alg3RowsLine runs one case on a fixed corpus (makeReads(20, 10, 150,
// 0.02, 19); k=5, n=50, $DIV=1031, average linkage, cutoff 0.7) and
// returns its golden line: the case name and a SHA-256 over relation J's
// rows in relation order (row index, seqid, then every float64's bits)
// followed by the sorted (seqid, label) tuples of K and of L.
func alg3RowsLine(t *testing.T, name, from, to string) string {
	t.Helper()
	source := Algorithm3Script
	if from != "" {
		if strings.Count(source, from) != 1 {
			t.Fatalf("%s: %q does not occur once in Algorithm3Script", name, from)
		}
		source = strings.Replace(source, from, to, 1)
	}
	reads, _ := makeReads(20, 10, 150, 0.02, 19)
	fs := dfs.MustNew(dfs.Config{NumDataNodes: 4, BlockSize: 4096, Replication: 2})
	var sb strings.Builder
	for _, r := range reads {
		fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
	}
	if err := fs.WriteFile("/in/reads.fa", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	ctx, err := NewPigContext(fs, map[string]string{
		"INPUT": "/in/reads.fa", "OUTPUT1": "/out/hier", "OUTPUT2": "/out/greedy",
		"KMER": "5", "NUMHASH": "50", "DIV": "1031", "LINK": "average", "CUTOFF": "0.7",
	}, Options{Cluster: smallCluster(), Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	script, err := pig.Compile(source)
	if err != nil {
		t.Fatal(err)
	}
	run, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	rows := run.Aliases["J"].Tuples
	if len(rows) != len(reads) {
		t.Fatalf("%s: J has %d rows, want %d", name, len(rows), len(reads))
	}
	for _, r := range rows {
		// J keeps the UDF's (row, index, seqid) tuple as one field.
		tup, ok := r.Fields[0].(pig.Tuple)
		if !ok || len(tup.Fields) != 3 {
			t.Fatalf("%s: malformed J row %v", name, r)
		}
		vals, ok := tup.Fields[0].([]float64)
		if !ok {
			t.Fatalf("%s: J row values are %T", name, tup.Fields[0])
		}
		idx, err := pig.AsInt(tup.Fields[1])
		if err != nil {
			t.Fatal(err)
		}
		id, err := pig.AsString(tup.Fields[2])
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(idx))
		put(uint64(len(id)))
		h.Write([]byte(id))
		put(uint64(len(vals)))
		for _, v := range vals {
			put(math.Float64bits(v))
		}
	}
	for _, alias := range []string{"K", "L"} {
		var labels []string
		for _, tup := range run.Aliases[alias].Tuples {
			labels = append(labels, pig.FormatValue(tup.Fields[0])+"\t"+pig.FormatValue(tup.Fields[1]))
		}
		if len(labels) != len(reads) {
			t.Fatalf("%s: %s labels %d reads, want %d", name, alias, len(labels), len(reads))
		}
		sort.Strings(labels)
		fmt.Fprintf(h, "%s\n%s\n", alias, strings.Join(labels, "\n"))
	}
	return fmt.Sprintf("%s %x", name, h.Sum(nil))
}

// TestAlg3RowsGolden pins relation J's similarity rows and the K and L
// labels of both CalculatePairwiseSimilarity forms to
// testdata/alg3_rows.golden, so a change to how the UDF computes a row
// must reproduce every float bit for bit. A mismatch prints the actual
// line.
func TestAlg3RowsGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/alg3_rows.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			want[name] = line
		}
	}
	for _, tc := range alg3RowsCases {
		got := alg3RowsLine(t, tc.name, tc.from, tc.to)
		if got != want[tc.name] {
			t.Errorf("%s: line differs from testdata/alg3_rows.golden (recorded: %q); actual line:\n%s", tc.name, want[tc.name], got)
		}
	}
}
