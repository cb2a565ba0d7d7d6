package pig

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/trace"
)

// opsScript runs every statement kind: LOAD, map-only FOREACH (X), FILTER,
// GROUP BY and ALL, a grouped-UDF FOREACH (C), DISTINCT, ORDER … DESC,
// JOIN, a whole-relation FOREACH (K), LIMIT, UNION, SAMPLE, STORE and
// DUMP. As written, W and U run in G's map phase, N in G's reduce phase,
// L in C's map phase and T in GA's reduce phase. opsUnfused gives W, U,
// G, L and GA a second reader, so every statement runs as its own job.
const opsScript = `A = LOAD '/in';
W = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS word;
U = FOREACH W GENERATE UPPER(word) AS up;
G = GROUP U BY up;
N = FOREACH G GENERATE group AS up, COUNT(U) AS n;
F = FILTER N BY n > 2;
O = ORDER N BY n DESC;
L = FOREACH A GENERATE FLATTEN(Explode(line)) AS w;
C = FOREACH L GENERATE FLATTEN(ConcatGroup(w, w)) AS (key, joined);
GA = GROUP A ALL;
T = FOREACH GA GENERATE COUNT(A) AS total;
K = FOREACH A GENERATE FLATTEN(CountAll(line)) AS lines;
X = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS tok;
D = DISTINCT X;
J = JOIN D BY tok, C BY key;
LI = LIMIT O 2;
UN = UNION F, LI;
S = SAMPLE D 0.5;
STORE UN INTO '/out/un';
DUMP J;
`

const opsUnfused = "DESCRIBE W; DESCRIBE U; DESCRIBE G; DESCRIBE L; DESCRIBE GA;"

var opsLines = []string{
	"the cat sat on the mat",
	"a cat and a dog",
	"the dog sat",
	"on and on",
	"mat cat dog the",
}

// opsGoldenLines runs src traced over opsLines and renders one line per
// job span (name, detail, the records and bytes of its task spans, and
// its virtual start and duration in nanoseconds), then RunResult's job
// count and modelled time, then a SHA-256 of each alias's rows by alias.
func opsGoldenLines(t *testing.T, label, src string) []string {
	t.Helper()
	ctx := opsContext(t)
	rec := trace.New()
	ctx.Engine.Trace = rec
	if err := ctx.FS.WriteLines("/in", opsLines); err != nil {
		t.Fatal(err)
	}
	res, err := MustCompile(src).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	records, bytes := make(map[int64]int64), make(map[int64]int64)
	for _, s := range spans {
		records[s.Parent] += s.Records
		bytes[s.Parent] += s.Bytes
	}
	var out []string
	for _, s := range spans {
		if s.Kind == trace.KindJob {
			out = append(out, fmt.Sprintf("%s job %s [%s] %d %d %d %d",
				label, s.Name, s.Detail, records[s.ID], bytes[s.ID], int64(s.VStart), int64(s.VDur)))
		}
	}
	out = append(out, fmt.Sprintf("%s result jobs=%d virtual=%d", label, res.Jobs, int64(res.Virtual)))
	aliases := make([]string, 0, len(res.Aliases))
	for a := range res.Aliases {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	for _, a := range aliases {
		h := sha256.New()
		for _, tup := range res.Aliases[a].Tuples {
			fmt.Fprintln(h, FormatValue(tup))
		}
		out = append(out, fmt.Sprintf("%s alias %s %d %x", label, a, len(res.Aliases[a].Tuples), h.Sum(nil)))
	}
	return out
}

// TestOpsGolden pins, for opsScript as written and with opsUnfused
// appended, every job's name, phases, work, and place on the virtual
// timeline, the run's job count and modelled time, and every alias's
// rows to testdata/ops.golden. A mismatch prints the actual lines.
func TestOpsGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/ops.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	got := append(opsGoldenLines(t, "fused", opsScript), opsGoldenLines(t, "unfused", opsScript+opsUnfused)...)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("ops differ from testdata/ops.golden; actual lines:\n%s", strings.Join(got, "\n"))
	}
}
