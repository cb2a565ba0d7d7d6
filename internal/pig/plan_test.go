package pig

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/trace"
)

// planRun runs src over /in (lines) on a traced context with the
// builtins registered. It returns the result and the script's jobs in
// launch order, each as its name followed by the statements each phase
// ran when the job lists them ("group-G [map: W, G; reduce: G, S]").
func planRun(t *testing.T, src string, lines ...string) (*RunResult, []string) {
	t.Helper()
	ctx := opsContext(t)
	rec := trace.New()
	ctx.Engine.Trace = rec
	if err := ctx.FS.WriteLines("/in", lines); err != nil {
		t.Fatal(err)
	}
	res, err := MustCompile(src).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []string
	for _, s := range rec.Spans() {
		if s.Kind != trace.KindJob {
			continue
		}
		if s.Detail != "" {
			jobs = append(jobs, s.Name+" ["+s.Detail+"]")
		} else {
			jobs = append(jobs, s.Name)
		}
	}
	if len(jobs) != res.Jobs {
		t.Fatalf("%d job spans, RunResult says %d jobs", len(jobs), res.Jobs)
	}
	return res, jobs
}

// rows renders a relation's tuples in order.
func rows(t *testing.T, res *RunResult, alias string) []string {
	t.Helper()
	rel, ok := res.Aliases[alias]
	if !ok {
		t.Fatalf("alias %s not materialized", alias)
	}
	out := make([]string, len(rel.Tuples))
	for i, tup := range rel.Tuples {
		out[i] = FormatValue(tup)
	}
	return out
}

var planLines = []string{"b a", "c b a", "a"}

// TestPlanFusesChains pins each fusing shape: its jobs, the statements
// each phase runs, which aliases materialize, and its rows, which must
// equal those of the same script with every fused alias given a second
// reader (a DESCRIBE), which runs each statement as its own job.
func TestPlanFusesChains(t *testing.T) {
	cases := []struct {
		name, src string
		jobs      []string
		fused     []string // aliases that must not materialize
		out       string   // alias whose rows are compared
		describe  string   // DESCRIBEs that stop the fusion
		unfused   []string // the jobs of the script with describe appended
	}{
		{
			name: "map chain into GROUP BY",
			src: `A = LOAD '/in';
W = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS word;
U = FOREACH W GENERATE UPPER(word) AS up;
G = GROUP U BY up;`,
			jobs:     []string{"group-G [map: W, U, G; reduce: G]"},
			fused:    []string{"W", "U"},
			out:      "G",
			describe: "DESCRIBE U;",
			unfused:  []string{"foreach-W", "foreach-U", "group-G [map: G; reduce: G]"},
		},
		{
			name: "map chain into a grouped UDF",
			src: `A = LOAD '/in';
W = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS word;
C = FOREACH W GENERATE FLATTEN(ConcatGroup(word, word)) AS (key, joined);`,
			jobs:     []string{"foreach-grouped-C [map: W, C; reduce: C]"},
			fused:    []string{"W"},
			out:      "C",
			describe: "DESCRIBE W;",
			unfused:  []string{"foreach-W", "foreach-grouped-C [map: C; reduce: C]"},
		},
		{
			name: "sole reader of a GROUP into its reduce phase",
			src: `A = LOAD '/in';
G = GROUP A BY SIZE(line);
S = FOREACH G GENERATE group, COUNT(A) AS n;
T = FOREACH S GENERATE CONCAT(group, ':') AS g, n;
STORE T INTO '/out';`,
			jobs:     []string{"group-G [map: G; reduce: G, S, T]"},
			fused:    []string{"G", "S"},
			out:      "T",
			describe: "DESCRIBE G; DESCRIBE S;",
			unfused:  []string{"group-G [map: G; reduce: G]", "foreach-S", "foreach-T"},
		},
		{
			name: "both sides at once: word count",
			src: `A = LOAD '/in';
W = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS word;
G = GROUP W BY word;
N = FOREACH G GENERATE group, COUNT(W);
O = ORDER N BY f1 DESC;`,
			jobs:     []string{"group-G [map: W, G; reduce: G, N]", "order-O"},
			fused:    []string{"W", "G"},
			out:      "N",
			describe: "DESCRIBE W; DESCRIBE G;",
			unfused:  []string{"foreach-W", "group-G [map: G; reduce: G]", "foreach-N", "order-O"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, jobs := planRun(t, c.src, planLines...)
			if fmt.Sprint(jobs) != fmt.Sprint(c.jobs) {
				t.Fatalf("jobs %q, want %q", jobs, c.jobs)
			}
			for _, alias := range c.fused {
				if _, ok := res.Aliases[alias]; ok {
					t.Errorf("fused alias %s materialized", alias)
				}
			}
			ref, refJobs := planRun(t, c.src+"\n"+c.describe, planLines...)
			if fmt.Sprint(refJobs) != fmt.Sprint(c.unfused) {
				t.Fatalf("with %s: jobs %q, want %q", c.describe, refJobs, c.unfused)
			}
			got, want := rows(t, res, c.out), rows(t, ref, c.out)
			if len(got) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("fused rows of %s %q, unfused %q", c.out, got, want)
			}
			if res.Virtual >= ref.Virtual {
				t.Fatalf("fused run modelled %v, not below the unfused %v", res.Virtual, ref.Virtual)
			}
		})
	}
}

// TestPlanKeepsJobs pins the scripts whose chains must not fuse, so every
// alias materializes: a second reader, a scalar dereference, and every
// chain whose end is not a GROUP or grouped FOREACH.
func TestPlanKeepsJobs(t *testing.T) {
	cases := []struct {
		name, src string
		jobs      []string
	}{
		{"alias with two readers", `A = LOAD '/in';
W = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS word;
G = GROUP W BY word;
D = DISTINCT W;`, []string{"foreach-W", "group-G [map: G; reduce: G]", "distinct-D"}},
		{"map-side alias read by a dereference", `A = LOAD '/in';
U = FOREACH A GENERATE UPPER(line) AS up;
G = GROUP U BY up;
X = FOREACH A GENERATE line, U.up;`, []string{"foreach-U", "group-G [map: G; reduce: G]", "foreach-X"}},
		{"GROUP output read by a dereference", `A = LOAD '/in';
G = GROUP A ALL;
S = FOREACH G GENERATE COUNT(A);
X = FOREACH A GENERATE line, G.group;`, []string{"group-G [map: G; reduce: G]", "foreach-S", "foreach-X"}},
		{"ends in a map-only FOREACH", `A = LOAD '/in';
B = FOREACH A GENERATE UPPER(line) AS up;
C = FOREACH B GENERATE LOWER(up);`, []string{"foreach-B", "foreach-C"}},
		{"ends in FILTER", `A = LOAD '/in';
B = FOREACH A GENERATE UPPER(line) AS up;
F = FILTER B BY SIZE(up) > 1;`, []string{"foreach-B", "filter-F"}},
		{"ends in JOIN", `A = LOAD '/in';
B = FOREACH A GENERATE UPPER(line) AS up;
C = FOREACH A GENERATE UPPER(line) AS up2;
J = JOIN B BY up, C BY up2;`, []string{"foreach-B", "foreach-C", "join-J"}},
		{"ends in ORDER", `A = LOAD '/in';
B = FOREACH A GENERATE UPPER(line) AS up;
O = ORDER B BY up;`, []string{"foreach-B", "order-O"}},
		{"ends in a whole-relation FOREACH", `A = LOAD '/in';
B = FOREACH A GENERATE UPPER(line) AS up;
K = FOREACH B GENERATE FLATTEN(CountAll(up));`, []string{"foreach-B", "foreach-whole-K"}},
		{"GROUP output read by FILTER", `A = LOAD '/in';
G = GROUP A BY line;
F = FILTER G BY SIZE(group) > 1;`, []string{"group-G [map: G; reduce: G]", "filter-F"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, jobs := planRun(t, c.src, planLines...)
			if fmt.Sprint(jobs) != fmt.Sprint(c.jobs) {
				t.Fatalf("jobs %q, want %q", jobs, c.jobs)
			}
			stmts, err := Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range stmts {
				if alias, _ := deps(st); res.Aliases[alias] == nil {
					t.Errorf("alias %s not materialized", alias)
				}
			}
		})
	}
}

// TestPlanKeepsRedefinedInput: U reads the first A, so it keeps its own
// job; moved into G's map phase it would read the second.
func TestPlanKeepsRedefinedInput(t *testing.T) {
	ctx := opsContext(t)
	if err := ctx.FS.WriteLines("/x", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := ctx.FS.WriteLines("/y", []string{"c"}); err != nil {
		t.Fatal(err)
	}
	res, err := MustCompile(`A = LOAD '/x';
U = FOREACH A GENERATE UPPER(line) AS up;
A = LOAD '/y';
G = GROUP U BY up;`).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Aliases["G"].Tuples); got != 2 || res.Jobs != 2 {
		t.Fatalf("G has %d groups after %d jobs, want the 2 of the first A after 2", got, res.Jobs)
	}
}

// TestFusedStatementErrorAndTrace: a map-only FOREACH whose UDF fails runs
// inside the GROUP's map phase, yet the error names its line and UDF, its
// pig.op span holds no job, and the GROUP's job span lists it.
func TestFusedStatementErrorAndTrace(t *testing.T) {
	ctx := testContext(t)
	ctx.Registry.MustRegister(UDF{
		Name:        "Fail",
		GroupKeyArg: -1,
		Eval: func(*Context, []Value) (Value, error) {
			return nil, errors.New("bad record")
		},
	})
	rec := trace.New()
	ctx.Engine.Trace = rec
	if err := ctx.FS.WriteLines("/in", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	_, err := MustCompile("A = LOAD '/in';\nB = FOREACH A GENERATE Fail(line) AS f;\nG = GROUP B BY f;\n").Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "line 2: UDF Fail: bad record") {
		t.Fatalf("error %v, want one naming line 2 and UDF Fail", err)
	}
	spans := rec.Spans()
	opOf := map[string]int64{}
	parentOf := map[int64]int64{}
	for _, s := range spans {
		if s.Kind == trace.KindPigOp {
			opOf[s.Name] = s.ID
		}
		parentOf[s.ID] = s.Parent
	}
	b, g := opOf["B = FOREACH A"], opOf["G = GROUP B"]
	if b == 0 || g == 0 {
		t.Fatalf("pig.op spans %v lack B or G", opOf)
	}
	var job *trace.Span
	for i, s := range spans {
		for p := s.Parent; p != 0; p = parentOf[p] {
			if p == b {
				t.Fatalf("span %s %q nests under the fused statement B", s.Kind, s.Name)
			}
		}
		if s.Kind == trace.KindJob {
			job = &spans[i]
		}
	}
	if job == nil || job.Name != "group-G" || job.Parent != g || job.Detail != "map: B, G; reduce: G" {
		t.Fatalf("job span %+v, want group-G under G listing map: B, G; reduce: G", job)
	}
}
