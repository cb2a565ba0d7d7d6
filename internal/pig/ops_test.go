package pig

import (
	"testing"
	"testing/quick"
)

// opsContext is a context with builtins registered.
func opsContext(t *testing.T) *Context {
	t.Helper()
	ctx := testContext(t)
	if err := RegisterBuiltins(ctx.Registry); err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestFilterByComparison(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"aa", "bbbb", "cccccc", "d"})
	script := MustCompile(`
A = LOAD '/in';
B = FILTER A BY SIZE(line) >= 4;
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Aliases["B"]
	if len(b.Tuples) != 2 || b.Tuples[0].Fields[0] != "bbbb" || b.Tuples[1].Fields[0] != "cccccc" {
		t.Fatalf("filtered %+v", b.Tuples)
	}
	if res.Jobs != 1 {
		t.Fatalf("jobs %d", res.Jobs)
	}
}

func TestFilterStringEquality(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"keep", "drop", "keep"})
	script := MustCompile("A = LOAD '/in'; B = FILTER A BY line == 'keep';")
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aliases["B"].Tuples) != 2 {
		t.Fatalf("filtered %+v", res.Aliases["B"].Tuples)
	}
}

func TestFilterLogicAndNot(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"ab", "abcd", "abcdef", "x"})
	script := MustCompile(`
A = LOAD '/in';
B = FILTER A BY SIZE(line) >= 2 AND NOT SIZE(line) == 4;
C = FILTER A BY SIZE(line) == 1 OR SIZE(line) == 6;
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Aliases["B"].Tuples); got != 2 { // ab, abcdef
		t.Fatalf("B has %d tuples", got)
	}
	if got := len(res.Aliases["C"].Tuples); got != 2 { // x, abcdef
		t.Fatalf("C has %d tuples", got)
	}
}

func TestFilterParenthesizedCondition(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"a", "bb", "ccc"})
	script := MustCompile("A = LOAD '/in'; B = FILTER A BY (SIZE(line) == 1 OR SIZE(line) == 3) AND NOT line == 'a';")
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Aliases["B"].Tuples); got != 1 {
		t.Fatalf("B has %d tuples: %+v", got, res.Aliases["B"].Tuples)
	}
}

func TestLimit(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"1", "2", "3", "4", "5"})
	script := MustCompile("A = LOAD '/in'; B = LIMIT A 3; C = LIMIT A 99;")
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aliases["B"].Tuples) != 3 {
		t.Fatalf("limit %d", len(res.Aliases["B"].Tuples))
	}
	if len(res.Aliases["C"].Tuples) != 5 {
		t.Fatalf("over-limit %d", len(res.Aliases["C"].Tuples))
	}
}

func TestLimitValidation(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"1"})
	script := MustCompile("A = LOAD '/in'; B = LIMIT A 'x';")
	if _, err := script.Run(ctx); err == nil {
		t.Fatal("non-numeric limit accepted")
	}
}

func TestDistinct(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"b", "a", "b", "a", "c"})
	script := MustCompile("A = LOAD '/in'; B = DISTINCT A;")
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Aliases["B"]
	if len(b.Tuples) != 3 {
		t.Fatalf("distinct %+v", b.Tuples)
	}
	// Output sorted by rendered key.
	if b.Tuples[0].Fields[0] != "a" || b.Tuples[2].Fields[0] != "c" {
		t.Fatalf("distinct order %+v", b.Tuples)
	}
	if res.Jobs != 1 {
		t.Fatalf("jobs %d", res.Jobs)
	}
}

func TestUnion(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/x", []string{"1", "2"})
	ctx.FS.WriteLines("/y", []string{"3"})
	script := MustCompile("A = LOAD '/x'; B = LOAD '/y'; U = UNION A, B;")
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aliases["U"].Tuples) != 3 {
		t.Fatalf("union %+v", res.Aliases["U"].Tuples)
	}
}

func TestUnionArityMismatch(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/x", []string{"1 2"})
	ctx.FS.WriteLines("/y", []string{"3"})
	script := MustCompile(`
A = LOAD '/x';
P = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS (u, v);
B = LOAD '/y';
U = UNION P, B;
`)
	// P has... TOKENIZE yields single-field tuples, flatten gives one
	// field; AS (u, v) names two. Instead build a two-field relation via
	// Explode-style generation below.
	_ = script
	script = MustCompile(`
A = LOAD '/x';
P = FOREACH A GENERATE line AS l1, line AS l2;
B = LOAD '/y';
U = UNION P, B;
`)
	if _, err := script.Run(ctx); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestOrderByNumericAndDesc(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"banana", "kiwi", "apricot"})
	script := MustCompile(`
A = LOAD '/in';
ByLen  = ORDER A BY SIZE(line);
ByLenD = ORDER A BY SIZE(line) DESC;
ByStr  = ORDER A BY line ASC;
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	first := func(rel *Relation, i int) string { return rel.Tuples[i].Fields[0].(string) }
	if first(res.Aliases["ByLen"], 0) != "kiwi" {
		t.Fatalf("ByLen %+v", res.Aliases["ByLen"].Tuples)
	}
	if first(res.Aliases["ByLenD"], 0) != "apricot" {
		t.Fatalf("ByLenD %+v", res.Aliases["ByLenD"].Tuples)
	}
	if first(res.Aliases["ByStr"], 0) != "apricot" || first(res.Aliases["ByStr"], 2) != "kiwi" {
		t.Fatalf("ByStr %+v", res.Aliases["ByStr"].Tuples)
	}
}

func TestDump(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"x", "y"})
	script := MustCompile("A = LOAD '/in'; DUMP A;")
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dumps["A"]) != 2 || res.Dumps["A"][0] != "(x)" {
		t.Fatalf("dump %+v", res.Dumps)
	}
}

func TestDumpUnknownAlias(t *testing.T) {
	ctx := opsContext(t)
	script := MustCompile("DUMP MISSING;")
	if _, err := script.Run(ctx); err == nil {
		t.Fatal("dump of unknown alias accepted")
	}
}

func TestBuiltinAggregatesOverGroup(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"2", "4", "9"})
	script := MustCompile(`
A = LOAD '/in';
G = GROUP A ALL;
S = FOREACH G GENERATE COUNT(A), SUM(A), AVG(A), MIN(A), MAX(A);
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Aliases["S"].Tuples[0]
	if s.Fields[0].(int64) != 3 {
		t.Fatalf("COUNT %+v", s)
	}
	if s.Fields[1].(float64) != 15 {
		t.Fatalf("SUM %+v", s)
	}
	if s.Fields[2].(float64) != 5 {
		t.Fatalf("AVG %+v", s)
	}
	if s.Fields[3].(float64) != 2 || s.Fields[4].(float64) != 9 {
		t.Fatalf("MIN/MAX %+v", s)
	}
}

func TestBuiltinStringFunctions(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"Hello World"})
	script := MustCompile(`
A = LOAD '/in';
B = FOREACH A GENERATE UPPER(line), LOWER(line), CONCAT(line, '!'), SIZE(line);
W = FOREACH A GENERATE FLATTEN(TOKENIZE(line)) AS word;
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Aliases["B"].Tuples[0]
	if b.Fields[0] != "HELLO WORLD" || b.Fields[1] != "hello world" || b.Fields[2] != "Hello World!" || b.Fields[3].(int64) != 11 {
		t.Fatalf("string builtins %+v", b)
	}
	if len(res.Aliases["W"].Tuples) != 2 {
		t.Fatalf("tokenize %+v", res.Aliases["W"].Tuples)
	}
}

func TestBuiltinErrors(t *testing.T) {
	cases := []struct {
		name string
		fn   EvalFunc
		args []Value
	}{
		{"COUNT non-bag", builtinCount, []Value{"x"}},
		{"COUNT arity", builtinCount, []Value{Bag{}, Bag{}}},
		{"SUM non-numeric", builtinSum, []Value{Bag{NewTuple("x")}}},
		{"MIN empty", builtinMin, []Value{Bag{}}},
		{"MAX empty", builtinMax, []Value{Bag{}}},
		{"SIZE unsupported", builtinSize, []Value{3.14}},
		{"CONCAT arity", builtinConcat, []Value{"x"}},
		{"UPPER arity", builtinUpper, []Value{}},
		{"TOKENIZE non-string", builtinTokenize, []Value{Bag{}}},
		{"SUM empty tuple", builtinSum, []Value{Bag{{}}}},
	}
	for _, c := range cases {
		if _, err := c.fn(nil, c.args); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestBuiltinAvgEmptyBag(t *testing.T) {
	v, err := builtinAvg(nil, []Value{Bag{}})
	if err != nil || v.(float64) != 0 {
		t.Fatalf("AVG(empty) = %v, %v", v, err)
	}
}

func TestTruthy(t *testing.T) {
	for _, v := range []Value{true, 1, int64(2), 0.5, "true", "TRUE"} {
		ok, err := truthy(v)
		if err != nil || !ok {
			t.Errorf("truthy(%v) = %v, %v", v, ok, err)
		}
	}
	for _, v := range []Value{false, 0, int64(0), 0.0, "false", "no"} {
		ok, err := truthy(v)
		if err != nil || ok {
			t.Errorf("falsy(%v) = %v, %v", v, ok, err)
		}
	}
	if _, err := truthy(Bag{}); err == nil {
		t.Error("truthy(bag) accepted")
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		op   string
		l, r Value
		want bool
	}{
		{"==", int64(3), 3.0, true},
		{"!=", int64(3), int64(4), true},
		{"<", "abc", "abd", true},
		{"<=", 2.5, 2.5, true},
		{">", "10", "9", false}, // numeric coercion: 10 > 9 is true... see below
		{">=", int64(10), int64(9), true},
	}
	for _, c := range cases {
		got, err := compareValues(c.op, c.l, c.r)
		if err != nil {
			t.Fatalf("%v %s %v: %v", c.l, c.op, c.r, err)
		}
		// "10" > "9" coerces numerically -> 10 > 9 -> true, so fix the
		// expectation for that row here rather than encode it wrongly.
		want := c.want
		if c.op == ">" {
			want = true
		}
		if got != want {
			t.Errorf("%v %s %v = %v, want %v", c.l, c.op, c.r, got, want)
		}
	}
	if _, err := compareValues("~", int64(1), int64(2)); err == nil {
		t.Error("unknown operator accepted")
	}
	if _, err := compareValues("==", Bag{}, int64(1)); err == nil {
		t.Error("incomparable types accepted")
	}
}

func TestLexerComparisonTokens(t *testing.T) {
	toks, err := lexAll("a == b != c <= d >= e < f > g")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokEq, tokIdent, tokNeq, tokIdent, tokLe, tokIdent, tokGe, tokIdent, tokLt, tokIdent, tokGt, tokIdent, tokEOF}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Fatalf("token %d = %v (%q), want kind %d", i, toks[i].kind, toks[i].text, k)
		}
	}
}

func TestParserNewStatements(t *testing.T) {
	stmts, err := Parse(`
B = FILTER A BY x >= 3 AND y == 'z';
C = LIMIT B 10;
D = DISTINCT C;
E = UNION B, C, D;
F = ORDER E BY x DESC;
DUMP F;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 6 {
		t.Fatalf("got %d statements", len(stmts))
	}
	f := stmts[0].(*FilterStmt)
	logic := f.Cond.(Logic)
	if logic.Op != "and" {
		t.Fatalf("cond %+v", f.Cond)
	}
	if stmts[1].(*LimitStmt).N.(Literal).Value.(int64) != 10 {
		t.Fatal("limit literal")
	}
	if len(stmts[3].(*UnionStmt).Inputs) != 3 {
		t.Fatal("union inputs")
	}
	if !stmts[4].(*OrderStmt).Desc {
		t.Fatal("order desc")
	}
	if stmts[5].(*DumpStmt).Input != "F" {
		t.Fatal("dump input")
	}
}

func TestParserNewStatementErrors(t *testing.T) {
	bad := []string{
		"B = FILTER A x > 1;",  // missing BY
		"B = UNION A;",         // single input
		"B = LIMIT ;",          // missing alias
		"B = ORDER A x;",       // missing BY
		"DUMP;",                // missing alias
		"B = FILTER A BY ;",    // missing condition
		"B = DISTINCT A extra", // missing semicolon
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("script %q parsed", src)
		}
	}
}

func TestRegistryWithBuiltins(t *testing.T) {
	r := NewRegistryWithBuiltins()
	for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "SIZE", "CONCAT", "UPPER", "LOWER", "TOKENIZE"} {
		if _, ok := r.UDF(name); !ok {
			t.Errorf("builtin %s missing", name)
		}
	}
	// Double registration errors.
	if err := RegisterBuiltins(r); err == nil {
		t.Error("duplicate builtin registration accepted")
	}
}

// TestWordCountEndToEnd is the canonical Pig wordcount using the extended
// operator set.
func TestWordCountEndToEnd(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"the quick brown fox", "the lazy dog", "the fox"})
	script := MustCompile(`
Lines = LOAD '/in';
Words = FOREACH Lines GENERATE FLATTEN(TOKENIZE(line)) AS word;
G     = GROUP Words BY word;
Out   = FOREACH G GENERATE group, COUNT(Words);
Top   = ORDER Out BY f1 DESC;
Best  = LIMIT Top 1;
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Aliases["Best"].Tuples
	if len(best) != 1 || best[0].Fields[0] != "the" || best[0].Fields[1].(int64) != 3 {
		t.Fatalf("wordcount best %+v", best)
	}
}

// TestParserNeverPanics fuzzes the parser with random byte soup and with
// mutations of a valid script: errors are fine, panics are not.
func TestParserNeverPanics(t *testing.T) {
	valid := "A = LOAD '/in'; B = FILTER A BY SIZE(line) >= 2; STORE B INTO '/out';"
	f := func(junk []byte, cut uint16) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("parser panicked on %q: %v", junk, r)
			}
		}()
		_, _ = Parse(string(junk))
		// Truncations of a valid script.
		n := int(cut) % (len(valid) + 1)
		_, _ = Parse(valid[:n])
		// Splices of junk into the valid script.
		_, _ = Parse(valid[:n] + string(junk) + valid[n:])
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderTotalOrderAcrossPartitions stresses the range-partitioned sort
// with enough rows that every reducer partition is populated.
func TestOrderTotalOrderAcrossPartitions(t *testing.T) {
	ctx := opsContext(t)
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, string(rune('a'+(i*37)%26))+string(rune('a'+(i*11)%26)))
	}
	ctx.FS.WriteLines("/in", lines)
	script := MustCompile("A = LOAD '/in'; S = ORDER A BY line;")
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Aliases["S"]
	if len(s.Tuples) != 200 {
		t.Fatalf("tuples %d", len(s.Tuples))
	}
	for i := 1; i < len(s.Tuples); i++ {
		if s.Tuples[i-1].Fields[0].(string) > s.Tuples[i].Fields[0].(string) {
			t.Fatalf("order violated at %d: %v > %v", i, s.Tuples[i-1].Fields[0], s.Tuples[i].Fields[0])
		}
	}
}

// TestOrderMixedKeyTypes sorts numbers before strings, as Pig does.
func TestOrderMixedKeyTypes(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"zebra", "10", "2", "apple"})
	script := MustCompile("A = LOAD '/in'; S = ORDER A BY line;")
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{}
	for _, tup := range res.Aliases["S"].Tuples {
		got = append(got, tup.Fields[0].(string))
	}
	want := []string{"2", "10", "apple", "zebra"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestDescribeAndSample(t *testing.T) {
	ctx := opsContext(t)
	var lines []string
	for i := 0; i < 400; i++ {
		lines = append(lines, "row")
	}
	ctx.FS.WriteLines("/in", lines)
	ctx.Seed = 9
	script := MustCompile(`
A = LOAD '/in';
DESCRIBE A;
S = SAMPLE A 0.25;
Z = SAMPLE A 0;
All = SAMPLE A 1.0;
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Dumps["describe:A"]; len(d) != 1 || d[0] != "A: (line:chararray)" {
		t.Fatalf("describe %v", d)
	}
	n := len(res.Aliases["S"].Tuples)
	if n < 60 || n > 140 {
		t.Fatalf("sample kept %d of 400 at 0.25", n)
	}
	if len(res.Aliases["Z"].Tuples) != 0 {
		t.Fatal("SAMPLE 0 kept tuples")
	}
	if len(res.Aliases["All"].Tuples) != 400 {
		t.Fatal("SAMPLE 1.0 dropped tuples")
	}
	// Deterministic in seed.
	res2, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Aliases["S"].Tuples) != n {
		t.Fatal("sample not deterministic")
	}
}

func TestSampleValidation(t *testing.T) {
	ctx := opsContext(t)
	ctx.FS.WriteLines("/in", []string{"x"})
	for _, src := range []string{
		"A = LOAD '/in'; S = SAMPLE A 2;",
		"A = LOAD '/in'; S = SAMPLE A 'half';",
		"A = LOAD '/in'; S = SAMPLE A 'NaN';",
	} {
		script := MustCompile(src)
		if _, err := script.Run(ctx); err == nil {
			t.Errorf("script %q ran", src)
		}
	}
	if _, err := Parse("S = SAMPLE ;"); err == nil {
		t.Error("bad SAMPLE parsed")
	}
	if _, err := Parse("DESCRIBE ;"); err == nil {
		t.Error("bad DESCRIBE parsed")
	}
}
