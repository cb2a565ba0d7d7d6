package pig

import (
	"fmt"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
)

// testContext builds a context with a small cluster, a populated registry
// and an in-memory DFS.
func testContext(t *testing.T) *Context {
	t.Helper()
	reg := NewRegistry()
	// ToUpper: simple per-tuple UDF.
	reg.MustRegister(UDF{
		Name:        "ToUpper",
		GroupKeyArg: -1,
		Eval: func(_ *Context, args []Value) (Value, error) {
			s, err := AsString(args[0])
			if err != nil {
				return nil, err
			}
			return strings.ToUpper(s), nil
		},
	})
	// Explode: returns a bag of (word) tuples, exercising FLATTEN.
	reg.MustRegister(UDF{
		Name:        "Explode",
		GroupKeyArg: -1,
		Eval: func(_ *Context, args []Value) (Value, error) {
			s, err := AsString(args[0])
			if err != nil {
				return nil, err
			}
			var bag Bag
			for _, w := range strings.Fields(s) {
				bag = append(bag, NewTuple(w))
			}
			return bag, nil
		},
	})
	// ConcatGroup: grouped UDF — concatenates grouped values per key.
	reg.MustRegister(UDF{
		Name:        "ConcatGroup",
		GroupKeyArg: 1,
		ValueArg:    0,
		Eval: func(_ *Context, args []Value) (Value, error) {
			vals := args[0].([]Value)
			parts := make([]string, len(vals))
			for i, v := range vals {
				parts[i], _ = AsString(v)
			}
			key, _ := AsString(args[1])
			return NewTuple(key, strings.Join(parts, "+")), nil
		},
	})
	// CountAll: whole-relation UDF — counts tuples.
	reg.MustRegister(UDF{
		Name:          "CountAll",
		GroupKeyArg:   -1,
		WholeRelation: true,
		Eval: func(_ *Context, args []Value) (Value, error) {
			vals := args[0].([]Value)
			return Bag{NewTuple(int64(len(vals)))}, nil
		},
	})
	return &Context{
		FS:       dfs.MustNew(dfs.Config{NumDataNodes: 3, BlockSize: 64, Replication: 2}),
		Engine:   mapreduce.MustEngine(mapreduce.Cluster{Nodes: 3, SlotsPerNode: 2, Cost: mapreduce.DefaultCostModel}),
		Registry: reg,
		Params:   map[string]string{},
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll("A = LOAD 'x/y' USING F(1, 2.5); -- comment\nB = FOREACH A GENERATE $KMER;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF")
	}
	// Spot-check a few tokens.
	if toks[0].text != "A" || toks[1].kind != tokEquals || toks[3].kind != tokString || toks[3].text != "x/y" {
		t.Fatalf("tokens %v", toks[:5])
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lexAll("A = 'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lexAll("A = @"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := lexAll("A = $ ;"); err == nil {
		t.Error("dangling $ accepted")
	}
}

func TestLexerBlockComment(t *testing.T) {
	toks, err := lexAll("/* block\ncomment */ A = B;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "A" {
		t.Fatalf("first token %v", toks[0])
	}
}

func TestParserFullPaperShapes(t *testing.T) {
	src := `
A = LOAD '$INPUT' using FastaStorage as (readid:chararray, d:int, seq:bytearray, header:chararray);
B = FOREACH A GENERATE FLATTEN (StringGenerator(seq, readid)) as (seq:chararray, seqid:chararray);
I = GROUP B ALL;
J = FOREACH B GENERATE FLATTEN (CalculatePairwiseSimilarity(seq, I.B)) as (similaritymatrix: double);
STORE J INTO '$OUTPUT1';
`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 5 {
		t.Fatalf("got %d statements", len(stmts))
	}
	load := stmts[0].(*LoadStmt)
	if load.Alias != "A" || load.Loader != "FastaStorage" || len(load.As) != 4 || load.As[2].Type != "bytearray" {
		t.Fatalf("load %+v", load)
	}
	fe := stmts[1].(*ForeachStmt)
	if !fe.Items[0].Flatten || fe.Items[0].As[1].Name != "seqid" {
		t.Fatalf("foreach %+v", fe)
	}
	fc := fe.Items[0].Expr.(FuncCall)
	if fc.Name != "StringGenerator" || len(fc.Args) != 2 {
		t.Fatalf("funcall %+v", fc)
	}
	grp := stmts[2].(*GroupStmt)
	if !grp.All || grp.Input != "B" {
		t.Fatalf("group %+v", grp)
	}
	j := stmts[3].(*ForeachStmt)
	dr := j.Items[0].Expr.(FuncCall).Args[1].(DottedRef)
	if dr.Alias != "I" || dr.Field != "B" {
		t.Fatalf("dotted %+v", dr)
	}
	st := stmts[4].(*StoreStmt)
	if st.Input != "J" || st.Path != "$OUTPUT1" {
		t.Fatalf("store %+v", st)
	}
}

func TestParserGroupBy(t *testing.T) {
	stmts, err := Parse("G = GROUP X BY name;")
	if err != nil {
		t.Fatal(err)
	}
	g := stmts[0].(*GroupStmt)
	if g.All || g.By.(FieldRef).Name != "name" {
		t.Fatalf("group %+v", g)
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"",
		"A = ;",
		"A LOAD 'x';",
		"A = LOAD missing_quotes;",
		"A = FOREACH B GENERATE ;",
		"STORE X INTO missing;",
		"A = GROUP B;",
		"A = GROUP B NEITHER;",
		"A = FOREACH B GENERATE f(;",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("script %q parsed without error", src)
		}
	}
}

func TestParserNumberLiterals(t *testing.T) {
	stmts, err := Parse("A = FOREACH B GENERATE f(5, 2.75);")
	if err != nil {
		t.Fatal(err)
	}
	args := stmts[0].(*ForeachStmt).Items[0].Expr.(FuncCall).Args
	if args[0].(Literal).Value.(int64) != 5 {
		t.Fatalf("int literal %+v", args[0])
	}
	if args[1].(Literal).Value.(float64) != 2.75 {
		t.Fatalf("float literal %+v", args[1])
	}
}

func TestParserPositionalRef(t *testing.T) {
	stmts, err := Parse("A = FOREACH B GENERATE $0;")
	if err != nil {
		t.Fatal(err)
	}
	if stmts[0].(*ForeachStmt).Items[0].Expr.(PositionalRef).Index != 0 {
		t.Fatal("positional ref not parsed")
	}
}

func TestRunLoadForeachStore(t *testing.T) {
	ctx := testContext(t)
	ctx.FS.WriteLines("/in/data.txt", []string{"hello world", "foo"})
	ctx.Params["IN"] = "/in/data.txt"
	ctx.Params["OUT"] = "/out"
	script := MustCompile(`
A = LOAD '$IN';
B = FOREACH A GENERATE ToUpper(line) AS up;
STORE B INTO '$OUT';
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Aliases["B"]
	if len(b.Tuples) != 2 || b.Tuples[0].Fields[0] != "HELLO WORLD" || b.Tuples[1].Fields[0] != "FOO" {
		t.Fatalf("relation B %+v", b.Tuples)
	}
	if b.Schema[0].Name != "up" {
		t.Fatalf("schema %v", b.Schema)
	}
	lines, err := ctx.FS.ReadLines("/out/part-00000")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0] != "HELLO WORLD" {
		t.Fatalf("stored %v", lines)
	}
	if res.Jobs != 1 || res.Virtual <= 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestRunFlattenBag(t *testing.T) {
	ctx := testContext(t)
	ctx.FS.WriteLines("/in", []string{"a b c", "d"})
	script := MustCompile(`
A = LOAD '/in';
W = FOREACH A GENERATE FLATTEN(Explode(line)) AS word;
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Aliases["W"]
	if len(w.Tuples) != 4 {
		t.Fatalf("tuples %+v", w.Tuples)
	}
	got := []string{}
	for _, tup := range w.Tuples {
		got = append(got, tup.Fields[0].(string))
	}
	want := "a b c d"
	if strings.Join(got, " ") != want {
		t.Fatalf("words %v", got)
	}
}

// TestFlattenedRowsAreCapped: FLATTEN cuts a statement's output rows
// from one slab, so appending to one row must leave the next unchanged.
func TestFlattenedRowsAreCapped(t *testing.T) {
	ctx := testContext(t)
	ctx.FS.WriteLines("/in", []string{"a b c"})
	script := MustCompile(`
A = LOAD '/in';
W = FOREACH A GENERATE line, FLATTEN(Explode(line)) AS word;
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Aliases["W"].Tuples
	if len(w) != 3 {
		t.Fatalf("tuples %+v", w)
	}
	for i := range w[:len(w)-1] {
		next := fmt.Sprint(w[i+1].Fields)
		_ = append(w[i].Fields, "appended")
		if got := fmt.Sprint(w[i+1].Fields); got != next {
			t.Fatalf("appending to row %d changed row %d from %s to %s", i, i+1, next, got)
		}
	}
	if got := fmt.Sprint(w[2].Fields); got != "[a b c c]" {
		t.Fatalf("last row %s, want [a b c c]", got)
	}
}

func TestRunGroupAllAndForeignDeref(t *testing.T) {
	ctx := testContext(t)
	ctx.FS.WriteLines("/in", []string{"x", "y", "z"})
	script := MustCompile(`
A = LOAD '/in';
G = GROUP A ALL;
C = FOREACH A GENERATE FLATTEN(CountAll(line)) AS n;
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Aliases["G"]
	if len(g.Tuples) != 1 {
		t.Fatalf("group tuples %+v", g.Tuples)
	}
	if g.Tuples[0].Fields[0] != "all" {
		t.Fatalf("group key %v", g.Tuples[0].Fields[0])
	}
	bag := g.Tuples[0].Fields[1].(Bag)
	if len(bag) != 3 {
		t.Fatalf("grouped bag %v", bag)
	}
	c := res.Aliases["C"]
	if len(c.Tuples) != 1 || c.Tuples[0].Fields[0].(int64) != 3 {
		t.Fatalf("count %+v", c.Tuples)
	}
}

func TestRunGroupBy(t *testing.T) {
	ctx := testContext(t)
	ctx.FS.WriteLines("/in", []string{"a 1", "b 2", "a 3"})
	script := MustCompile(`
A = LOAD '/in';
K = FOREACH A GENERATE FLATTEN(Explode(line)) AS (tag, val);
G = GROUP K BY tag;
`)
	// Explode yields one word per tuple, so K has single-field tuples;
	// redo with a two-field generate instead.
	_ = script
	script = MustCompile(`
A = LOAD '/in';
G = GROUP A BY line;
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Aliases["G"]
	if len(g.Tuples) != 3 {
		t.Fatalf("group tuples %d", len(g.Tuples))
	}
	// sorted by key: "a 1", "a 3", "b 2"
	if g.Tuples[0].Fields[0] != "a 1" {
		t.Fatalf("first group %v", g.Tuples[0].Fields[0])
	}
}

func TestRunGroupedUDF(t *testing.T) {
	ctx := testContext(t)
	ctx.FS.WriteLines("/in", []string{"k1 a", "k2 b", "k1 c"})
	// Build a two-field relation first via a per-tuple UDF.
	ctx.Registry.MustRegister(UDF{
		Name:        "SplitPair",
		GroupKeyArg: -1,
		Eval: func(_ *Context, args []Value) (Value, error) {
			s, _ := AsString(args[0])
			parts := strings.Fields(s)
			return NewTuple(parts[1], parts[0]), nil
		},
	})
	script := MustCompile(`
A = LOAD '/in';
P = FOREACH A GENERATE FLATTEN(SplitPair(line)) AS (val, key);
C = FOREACH P GENERATE FLATTEN(ConcatGroup(val, key)) AS (key2, joined);
`)
	res, err := script.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Aliases["C"]
	if len(c.Tuples) != 2 {
		t.Fatalf("grouped output %+v", c.Tuples)
	}
	byKey := map[string]string{}
	for _, tup := range c.Tuples {
		byKey[tup.Fields[0].(string)] = tup.Fields[1].(string)
	}
	if byKey["k1"] != "a+c" || byKey["k2"] != "b" {
		t.Fatalf("grouped values %v", byKey)
	}
}

func TestRunErrors(t *testing.T) {
	ctx := testContext(t)
	ctx.FS.WriteLines("/in", []string{"x"})
	cases := map[string]string{
		"unknown alias":   "B = FOREACH MISSING GENERATE line;",
		"unknown UDF":     "A = LOAD '/in'; B = FOREACH A GENERATE NoSuchUDF(line);",
		"unknown field":   "A = LOAD '/in'; B = FOREACH A GENERATE nosuchfield;",
		"unknown loader":  "A = LOAD '/in' USING NoLoader;",
		"missing param":   "A = LOAD '$NOPE';",
		"missing file":    "A = LOAD '/does/not/exist';",
		"unknown foreign": "A = LOAD '/in'; B = FOREACH A GENERATE Q.field;",
	}
	for name, src := range cases {
		script, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: compile error %v", name, err)
		}
		if _, err := script.Run(ctx); err == nil {
			t.Errorf("%s: script ran without error", name)
		}
	}
}

func TestRunContextValidation(t *testing.T) {
	script := MustCompile("A = LOAD '/in';")
	if _, err := script.Run(&Context{}); err == nil {
		t.Fatal("empty context accepted")
	}
}

func TestParamSubstitutionInsidePath(t *testing.T) {
	ctx := testContext(t)
	ctx.FS.WriteLines("/data/sample1.txt", []string{"x"})
	ctx.Params["NAME"] = "sample1"
	script := MustCompile("A = LOAD '/data/$NAME.txt';")
	if _, err := script.Run(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[string]Value{
		"abc":       "abc",
		"42":        int64(42),
		"3.5":       3.5,
		"(a,1)":     NewTuple("a", int64(1)),
		"{(a)}":     Bag{NewTuple("a")},
		"bytes":     []byte("bytes"),
		"7":         7,
		"":          nil,
		"{(a),(b)}": Bag{NewTuple("a"), NewTuple("b")},
	}
	for want, v := range cases {
		if got := FormatValue(v); got != want {
			t.Errorf("FormatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestCoercions(t *testing.T) {
	if n, err := AsInt("42"); err != nil || n != 42 {
		t.Fatalf("AsInt string: %v %v", n, err)
	}
	if n, err := AsInt(int64(7)); err != nil || n != 7 {
		t.Fatalf("AsInt int64: %v %v", n, err)
	}
	if _, err := AsInt(Bag{}); err == nil {
		t.Fatal("AsInt of bag accepted")
	}
	if f, err := AsFloat("0.95"); err != nil || f != 0.95 {
		t.Fatalf("AsFloat: %v %v", f, err)
	}
	if _, err := AsFloat(NewTuple()); err == nil {
		t.Fatal("AsFloat of tuple accepted")
	}
	if s, err := AsString([]byte("x")); err != nil || s != "x" {
		t.Fatalf("AsString: %v %v", s, err)
	}
	if _, err := AsString(Bag{}); err == nil {
		t.Fatal("AsString of bag accepted")
	}
}

func TestSchemaIndexOfAndString(t *testing.T) {
	s := Schema{{Name: "a", Type: "int"}, {Name: "b"}}
	if s.IndexOf("b") != 1 || s.IndexOf("z") != -1 {
		t.Fatal("IndexOf broken")
	}
	if s.String() != "(a:int, b)" {
		t.Fatalf("schema string %q", s.String())
	}
}

func TestRegistryDuplicateAndInvalid(t *testing.T) {
	r := NewRegistry()
	u := UDF{Name: "X", GroupKeyArg: -1, Eval: func(*Context, []Value) (Value, error) { return nil, nil }}
	if err := r.Register(u); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(u); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(UDF{Name: ""}); err == nil {
		t.Fatal("invalid UDF accepted")
	}
}

func TestVirtualTimeAccumulatesAcrossJobs(t *testing.T) {
	ctx := testContext(t)
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, fmt.Sprintf("line%d", i))
	}
	ctx.FS.WriteLines("/in", lines)
	one := MustCompile("A = LOAD '/in'; B = FOREACH A GENERATE ToUpper(line);")
	two := MustCompile("A = LOAD '/in'; B = FOREACH A GENERATE ToUpper(line); C = FOREACH B GENERATE ToUpper(f0);")
	r1, err := one.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := two.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Virtual <= r1.Virtual {
		t.Fatalf("two jobs %v not slower than one %v", r2.Virtual, r1.Virtual)
	}
	if r2.Jobs != 2 {
		t.Fatalf("jobs %d", r2.Jobs)
	}
}
