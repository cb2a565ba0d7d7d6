package pig

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// Script is a compiled Pig program.
type Script struct {
	stmts []Stmt
}

// Compile parses src into an executable script.
func Compile(src string) (*Script, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return &Script{stmts: stmts}, nil
}

// MustCompile is Compile panicking on error.
func MustCompile(src string) *Script {
	s, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return s
}

// Run executes the script statement by statement, launching one MapReduce
// job per FOREACH/GROUP (Pig's one-operator-one-job compilation for linear
// scripts) and accumulating the simulated cluster time. When the engine
// carries a trace recorder, every logical operator opens a span that the
// jobs it launches nest under, so the whole script renders as one
// timeline.
func (s *Script) Run(ctx *Context) (*RunResult, error) {
	if ctx.FS == nil || ctx.Engine == nil || ctx.Registry == nil {
		return nil, fmt.Errorf("pig: context requires FS, Engine and Registry")
	}
	start := time.Now()
	rec := ctx.Engine.Trace
	ex := &executor{ctx: ctx, aliases: make(map[string]*Relation)}
	res := &RunResult{Aliases: ex.aliases, Stored: make(map[string]string), Dumps: make(map[string][]string)}
	for _, st := range s.stmts {
		var ref trace.SpanRef
		if rec.Enabled() {
			ref = rec.Begin(trace.KindPigOp, stmtLabel(st))
		}
		err := ex.execStmt(st, res)
		rec.End(ref)
		if err != nil {
			return nil, err
		}
	}
	res.Real = time.Since(start)
	return res, nil
}

// execStmt dispatches one statement, accumulating job counts and modelled
// time into res.
func (ex *executor) execStmt(st Stmt, res *RunResult) error {
	switch t := st.(type) {
	case *LoadStmt:
		return ex.load(t)
	case *ForeachStmt:
		virt, err := ex.foreach(t)
		if err != nil {
			return err
		}
		res.Virtual += virt
		res.Jobs++
	case *GroupStmt:
		virt, err := ex.group(t)
		if err != nil {
			return err
		}
		res.Virtual += virt
		res.Jobs++
	case *StoreStmt:
		path, restored, err := ex.store(t)
		if err != nil {
			return err
		}
		res.Stored[t.Input] = path
		if restored {
			res.Restored = append(res.Restored, path)
		}
	case *FilterStmt:
		virt, err := ex.filter(t)
		if err != nil {
			return err
		}
		res.Virtual += virt
		res.Jobs++
	case *DistinctStmt:
		virt, err := ex.distinct(t)
		if err != nil {
			return err
		}
		res.Virtual += virt
		res.Jobs++
	case *LimitStmt:
		return ex.limit(t)
	case *UnionStmt:
		return ex.union(t)
	case *OrderStmt:
		virt, err := ex.order(t)
		if err != nil {
			return err
		}
		res.Virtual += virt
		res.Jobs++
	case *DumpStmt:
		return ex.dump(t, res)
	case *JoinStmt:
		virt, err := ex.join(t)
		if err != nil {
			return err
		}
		res.Virtual += virt
		res.Jobs++
	case *DescribeStmt:
		return ex.describe(t, res)
	case *SampleStmt:
		return ex.sample(t)
	default:
		return fmt.Errorf("pig: unsupported statement %T", st)
	}
	return nil
}

// stmtLabel names a statement for its trace span, Pig-source style.
func stmtLabel(st Stmt) string {
	switch t := st.(type) {
	case *LoadStmt:
		return fmt.Sprintf("%s = LOAD '%s'", t.Alias, t.Path)
	case *ForeachStmt:
		return fmt.Sprintf("%s = FOREACH %s", t.Alias, t.Input)
	case *GroupStmt:
		if t.All {
			return fmt.Sprintf("%s = GROUP %s ALL", t.Alias, t.Input)
		}
		return fmt.Sprintf("%s = GROUP %s", t.Alias, t.Input)
	case *StoreStmt:
		return fmt.Sprintf("STORE %s INTO '%s'", t.Input, t.Path)
	case *FilterStmt:
		return fmt.Sprintf("%s = FILTER %s", t.Alias, t.Input)
	case *DistinctStmt:
		return fmt.Sprintf("%s = DISTINCT %s", t.Alias, t.Input)
	case *LimitStmt:
		return fmt.Sprintf("%s = LIMIT %s", t.Alias, t.Input)
	case *UnionStmt:
		return fmt.Sprintf("%s = UNION %s", t.Alias, strings.Join(t.Inputs, ", "))
	case *OrderStmt:
		return fmt.Sprintf("%s = ORDER %s", t.Alias, t.Input)
	case *DumpStmt:
		return fmt.Sprintf("DUMP %s", t.Input)
	case *JoinStmt:
		return fmt.Sprintf("%s = JOIN %s", t.Alias, strings.Join(t.Inputs, ", "))
	case *DescribeStmt:
		return fmt.Sprintf("DESCRIBE %s", t.Input)
	case *SampleStmt:
		return fmt.Sprintf("%s = SAMPLE %s", t.Alias, t.Input)
	default:
		return fmt.Sprintf("%T", st)
	}
}

// executor tracks alias state during a run.
type executor struct {
	ctx     *Context
	aliases map[string]*Relation
}

// relation resolves an alias or fails with its use-site line.
func (ex *executor) relation(name string, line int) (*Relation, error) {
	rel, ok := ex.aliases[name]
	if !ok {
		return nil, fmt.Errorf("pig: line %d: unknown alias %q", line, name)
	}
	return rel, nil
}

// substituteParams replaces $NAME holes in a string (used for paths).
func (ex *executor) substituteParams(s string, line int) (string, error) {
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '$' {
			sb.WriteByte(s[i])
			i++
			continue
		}
		j := i + 1
		for j < len(s) && (isIdentPart(rune(s[j]))) {
			j++
		}
		if j == i+1 {
			return "", fmt.Errorf("pig: line %d: dangling '$' in %q", line, s)
		}
		v, err := ex.ctx.Param(s[i+1 : j])
		if err != nil {
			return "", fmt.Errorf("pig: line %d: %w", line, err)
		}
		sb.WriteString(v)
		i = j
	}
	return sb.String(), nil
}

// ---- LOAD ----

func (ex *executor) load(st *LoadStmt) error {
	loader, ok := ex.ctx.Registry.Loader(st.Loader)
	if !ok {
		return fmt.Errorf("pig: line %d: unknown loader %q", st.Line, st.Loader)
	}
	path, err := ex.substituteParams(st.Path, st.Line)
	if err != nil {
		return err
	}
	args, err := ex.constArgs(st.Args, st.Line)
	if err != nil {
		return err
	}
	rel, err := loader(ex.ctx, path, args)
	if err != nil {
		return fmt.Errorf("pig: line %d: loading %q: %w", st.Line, path, err)
	}
	if len(st.As) > 0 {
		rel.Schema = st.As
	}
	ex.aliases[st.Alias] = rel
	return nil
}

// constArgs evaluates loader arguments (no tuple context).
func (ex *executor) constArgs(exprs []Expr, line int) ([]Value, error) {
	out := make([]Value, len(exprs))
	for i, e := range exprs {
		v, err := ex.evalConst(e, line)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// evalConst evaluates literals and params outside any tuple context.
func (ex *executor) evalConst(e Expr, line int) (Value, error) {
	switch t := e.(type) {
	case Literal:
		return t.Value, nil
	case ParamRef:
		v, err := ex.ctx.Param(t.Name)
		if err != nil {
			return nil, fmt.Errorf("pig: line %d: %w", line, err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("pig: line %d: expression %T is not constant", line, e)
	}
}

// ---- GROUP ----

func (ex *executor) group(st *GroupStmt) (time.Duration, error) {
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return 0, err
	}
	records := tuplesToRecords(in.Tuples)
	job := &mapreduce.Job{
		Name:  fmt.Sprintf("group-%s", st.Alias),
		Input: mapreduce.MemoryInput{Records: records, SplitSize: splitSizeFor(len(records), ex.ctx.Engine.Cluster)},
		Map: func(kv mapreduce.KeyValue, emit func(mapreduce.KeyValue)) error {
			tup := kv.Value.(Tuple)
			key := "all"
			if !st.All {
				kval, err := ex.evalTuple(st.By, tup, in, st.Input, st.Line)
				if err != nil {
					return err
				}
				key = FormatValue(kval)
			}
			emit(mapreduce.KeyValue{Key: key, Value: tup})
			return nil
		},
		Reduce: func(key string, values []any, emit func(mapreduce.KeyValue)) error {
			bag := make(Bag, 0, len(values))
			for _, v := range values {
				bag = append(bag, v.(Tuple))
			}
			emit(mapreduce.KeyValue{Key: key, Value: NewTuple(key, bag)})
			return nil
		},
		NumReducers: ex.ctx.Engine.Cluster.Nodes,
	}
	res, err := ex.ctx.Engine.Run(job)
	if err != nil {
		return 0, err
	}
	out := &Relation{Schema: Schema{{Name: "group", Type: "chararray"}, {Name: st.Input, Type: "bag"}}}
	// Sort by group key for deterministic output across reducers.
	sort.SliceStable(res.Output, func(i, j int) bool { return res.Output[i].Key < res.Output[j].Key })
	for _, kv := range res.Output {
		out.Tuples = append(out.Tuples, kv.Value.(Tuple))
	}
	ex.aliases[st.Alias] = out
	return res.Virtual, nil
}

// ---- STORE ----

// store materializes a relation through the output-commit protocol: the
// part file is staged under the target's _temporary tree and promoted by
// an atomic rename, then the directory is finalized with a _SUCCESS
// marker — a driver dying mid-STORE never leaves partial output visible.
// With a checkpoint journal the committed bytes are also recorded under
// a "store:<path>" manifest entry; resuming validates the entry (typed
// error on mismatch) and restores its bytes instead of re-journaling.
func (ex *executor) store(st *StoreStmt) (string, bool, error) {
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return "", false, err
	}
	path, err := ex.substituteParams(st.Path, st.Line)
	if err != nil {
		return "", false, err
	}
	var sb strings.Builder
	for _, tup := range in.Tuples {
		parts := make([]string, len(tup.Fields))
		for i, f := range tup.Fields {
			parts[i] = FormatValue(f)
		}
		sb.WriteString(strings.Join(parts, "\t"))
		sb.WriteByte('\n')
	}
	data := []byte(sb.String())

	stage := "store:" + path
	restored := false
	if ck := ex.ctx.Checkpoint; ck != nil {
		if ex.ctx.Resume {
			saved, ok, err := ck.Validate(stage, checkpoint.HashBytes(data), nil)
			if err != nil {
				return "", false, fmt.Errorf("pig: line %d: %w", st.Line, err)
			}
			if ok {
				data, restored = saved, true
			}
		}
		if !restored {
			if _, err := ck.Commit(stage, checkpoint.HashBytes(data), nil, data); err != nil {
				return "", false, fmt.Errorf("pig: line %d: %w", st.Line, err)
			}
		}
	}

	oc := mapreduce.NewOutputCommitter(ex.ctx.FS, path)
	oc.SetTrace(ex.ctx.Engine.Trace)
	if err := oc.WriteAttemptFile(0, 0, "part-00000", data); err != nil {
		return "", false, fmt.Errorf("pig: line %d: storing %q: %w", st.Line, path, err)
	}
	if err := oc.CommitTask(0, 0); err != nil {
		return "", false, fmt.Errorf("pig: line %d: storing %q: %w", st.Line, path, err)
	}
	if err := oc.CommitJob(); err != nil {
		return "", false, fmt.Errorf("pig: line %d: storing %q: %w", st.Line, path, err)
	}
	if df := ex.ctx.Engine.Faults; df.DriverCrashAfter(stage) {
		return "", false, &faults.DriverCrashError{Stage: stage}
	}
	return path, restored, nil
}

// ---- helpers shared with FOREACH ----

// tuplesToRecords wraps tuples as MapReduce records keyed by a
// fixed-width index so lexicographic key order equals tuple order.
func tuplesToRecords(tuples Bag) []mapreduce.KeyValue {
	recs := make([]mapreduce.KeyValue, len(tuples))
	for i, t := range tuples {
		recs[i] = mapreduce.KeyValue{Key: fmt.Sprintf("%012d", i), Value: t}
	}
	return recs
}

// splitSizeFor sizes splits so every cluster slot gets work (≥2 waves).
func splitSizeFor(n int, c mapreduce.Cluster) int {
	waves := 2 * c.TotalSlots()
	size := (n + waves - 1) / waves
	if size < 1 {
		size = 1
	}
	return size
}

// evalTuple evaluates an expression against one tuple of relation rel
// (bound to alias inputName).
func (ex *executor) evalTuple(e Expr, tup Tuple, rel *Relation, inputName string, line int) (Value, error) {
	switch t := e.(type) {
	case Literal:
		return t.Value, nil
	case ParamRef:
		v, err := ex.ctx.Param(t.Name)
		if err != nil {
			return nil, fmt.Errorf("pig: line %d: %w", line, err)
		}
		return v, nil
	case PositionalRef:
		if t.Index < 0 || t.Index >= len(tup.Fields) {
			return nil, fmt.Errorf("pig: line %d: positional $%d out of range (%d fields)", line, t.Index, len(tup.Fields))
		}
		return tup.Fields[t.Index], nil
	case FieldRef:
		idx := rel.Schema.IndexOf(t.Name)
		if idx < 0 {
			return nil, fmt.Errorf("pig: line %d: unknown field %q in schema %s", line, t.Name, rel.Schema)
		}
		if idx >= len(tup.Fields) {
			return nil, fmt.Errorf("pig: line %d: tuple too short for field %q", line, t.Name)
		}
		return tup.Fields[idx], nil
	case DottedRef:
		if t.Alias == inputName {
			return ex.evalTuple(FieldRef{Name: t.Field}, tup, rel, inputName, line)
		}
		return ex.foreignDeref(t, line)
	case Compare:
		l, err := ex.evalTuple(t.L, tup, rel, inputName, line)
		if err != nil {
			return nil, err
		}
		r, err := ex.evalTuple(t.R, tup, rel, inputName, line)
		if err != nil {
			return nil, err
		}
		ok, err := compareValues(t.Op, l, r)
		if err != nil {
			return nil, fmt.Errorf("pig: line %d: %w", line, err)
		}
		return ok, nil
	case Logic:
		l, err := ex.evalTuple(t.L, tup, rel, inputName, line)
		if err != nil {
			return nil, err
		}
		lb, err := truthy(l)
		if err != nil {
			return nil, fmt.Errorf("pig: line %d: %w", line, err)
		}
		// Short-circuit.
		if t.Op == "and" && !lb {
			return false, nil
		}
		if t.Op == "or" && lb {
			return true, nil
		}
		r, err := ex.evalTuple(t.R, tup, rel, inputName, line)
		if err != nil {
			return nil, err
		}
		rb, err := truthy(r)
		if err != nil {
			return nil, fmt.Errorf("pig: line %d: %w", line, err)
		}
		return rb, nil
	case Not:
		x, err := ex.evalTuple(t.X, tup, rel, inputName, line)
		if err != nil {
			return nil, err
		}
		b, err := truthy(x)
		if err != nil {
			return nil, fmt.Errorf("pig: line %d: %w", line, err)
		}
		return !b, nil
	case FuncCall:
		udf, ok := ex.ctx.Registry.UDF(t.Name)
		if !ok {
			return nil, fmt.Errorf("pig: line %d: unknown UDF %q", line, t.Name)
		}
		if udf.GroupKeyArg >= 0 && udf.Eval != nil && udf.WholeRelation {
			return nil, fmt.Errorf("pig: line %d: UDF %q cannot be both grouped and whole-relation", line, t.Name)
		}
		args := make([]Value, len(t.Args))
		for i, a := range t.Args {
			v, err := ex.evalTuple(a, tup, rel, inputName, line)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		v, err := udf.Eval(ex.ctx, args)
		if err != nil {
			return nil, fmt.Errorf("pig: line %d: UDF %s: %w", line, t.Name, err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("pig: line %d: unsupported expression %T", line, e)
	}
}

// foreignDeref resolves alias.field against a different relation — Pig's
// scalar dereference. A single-tuple relation yields the field value; a
// multi-tuple relation yields a Bag of that field.
func (ex *executor) foreignDeref(ref DottedRef, line int) (Value, error) {
	rel, err := ex.relation(ref.Alias, line)
	if err != nil {
		return nil, err
	}
	idx := rel.Schema.IndexOf(ref.Field)
	if idx < 0 {
		return nil, fmt.Errorf("pig: line %d: relation %q has no field %q (schema %s)", line, ref.Alias, ref.Field, rel.Schema)
	}
	if len(rel.Tuples) == 1 {
		return rel.Tuples[0].Fields[idx], nil
	}
	bag := make(Bag, len(rel.Tuples))
	for i, t := range rel.Tuples {
		bag[i] = NewTuple(t.Fields[idx])
	}
	return bag, nil
}
