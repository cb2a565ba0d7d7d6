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

// Run executes the script statement by statement. Before any statement
// runs, compilePlan pipelines chains of map-only FOREACH statements into
// the neighbouring GROUP and grouped-FOREACH jobs, as Pig's compiler
// does (plan.go); every other FOREACH, GROUP, FILTER, DISTINCT, ORDER
// and JOIN launches one MapReduce job of its own. Run accumulates the
// simulated cluster time of every job. When the engine carries a trace
// recorder, every statement opens a span that the jobs it launches nest
// under, so the whole script renders as one timeline; a fused statement's
// span holds no job, and the job that ran it lists it in its detail.
func (s *Script) Run(ctx *Context) (*RunResult, error) {
	if ctx.FS == nil || ctx.Engine == nil || ctx.Registry == nil {
		return nil, fmt.Errorf("pig: context requires FS, Engine and Registry")
	}
	start := time.Now()
	rec := ctx.Engine.Trace
	res := &RunResult{Aliases: make(map[string]*Relation), Stored: make(map[string]string), Dumps: make(map[string][]string)}
	ex := &executor{ctx: ctx, aliases: res.Aliases, plan: compilePlan(s.stmts, ctx.Registry), res: res}
	for _, st := range s.stmts {
		var ref trace.SpanRef
		if rec.Enabled() {
			ref = rec.Begin(trace.KindPigOp, stmtLabel(st))
		}
		var err error
		if !ex.plan.fused[st] {
			err = ex.execStmt(st)
		}
		rec.End(ref)
		if err != nil {
			return nil, err
		}
	}
	res.Real = time.Since(start)
	return res, nil
}

// execStmt dispatches one statement.
func (ex *executor) execStmt(st Stmt) error {
	switch t := st.(type) {
	case *LoadStmt:
		return ex.load(t)
	case *ForeachStmt:
		return ex.foreach(t)
	case *GroupStmt:
		return ex.group(t)
	case *StoreStmt:
		return ex.store(t)
	case *FilterStmt:
		return ex.filter(t)
	case *DistinctStmt:
		return ex.distinct(t)
	case *LimitStmt:
		return ex.limit(t)
	case *UnionStmt:
		return ex.union(t)
	case *OrderStmt:
		return ex.order(t)
	case *DumpStmt:
		return ex.dump(t)
	case *JoinStmt:
		return ex.join(t)
	case *DescribeStmt:
		return ex.describe(t)
	case *SampleStmt:
		return ex.sample(t)
	default:
		return fmt.Errorf("pig: unsupported statement %T", st)
	}
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
	plan    plan
	res     *RunResult
}

// runJob launches job over records on the context's engine, adds the job
// and its modelled time to the run's result, and returns the tuples it
// output, ordered by key when sorted is set (stably, so a key's rows keep
// the order its reducer yielded them in).
func (ex *executor) runJob(job *mapreduce.Job, records []mapreduce.KeyValue, sorted bool) (Bag, error) {
	job.Input = mapreduce.MemoryInput{Records: records}
	out, err := ex.ctx.Engine.Run(job)
	if err != nil {
		return nil, err
	}
	ex.res.Jobs++
	ex.res.Virtual += out.Virtual
	if sorted {
		sort.SliceStable(out.Output, func(i, j int) bool { return out.Output[i].Key < out.Output[j].Key })
	}
	rows := make(Bag, len(out.Output))
	for i, kv := range out.Output {
		rows[i] = kv.Value.(Tuple)
	}
	return rows, nil
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

// ---- GROUP, and the one job shape it shares with grouped FOREACH ----

func (ex *executor) group(st *GroupStmt) error {
	return ex.shuffle(shuffleOp{
		stmt:   st,
		name:   fmt.Sprintf("group-%s", st.Alias),
		alias:  st.Alias,
		input:  st.Input,
		line:   st.Line,
		schema: Schema{{Name: "group", Type: "chararray"}, {Name: st.Input, Type: "bag"}},
		key: func(tup Tuple, in *Relation) (string, Value, error) {
			if st.All {
				return "all", tup, nil
			}
			kval, err := ex.evalTuple(st.By, tup, in, st.Input, st.Line)
			if err != nil {
				return "", nil, err
			}
			return FormatValue(kval), tup, nil
		},
		fold: func(key string, values []any) ([]Tuple, error) {
			bag := make(Bag, 0, len(values))
			for _, v := range values {
				bag = append(bag, v.(Tuple))
			}
			return []Tuple{NewTuple(key, bag)}, nil
		},
		// Sort by group key for deterministic output across reducers.
		sorted: true,
	})
}

// shuffleOp is what a GROUP or grouped-FOREACH statement brings to its
// MapReduce job: the key step its map phase ends in and the fold its
// reduce phase starts with. shuffle builds the job around them.
type shuffleOp struct {
	stmt         Stmt
	name         string
	alias, input string
	line         int
	// schema is that of the tuples fold yields.
	schema Schema
	// key turns one tuple of the statement's input (schema in) into the
	// shuffled key and value.
	key func(tup Tuple, in *Relation) (string, Value, error)
	// fold turns one key's shuffled values into the statement's tuples.
	fold func(key string, values []any) ([]Tuple, error)
	// costFactor is the fold's UDF CostFactor.
	costFactor float64
	// sorted orders the output by key (see runJob).
	sorted bool
}

// shuffle runs op as one MapReduce job together with the chains the plan
// fused into it; an unfused statement has empty chains. The map phase
// reads the relation the first map-chain statement reads (op's input
// when the chain is empty), pipes each tuple through the chain and keys
// every row that comes out. The reduce phase folds each key and pipes
// every tuple the fold yields through the reduce chain, emitting the rows
// under the key. The rows that leave the last stage materialize under its
// alias. Each phase charges per input record at the largest CostFactor
// among the statements it runs.
func (ex *executor) shuffle(op shuffleOp) error {
	f := ex.plan.jobs[op.stmt]
	srcName, srcLine := op.input, op.line
	if len(f.mapChain) > 0 {
		srcName, srcLine = f.mapChain[0].Input, f.mapChain[0].Line
	}
	src, err := ex.relation(srcName, srcLine)
	if err != nil {
		return err
	}
	mapStages, keyIn, mapCost := ex.stages(f.mapChain, src)
	reduceStages, out, reduceCost := ex.stages(f.reduceChain, &Relation{Schema: op.schema})
	job := &mapreduce.Job{
		Name:             op.name,
		Detail:           f.phases(op.alias),
		MapCostFactor:    mapCost,
		ReduceCostFactor: max(op.costFactor, reduceCost),
		Map: func(kv mapreduce.KeyValue, emit func(mapreduce.KeyValue)) error {
			return ex.pipe(mapStages, kv.Value.(Tuple), func(tup Tuple) error {
				key, val, err := op.key(tup, keyIn)
				if err != nil {
					return err
				}
				emit(mapreduce.KeyValue{Key: key, Value: val})
				return nil
			})
		},
		Reduce: func(key string, values []any, emit func(mapreduce.KeyValue)) error {
			tuples, err := op.fold(key, values)
			if err != nil {
				return err
			}
			for _, tup := range tuples {
				if err := ex.pipe(reduceStages, tup, func(row Tuple) error {
					emit(mapreduce.KeyValue{Key: key, Value: row})
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		},
	}
	if out.Tuples, err = ex.runJob(job, tuplesToRecords(src.Tuples), op.sorted); err != nil {
		return err
	}
	alias := op.alias
	if n := len(f.reduceChain); n > 0 {
		alias = f.reduceChain[n-1].Alias
	}
	ex.aliases[alias] = out
	return nil
}

// stage is one map-only FOREACH fused into a neighbouring job, with the
// relation whose schema its expressions resolve against.
type stage struct {
	st *ForeachStmt
	in *Relation
}

// stages binds a fused chain to the schemas that flow through it from
// in. It returns the stages, the relation the last one yields (in itself
// for an empty chain) and the largest CostFactor among their UDFs.
func (ex *executor) stages(chain []*ForeachStmt, in *Relation) ([]stage, *Relation, float64) {
	out := make([]stage, len(chain))
	costFactor := 0.0
	for i, st := range chain {
		_, _, cf, _ := classify(ex.ctx.Registry, st) // the plan fuses only statements that classify
		costFactor = max(costFactor, cf)
		out[i] = stage{st: st, in: in}
		in = &Relation{Schema: outputSchema(st)}
	}
	return out, in, costFactor
}

// pipe pushes tup through stages depth first, calling emit with each row
// the last stage yields. Rows leave in the order running each stage as
// its own job over the whole relation would produce them.
func (ex *executor) pipe(stages []stage, tup Tuple, emit func(Tuple) error) error {
	if len(stages) == 0 {
		return emit(tup)
	}
	rows, err := ex.generate(stages[0].st, tup, stages[0].in)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := ex.pipe(stages[1:], row, emit); err != nil {
			return err
		}
	}
	return nil
}

// ---- STORE ----

// store materializes a relation through the output-commit protocol: the
// part file is staged under the target's _temporary tree and promoted by
// an atomic rename, then the directory is finalized with a _SUCCESS
// marker — a driver dying mid-STORE never leaves partial output visible.
// With a checkpoint journal the committed bytes are also recorded under
// a "store:<path>" manifest entry; resuming validates the entry (typed
// error on mismatch) and restores its bytes instead of re-journaling.
func (ex *executor) store(st *StoreStmt) error {
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return err
	}
	path, err := ex.substituteParams(st.Path, st.Line)
	if err != nil {
		return err
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
				return fmt.Errorf("pig: line %d: %w", st.Line, err)
			}
			if ok {
				data, restored = saved, true
			}
		}
		if !restored {
			if _, err := ck.Commit(stage, checkpoint.HashBytes(data), nil, data); err != nil {
				return fmt.Errorf("pig: line %d: %w", st.Line, err)
			}
		}
	}

	oc := mapreduce.NewOutputCommitter(ex.ctx.FS, path)
	oc.SetTrace(ex.ctx.Engine.Trace)
	if err := oc.WriteAttemptFile(0, 0, "part-00000", data); err != nil {
		return fmt.Errorf("pig: line %d: storing %q: %w", st.Line, path, err)
	}
	if err := oc.CommitTask(0, 0); err != nil {
		return fmt.Errorf("pig: line %d: storing %q: %w", st.Line, path, err)
	}
	if err := oc.CommitJob(); err != nil {
		return fmt.Errorf("pig: line %d: storing %q: %w", st.Line, path, err)
	}
	if df := ex.ctx.Engine.Faults; df.DriverCrashAfter(stage) {
		return &faults.DriverCrashError{Stage: stage}
	}
	ex.res.Stored[st.Input] = path
	if restored {
		ex.res.Restored = append(ex.res.Restored, path)
	}
	return nil
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
