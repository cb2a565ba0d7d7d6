package pig

import (
	"fmt"
	"time"

	"github.com/metagenomics/mrmcminh/internal/mapreduce"
)

// foreach executes alias = FOREACH input GENERATE items...; as a MapReduce
// job. Three compilation shapes exist, mirroring how Pig plans UDFs:
//
//  1. tuple-at-a-time (map-only job) — the common case;
//  2. grouped UDF (full MR job grouping by the UDF's key argument), used
//     by CalculateMinwiseHash which folds all k-mers of one read;
//  3. whole-relation UDF (single-reducer job), used by the clustering UDFs
//     that need every row of the similarity matrix.
func (ex *executor) foreach(st *ForeachStmt) (time.Duration, error) {
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return 0, err
	}
	// Classify the statement by its UDF usage.
	var grouped, whole *FuncCall
	costFactor := 0.0
	for i := range st.Items {
		fc, ok := st.Items[i].Expr.(FuncCall)
		if !ok {
			continue
		}
		udf, ok := ex.ctx.Registry.UDF(fc.Name)
		if !ok {
			return 0, fmt.Errorf("pig: line %d: unknown UDF %q", st.Line, fc.Name)
		}
		if udf.CostFactor > costFactor {
			costFactor = udf.CostFactor
		}
		if udf.GroupKeyArg >= 0 {
			if grouped != nil || whole != nil || len(st.Items) != 1 {
				return 0, fmt.Errorf("pig: line %d: a grouped UDF must be the only GENERATE item", st.Line)
			}
			f := fc
			grouped = &f
		}
		if udf.WholeRelation {
			if grouped != nil || whole != nil || len(st.Items) != 1 {
				return 0, fmt.Errorf("pig: line %d: a whole-relation UDF must be the only GENERATE item", st.Line)
			}
			f := fc
			whole = &f
		}
	}
	switch {
	case grouped != nil:
		return ex.foreachGrouped(st, in, *grouped)
	case whole != nil:
		return ex.foreachWhole(st, in, *whole)
	default:
		return ex.foreachMapOnly(st, in, costFactor)
	}
}

// foreachMapOnly compiles the statement to a map-only job.
func (ex *executor) foreachMapOnly(st *ForeachStmt, in *Relation, costFactor float64) (time.Duration, error) {
	records := tuplesToRecords(in.Tuples)
	job := &mapreduce.Job{
		Name:          fmt.Sprintf("foreach-%s", st.Alias),
		Input:         mapreduce.MemoryInput{Records: records, SplitSize: splitSizeFor(len(records), ex.ctx.Engine.Cluster)},
		MapCostFactor: costFactor,
		Map: func(kv mapreduce.KeyValue, emit func(mapreduce.KeyValue)) error {
			tup := kv.Value.(Tuple)
			rows, err := ex.generate(st, tup, in)
			if err != nil {
				return err
			}
			for _, r := range rows {
				emit(mapreduce.KeyValue{Key: kv.Key, Value: r})
			}
			return nil
		},
	}
	res, err := ex.ctx.Engine.Run(job)
	if err != nil {
		return 0, err
	}
	out := &Relation{Schema: ex.outputSchema(st, in)}
	for _, kv := range res.Output {
		out.Tuples = append(out.Tuples, kv.Value.(Tuple))
	}
	ex.aliases[st.Alias] = out
	return res.Virtual, nil
}

// generate evaluates all GENERATE items against one tuple, applying
// FLATTEN cross-product semantics.
func (ex *executor) generate(st *ForeachStmt, tup Tuple, in *Relation) ([]Tuple, error) {
	rows := []Tuple{{}}
	for _, item := range st.Items {
		v, err := ex.evalTuple(item.Expr, tup, in, st.Input, st.Line)
		if err != nil {
			return nil, err
		}
		var expansions [][]Value
		if item.Flatten {
			switch x := v.(type) {
			case Bag:
				for _, bt := range x {
					expansions = append(expansions, bt.Fields)
				}
			case Tuple:
				expansions = [][]Value{x.Fields}
			default:
				expansions = [][]Value{{v}} // flatten of a scalar is identity
			}
		} else {
			expansions = [][]Value{{v}}
		}
		next := make([]Tuple, 0, len(rows)*len(expansions))
		for _, r := range rows {
			for _, fields := range expansions {
				nt := Tuple{Fields: append(append([]Value{}, r.Fields...), fields...)}
				next = append(next, nt)
			}
		}
		rows = next
	}
	return rows, nil
}

// outputSchema derives the schema produced by the GENERATE items.
func (ex *executor) outputSchema(st *ForeachStmt, in *Relation) Schema {
	var out Schema
	for i, item := range st.Items {
		if len(item.As) > 0 {
			out = append(out, item.As...)
			continue
		}
		switch e := item.Expr.(type) {
		case FieldRef:
			out = append(out, FieldSchema{Name: e.Name})
		case DottedRef:
			out = append(out, FieldSchema{Name: e.Field})
		default:
			out = append(out, FieldSchema{Name: fmt.Sprintf("f%d", i)})
		}
	}
	return out
}

// foreachGrouped compiles a grouped-UDF statement into a full MR job:
// map emits (key=arg[GroupKeyArg], value=arg[ValueArg]); reduce calls the
// UDF once per key with the collected values.
func (ex *executor) foreachGrouped(st *ForeachStmt, in *Relation, fc FuncCall) (time.Duration, error) {
	udf, _ := ex.ctx.Registry.UDF(fc.Name)
	if udf.GroupKeyArg >= len(fc.Args) || udf.ValueArg >= len(fc.Args) {
		return 0, fmt.Errorf("pig: line %d: UDF %s expects at least %d args, got %d",
			st.Line, fc.Name, max(udf.GroupKeyArg, udf.ValueArg)+1, len(fc.Args))
	}
	// Constant (non-field) arguments are evaluated once.
	constArgs := make([]Value, len(fc.Args))
	for i, a := range fc.Args {
		if i == udf.GroupKeyArg || i == udf.ValueArg {
			continue
		}
		v, err := ex.evalConst(a, st.Line)
		if err != nil {
			return 0, fmt.Errorf("pig: line %d: UDF %s arg %d must be constant: %w", st.Line, fc.Name, i, err)
		}
		constArgs[i] = v
	}
	records := tuplesToRecords(in.Tuples)
	job := &mapreduce.Job{
		Name:             fmt.Sprintf("foreach-grouped-%s", st.Alias),
		Input:            mapreduce.MemoryInput{Records: records, SplitSize: splitSizeFor(len(records), ex.ctx.Engine.Cluster)},
		NumReducers:      ex.ctx.Engine.Cluster.Nodes,
		ReduceCostFactor: udf.CostFactor,
		Map: func(kv mapreduce.KeyValue, emit func(mapreduce.KeyValue)) error {
			tup := kv.Value.(Tuple)
			keyV, err := ex.evalTuple(fc.Args[udf.GroupKeyArg], tup, in, st.Input, st.Line)
			if err != nil {
				return err
			}
			valV, err := ex.evalTuple(fc.Args[udf.ValueArg], tup, in, st.Input, st.Line)
			if err != nil {
				return err
			}
			emit(mapreduce.KeyValue{Key: FormatValue(keyV), Value: valV})
			return nil
		},
		Reduce: func(key string, values []any, emit func(mapreduce.KeyValue)) error {
			args := make([]Value, len(fc.Args))
			copy(args, constArgs)
			collected := make([]Value, len(values))
			for i, v := range values {
				collected[i] = v
			}
			args[udf.GroupKeyArg] = key
			args[udf.ValueArg] = collected
			v, err := udf.Eval(ex.ctx, args)
			if err != nil {
				return fmt.Errorf("UDF %s(%s): %w", fc.Name, key, err)
			}
			emit(mapreduce.KeyValue{Key: key, Value: v})
			return nil
		},
	}
	res, err := ex.ctx.Engine.Run(job)
	if err != nil {
		return 0, err
	}
	item := st.Items[0]
	out := &Relation{Schema: ex.outputSchema(st, in)}
	for _, kv := range res.Output {
		rows := expandItem(item, kv.Value)
		out.Tuples = append(out.Tuples, rows...)
	}
	ex.aliases[st.Alias] = out
	return res.Virtual, nil
}

// foreachWhole compiles a whole-relation UDF statement: every
// field-reference argument is gathered into a []Value across all tuples in
// a single-reducer job, then the UDF runs once.
func (ex *executor) foreachWhole(st *ForeachStmt, in *Relation, fc FuncCall) (time.Duration, error) {
	udf, _ := ex.ctx.Registry.UDF(fc.Name)
	// Resolve which arguments are per-tuple fields.
	fieldArg := make([]bool, len(fc.Args))
	constArgs := make([]Value, len(fc.Args))
	for i, a := range fc.Args {
		switch a.(type) {
		case FieldRef, PositionalRef:
			fieldArg[i] = true
		case DottedRef:
			d := a.(DottedRef)
			if d.Alias == st.Input {
				fieldArg[i] = true
			} else {
				v, err := ex.foreignDeref(d, st.Line)
				if err != nil {
					return 0, err
				}
				constArgs[i] = v
			}
		default:
			v, err := ex.evalConst(a, st.Line)
			if err != nil {
				return 0, fmt.Errorf("pig: line %d: UDF %s arg %d: %w", st.Line, fc.Name, i, err)
			}
			constArgs[i] = v
		}
	}
	records := tuplesToRecords(in.Tuples)
	job := &mapreduce.Job{
		Name:             fmt.Sprintf("foreach-whole-%s", st.Alias),
		Input:            mapreduce.MemoryInput{Records: records, SplitSize: splitSizeFor(len(records), ex.ctx.Engine.Cluster)},
		NumReducers:      1,
		ReduceCostFactor: udf.CostFactor,
		Map: func(kv mapreduce.KeyValue, emit func(mapreduce.KeyValue)) error {
			// Keys are fixed-width indices, so the single reducer's sorted
			// order restores tuple order.
			emit(kv)
			return nil
		},
		Reduce: func(key string, values []any, emit func(mapreduce.KeyValue)) error {
			for _, v := range values {
				emit(mapreduce.KeyValue{Key: key, Value: v})
			}
			return nil
		},
	}
	res, err := ex.ctx.Engine.Run(job)
	if err != nil {
		return 0, err
	}
	// Gather field arguments across all tuples (reducer output is sorted
	// by the fixed-width index key, restoring input order).
	args := make([]Value, len(fc.Args))
	copy(args, constArgs)
	for i, isField := range fieldArg {
		if !isField {
			continue
		}
		collected := make([]Value, 0, len(res.Output))
		for _, kv := range res.Output {
			v, err := ex.evalTuple(fc.Args[i], kv.Value.(Tuple), in, st.Input, st.Line)
			if err != nil {
				return 0, err
			}
			collected = append(collected, v)
		}
		args[i] = collected
	}
	v, err := udf.Eval(ex.ctx, args)
	if err != nil {
		return 0, fmt.Errorf("pig: line %d: UDF %s: %w", st.Line, fc.Name, err)
	}
	item := st.Items[0]
	out := &Relation{Schema: ex.outputSchema(st, in), Tuples: expandItem(item, v)}
	ex.aliases[st.Alias] = out
	return res.Virtual, nil
}

// expandItem applies FLATTEN semantics to one produced value.
func expandItem(item GenItem, v Value) []Tuple {
	if !item.Flatten {
		return []Tuple{NewTuple(v)}
	}
	switch x := v.(type) {
	case Bag:
		out := make([]Tuple, len(x))
		copy(out, x)
		return out
	case Tuple:
		return []Tuple{x}
	default:
		return []Tuple{NewTuple(v)}
	}
}
