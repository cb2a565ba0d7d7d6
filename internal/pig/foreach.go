package pig

import (
	"fmt"
)

// foreach executes alias = FOREACH input GENERATE items...; as a MapReduce
// job. Three compilation shapes exist, mirroring how Pig plans UDFs:
//
//  1. tuple-at-a-time (map-only job) — the common case;
//  2. grouped UDF (full MR job grouping by the UDF's key argument), used
//     by CalculateMinwiseHash which folds all k-mers of one read; it is
//     GROUP's job shape (shuffle);
//  3. whole-relation UDF (single-reducer job), used by the clustering UDFs
//     that need every row of the similarity matrix.
//
// A tuple-at-a-time statement that the plan fuses into a neighbouring
// GROUP or grouped-UDF job (plan.go) never gets here: that job runs it in
// its map phase, ahead of the key step, or in its reduce phase, on every
// tuple the reducer yields.
func (ex *executor) foreach(st *ForeachStmt) error {
	shape, call, costFactor, err := classify(ex.ctx.Registry, st)
	if err != nil {
		return err
	}
	if shape == groupedUDF {
		return ex.foreachGrouped(st, call)
	}
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return err
	}
	if shape == wholeRelation {
		return ex.foreachWhole(st, in, call)
	}
	return ex.foreachMapOnly(st, in, costFactor)
}

// foreachShape is how a FOREACH compiles (see foreach).
type foreachShape int

const (
	tupleAtATime foreachShape = iota
	groupedUDF
	wholeRelation
)

// classify returns st's shape, the grouped or whole-relation call that
// sets it, and the largest CostFactor among its UDFs.
func classify(reg *Registry, st *ForeachStmt) (foreachShape, FuncCall, float64, error) {
	shape, call, costFactor := tupleAtATime, FuncCall{}, 0.0
	for _, item := range st.Items {
		fc, ok := item.Expr.(FuncCall)
		if !ok {
			continue
		}
		udf, ok := reg.UDF(fc.Name)
		if !ok {
			return 0, FuncCall{}, 0, fmt.Errorf("pig: line %d: unknown UDF %q", st.Line, fc.Name)
		}
		costFactor = max(costFactor, udf.CostFactor)
		if udf.GroupKeyArg >= 0 {
			if shape != tupleAtATime || len(st.Items) != 1 {
				return 0, FuncCall{}, 0, fmt.Errorf("pig: line %d: a grouped UDF must be the only GENERATE item", st.Line)
			}
			shape, call = groupedUDF, fc
		}
		if udf.WholeRelation {
			if shape != tupleAtATime || len(st.Items) != 1 {
				return 0, FuncCall{}, 0, fmt.Errorf("pig: line %d: a whole-relation UDF must be the only GENERATE item", st.Line)
			}
			shape, call = wholeRelation, fc
		}
	}
	return shape, call, costFactor, nil
}

// foreachMapOnly compiles the statement to a map-only job.
func (ex *executor) foreachMapOnly(st *ForeachStmt, in *Relation, costFactor float64) error {
	job := &mrJob{
		Name:          fmt.Sprintf("foreach-%s", st.Alias),
		MapCostFactor: costFactor,
		Map: func(kv mrRecord, emit func(string, any)) error {
			tup := kv.Value.(Tuple)
			rows, err := ex.generate(st, tup, in)
			if err != nil {
				return err
			}
			for _, r := range rows {
				emit(kv.Key, r)
			}
			return nil
		},
	}
	rows, err := ex.runJob(job, tuplesToRecords(in.Tuples), false)
	if err != nil {
		return err
	}
	ex.aliases[st.Alias] = &Relation{Schema: outputSchema(st), Tuples: rows}
	return nil
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
				expansions = make([][]Value, len(x))
				for i, bt := range x {
					expansions[i] = bt.Fields
				}
			case Tuple:
				expansions = [][]Value{x.Fields}
			default:
				expansions = [][]Value{{v}} // flatten of a scalar is identity
			}
		} else {
			expansions = [][]Value{{v}}
		}
		// Every output row's fields are cut from one slab, each row
		// capped so that an append to it cannot write into the next.
		size := 0
		for _, r := range rows {
			size += len(r.Fields) * len(expansions)
		}
		for _, fields := range expansions {
			size += len(fields) * len(rows)
		}
		slab := make([]Value, size)
		next := make([]Tuple, 0, len(rows)*len(expansions))
		for _, r := range rows {
			for _, fields := range expansions {
				w := len(r.Fields) + len(fields)
				row := slab[:w:w]
				slab = slab[w:]
				copy(row[copy(row, r.Fields):], fields)
				next = append(next, Tuple{Fields: row})
			}
		}
		rows = next
	}
	return rows, nil
}

// outputSchema derives the schema produced by the GENERATE items.
func outputSchema(st *ForeachStmt) Schema {
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

// foreachGrouped compiles a grouped-UDF statement into GROUP's job shape
// (shuffle): the key step emits (key=arg[GroupKeyArg],
// value=arg[ValueArg]); the fold calls the UDF once per key with the
// collected values.
func (ex *executor) foreachGrouped(st *ForeachStmt, fc FuncCall) error {
	udf, _ := ex.ctx.Registry.UDF(fc.Name)
	if udf.GroupKeyArg >= len(fc.Args) || udf.ValueArg >= len(fc.Args) {
		return fmt.Errorf("pig: line %d: UDF %s expects at least %d args, got %d",
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
			return fmt.Errorf("pig: line %d: UDF %s arg %d must be constant: %w", st.Line, fc.Name, i, err)
		}
		constArgs[i] = v
	}
	return ex.shuffle(shuffleOp{
		stmt:       st,
		name:       fmt.Sprintf("foreach-grouped-%s", st.Alias),
		alias:      st.Alias,
		input:      st.Input,
		line:       st.Line,
		schema:     outputSchema(st),
		costFactor: udf.CostFactor,
		key: func(tup Tuple, in *Relation) (string, Value, error) {
			keyV, err := ex.evalTuple(fc.Args[udf.GroupKeyArg], tup, in, st.Input, st.Line)
			if err != nil {
				return "", nil, err
			}
			valV, err := ex.evalTuple(fc.Args[udf.ValueArg], tup, in, st.Input, st.Line)
			if err != nil {
				return "", nil, err
			}
			return FormatValue(keyV), valV, nil
		},
		fold: func(key string, values []any) ([]Tuple, error) {
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
				return nil, fmt.Errorf("UDF %s(%s): %w", fc.Name, key, err)
			}
			return expandItem(st.Items[0], v), nil
		},
	})
}

// foreachWhole compiles a whole-relation UDF statement: every
// field-reference argument is gathered into a []Value across all tuples in
// a single-reducer job, then the UDF runs once.
func (ex *executor) foreachWhole(st *ForeachStmt, in *Relation, fc FuncCall) error {
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
					return err
				}
				constArgs[i] = v
			}
		default:
			v, err := ex.evalConst(a, st.Line)
			if err != nil {
				return fmt.Errorf("pig: line %d: UDF %s arg %d: %w", st.Line, fc.Name, i, err)
			}
			constArgs[i] = v
		}
	}
	job := &mrJob{
		Name:             fmt.Sprintf("foreach-whole-%s", st.Alias),
		NumReducers:      1,
		ReduceCostFactor: udf.CostFactor,
		Map: func(kv mrRecord, emit func(string, any)) error {
			// Keys are fixed-width indices, so the single reducer's sorted
			// order restores tuple order.
			emit(kv.Key, kv.Value)
			return nil
		},
		Reduce: func(key string, values []any, emit func(string, any)) error {
			for _, v := range values {
				emit(key, v)
			}
			return nil
		},
	}
	rows, err := ex.runJob(job, tuplesToRecords(in.Tuples), false)
	if err != nil {
		return err
	}
	// Gather field arguments across all tuples (reducer output is sorted
	// by the fixed-width index key, restoring input order).
	args := make([]Value, len(fc.Args))
	copy(args, constArgs)
	for i, isField := range fieldArg {
		if !isField {
			continue
		}
		collected := make([]Value, 0, len(rows))
		for _, tup := range rows {
			v, err := ex.evalTuple(fc.Args[i], tup, in, st.Input, st.Line)
			if err != nil {
				return err
			}
			collected = append(collected, v)
		}
		args[i] = collected
	}
	v, err := udf.Eval(ex.ctx, args)
	if err != nil {
		return fmt.Errorf("pig: line %d: UDF %s: %w", st.Line, fc.Name, err)
	}
	ex.aliases[st.Alias] = &Relation{Schema: outputSchema(st), Tuples: expandItem(st.Items[0], v)}
	return nil
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
