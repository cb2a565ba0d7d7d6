package pig

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// Execution of the relational operators beyond LOAD/FOREACH/GROUP/STORE:
// FILTER compiles to a map-only job; DISTINCT to a full MapReduce job
// (dedup happens in reducers, as Pig plans it); ORDER to a sampled
// range-partitioned MR job (Hadoop's TotalOrderPartitioner); LIMIT,
// UNION, SAMPLE and DESCRIBE run on the driver.

// filter runs alias = FILTER input BY cond.
func (ex *executor) filter(st *FilterStmt) error {
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return err
	}
	job := &mrJob{
		Name: fmt.Sprintf("filter-%s", st.Alias),
		Map: func(kv mrRecord, emit func(string, any)) error {
			tup := kv.Value.(Tuple)
			v, err := ex.evalTuple(st.Cond, tup, in, st.Input, st.Line)
			if err != nil {
				return err
			}
			keep, err := truthy(v)
			if err != nil {
				return fmt.Errorf("pig: line %d: FILTER condition: %w", st.Line, err)
			}
			if keep {
				emit(kv.Key, kv.Value)
			}
			return nil
		},
	}
	rows, err := ex.runJob(job, tuplesToRecords(in.Tuples), false)
	if err != nil {
		return err
	}
	ex.aliases[st.Alias] = &Relation{Schema: in.Schema, Tuples: rows}
	return nil
}

// distinct runs alias = DISTINCT input as a full MR job keyed by the
// tuple's rendered form.
func (ex *executor) distinct(st *DistinctStmt) error {
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return err
	}
	job := &mrJob{
		Name: fmt.Sprintf("distinct-%s", st.Alias),
		Map: func(kv mrRecord, emit func(string, any)) error {
			tup := kv.Value.(Tuple)
			emit(FormatValue(tup), tup)
			return nil
		},
		Combine: func(key string, values []any, emit func(string, any)) error {
			emit(key, values[0])
			return nil
		},
		Reduce: func(key string, values []any, emit func(string, any)) error {
			emit(key, values[0])
			return nil
		},
	}
	// Sorted for deterministic output order across reducers.
	rows, err := ex.runJob(job, tuplesToRecords(in.Tuples), true)
	if err != nil {
		return err
	}
	ex.aliases[st.Alias] = &Relation{Schema: in.Schema, Tuples: rows}
	return nil
}

// limit runs alias = LIMIT input n on the driver.
func (ex *executor) limit(st *LimitStmt) error {
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return err
	}
	nv, err := ex.evalConst(st.N, st.Line)
	if err != nil {
		return err
	}
	n, err := AsInt(nv)
	if err != nil || n < 0 {
		return fmt.Errorf("pig: line %d: LIMIT needs a non-negative count, got %v", st.Line, nv)
	}
	if n > len(in.Tuples) {
		n = len(in.Tuples)
	}
	out := &Relation{Schema: in.Schema, Tuples: append(Bag{}, in.Tuples[:n]...)}
	ex.aliases[st.Alias] = out
	return nil
}

// union runs alias = UNION a, b, ... on the driver. Schemas must have the
// same arity; the first input's schema wins (Pig's onschema-less UNION).
func (ex *executor) union(st *UnionStmt) error {
	var out *Relation
	for _, name := range st.Inputs {
		in, err := ex.relation(name, st.Line)
		if err != nil {
			return err
		}
		if out == nil {
			out = &Relation{Schema: in.Schema}
		} else if len(in.Schema) != len(out.Schema) {
			return fmt.Errorf("pig: line %d: UNION arity mismatch: %s has %d fields, %s has %d",
				st.Line, st.Inputs[0], len(out.Schema), name, len(in.Schema))
		}
		out.Tuples = append(out.Tuples, in.Tuples...)
	}
	ex.aliases[st.Alias] = out
	return nil
}

// order runs alias = ORDER input BY expr [DESC] as Pig plans it: a
// sampling pass picks range boundaries, a full MR job range-partitions
// tuples so partition i holds keys entirely below partition i+1 (Hadoop's
// TotalOrderPartitioner), reducers sort locally, and concatenating the
// partitions yields the total order.
func (ex *executor) order(st *OrderStmt) error {
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return err
	}
	// sortKey evaluates the BY expression into a comparable form.
	type sortKey struct {
		num float64
		str string
		ok  bool // numeric
	}
	keyOf := func(tup Tuple) (sortKey, error) {
		v, err := ex.evalTuple(st.By, tup, in, st.Input, st.Line)
		if err != nil {
			return sortKey{}, err
		}
		if f, err := AsFloat(v); err == nil {
			return sortKey{num: f, ok: true}, nil
		}
		s, _ := AsString(v)
		return sortKey{str: s}, nil
	}
	less := func(a, b sortKey) bool {
		if a.ok && b.ok {
			return a.num < b.num
		}
		if a.ok != b.ok {
			return a.ok // numbers sort before strings, as in Pig
		}
		return a.str < b.str
	}

	// Sampling pass: take up to R-1 quantile boundaries from a key sample
	// (here: all keys; real Pig samples — our relations are materialized).
	numRed := ex.ctx.Engine.Cluster.Nodes
	keys := make([]sortKey, len(in.Tuples))
	for i, tup := range in.Tuples {
		k, err := keyOf(tup)
		if err != nil {
			return err
		}
		keys[i] = k
	}
	sorted := append([]sortKey{}, keys...)
	sort.SliceStable(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
	bounds := make([]sortKey, 0, numRed-1)
	for r := 1; r < numRed && len(sorted) > 0; r++ {
		bounds = append(bounds, sorted[r*len(sorted)/numRed])
	}
	partitionOf := func(k sortKey) int {
		p := 0
		for p < len(bounds) && !less(k, bounds[p]) {
			p++
		}
		return p
	}

	type keyedTuple struct {
		key sortKey
		tup Tuple
		seq int // original index for stability
	}
	job := &mrJob{
		Name:        fmt.Sprintf("order-%s", st.Alias),
		NumReducers: numRed,
		Map: func(kv mrRecord, emit func(string, any)) error {
			tup := kv.Value.(Tuple)
			seq := 0
			fmt.Sscanf(kv.Key, "%d", &seq)
			k := keys[seq]
			// Key by partition id; the reducer sorts its partition.
			emit(fmt.Sprintf("%06d", partitionOf(k)), keyedTuple{key: k, tup: tup, seq: seq})
			return nil
		},
		Reduce: func(key string, values []any, emit func(string, any)) error {
			part := make([]keyedTuple, len(values))
			for i, v := range values {
				part[i] = v.(keyedTuple)
			}
			sort.SliceStable(part, func(i, j int) bool {
				if less(part[i].key, part[j].key) {
					return true
				}
				if less(part[j].key, part[i].key) {
					return false
				}
				return part[i].seq < part[j].seq // stable on ties
			})
			for _, kt := range part {
				emit(key, kt.tup)
			}
			return nil
		},
	}
	// Partitions come back keyed by zero-padded partition id; a stable
	// sort on that key concatenates them in range order.
	rows, err := ex.runJob(job, tuplesToRecords(in.Tuples), true)
	if err != nil {
		return err
	}
	if st.Desc {
		slices.Reverse(rows)
	}
	ex.aliases[st.Alias] = &Relation{Schema: in.Schema, Tuples: rows}
	return nil
}

// describe records a relation's schema into the run's dump log under
// "describe:<alias>".
func (ex *executor) describe(st *DescribeStmt) error {
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return err
	}
	ex.res.Dumps["describe:"+st.Input] = []string{st.Input + ": " + in.Schema.String()}
	return nil
}

// sample runs alias = SAMPLE input fraction: each tuple is kept
// independently with the given probability, deterministically in the
// context seed (Pig's SAMPLE is what its ORDER planner uses to pick
// range boundaries).
func (ex *executor) sample(st *SampleStmt) error {
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return err
	}
	fv, err := ex.evalConst(st.Fraction, st.Line)
	if err != nil {
		return err
	}
	frac, err := AsFloat(fv)
	if err != nil || !(frac >= 0 && frac <= 1) {
		return fmt.Errorf("pig: line %d: SAMPLE needs a fraction in [0,1], got %v", st.Line, fv)
	}
	rng := rand.New(rand.NewSource(ex.ctx.Seed*31 + int64(st.Line)))
	out := &Relation{Schema: in.Schema}
	for _, tup := range in.Tuples {
		if rng.Float64() < frac {
			out.Tuples = append(out.Tuples, tup)
		}
	}
	ex.aliases[st.Alias] = out
	return nil
}

// dump renders a relation into the run's dump log.
func (ex *executor) dump(st *DumpStmt) error {
	in, err := ex.relation(st.Input, st.Line)
	if err != nil {
		return err
	}
	var lines []string
	for _, tup := range in.Tuples {
		lines = append(lines, FormatValue(tup))
	}
	ex.res.Dumps[st.Input] = lines
	return nil
}

// truthy interprets a condition result.
func truthy(v Value) (bool, error) {
	switch x := v.(type) {
	case bool:
		return x, nil
	case int:
		return x != 0, nil
	case int64:
		return x != 0, nil
	case float64:
		return x != 0, nil
	case string:
		return strings.EqualFold(x, "true"), nil
	default:
		return false, fmt.Errorf("cannot interpret %T as a boolean", v)
	}
}

// compareValues evaluates a comparison operator over two values: numeric
// when both coerce to numbers, lexicographic otherwise.
func compareValues(op string, l, r Value) (bool, error) {
	lf, lerr := AsFloat(l)
	rf, rerr := AsFloat(r)
	if lerr == nil && rerr == nil {
		switch op {
		case "==":
			return lf == rf, nil
		case "!=":
			return lf != rf, nil
		case "<":
			return lf < rf, nil
		case "<=":
			return lf <= rf, nil
		case ">":
			return lf > rf, nil
		case ">=":
			return lf >= rf, nil
		}
		return false, fmt.Errorf("unknown comparison %q", op)
	}
	ls, lserr := AsString(l)
	rs, rserr := AsString(r)
	if lserr != nil || rserr != nil {
		return false, fmt.Errorf("cannot compare %T with %T", l, r)
	}
	switch op {
	case "==":
		return ls == rs, nil
	case "!=":
		return ls != rs, nil
	case "<":
		return ls < rs, nil
	case "<=":
		return ls <= rs, nil
	case ">":
		return ls > rs, nil
	case ">=":
		return ls >= rs, nil
	}
	return false, fmt.Errorf("unknown comparison %q", op)
}
