package pig

import "strings"

// Pig's compiler starts a MapReduce job only at a blocking operator and
// pipelines the per-tuple FOREACH statements around it into that job
// (Gates et al., "Building a High-Level Dataflow System on top of
// Map-Reduce: The Pig Experience", VLDB 2009). compilePlan applies that
// rule, before any statement runs, to the two shuffle operators
// Algorithm 3 uses: GROUP, and a FOREACH over a grouped UDF.
//
//   - A chain of map-only FOREACH statements that alone reads such a
//     job's output runs inside its reduce phase, on every tuple the
//     reducer yields.
//   - A chain of map-only FOREACH statements that feeds such a job, each
//     link the one reader of the link before it, runs inside its map
//     phase, ahead of the job's key step.
//
// Reduce-side fusion wins when both apply. A reader is any statement that
// takes an alias as input, dereferences it (I.F), or STOREs, DUMPs or
// DESCRIBEs it, so an alias that two statements read still materializes.
// An alias defined more than once, or read before its definition, is
// never fused: moving a statement across it would change what it reads.

// fusion lists the map-only FOREACH statements pipelined into one GROUP
// or grouped-FOREACH job. mapChain runs, source side first, on each input
// tuple before the job's key step; reduceChain runs, in order, on each
// tuple the job's reducer yields, and its last statement names the
// relation the job materializes.
type fusion struct {
	mapChain, reduceChain []*ForeachStmt
}

// phases lists, by alias, the statements each phase of the job launched
// by alias runs: "map: B, C, E; reduce: E, F".
func (f fusion) phases(alias string) string {
	var m []string
	for _, st := range f.mapChain {
		m = append(m, st.Alias)
	}
	r := []string{alias}
	for _, st := range f.reduceChain {
		r = append(r, st.Alias)
	}
	return "map: " + strings.Join(append(m, alias), ", ") + "; reduce: " + strings.Join(r, ", ")
}

// plan is a compiled script: the chains fused into each GROUP and
// grouped-FOREACH job, keyed by the statement that launches the job, and
// the statements that run inside another statement's job, which launch
// nothing and materialize nothing of their own.
type plan struct {
	jobs  map[Stmt]fusion
	fused map[Stmt]bool
}

// compilePlan counts each alias's readers and fuses the chains around
// every shuffle job. A FOREACH whose UDFs do not resolve is left alone,
// so it fails where it stands.
func compilePlan(stmts []Stmt, reg *Registry) plan {
	p := plan{jobs: make(map[Stmt]fusion), fused: make(map[Stmt]bool)}
	defines := make([]string, len(stmts))         // alias each statement defines
	reads := make([][]string, len(stmts))         // aliases each statement reads
	readers := make(map[string][]int)             // alias -> statements reading it, in order
	defs := make(map[string][]int)                // alias -> statements defining it
	shapes := make(map[*ForeachStmt]foreachShape) // FOREACH statements whose UDFs resolve
	var jobs []int
	for i, st := range stmts {
		defines[i], reads[i] = deps(st)
		for _, n := range reads[i] {
			readers[n] = append(readers[n], i)
		}
		if defines[i] != "" {
			defs[defines[i]] = append(defs[defines[i]], i)
		}
		switch t := st.(type) {
		case *GroupStmt:
			jobs = append(jobs, i)
		case *ForeachStmt:
			if shape, _, _, err := classify(reg, t); err == nil {
				shapes[t] = shape
				if shape == groupedUDF {
					jobs = append(jobs, i)
				}
			}
		}
	}
	// def returns the one statement defining alias, or -1 unless alias is
	// defined exactly once and read only after that.
	def := func(alias string) int {
		d, r := defs[alias], readers[alias]
		if len(d) != 1 || (len(r) > 0 && r[0] < d[0]) {
			return -1
		}
		return d[0]
	}
	// link returns statement i when it is a map-only FOREACH that no
	// chain has claimed yet.
	link := func(i int) (*ForeachStmt, bool) {
		fe, ok := stmts[i].(*ForeachStmt)
		if !ok || p.fused[fe] {
			return nil, false
		}
		shape, ok := shapes[fe]
		return fe, ok && shape == tupleAtATime
	}
	// settled reports whether every alias statement i reads, except its
	// chain predecessor pred, is defined once before position at, so
	// running i there reads what running it in place would.
	settled := func(i int, pred string, at int) bool {
		for _, n := range reads[i] {
			if d := def(n); n != pred && (d < 0 || d >= at) {
				return false
			}
		}
		return true
	}
	for _, j := range jobs {
		var f fusion
		for cur := defines[j]; def(cur) >= 0 && len(readers[cur]) == 1; {
			k := readers[cur][0]
			fe, ok := link(k)
			if !ok || fe.Input != cur || def(fe.Alias) != k || !settled(k, cur, j) {
				break
			}
			f.reduceChain = append(f.reduceChain, fe)
			p.fused[fe] = true
			cur = fe.Alias
		}
		p.jobs[stmts[j]] = f
	}
	for _, j := range jobs {
		f := p.jobs[stmts[j]]
		for cur := reads[j][0]; def(cur) >= 0 && len(readers[cur]) == 1; {
			k := def(cur)
			fe, ok := link(k)
			if !ok || !settled(k, "", k) {
				break
			}
			f.mapChain = append([]*ForeachStmt{fe}, f.mapChain...)
			p.fused[fe] = true
			cur = fe.Input
		}
		p.jobs[stmts[j]] = f
	}
	return p
}

// deps returns the alias st defines ("" for STORE, DUMP and DESCRIBE) and
// the aliases it reads, once each and inputs first: its inputs, then
// every other relation its expressions dereference.
func deps(st Stmt) (string, []string) {
	var names []string
	add := func(n string) {
		for _, have := range names {
			if have == n {
				return
			}
		}
		names = append(names, n)
	}
	// walk adds the foreign relations e dereferences; input.field is a
	// field of the statement's own input.
	var walk func(e Expr, input string)
	walk = func(e Expr, input string) {
		switch t := e.(type) {
		case DottedRef:
			if t.Alias != input {
				add(t.Alias)
			}
		case FuncCall:
			for _, a := range t.Args {
				walk(a, input)
			}
		case Compare:
			walk(t.L, input)
			walk(t.R, input)
		case Logic:
			walk(t.L, input)
			walk(t.R, input)
		case Not:
			walk(t.X, input)
		}
	}
	switch t := st.(type) {
	case *LoadStmt:
		return t.Alias, nil
	case *ForeachStmt:
		add(t.Input)
		for _, item := range t.Items {
			walk(item.Expr, t.Input)
		}
		return t.Alias, names
	case *GroupStmt:
		add(t.Input)
		if !t.All {
			walk(t.By, t.Input)
		}
		return t.Alias, names
	case *FilterStmt:
		add(t.Input)
		walk(t.Cond, t.Input)
		return t.Alias, names
	case *OrderStmt:
		add(t.Input)
		walk(t.By, t.Input)
		return t.Alias, names
	case *JoinStmt:
		for _, in := range t.Inputs {
			add(in)
		}
		for i, in := range t.Inputs {
			walk(t.Keys[i], in)
		}
		return t.Alias, names
	case *UnionStmt:
		for _, in := range t.Inputs {
			add(in)
		}
		return t.Alias, names
	case *LimitStmt:
		return t.Alias, []string{t.Input}
	case *DistinctStmt:
		return t.Alias, []string{t.Input}
	case *SampleStmt:
		return t.Alias, []string{t.Input}
	case *StoreStmt:
		return "", []string{t.Input}
	case *DumpStmt:
		return "", []string{t.Input}
	case *DescribeStmt:
		return "", []string{t.Input}
	}
	return "", nil
}
