package pig

import (
	"fmt"
)

// join executes alias = JOIN a BY ka, b BY kb [, c BY kc ...]; as one
// MapReduce job — Pig's reduce-side hash equi-join: mappers tag each
// tuple with its source relation and emit under the join key; reducers
// cross the per-relation groups. Inner-join semantics: keys missing from
// any input produce nothing.
func (ex *executor) join(st *JoinStmt) error {
	k := len(st.Inputs)
	rels := make([]*Relation, k)
	for i, name := range st.Inputs {
		rel, err := ex.relation(name, st.Line)
		if err != nil {
			return err
		}
		rels[i] = rel
	}
	// tagged wraps a tuple with its source relation index.
	type tagged struct {
		src int
		tup Tuple
	}
	var records []mrRecord
	for src, rel := range rels {
		for ti, tup := range rel.Tuples {
			records = append(records, mrRecord{
				Key:   fmt.Sprintf("%d/%012d", src, ti),
				Value: tagged{src: src, tup: tup},
			})
		}
	}
	job := &mrJob{
		Name: fmt.Sprintf("join-%s", st.Alias),
		Map: func(kv mrRecord, emit func(string, any)) error {
			tg := kv.Value.(tagged)
			keyV, err := ex.evalTuple(st.Keys[tg.src], tg.tup, rels[tg.src], st.Inputs[tg.src], st.Line)
			if err != nil {
				return err
			}
			emit(FormatValue(keyV), tg)
			return nil
		},
		Reduce: func(key string, values []any, emit func(string, any)) error {
			// Partition the group by source relation, preserving order.
			bySrc := make([][]Tuple, k)
			for _, v := range values {
				tg := v.(tagged)
				bySrc[tg.src] = append(bySrc[tg.src], tg.tup)
			}
			for _, g := range bySrc {
				if len(g) == 0 {
					return nil // inner join: all inputs must have the key
				}
			}
			// Cross product across relations.
			cross := []Tuple{{}}
			for _, g := range bySrc {
				next := make([]Tuple, 0, len(cross)*len(g))
				for _, base := range cross {
					for _, tup := range g {
						nt := Tuple{Fields: append(append([]Value{}, base.Fields...), tup.Fields...)}
						next = append(next, nt)
					}
				}
				cross = next
			}
			for _, tup := range cross {
				emit(key, tup)
			}
			return nil
		},
	}
	rows, err := ex.runJob(job, records, true)
	if err != nil {
		return err
	}
	ex.aliases[st.Alias] = &Relation{Schema: joinSchema(st.Inputs, rels), Tuples: rows}
	return nil
}

// joinSchema concatenates the input schemas, disambiguating field names
// with Pig's alias::field convention.
func joinSchema(names []string, rels []*Relation) Schema {
	var out Schema
	seen := map[string]int{}
	for _, rel := range rels {
		for _, f := range rel.Schema {
			seen[f.Name]++
		}
	}
	for ri, rel := range rels {
		for _, f := range rel.Schema {
			name := f.Name
			if seen[f.Name] > 1 {
				name = names[ri] + "::" + f.Name
			}
			out = append(out, FieldSchema{Name: name, Type: f.Type})
		}
	}
	return out
}
