package pig

import (
	"fmt"
	"sort"
	"time"

	"github.com/metagenomics/mrmcminh/internal/mapreduce"
)

// join executes alias = JOIN a BY ka, b BY kb [, c BY kc ...]; as one
// MapReduce job — Pig's reduce-side hash equi-join: mappers tag each
// tuple with its source relation and emit under the join key; reducers
// cross the per-relation groups. Inner-join semantics: keys missing from
// any input produce nothing.
func (ex *executor) join(st *JoinStmt) (time.Duration, error) {
	k := len(st.Inputs)
	rels := make([]*Relation, k)
	for i, name := range st.Inputs {
		rel, err := ex.relation(name, st.Line)
		if err != nil {
			return 0, err
		}
		rels[i] = rel
	}
	// tagged wraps a tuple with its source relation index.
	type tagged struct {
		src int
		tup Tuple
	}
	var records []mapreduce.KeyValue
	for src, rel := range rels {
		for ti, tup := range rel.Tuples {
			records = append(records, mapreduce.KeyValue{
				Key:   fmt.Sprintf("%d/%012d", src, ti),
				Value: tagged{src: src, tup: tup},
			})
		}
	}
	job := &mapreduce.Job{
		Name:        fmt.Sprintf("join-%s", st.Alias),
		Input:       mapreduce.MemoryInput{Records: records, SplitSize: splitSizeFor(len(records), ex.ctx.Engine.Cluster)},
		NumReducers: ex.ctx.Engine.Cluster.Nodes,
		Map: func(kv mapreduce.KeyValue, emit func(mapreduce.KeyValue)) error {
			tg := kv.Value.(tagged)
			keyV, err := ex.evalTuple(st.Keys[tg.src], tg.tup, rels[tg.src], st.Inputs[tg.src], st.Line)
			if err != nil {
				return err
			}
			emit(mapreduce.KeyValue{Key: FormatValue(keyV), Value: tg})
			return nil
		},
		Reduce: func(key string, values []any, emit func(mapreduce.KeyValue)) error {
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
				emit(mapreduce.KeyValue{Key: key, Value: tup})
			}
			return nil
		},
	}
	res, err := ex.ctx.Engine.Run(job)
	if err != nil {
		return 0, err
	}
	sort.SliceStable(res.Output, func(i, j int) bool { return res.Output[i].Key < res.Output[j].Key })
	out := &Relation{Schema: joinSchema(st.Inputs, rels)}
	for _, kv := range res.Output {
		out.Tuples = append(out.Tuples, kv.Value.(Tuple))
	}
	ex.aliases[st.Alias] = out
	return res.Virtual, nil
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
