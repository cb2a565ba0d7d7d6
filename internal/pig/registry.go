package pig

import (
	"fmt"
	"time"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
)

// EvalFunc is the Go implementation of a UDF.
type EvalFunc func(ctx *Context, args []Value) (Value, error)

// LoadFunc materializes a relation from a DFS path (a Pig storage UDF such
// as the paper's FastaStorage).
type LoadFunc func(ctx *Context, path string, args []Value) (*Relation, error)

// UDF describes one user-defined function.
type UDF struct {
	Name string
	// Eval is invoked with evaluated argument values. For grouped UDFs,
	// args[ValueArg] is a []Value with every grouped value and
	// args[GroupKeyArg] is the group key. For whole-relation UDFs, every
	// field-reference argument arrives as a []Value across all tuples.
	Eval EvalFunc
	// GroupKeyArg >= 0 marks an aggregating UDF: the executor runs a full
	// MapReduce job grouping the input relation by this argument.
	GroupKeyArg int
	// ValueArg is the argument collected per group (required when
	// GroupKeyArg >= 0).
	ValueArg int
	// WholeRelation marks a UDF evaluated once over the entire relation
	// (a single-reducer job), e.g. hierarchical clustering over all rows.
	WholeRelation bool
	// CostFactor scales the simulated per-record compute cost of jobs
	// that invoke this UDF (1.0 when zero).
	CostFactor float64
}

// Registry holds UDFs and loaders by name.
type Registry struct {
	udfs    map[string]*UDF
	loaders map[string]LoadFunc
}

// NewRegistry returns an empty registry with the default line loader.
func NewRegistry() *Registry {
	r := &Registry{udfs: make(map[string]*UDF), loaders: make(map[string]LoadFunc)}
	r.RegisterLoader("TextLoader", textLoader)
	return r
}

// Register adds a UDF. A GroupKeyArg defaults to -1 (tuple-at-a-time).
func (r *Registry) Register(u UDF) error {
	if u.Name == "" || u.Eval == nil {
		return fmt.Errorf("pig: UDF must have a name and an Eval function")
	}
	if _, dup := r.udfs[u.Name]; dup {
		return fmt.Errorf("pig: UDF %q already registered", u.Name)
	}
	cp := u
	r.udfs[u.Name] = &cp
	return nil
}

// MustRegister is Register panicking on error.
func (r *Registry) MustRegister(u UDF) {
	if err := r.Register(u); err != nil {
		panic(err)
	}
}

// RegisterLoader adds a storage loader.
func (r *Registry) RegisterLoader(name string, fn LoadFunc) {
	r.loaders[name] = fn
}

// UDF looks up a UDF by name.
func (r *Registry) UDF(name string) (*UDF, bool) {
	u, ok := r.udfs[name]
	return u, ok
}

// Loader looks up a loader by name; empty name yields the default.
func (r *Registry) Loader(name string) (LoadFunc, bool) {
	if name == "" {
		name = "TextLoader"
	}
	fn, ok := r.loaders[name]
	return fn, ok
}

// textLoader reads newline-separated records as single-field tuples.
func textLoader(ctx *Context, path string, _ []Value) (*Relation, error) {
	lines, err := ctx.FS.ReadLines(path)
	if err != nil {
		return nil, err
	}
	rel := &Relation{Schema: Schema{{Name: "line", Type: "chararray"}}}
	for _, l := range lines {
		rel.Tuples = append(rel.Tuples, NewTuple(l))
	}
	return rel, nil
}

// Context carries the runtime environment of a script execution.
type Context struct {
	FS *dfs.FileSystem
	// Engine runs every job the script launches, under its shuffle
	// settings (mapreduce.Engine.ShuffleBufferBytes).
	Engine   *mapreduce.Engine
	Registry *Registry
	// Params maps $NAME parameters to replacement text.
	Params map[string]string
	// Seed is available to UDFs needing deterministic randomness.
	Seed int64
	// Checkpoint, when non-nil, journals every STORE's committed bytes
	// under a "store:<path>" manifest entry.
	Checkpoint *checkpoint.Journal
	// Resume validates each STORE against the journal before writing:
	// a matching entry restores the checkpointed bytes, a mismatched one
	// is a typed error (requires Checkpoint).
	Resume bool
	// StoreBits selects the signature store backing of the clustering
	// UDFs (GreedyClustering, LSHClustering): 0 (the default) borrows
	// rows from a full-width signature store, 1..16 packs
	// signatures to b bits per slot (lossy b-bit minwise estimation).
	StoreBits int
}

// Param returns a parameter value or an error naming the hole.
func (c *Context) Param(name string) (string, error) {
	if v, ok := c.Params[name]; ok {
		return v, nil
	}
	return "", fmt.Errorf("pig: undefined parameter $%s", name)
}

// RunResult reports one script execution.
type RunResult struct {
	// Aliases holds every materialized relation by name.
	Aliases map[string]*Relation
	// Stored maps STORE output paths to the relation written there.
	Stored map[string]string
	// Dumps holds the rendered tuples of every DUMPed alias.
	Dumps map[string][]string
	// Virtual is the summed modelled cluster time across all jobs.
	Virtual time.Duration
	// Real is the measured execution time.
	Real time.Duration
	// Jobs is the number of MapReduce jobs launched.
	Jobs int
	// Restored lists STORE paths whose bytes were validated against and
	// restored from the checkpoint journal (nil when not resuming).
	Restored []string
}
