// Package taxonomy assigns taxonomic labels to reads or cluster-consensus
// sequences against a labelled reference collection — the "taxonomic
// annotation" step that follows binning (cf. MetaCluster, which the paper
// benchmarks against). Queries are scored by k-mer *containment*
// (|query ∩ reference| / |query|, the Kraken/CLARK-style statistic) rather
// than Jaccard: a short fragment of a long genome has near-total
// containment but negligible Jaccard, so containment is the right match
// score for read-vs-genome comparisons. Ambiguous hits back off to the
// lowest common ancestor of the near-best references.
package taxonomy

import (
	"fmt"
	"sort"

	"github.com/metagenomics/mrmcminh/internal/kmer"
)

// Lineage is an ordered taxonomy path, coarsest first
// (e.g. ["Bacteria", "Proteobacteria", ..., "Escherichia coli"]).
type Lineage []string

// LCA returns the shared prefix of two lineages.
func (l Lineage) LCA(other Lineage) Lineage {
	n := len(l)
	if len(other) < n {
		n = len(other)
	}
	i := 0
	for i < n && l[i] == other[i] {
		i++
	}
	return l[:i]
}

// String renders the lineage as a semicolon path.
func (l Lineage) String() string {
	out := ""
	for i, r := range l {
		if i > 0 {
			out += ";"
		}
		out += r
	}
	return out
}

// Options tunes the classifier.
type Options struct {
	// K is the k-mer size of the reference index.
	K int
	// MinContainment is the floor below which a query is Unclassified.
	MinContainment float64
	// AmbiguityBand: references scoring within this fraction of the best
	// hit are considered co-optimal and trigger LCA backoff.
	AmbiguityBand float64
}

// withDefaults fills zero values.
func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 12
	}
	if o.MinContainment == 0 {
		o.MinContainment = 0.3
	}
	if o.AmbiguityBand == 0 {
		o.AmbiguityBand = 0.1
	}
	return o
}

// Classifier matches query sequences against a reference k-mer index.
type Classifier struct {
	opt      Options
	ex       *kmer.Extractor
	names    []string
	lineages []Lineage
	sets     []kmer.Set
}

// NewClassifier builds an empty classifier.
func NewClassifier(opt Options) (*Classifier, error) {
	opt = opt.withDefaults()
	if opt.K < 1 || opt.K > kmer.MaxK {
		return nil, fmt.Errorf("taxonomy: k=%d out of range", opt.K)
	}
	if !(opt.MinContainment >= 0 && opt.MinContainment <= 1) {
		return nil, fmt.Errorf("taxonomy: MinContainment %v out of [0,1]", opt.MinContainment)
	}
	if !(opt.AmbiguityBand >= 0 && opt.AmbiguityBand <= 1) {
		return nil, fmt.Errorf("taxonomy: AmbiguityBand %v out of [0,1]", opt.AmbiguityBand)
	}
	return &Classifier{
		opt: opt,
		ex:  &kmer.Extractor{K: opt.K, Canonical: true},
	}, nil
}

// AddReference registers one labelled reference genome or marker gene.
func (c *Classifier) AddReference(name string, lineage Lineage, seq []byte) error {
	if name == "" {
		return fmt.Errorf("taxonomy: reference needs a name")
	}
	if len(lineage) == 0 {
		return fmt.Errorf("taxonomy: reference %q needs a lineage", name)
	}
	set := c.ex.Set(seq)
	if set.Len() == 0 {
		return fmt.Errorf("taxonomy: reference %q has no usable k-mers", name)
	}
	c.names = append(c.names, name)
	c.lineages = append(c.lineages, lineage)
	c.sets = append(c.sets, set)
	return nil
}

// NumReferences returns the registered reference count.
func (c *Classifier) NumReferences() int { return len(c.names) }

// Assignment is one classification outcome.
type Assignment struct {
	// Classified is false when no reference reached MinContainment.
	Classified bool
	// Reference is the best-hit name (empty after LCA backoff).
	Reference string
	// Lineage is the assigned path — full for an unambiguous hit, the LCA
	// prefix when several references tie.
	Lineage Lineage
	// Containment is the best hit's |query ∩ ref| / |query|.
	Containment float64
	// Ambiguous reports that LCA backoff occurred.
	Ambiguous bool
}

// Classify assigns one query sequence.
func (c *Classifier) Classify(seq []byte) (Assignment, error) {
	if len(c.sets) == 0 {
		return Assignment{}, fmt.Errorf("taxonomy: classifier has no references")
	}
	q := c.ex.Set(seq)
	if q.Len() == 0 {
		return Assignment{}, nil
	}
	type hit struct {
		idx  int
		cont float64
	}
	hits := make([]hit, 0, len(c.sets))
	for i, ref := range c.sets {
		shared := 0
		for km := range q {
			if ref.Contains(km) {
				shared++
			}
		}
		hits = append(hits, hit{idx: i, cont: float64(shared) / float64(q.Len())})
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].cont > hits[b].cont })
	best := hits[0]
	if best.cont < c.opt.MinContainment {
		return Assignment{Containment: best.cont}, nil
	}
	// Collect co-optimal references.
	floor := best.cont * (1 - c.opt.AmbiguityBand)
	lca := c.lineages[best.idx]
	ambiguous := false
	for _, h := range hits[1:] {
		if h.cont < floor {
			break
		}
		shared := lca.LCA(c.lineages[h.idx])
		if len(shared) < len(lca) {
			lca = shared
			ambiguous = true
		}
	}
	a := Assignment{
		Classified:  true,
		Lineage:     lca,
		Containment: best.cont,
		Ambiguous:   ambiguous,
	}
	if !ambiguous {
		a.Reference = c.names[best.idx]
	}
	return a, nil
}

// ClassifyAll assigns a batch of sequences keyed by an integer id (e.g.
// cluster consensus sequences keyed by cluster label).
func (c *Classifier) ClassifyAll(seqs map[int][]byte) (map[int]Assignment, error) {
	out := make(map[int]Assignment, len(seqs))
	ids := make([]int, 0, len(seqs))
	for id := range seqs {
		ids = append(ids, id)
	}
	sort.Ints(ids) // deterministic error order
	for _, id := range ids {
		a, err := c.Classify(seqs[id])
		if err != nil {
			return nil, err
		}
		out[id] = a
	}
	return out, nil
}
