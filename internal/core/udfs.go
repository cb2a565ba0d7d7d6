// Package core wires the paper's system together: it implements the seven
// Pig UDFs of Algorithm 3 (FastaStorage, StringGenerator, TranslateToKmer,
// CalculateMinwiseHash, CalculatePairwiseSimilarity,
// AgglomerativeHierarchicalClustering, GreedyClustering), a programmatic
// MapReduce pipeline equivalent to the script, and the MrMC-MinH driver
// used by the public API, the benchmarks and the command-line tools.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/pig"
	"github.com/metagenomics/mrmcminh/internal/sigstore"
)

// CostFactorSimilarityRow scales the modelled cost of computing one row of
// the all-pairs similarity matrix relative to a plain map record — the
// dominant cost of the hierarchical pipeline (paper §V.A).
const CostFactorSimilarityRow = 400

// sketcherCache memoizes hash families so every reduce group of
// CalculateMinwiseHash uses identical hash functions.
type sketcherCache struct {
	mu sync.Mutex
	m  map[string]*minhash.Sketcher
}

var sketchers = &sketcherCache{m: make(map[string]*minhash.Sketcher)}

// get returns the (n, m, seed) sketcher, creating it once.
func (c *sketcherCache) get(n int, m uint64, seed int64) (*minhash.Sketcher, error) {
	key := fmt.Sprintf("%d/%d/%d", n, m, seed)
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.m[key]; ok {
		return s, nil
	}
	fam, err := minhash.NewHashFamily(n, m, seed)
	if err != nil {
		return nil, err
	}
	s := &minhash.Sketcher{Family: fam}
	c.m[key] = s
	return s, nil
}

// RegisterUDFs installs the paper's UDFs and the FastaStorage loader into
// a Pig registry.
func RegisterUDFs(reg *pig.Registry) {
	reg.RegisterLoader("FastaStorage", fastaStorage)
	reg.MustRegister(pig.UDF{
		Name:        "StringGenerator",
		GroupKeyArg: -1,
		Eval:        stringGenerator,
	})
	reg.MustRegister(pig.UDF{
		Name:        "TranslateToKmer",
		GroupKeyArg: -1,
		Eval:        translateToKmer,
	})
	reg.MustRegister(pig.UDF{
		Name:        "CalculateMinwiseHash",
		GroupKeyArg: 1,
		ValueArg:    0,
		Eval:        calculateMinwiseHash,
	})
	reg.MustRegister(pig.UDF{
		Name:        "CalculatePairwiseSimilarity",
		GroupKeyArg: -1,
		Eval:        calculatePairwiseSimilarity,
		CostFactor:  CostFactorSimilarityRow,
	})
	reg.MustRegister(pig.UDF{
		Name:          "AgglomerativeHierarchicalClustering",
		GroupKeyArg:   -1,
		WholeRelation: true,
		Eval:          agglomerativeClusteringUDF,
		CostFactor:    4,
	})
	reg.MustRegister(pig.UDF{
		Name:        "GreedyClustering",
		GroupKeyArg: -1,
		Eval:        greedyClusteringUDF,
		CostFactor:  40,
	})
	reg.MustRegister(pig.UDF{
		Name:        "LSHClustering",
		GroupKeyArg: -1,
		Eval:        lshClusteringUDF,
		// Sub-quadratic: banded candidate generation replaces the
		// all-pairs scan, so the modelled per-record cost sits near the
		// greedy UDF's, far below CostFactorSimilarityRow.
		CostFactor: 40,
	})
}

// NewRegistry returns a Pig registry preloaded with the paper's UDFs.
func NewRegistry() *pig.Registry {
	reg := pig.NewRegistry()
	RegisterUDFs(reg)
	return reg
}

// fastaStorage loads FASTA text from the DFS as tuples
// (readid, d:int sequence length, seq, header) per Algorithm 3 step 1.
func fastaStorage(ctx *pig.Context, path string, _ []pig.Value) (*pig.Relation, error) {
	data, err := ctx.FS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, err := fasta.ParseString(string(data))
	if err != nil {
		return nil, err
	}
	rel := &pig.Relation{Schema: pig.Schema{
		{Name: "readid", Type: "chararray"},
		{Name: "d", Type: "int"},
		{Name: "seq", Type: "bytearray"},
		{Name: "header", Type: "chararray"},
	}}
	for _, r := range recs {
		rel.Tuples = append(rel.Tuples, pig.NewTuple(r.ID, int64(r.Len()), string(r.Seq), r.Header()))
	}
	return rel, nil
}

// stringGenerator maps DNA characters onto integer codes (Algorithm 3
// step 2): "ACGT" becomes "0123"; ambiguous bases become "." which later
// breaks k-mer windows.
func stringGenerator(_ *pig.Context, args []pig.Value) (pig.Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("StringGenerator expects (seq, readid), got %d args", len(args))
	}
	seq, err := pig.AsString(args[0])
	if err != nil {
		return nil, err
	}
	id, err := pig.AsString(args[1])
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.Grow(len(seq))
	for i := 0; i < len(seq); i++ {
		if c := fasta.BaseCode(seq[i]); c >= 0 {
			sb.WriteByte('0' + byte(c))
		} else {
			sb.WriteByte('.')
		}
	}
	return pig.NewTuple(sb.String(), id), nil
}

// translateToKmer emits the packed k-mers of an integer-encoded sequence
// (Algorithm 3 step 3) as a bag of (seqkmer:long, seqid) tuples.
func translateToKmer(_ *pig.Context, args []pig.Value) (pig.Value, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("TranslateToKmer expects (seq, seqid, k), got %d args", len(args))
	}
	enc, err := pig.AsString(args[0])
	if err != nil {
		return nil, err
	}
	id, err := pig.AsString(args[1])
	if err != nil {
		return nil, err
	}
	k, err := pig.AsInt(args[2])
	if err != nil {
		return nil, err
	}
	if k < 1 || k > kmer.MaxK {
		return nil, fmt.Errorf("TranslateToKmer: k=%d out of range [1,%d]", k, kmer.MaxK)
	}
	var bag pig.Bag
	// Roll over the digit-encoded sequence; '.' (ambiguous) resets.
	var v uint64
	mask := uint64(1)<<(2*k) - 1
	valid := 0
	for i := 0; i < len(enc); i++ {
		c := enc[i]
		if c < '0' || c > '3' {
			valid, v = 0, 0
			continue
		}
		v = ((v << 2) | uint64(c-'0')) & mask
		if valid < k {
			valid++
		}
		if valid == k {
			bag = append(bag, pig.NewTuple(int64(v), id))
		}
	}
	return bag, nil
}

// calculateMinwiseHash is the grouped UDF of Algorithm 3 step 4: all
// k-mers of one read (grouped by seqid) are folded into an n-value
// minwise signature using universal hash functions with modulus range
// $DIV (a prime exceeding the feature-space size).
func calculateMinwiseHash(ctx *pig.Context, args []pig.Value) (pig.Value, error) {
	if len(args) != 4 {
		return nil, fmt.Errorf("CalculateMinwiseHash expects (kmers, seqid, numhash, div), got %d args", len(args))
	}
	kmers, ok := args[0].([]pig.Value)
	if !ok {
		return nil, fmt.Errorf("CalculateMinwiseHash: grouped k-mer values missing (got %T)", args[0])
	}
	id, err := pig.AsString(args[1])
	if err != nil {
		return nil, err
	}
	n, err := pig.AsInt(args[2])
	if err != nil {
		return nil, err
	}
	div, err := pig.AsInt(args[3])
	if err != nil {
		return nil, err
	}
	if div < 2 {
		return nil, fmt.Errorf("CalculateMinwiseHash: $DIV must be at least 2, got %d", div)
	}
	sk, err := sketchers.get(n, uint64(div), ctx.Seed)
	if err != nil {
		return nil, err
	}
	packed := make([]uint64, 0, len(kmers))
	for _, v := range kmers {
		x, err := pig.AsInt(v)
		if err != nil {
			return nil, err
		}
		packed = append(packed, uint64(x))
	}
	sig := sk.SketchSlice(packed)
	return pig.NewTuple(sig, id), nil
}

// calculatePairwiseSimilarity computes one row of the all-pairs matrix
// (Algorithm 3 step 5/7): this read's signature against every signature in
// the broadcast bag. Runs in parallel, one map call per row (the paper's
// row-wise partition). Two forms are accepted:
//
//	CalculatePairwiseSimilarity(minwise, I.F)          — paper's 2-arg form
//	CalculatePairwiseSimilarity(minwise, seqid, I.F)   — id-disambiguated
//
// The 2-arg form locates the row by signature equality, which is ambiguous
// when two reads sketch identically; the 3-arg form matches on seqid and is
// what the embedded canonical script uses.
func calculatePairwiseSimilarity(_ *pig.Context, args []pig.Value) (pig.Value, error) {
	if len(args) != 2 && len(args) != 3 {
		return nil, fmt.Errorf("CalculatePairwiseSimilarity expects (minwise, [seqid,] allrows), got %d args", len(args))
	}
	sig, ok := args[0].(minhash.Signature)
	if !ok {
		return nil, fmt.Errorf("CalculatePairwiseSimilarity: first arg is %T, want signature", args[0])
	}
	selfID := ""
	bagArg := args[1]
	if len(args) == 3 {
		id, err := pig.AsString(args[1])
		if err != nil {
			return nil, err
		}
		selfID = id
		bagArg = args[2]
	}
	all, ok := bagArg.(pig.Bag)
	if !ok {
		return nil, fmt.Errorf("CalculatePairwiseSimilarity: bag arg is %T, want bag", bagArg)
	}
	row := make([]float64, len(all))
	rowIdx := -1
	for j, tup := range all {
		other, ok := tup.Fields[0].(minhash.Signature)
		if !ok {
			return nil, fmt.Errorf("CalculatePairwiseSimilarity: bag tuple field is %T", tup.Fields[0])
		}
		row[j] = minhash.SetOverlap.Similarity(sig, other)
		if rowIdx < 0 {
			if selfID != "" && len(tup.Fields) > 1 {
				if id, err := pig.AsString(tup.Fields[1]); err == nil && id == selfID {
					rowIdx = j
				}
			} else if selfID == "" && sig.Equal(other) {
				rowIdx = j
			}
		}
	}
	return pig.NewTuple(row, int64(rowIdx), selfID), nil
}

// agglomerativeClusteringUDF is the whole-relation UDF of Algorithm 3
// step 8: assemble the matrix rows, build the dendrogram with the $LINK
// policy and cut at $CUTOFF, emitting (seqid, clusterlabel) tuples (the
// seqid falls back to the row index for 2-arg similarity rows).
func agglomerativeClusteringUDF(_ *pig.Context, args []pig.Value) (pig.Value, error) {
	if len(args) != 4 {
		return nil, fmt.Errorf("AgglomerativeHierarchicalClustering expects (matrix, link, numhash, cutoff), got %d args", len(args))
	}
	rows, ok := args[0].([]pig.Value)
	if !ok {
		return nil, fmt.Errorf("AgglomerativeHierarchicalClustering: matrix arg is %T", args[0])
	}
	linkName, err := pig.AsString(args[1])
	if err != nil {
		return nil, err
	}
	link, err := cluster.ParseLinkage(linkName)
	if err != nil {
		return nil, err
	}
	cutoff, err := pig.AsFloat(args[3])
	if err != nil {
		return nil, err
	}
	n := len(rows)
	m, err := cluster.NewMatrix(n)
	if err != nil {
		return nil, err
	}
	ids := make([]string, n)
	for _, rv := range rows {
		tup, ok := rv.(pig.Tuple)
		if !ok || len(tup.Fields) < 2 {
			return nil, fmt.Errorf("AgglomerativeHierarchicalClustering: malformed row %T", rv)
		}
		vals, ok := tup.Fields[0].([]float64)
		if !ok {
			return nil, fmt.Errorf("AgglomerativeHierarchicalClustering: row values are %T", tup.Fields[0])
		}
		idx, err := pig.AsInt(tup.Fields[1])
		if err != nil {
			return nil, err
		}
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("AgglomerativeHierarchicalClustering: row index %d out of range", idx)
		}
		if err := m.SetRow(idx, vals); err != nil {
			return nil, err
		}
		if len(tup.Fields) > 2 {
			if id, err := pig.AsString(tup.Fields[2]); err == nil {
				ids[idx] = id
			}
		}
	}
	// SetRow writes both triangles and the similarity rows are symmetric
	// by construction, so the assembled matrix is symmetric.
	dend, err := cluster.Hierarchical(m, cluster.HierarchicalOptions{Linkage: link})
	if err != nil {
		return nil, err
	}
	labels := dend.CutAt(cutoff)
	bag := make(pig.Bag, n)
	for i, l := range labels {
		id := ids[i]
		if id == "" {
			id = fmt.Sprint(i)
		}
		bag[i] = pig.NewTuple(id, int64(l))
	}
	return bag, nil
}

// greedyClusteringUDF is Algorithm 3 step 9: greedy clustering over the
// grouped bag of (signature, seqid) tuples, emitting (seqid, clusterlabel).
// The signatures are clustered on the configured store backing (see
// clusterSource), whose width numhash must match.
func greedyClusteringUDF(ctx *pig.Context, args []pig.Value) (pig.Value, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("GreedyClustering expects (bag, numhash, cutoff), got %d args", len(args))
	}
	bag, ok := args[0].(pig.Bag)
	if !ok {
		return nil, fmt.Errorf("GreedyClustering: first arg is %T, want bag", args[0])
	}
	numhash, err := pig.AsInt(args[1])
	if err != nil {
		return nil, err
	}
	cutoff, err := pig.AsFloat(args[2])
	if err != nil {
		return nil, err
	}
	sigs, ids, err := bagSignatures("GreedyClustering", bag)
	if err != nil {
		return nil, err
	}
	src, err := clusterSource(ctx, numhash, sigs)
	if err != nil {
		return nil, err
	}
	labels, err := cluster.Greedy(src, cutoff)
	if err != nil {
		return nil, err
	}
	out := make(pig.Bag, len(bag))
	for i := range bag {
		out[i] = pig.NewTuple(ids[i], int64(labels[i]))
	}
	return out, nil
}

// lshClusteringUDF is the sub-quadratic replacement for Algorithm 3's
// all-pairs branch: LSHClustering(bag, numhash, cutoff, mode, link) over
// the grouped (signature, seqid) bag. Candidate pairs come from a banded
// MinHash index (GeometryFor(numhash, cutoff)), are verified at the cutoff
// with the zero-alloc kernel, joined into connected components with
// union-find, and the exact algorithm selected by mode ('greedy' or
// 'hierarchical' with the link policy) runs per component. Labels are
// renumbered by first appearance in bag order, reproducing the exact UDFs'
// label sequence whenever every ≥cutoff pair band-collides.
func lshClusteringUDF(ctx *pig.Context, args []pig.Value) (pig.Value, error) {
	if len(args) != 5 {
		return nil, fmt.Errorf("LSHClustering expects (bag, numhash, cutoff, mode, link), got %d args", len(args))
	}
	bag, ok := args[0].(pig.Bag)
	if !ok {
		return nil, fmt.Errorf("LSHClustering: first arg is %T, want bag", args[0])
	}
	numhash, err := pig.AsInt(args[1])
	if err != nil {
		return nil, err
	}
	cutoff, err := pig.AsFloat(args[2])
	if err != nil {
		return nil, err
	}
	mode, err := pig.AsString(args[3])
	if err != nil {
		return nil, err
	}
	linkName, err := pig.AsString(args[4])
	if err != nil {
		return nil, err
	}
	if cutoff <= 0 {
		return nil, fmt.Errorf("LSHClustering: cutoff must be > 0, got %v", cutoff)
	}
	sigs, ids, err := bagSignatures("LSHClustering", bag)
	if err != nil {
		return nil, err
	}
	src, err := clusterSource(ctx, numhash, sigs)
	if err != nil {
		return nil, err
	}
	comps, err := lshComponentsSource(src, numhash, cutoff)
	if err != nil {
		return nil, err
	}
	members := make(map[int][]int)
	for i, c := range comps {
		members[c] = append(members[c], i) // ascending by construction
	}
	local := make([]int, len(sigs))
	for _, idxs := range members {
		var labels metrics.Clustering
		if len(idxs) == 1 {
			labels = metrics.Clustering{0}
		} else {
			sub := cluster.Subset(src, idxs)
			var err error
			switch mode {
			case "greedy":
				labels, err = cluster.Greedy(sub, cutoff)
			case "hierarchical":
				link, lerr := cluster.ParseLinkage(linkName)
				if lerr != nil {
					return nil, lerr
				}
				labels, err = cluster.HierarchicalFromSource(sub, link, cutoff)
			default:
				return nil, fmt.Errorf("LSHClustering: unknown mode %q (want greedy or hierarchical)", mode)
			}
			if err != nil {
				return nil, err
			}
		}
		for i, m := range idxs {
			local[m] = labels[i]
		}
	}
	type clusterID struct{ comp, local int }
	global := make(map[clusterID]int)
	next := 0
	out := make(pig.Bag, len(bag))
	for i := range bag {
		id := clusterID{comp: comps[i], local: local[i]}
		g, ok := global[id]
		if !ok {
			g = next
			global[id] = g
			next++
		}
		out[i] = pig.NewTuple(ids[i], int64(g))
	}
	return out, nil
}

// bagSignatures splits a grouped bag of (signature, seqid) tuples into
// its signatures and read IDs; udf names the caller in errors.
func bagSignatures(udf string, bag pig.Bag) ([]minhash.Signature, []string, error) {
	sigs := make([]minhash.Signature, len(bag))
	ids := make([]string, len(bag))
	for i, tup := range bag {
		sig, ok := tup.Fields[0].(minhash.Signature)
		if !ok {
			return nil, nil, fmt.Errorf("%s: bag tuple field is %T", udf, tup.Fields[0])
		}
		sigs[i] = sig
		id, err := pig.AsString(tup.Fields[1])
		if err != nil {
			return nil, nil, err
		}
		ids[i] = id
	}
	return sigs, ids, nil
}

// clusterSource puts a UDF's signature bag into a sharded signature store
// of width numhash — full 64-bit slots, or b-bit packed when
// ctx.StoreBits is 1..16 — and returns the view the clustering borrows
// from.
func clusterSource(ctx *pig.Context, numhash int, sigs []minhash.Signature) (cluster.SigSource, error) {
	bits := 0
	if ctx != nil {
		bits = ctx.StoreBits
	}
	st, err := sigstore.New(sigstore.Config{NumHashes: numhash, Bits: bits})
	if err != nil {
		return nil, err
	}
	if err := st.PutBatch(0, sigs); err != nil {
		return nil, err
	}
	view, err := st.View(minhash.SetOverlap)
	if err != nil {
		return nil, err
	}
	return view, nil
}

// lshComponentsSource finds the connected components of the verified
// θ-edge graph with the shared in-process band index and union-find (the
// UDF-local analogue of the pipeline's bands/verify/CC MapReduce stages).
// Every read with features is queried against the reads indexed before
// it and then indexed itself, so each candidate pair is verified once.
func lshComponentsSource(src cluster.SigSource, numhash int, cutoff float64) ([]int, error) {
	ix, err := cluster.NewLSHIndex(src, cluster.GeometryFor(numhash, cutoff))
	if err != nil {
		return nil, err
	}
	var edges []cluster.Edge
	var cands []int
	for i := 0; i < src.Len(); i++ {
		if src.Empty(i) {
			continue // no features: singleton component, like the exact path
		}
		cands = ix.Candidates(i, cands[:0])
		for _, id := range cands {
			j := ix.Member(id)
			if src.Similarity(j, i) >= cutoff {
				edges = append(edges, cluster.Edge{U: j, V: i})
			}
		}
		ix.Add(i)
	}
	return cluster.ConnectedComponents(src.Len(), edges)
}

// sortTuplesByFirstField orders a bag by its first field's formatted value
// (stable), used by tests to compare outputs deterministically.
func sortTuplesByFirstField(bag pig.Bag) {
	sort.SliceStable(bag, func(i, j int) bool {
		return pig.FormatValue(bag[i].Fields[0]) < pig.FormatValue(bag[j].Fields[0])
	})
}
