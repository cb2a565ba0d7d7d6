package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// The LSH+CC clustering path (Options.Candidate == CandidateLSH). Instead
// of the O(N²) all-pairs barrier it runs:
//
//  1. candidate generation — a map phase hashes each signature's b bands
//     and emits (bandHash, readID); the reduce phase expands every bucket
//     into candidate pairs under a per-bucket size cap,
//  2. verification — each distinct candidate pair is scored once with the
//     zero-alloc SimilarityPrepared kernel; pairs ≥ θ become edges,
//  3. connected components — Rastogi et al.'s alternating Large-Star /
//     Small-Star MapReduce rounds (internal/cluster/cc.go),
//  4. finish — the exact clustering algorithm (greedy or hierarchical)
//     runs independently inside each component, and the driver relabels
//     (component, local label) pairs by first appearance in read order.
//
// Because similarities across components are below θ whenever every ≥θ
// pair collides in some band, step 4 reproduces the exact path's
// assignments bit for bit — the equivalence the lshcc tests pin.

// lshGeometry resolves the banding geometry from the options.
func lshGeometry(opt Options) cluster.LSHOptions {
	if opt.LSH != (cluster.LSHOptions{}) {
		return opt.LSH
	}
	return cluster.GeometryFor(opt.NumHashes, opt.Theta)
}

// lshBucketCap resolves the per-bucket expansion cap.
func lshBucketCap(opt Options) int {
	if opt.LSHBucketCap > 0 {
		return opt.LSHBucketCap
	}
	return DefaultLSHBucketCap
}

// lshEdgesJobs runs candidate generation and verification as two chained
// MapReduce jobs and returns the verified θ-edges, sorted. Signatures are
// read through the source — band hashes and pair similarities come off
// borrowed store rows without materializing any per-task signature
// copies.
func lshEdgesJobs(engine *mapreduce.Engine, src cluster.SigSource, opt Options) ([]cluster.Edge, []*mapreduce.Result, error) {
	lsh := lshGeometry(opt)
	cap := lshBucketCap(opt)

	// Empty signatures carry no features: they hash every band to the same
	// value and have similarity 0 to everything, so banding them would
	// only manufacture degenerate buckets. They stay out of the candidate
	// stage and end as singleton components, exactly like the exact path
	// at θ > 0.
	var records []mapreduce.KeyValue
	for i := 0; i < src.Len(); i++ {
		if !src.Empty(i) {
			records = append(records, mapreduce.KeyValue{Key: mapreduce.Uint64Key(uint64(i)), Value: i})
		}
	}

	var overflow, buckets atomic.Int64
	bandsJob := &mapreduce.Job{
		Name:  "mrmcminh-lsh-bands",
		Input: mapreduce.MemoryInput{Records: records, SplitSize: splitSize(len(records), engine.Cluster)},
		// One record hashes b bands of r rows each.
		MapCostFactor: float64(lsh.Bands) / 2,
		Map: func(kv mapreduce.KeyValue, emit func(mapreduce.KeyValue)) error {
			i := kv.Value.(int)
			for b := 0; b < lsh.Bands; b++ {
				h := src.BandHash(i, b, lsh.Rows)
				emit(mapreduce.KeyValue{Key: mapreduce.PairKey(uint64(b), h), Value: i})
			}
			return nil
		},
		Reduce: func(_ string, values []any, emit func(mapreduce.KeyValue)) error {
			if len(values) < 2 {
				return nil
			}
			buckets.Add(1)
			ids := make([]int, len(values))
			for i, v := range values {
				ids[i] = v.(int)
			}
			sort.Ints(ids)
			if len(ids) > cap {
				// A degenerate bucket of size B would emit B(B-1)/2 pairs
				// and re-quadratize the run; keep the cap lowest ids (the
				// dropped reads stay reachable through their other bands).
				overflow.Add(int64(len(ids) - cap))
				ids = ids[:cap]
			}
			for a := 0; a < len(ids); a++ {
				for b := a + 1; b < len(ids); b++ {
					emit(mapreduce.KeyValue{Key: mapreduce.PairKey(uint64(ids[a]), uint64(ids[b])), Value: nil})
				}
			}
			return nil
		},
	}
	bandsOut, err := engine.Run(bandsJob)
	if err != nil {
		return nil, nil, err
	}
	bandsOut.Counters.Add("lsh.buckets", buckets.Load())
	bandsOut.Counters.Add("lsh.bucket_overflow", overflow.Load())

	var candidates, edgeCount atomic.Int64
	verifyJob := &mapreduce.Job{
		Name:  "mrmcminh-lsh-verify",
		Input: mapreduce.MemoryInput{Records: bandsOut.Output, SplitSize: splitSize(len(bandsOut.Output), engine.Cluster)},
		// Grouping by pair key dedups pairs surfaced by several bands, so
		// each candidate is verified exactly once.
		ReduceCostFactor: float64(opt.NumHashes) / 20,
		Map: func(kv mapreduce.KeyValue, emit func(mapreduce.KeyValue)) error {
			emit(kv)
			return nil
		},
		Reduce: func(key string, _ []any, emit func(mapreduce.KeyValue)) error {
			i, j := int(mapreduce.KeyField(key, 0)), int(mapreduce.KeyField(key, 1))
			candidates.Add(1)
			if src.Similarity(i, j) >= opt.Theta {
				edgeCount.Add(1)
				emit(mapreduce.KeyValue{Key: key, Value: cluster.Edge{U: i, V: j}})
			}
			return nil
		},
	}
	verifyOut, err := engine.Run(verifyJob)
	if err != nil {
		return nil, nil, err
	}
	verifyOut.Counters.Add("lsh.candidate_pairs", candidates.Load())
	verifyOut.Counters.Add("lsh.edges", edgeCount.Load())

	edges := make([]cluster.Edge, 0, len(verifyOut.Output))
	for _, kv := range verifyOut.Output {
		edges = append(edges, kv.Value.(cluster.Edge))
	}
	// Reduce output is ordered per partition, not globally: sort so the
	// edge list (and its checkpoint bytes) is canonical.
	slices.SortFunc(edges, func(a, b cluster.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return edges, []*mapreduce.Result{bandsOut, verifyOut}, nil
}

// lshFinishJob runs the exact clustering algorithm independently inside
// each connected component (components are grouped in the shuffle, members
// arrive as values) and returns each read's (component, local label)
// resolved to a global label by relabelComponents.
func lshFinishJob(engine *mapreduce.Engine, src cluster.SigSource, comps []int, opt Options) (metrics.Clustering, *mapreduce.Result, error) {
	n := src.Len()
	records := make([]mapreduce.KeyValue, n)
	for i := range records {
		records[i] = mapreduce.KeyValue{Key: mapreduce.Uint64Key(uint64(i)), Value: i}
	}
	local := make([]int, n)
	job := &mapreduce.Job{
		Name:  "mrmcminh-lsh-finish",
		Input: mapreduce.MemoryInput{Records: records, SplitSize: splitSize(n, engine.Cluster)},
		// Per-component clustering costs |C|² in the worst case but
		// components are θ-similarity neighborhoods, far smaller than N.
		ReduceCostFactor: 7.5,
		Map: func(kv mapreduce.KeyValue, emit func(mapreduce.KeyValue)) error {
			i := kv.Value.(int)
			emit(mapreduce.KeyValue{Key: mapreduce.Uint64Key(uint64(comps[i])), Value: i})
			return nil
		},
		Reduce: func(_ string, values []any, emit func(mapreduce.KeyValue)) error {
			members := make([]int, len(values))
			for i, v := range values {
				members[i] = v.(int)
			}
			// Global index order within the component: the exact algorithms
			// are order-sensitive and the equivalence proof needs the
			// restriction of the global order.
			sort.Ints(members)
			labels, err := clusterComponent(src, members, opt.Mode, opt.Linkage, opt.Theta)
			if err != nil {
				return err
			}
			for i, m := range members {
				emit(mapreduce.KeyValue{Key: mapreduce.Uint64Key(uint64(m)), Value: labels[i]})
			}
			return nil
		},
	}
	out, err := engine.Run(job)
	if err != nil {
		return nil, nil, err
	}
	for _, kv := range out.Output {
		local[mapreduce.KeyField(kv.Key, 0)] = kv.Value.(int)
	}
	return relabelComponents(comps, local), out, nil
}

// clusterComponent runs the exact algorithm of mode over one connected
// component, given as ascending read indices, and returns each member's
// local label. A singleton is its own cluster 0; otherwise the source is
// restricted to the component — an index remap, no signature copies.
func clusterComponent(src cluster.SigSource, members []int, mode Mode, link cluster.Linkage, theta float64) (metrics.Clustering, error) {
	if len(members) == 1 {
		return metrics.Clustering{0}, nil
	}
	sub := cluster.Subset(src, members)
	if mode == GreedyMode {
		return cluster.Greedy(sub, theta)
	}
	return cluster.HierarchicalFromSource(sub, link, theta)
}

// relabelComponents resolves each read's (component, local label) pair to
// a global label by first appearance in read order. A cluster's
// smallest-index member is where the exact path created its label, so
// this reproduces the exact path's label sequence.
func relabelComponents(comps, local []int) metrics.Clustering {
	type clusterID struct{ comp, local int }
	global := make(map[clusterID]int)
	assign := make(metrics.Clustering, len(comps))
	for i := range comps {
		id := clusterID{comp: comps[i], local: local[i]}
		g, ok := global[id]
		if !ok {
			g = len(global)
			global[id] = g
		}
		assign[i] = g
	}
	return assign
}

// clusterLSHCC drives the LSH candidate stage, connected components and
// the per-component finish, threading each stage through the checkpoint
// runner exactly like the exact path's stages.
func clusterLSHCC(engine *mapreduce.Engine, src cluster.SigSource, sigsHash string, opt Options, res *Result, ck *ckptRunner, addJob func(*mapreduce.Result)) error {
	lsh := lshGeometry(opt)
	edgeParams := map[string]string{
		"theta":      fmt.Sprint(opt.Theta),
		"estimator":  fmt.Sprint(int(minhash.SetOverlap)),
		"bands":      fmt.Sprint(lsh.Bands),
		"rows":       fmt.Sprint(lsh.Rows),
		"bucket_cap": fmt.Sprint(lshBucketCap(opt)),
	}
	var edges []cluster.Edge
	var edgeBytes []byte
	if data, ok, err := ck.lookup(StageLSHEdges, sigsHash, edgeParams); err != nil {
		return err
	} else if ok {
		if edges, err = decodeEdges(data); err != nil {
			return err
		}
		edgeBytes = data
	} else {
		var results []*mapreduce.Result
		var err error
		if edges, results, err = lshEdgesJobs(engine, src, opt); err != nil {
			return err
		}
		for _, r := range results {
			addJob(r)
		}
		if opt.Checkpoint != nil {
			edgeBytes = encodeEdges(edges)
		}
		if err := ck.commit(StageLSHEdges, sigsHash, edgeParams, func() []byte { return edgeBytes }); err != nil {
			return err
		}
	}
	var edgesHash string
	if opt.Checkpoint != nil {
		edgesHash = checkpoint.HashBytes(edgeBytes)
	}

	ccParams := map[string]string{
		"n":          fmt.Sprint(src.Len()),
		"max_rounds": fmt.Sprint(cluster.DefaultCCMaxRounds),
	}
	var comps []int
	var compBytes []byte
	if data, ok, err := ck.lookup(StageCC, edgesHash, ccParams); err != nil {
		return err
	} else if ok {
		labels, err := decodeLabels(data)
		if err != nil {
			return err
		}
		comps = labels
		compBytes = data
	} else {
		labels, results, _, err := cluster.ConnectedComponentsMR(engine, src.Len(), edges, cluster.CCOptions{})
		if err != nil {
			return err
		}
		comps = labels
		for _, r := range results {
			addJob(r)
		}
		if opt.Checkpoint != nil {
			compBytes = encodeLabels(comps)
		}
		if err := ck.commit(StageCC, edgesHash, ccParams, func() []byte { return compBytes }); err != nil {
			return err
		}
	}
	var compsHash string
	if opt.Checkpoint != nil {
		compsHash = checkpoint.HashBytes(compBytes)
	}

	finishParams := map[string]string{
		"mode":      fmt.Sprint(int(opt.Mode)),
		"theta":     fmt.Sprint(opt.Theta),
		"linkage":   fmt.Sprint(int(opt.Linkage)),
		"estimator": fmt.Sprint(int(minhash.SetOverlap)),
	}
	if data, ok, err := ck.lookup(StageLSHCluster, compsHash, finishParams); err != nil {
		return err
	} else if ok {
		if res.Assignments, err = decodeLabels(data); err != nil {
			return err
		}
	} else {
		labels, out, err := lshFinishJob(engine, src, comps, opt)
		if err != nil {
			return err
		}
		res.Assignments = labels
		addJob(out)
		if err := ck.commit(StageLSHCluster, compsHash, finishParams, func() []byte { return encodeLabels(labels) }); err != nil {
			return err
		}
	}
	return nil
}
