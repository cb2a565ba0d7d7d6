package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// The LSH+CC clustering path (Options.Candidate == CandidateLSH). Instead
// of the O(N²) all-pairs barrier it runs:
//
//  1. candidate generation — a map phase hashes each signature's b bands
//     and emits (bandHash, readID); the reduce phase keeps the lowest ids
//     of every bucket under a per-bucket size cap and emits them,
//  2. verification — a map-only job expands each kept bucket into its
//     pairs and scores each distinct pair once, in the lowest band whose
//     kept bucket holds both reads, with the zero-alloc
//     SimilarityPrepared kernel; of the pairs ≥ θ, each bucket emits
//     those that join two of its components, a spanning forest of its
//     θ-edges,
//  3. connected components — Kiveris et al.'s alternating Large-Star /
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
// MapReduce jobs and returns, sorted, a spanning forest of every bucket's
// verified θ-edges: each verified edge is scored in one bucket, whose
// forest connects its two reads, so the forests connect exactly what
// all verified edges connect. Signatures are read through the source —
// band hashes and pair similarities come off borrowed store rows without
// materializing any per-task signature copies.
func lshEdgesJobs(engine *mapreduce.Engine, src cluster.SigSource, opt Options) ([]cluster.Edge, []*mapreduce.Result, error) {
	lsh := lshGeometry(opt)
	cap := lshBucketCap(opt)

	// Empty signatures carry no features: they hash every band to the same
	// value and have similarity 0 to everything, so banding them would
	// only manufacture degenerate buckets. They stay out of the candidate
	// stage and end as singleton components, exactly like the exact path
	// at θ > 0.
	var reads []int
	for i := 0; i < src.Len(); i++ {
		if !src.Empty(i) {
			reads = append(reads, i)
		}
	}

	// A bucket is the key Key128{band, band hash}. The bands job emits one
	// record per kept member, the member's id its value, so each kept
	// bucket is one run of ascending ids in the job's output.
	var overflow, buckets atomic.Int64
	bandsJob := &mapreduce.Job[int, mapreduce.Key128, int]{
		Name:  "mrmcminh-lsh-bands",
		Input: reads,
		// One record hashes b bands of r rows each.
		MapCostFactor: float64(lsh.Bands) / 2,
		Map: func(i int, emit func(mapreduce.Key128, int)) error {
			for b := 0; b < lsh.Bands; b++ {
				emit(mapreduce.Key128{Hi: uint64(b), Lo: src.BandHash(i, b, lsh.Rows)}, i)
			}
			return nil
		},
		Reduce: func(key mapreduce.Key128, ids []int, emit func(mapreduce.Key128, int)) error {
			if len(ids) < 2 {
				return nil
			}
			buckets.Add(1)
			slices.Sort(ids)
			if len(ids) > cap {
				// A degenerate bucket of size B would expand into B(B-1)/2
				// pairs and re-quadratize the run; keep the cap lowest ids
				// (the dropped reads stay reachable through their other
				// bands).
				overflow.Add(int64(len(ids) - cap))
				ids = ids[:cap]
			}
			for _, id := range ids {
				emit(key, id)
			}
			return nil
		},
	}
	members, bandsOut, err := mapreduce.Run(engine, bandsJob)
	if err != nil {
		return nil, nil, err
	}
	bandsOut.Counters.Add("lsh.buckets", buckets.Load())
	bandsOut.Counters.Add("lsh.bucket_overflow", overflow.Load())

	// Cut the members into buckets, and index for every (read, band) the
	// kept bucket that holds the read: bucketOf[id·bands + band], −1 where
	// the read is in none.
	bucketOf := make([]int32, src.Len()*lsh.Bands)
	for i := range bucketOf {
		bucketOf[i] = -1
	}
	var spans []bucketSpan
	expanded := 0
	for lo := 0; lo < len(members); {
		hi, key := lo+1, members[lo].Key
		for hi < len(members) && members[hi].Key == key {
			hi++
		}
		for _, m := range members[lo:hi] {
			bucketOf[m.Value*lsh.Bands+int(key.Hi)] = int32(len(spans))
		}
		spans = append(spans, bucketSpan{lo, hi})
		expanded += (hi - lo) * (hi - lo - 1) / 2
		lo = hi
	}

	// A pair of band b's bucket is a candidate of band b alone when no
	// earlier band's kept bucket holds both reads: each distinct pair is
	// verified exactly once, in the lowest band that keeps it, and the
	// candidate set is the union of every band's capped pairs. Every
	// candidate is scored and every θ-edge counted, but a bucket emits
	// only the edges that join two of its components so far.
	var candidates, edgeCount atomic.Int64
	verifyJob := &mapreduce.Job[bucketSpan, mapreduce.Key128, struct{}]{
		Name:  "mrmcminh-lsh-verify",
		Input: spans,
		// One record expands a bucket: each of its pairs is charged one
		// verification at the mean pairs per bucket.
		MapCostFactor: float64(opt.NumHashes) / 20 * float64(expanded) / float64(max(len(spans), 1)),
		Map: func(sp bucketSpan, emit func(mapreduce.Key128, struct{})) error {
			bucket := members[sp.lo:sp.hi]
			band := int(bucket[0].Key.Hi)
			var stack [DefaultLSHBucketCap]int32
			forest := newUnionFind(stack[:0], len(bucket))
			var cands, edges int64
			for a, x := range bucket {
				i := x.Value
				earlierI := bucketOf[i*lsh.Bands : i*lsh.Bands+band]
				for b, y := range bucket[a+1:] {
					j := y.Value
					if shareBucket(earlierI, bucketOf[j*lsh.Bands:j*lsh.Bands+band]) {
						continue
					}
					cands++
					if src.Similarity(i, j) >= opt.Theta {
						edges++
						if forest.union(int32(a), int32(a+1+b)) {
							emit(mapreduce.Key128{Hi: uint64(i), Lo: uint64(j)}, struct{}{})
						}
					}
				}
			}
			candidates.Add(cands)
			edgeCount.Add(edges)
			return nil
		},
	}
	verified, verifyOut, err := mapreduce.Run(engine, verifyJob)
	if err != nil {
		return nil, nil, err
	}
	verifyOut.Counters.Add("lsh.candidate_pairs", candidates.Load())
	verifyOut.Counters.Add("lsh.edges", edgeCount.Load())

	edges := make([]cluster.Edge, len(verified))
	for i, kv := range verified {
		edges[i] = cluster.Edge{U: int(kv.Key.Hi), V: int(kv.Key.Lo)}
	}
	// Map output follows the buckets, not the pairs: canonicalize so the
	// edge list (and its checkpoint bytes) is sorted.
	edges, err = cluster.CanonicalEdges(src.Len(), edges)
	if err != nil {
		return nil, nil, err
	}
	return edges, []*mapreduce.Result{bandsOut, verifyOut}, nil
}

// bucketSpan is one kept bucket of the bands job's output: its records
// [lo, hi). A fixed-size record, so splitting the verify job's input
// sizes no record one by one.
type bucketSpan struct{ lo, hi int }

// unionFind is a union-find over a bucket's member positions: entry a is
// position a's parent, and a root is its own.
type unionFind []int32

// newUnionFind returns n singletons in buf, or in a new slice when buf
// cannot hold n: a bucket cap may exceed any fixed size.
func newUnionFind(buf []int32, n int) unionFind {
	f := unionFind(slices.Grow(buf[:0], n)[:n])
	for a := range f {
		f[a] = int32(a)
	}
	return f
}

// union joins the trees of a and b and reports whether they were apart.
func (f unionFind) union(a, b int32) bool {
	ra, rb := f.find(a), f.find(b)
	if ra == rb {
		return false
	}
	f[rb] = ra
	return true
}

// find returns the root of a, halving the path to it.
func (f unionFind) find(a int32) int32 {
	for f[a] != a {
		f[a] = f[f[a]]
		a = f[a]
	}
	return a
}

// shareBucket reports whether two reads' rows of bucketOf, over the same
// bands, name one kept bucket in some band.
func shareBucket(a, b []int32) bool {
	for band, x := range a {
		if x >= 0 && x == b[band] {
			return true
		}
	}
	return false
}

// lshFinishJob runs the exact clustering algorithm independently inside
// each connected component (components are grouped in the shuffle, members
// arrive as values) and returns each read's (component, local label)
// resolved to a global label by relabelComponents. Each reducer writes its
// members' local labels itself: a read is in one component, so each entry
// has one writer.
func lshFinishJob(engine *mapreduce.Engine, src cluster.SigSource, comps []int, opt Options) (metrics.Clustering, *mapreduce.Result, error) {
	n := src.Len()
	local := make([]int, n)
	job := &mapreduce.Job[int, mapreduce.Key64, int]{
		Name:  "mrmcminh-lsh-finish",
		Input: indices(n),
		// Per-component clustering costs |C|² in the worst case but
		// components are θ-similarity neighborhoods, far smaller than N.
		ReduceCostFactor: 7.5,
		Map: func(i int, emit func(mapreduce.Key64, int)) error {
			emit(mapreduce.Key64(comps[i]), i)
			return nil
		},
		Reduce: func(_ mapreduce.Key64, members []int, _ func(mapreduce.Key64, int)) error {
			// Global index order within the component: the exact algorithms
			// are order-sensitive and the equivalence proof needs the
			// restriction of the global order.
			slices.Sort(members)
			labels, err := clusterComponent(src, members, opt.Mode, opt.Linkage, opt.Theta)
			if err != nil {
				return err
			}
			for i, m := range members {
				local[m] = labels[i]
			}
			return nil
		},
	}
	_, res, err := mapreduce.Run(engine, job)
	if err != nil {
		return nil, nil, err
	}
	return relabelComponents(comps, local), res, nil
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
// this reproduces the exact path's label sequence. Component c's local
// labels index a run of one table from offset[c], whose entries hold
// each cluster's global label plus one once it has appeared.
func relabelComponents(comps, local []int) metrics.Clustering {
	assign := make(metrics.Clustering, len(comps))
	if len(comps) == 0 {
		return assign
	}
	offset := make([]int, slices.Max(comps)+2)
	for i, c := range comps {
		offset[c+1] = max(offset[c+1], local[i]+1)
	}
	for c := 1; c < len(offset); c++ {
		offset[c] += offset[c-1]
	}
	global := make([]int, offset[len(offset)-1])
	next := 0
	for i, c := range comps {
		g := &global[offset[c]+local[i]]
		if *g == 0 {
			next++
			*g = next
		}
		assign[i] = *g - 1
	}
	return assign
}

// clusterLSHCC drives the LSH candidate stage, connected components and
// the per-component finish, each one checkpointed stage like the exact
// path's.
func clusterLSHCC(engine *mapreduce.Engine, src cluster.SigSource, sigsHash string, opt Options, ck *ckptRunner, addJob func(*mapreduce.Result)) (metrics.Clustering, error) {
	lsh := lshGeometry(opt)
	edgeParams := map[string]string{
		"theta":      fmt.Sprint(opt.Theta),
		"estimator":  fmt.Sprint(int(minhash.SetOverlap)),
		"bands":      fmt.Sprint(lsh.Bands),
		"rows":       fmt.Sprint(lsh.Rows),
		"bucket_cap": fmt.Sprint(lshBucketCap(opt)),
	}
	edges, edgesHash, err := stage(ck, StageLSHEdges, sigsHash, edgeParams, encodeEdges, decodeEdges,
		func() ([]cluster.Edge, error) {
			edges, results, err := lshEdgesJobs(engine, src, opt)
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				addJob(r)
			}
			return edges, nil
		})
	if err != nil {
		return nil, err
	}
	ccParams := map[string]string{
		"n":          fmt.Sprint(src.Len()),
		"max_rounds": fmt.Sprint(cluster.DefaultCCMaxRounds),
	}
	comps, compsHash, err := stage(ck, StageCC, edgesHash, ccParams, encodeLabels, decodeLabels,
		func() (metrics.Clustering, error) {
			labels, results, _, err := cluster.ConnectedComponentsMR(engine, src.Len(), edges)
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				addJob(r)
			}
			return labels, nil
		})
	if err != nil {
		return nil, err
	}
	finishParams := map[string]string{
		"mode":      fmt.Sprint(int(opt.Mode)),
		"theta":     fmt.Sprint(opt.Theta),
		"linkage":   fmt.Sprint(int(opt.Linkage)),
		"estimator": fmt.Sprint(int(minhash.SetOverlap)),
	}
	labels, _, err := stage(ck, StageLSHCluster, compsHash, finishParams, encodeLabels, decodeLabels,
		func() (metrics.Clustering, error) {
			labels, out, err := lshFinishJob(engine, src, comps, opt)
			if err != nil {
				return nil, err
			}
			addJob(out)
			return labels, nil
		})
	return labels, err
}
