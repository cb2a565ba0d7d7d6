package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
)

// The lock-free read path: the committer is the only writer, and after
// every committed batch it publishes an immutable readView through
// State.view (an atomic.Pointer). A query does one atomic pointer load
// and then walks structures that will never change again — no mutex, no
// per-request copying, and a guaranteed-consistent snapshot (a view is
// published whole or not at all).
//
// The view's arrays are chunked so publication is cheap: assignments,
// read IDs, and representatives are append-only (labels are stable for
// the clusterer's lifetime), so consecutive views share every full
// chunk and the writer only ever touches entries past the previous
// view's length. Cluster sizes mutate in place, so their chunks are
// copied on first write after a publish. Publishing after a batch is
// O(reads in batch + labels touched), never O(corpus).

const (
	viewChunkShift = 12 // 4096 entries per chunk
	viewChunkLen   = 1 << viewChunkShift
	viewChunkMask  = viewChunkLen - 1
)

// chunkSlice is the reader's frozen window onto a chunked array: a
// spine of chunk pointers plus the entry count the view was published
// at. Entries below n are immutable; the builder keeps appending past n
// into shared tail chunks, which readers of this view never index.
type chunkSlice[T any] struct {
	spine []*[viewChunkLen]T
	n     int
}

func (c chunkSlice[T]) len() int { return c.n }

func (c chunkSlice[T]) at(i int) T {
	return c.spine[i>>viewChunkShift][i&viewChunkMask]
}

// appendChunks is the committer-owned builder for append-only columns.
// view() hands out the current spine header and length; because entries
// are write-once and the spine only grows, later appends stay invisible
// to (and race-free against) every published view.
type appendChunks[T any] struct {
	spine []*[viewChunkLen]T
	n     int
}

func (a *appendChunks[T]) append(v T) {
	if a.n>>viewChunkShift == len(a.spine) {
		a.spine = append(a.spine, new([viewChunkLen]T))
	}
	a.spine[a.n>>viewChunkShift][a.n&viewChunkMask] = v
	a.n++
}

func (a *appendChunks[T]) at(i int) T { return a.spine[i>>viewChunkShift][i&viewChunkMask] }

func (a *appendChunks[T]) view() chunkSlice[T] { return chunkSlice[T]{spine: a.spine, n: a.n} }

// cowChunks is the committer-owned builder for the one mutable column,
// cluster sizes. Published views must stay frozen, so the first write
// into a chunk after a publish copies it; view() snapshots the spine
// (a pointer copy, O(labels/4096)) and marks every chunk shared again.
type cowChunks struct {
	spine []*[viewChunkLen]int32
	owned []bool // chunk is private to the builder, safe to write in place
	n     int
}

func (c *cowChunks) ensure(k int) *[viewChunkLen]int32 {
	if !c.owned[k] {
		cp := *c.spine[k]
		c.spine[k] = &cp
		c.owned[k] = true
	}
	return c.spine[k]
}

func (c *cowChunks) append(v int32) {
	if c.n>>viewChunkShift == len(c.spine) {
		c.spine = append(c.spine, new([viewChunkLen]int32))
		c.owned = append(c.owned, true)
	}
	c.ensure(c.n >> viewChunkShift)[c.n&viewChunkMask] = v
	c.n++
}

func (c *cowChunks) inc(i int) {
	c.ensure(i >> viewChunkShift)[i&viewChunkMask]++
}

func (c *cowChunks) at(i int) int32 { return c.spine[i>>viewChunkShift][i&viewChunkMask] }

func (c *cowChunks) view() chunkSlice[int32] {
	spine := make([]*[viewChunkLen]int32, len(c.spine))
	copy(spine, c.spine)
	for k := range c.owned {
		c.owned[k] = false
	}
	return chunkSlice[int32]{spine: spine, n: c.n}
}

// readView is one published epoch of the corpus. Everything a query
// endpoint needs is resolved here — including the label→representative-ID
// table, so a query needs nothing from the store but the translator's
// lock-free Lookup — and the cross-request summaries (Clusters,
// Diversity, their JSON encodings) are memoized per view: computed at
// most once per epoch, on first use, with idempotent atomic publication
// instead of a sync.Once mutex.
type readView struct {
	assign   chunkSlice[int32]  // dense id -> cluster label
	ids      chunkSlice[string] // dense id -> external read ID
	sizes    chunkSlice[int32]  // label -> cluster size
	repDense chunkSlice[uint32] // label -> dense id of the representative
	repID    chunkSlice[string] // label -> external ID of the representative
	reads    int
	labels   int
	sigBytes int64

	clusters      atomic.Pointer[[]ClusterInfo]
	clustersJSON  atomic.Pointer[[]byte]
	diversity     atomic.Pointer[Diversity]
	diversityJSON atomic.Pointer[[]byte]
}

// clustersList memoizes the size-sorted cluster summary. Racing callers
// may compute it twice; the result is deterministic, so either store
// wins harmlessly. The returned slice is shared — callers must not
// modify it.
func (v *readView) clustersList() []ClusterInfo {
	if p := v.clusters.Load(); p != nil {
		return *p
	}
	out := make([]ClusterInfo, v.labels)
	for i := range out {
		out[i] = ClusterInfo{Cluster: i, Size: int(v.sizes.at(i)), Representative: v.repID.at(i)}
	}
	slices.SortStableFunc(out, func(a, b ClusterInfo) int { return b.Size - a.Size })
	v.clusters.Store(&out)
	return out
}

// clustersBody memoizes the full /v1/clusters response body.
func (v *readView) clustersBody() []byte {
	if p := v.clustersJSON.Load(); p != nil {
		return *p
	}
	body := encodeJSON(map[string]any{"clusters": v.clustersList()})
	v.clustersJSON.Store(&body)
	return body
}

// diversitySummary memoizes the community summary for this epoch.
func (v *readView) diversitySummary() Diversity {
	if p := v.diversity.Load(); p != nil {
		return *p
	}
	d := Diversity{Reads: v.reads, Clusters: v.labels}
	if v.reads > 0 {
		n := float64(v.reads)
		for i := 0; i < v.labels; i++ {
			s := v.sizes.at(i)
			if s == 1 {
				d.Singletons++
			}
			if int(s) > d.Largest {
				d.Largest = int(s)
			}
			p := float64(s) / n
			d.Shannon -= p * math.Log(p)
			d.Simpson += p * p
		}
	}
	v.diversity.Store(&d)
	return d
}

// diversityBody memoizes the /v1/diversity response body.
func (v *readView) diversityBody() []byte {
	if p := v.diversityJSON.Load(); p != nil {
		return *p
	}
	body := encodeJSON(v.diversitySummary())
	v.diversityJSON.Store(&body)
	return body
}

// encodeJSON matches json.Encoder output (trailing newline) for the
// memoized response bodies.
func encodeJSON(val any) []byte {
	body, err := json.Marshal(val)
	if err != nil {
		// Every memoized value is a plain struct/map of encodable
		// fields; failure here is a programming error.
		panic("serve: encoding memoized view summary: " + err.Error())
	}
	return append(body, '\n')
}

// dumpTSV streams "read_id<TAB>cluster" rows in dense (commit) order
// from this pinned view. Row resolution cannot fail — every dense ID in
// the view has its external ID resolved at commit time — so the only
// possible error is the writer's own, and the rows written before it
// are always a clean prefix of the full dump.
func (v *readView) dumpTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var num [20]byte
	for i := 0; i < v.reads; i++ {
		if _, err := bw.WriteString(v.ids.at(i)); err != nil {
			return err
		}
		bw.WriteByte('\t')
		bw.Write(strconv.AppendInt(num[:0], int64(v.assign.at(i)), 10))
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
