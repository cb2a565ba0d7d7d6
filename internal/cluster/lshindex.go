package cluster

// LSHIndex is the banded locality-sensitive-hashing index over a
// signature source — the data structure behind the authors' earlier
// MC-LSH. Each signature splits into Bands bands of Rows rows; two
// signatures are candidates when any band hashes identically, which a
// pair with Jaccard similarity s does with probability 1-(1-s^r)^b.
// Every LSH user shares it: GreedyLSH and the banded Incremental index
// cluster representatives, the Pig LSHClustering UDF indexes every read.
type LSHIndex struct {
	src     SigSource
	geo     LSHOptions
	buckets []map[uint64][]int // per band: band hash -> entry ids in insertion order
	members []int              // entry id -> source index
	// marks/gen dedup candidates without allocating: marks[id] holds the
	// generation of the last query that saw id, so a query bumps one
	// counter instead of clearing a set.
	marks []uint32
	gen   uint32
}

// NewLSHIndex returns an empty index over src. The geometry must fit the
// source's signatures; an empty slice source has no width yet, so only
// its band and row counts are checked.
func NewLSHIndex(src SigSource, geo LSHOptions) (*LSHIndex, error) {
	width := src.NumHashes()
	if width == 0 && src.Len() == 0 {
		width = geo.Bands * geo.Rows
	}
	if err := geo.Validate(width); err != nil {
		return nil, err
	}
	ix := &LSHIndex{src: src, geo: geo, buckets: make([]map[uint64][]int, geo.Bands)}
	for b := range ix.buckets {
		ix.buckets[b] = make(map[uint64][]int)
	}
	return ix, nil
}

// Add indexes source element i and returns its entry id. Ids are dense
// and follow insertion order.
func (ix *LSHIndex) Add(i int) int {
	id := len(ix.members)
	ix.members = append(ix.members, i)
	ix.marks = append(ix.marks, 0)
	for b := range ix.buckets {
		h := ix.src.BandHash(i, b, ix.geo.Rows)
		ix.buckets[b][h] = append(ix.buckets[b][h], id)
	}
	return id
}

// Candidates appends to buf the ids of the entries sharing at least one
// band with source element i and returns the extended slice. Each id
// appears once, in first-seen order: band 0's bucket in insertion order,
// then band 1's unseen entries, and so on. With buf reused (buf[:0]) a
// query allocates nothing once buf has grown.
func (ix *LSHIndex) Candidates(i int, buf []int) []int {
	ix.gen++
	if ix.gen == 0 { // generation counter wrapped: invalidate stale marks
		clear(ix.marks)
		ix.gen = 1
	}
	for b := range ix.buckets {
		for _, id := range ix.buckets[b][ix.src.BandHash(i, b, ix.geo.Rows)] {
			if ix.marks[id] != ix.gen {
				ix.marks[id] = ix.gen
				buf = append(buf, id)
			}
		}
	}
	return buf
}

// Member returns the source index of entry id.
func (ix *LSHIndex) Member(id int) int { return ix.members[id] }
