package mapreduce

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchWords is a zipf-ish vocabulary so reducer groups have realistic
// skew: a few heavy keys, a long tail of light ones.
func benchWords(n int, rng *rand.Rand) []string {
	vocab := make([]string, 64)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = vocab[rng.Intn(1+rng.Intn(len(vocab)))]
	}
	return out
}

// benchShuffle runs the canonical wordcount over ~2k records per
// iteration with the given shuffle configuration.
func benchShuffle(b *testing.B, bufBytes, fanIn int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	words := benchWords(2048, rng)
	lines := make([]string, 256)
	for i := range lines {
		lines[i] = strings.Join(words[i*8:(i+1)*8], " ")
	}
	e := MustEngine(DefaultCluster)
	e.ShuffleBufferBytes = bufBytes
	e.MergeFanIn = fanIn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(wordCountJob(lines, false)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShuffleInMemory(b *testing.B) { benchShuffle(b, 0, 0) }

// 4K holds a whole task's output: one final-flush spill per map task.
func BenchmarkShuffleSpill4K(b *testing.B) { benchShuffle(b, 4<<10, 0) }

// 64 bytes forces a spill every few records: many segments per reducer.
func BenchmarkShuffleSpill64(b *testing.B) { benchShuffle(b, 64, 0) }

// Fan-in 2 on the 64-byte segments adds intermediate merge passes.
func BenchmarkShuffleSpillFanIn2(b *testing.B) { benchShuffle(b, 64, 2) }

// benchPartition builds one reducer partition's worth of records.
func benchPartition(n int) []KeyValue {
	rng := rand.New(rand.NewSource(2))
	words := benchWords(n, rng)
	recs := make([]KeyValue, n)
	for i, w := range words {
		recs[i] = KeyValue{Key: w, Value: 1}
	}
	return recs
}

// BenchmarkPartitionSortSliceStable is the reducer sort the engine shipped
// with: reflection-based sort.SliceStable. Kept as the baseline for the
// slices.SortStableFunc migration below (see BENCH_shuffle.json).
func BenchmarkPartitionSortSliceStable(b *testing.B) {
	recs := benchPartition(8192)
	scratch := make([]KeyValue, len(recs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, recs)
		sort.SliceStable(scratch, func(i, j int) bool { return scratch[i].Key < scratch[j].Key })
	}
}

// BenchmarkPartitionSortStableFunc is the current reducer sort: generic
// slices.SortStableFunc with a strings.Compare comparator.
func BenchmarkPartitionSortStableFunc(b *testing.B) {
	recs := benchPartition(8192)
	scratch := make([]KeyValue, len(recs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, recs)
		slices.SortStableFunc(scratch, func(x, y KeyValue) int { return strings.Compare(x.Key, y.Key) })
	}
}

// BenchmarkMergeRuns streams a 16-way merge of pre-sorted spill runs.
func BenchmarkMergeRuns(b *testing.B) {
	const runs, perRun = 16, 512
	segs := make([][]spillRecord, runs)
	for r := range segs {
		recs := make([]spillRecord, perRun)
		words := benchWords(perRun, rand.New(rand.NewSource(int64(r))))
		for i, w := range words {
			recs[i] = spillRecord{kv: KeyValue{Key: w, Value: 1}, seq: int64(r)<<40 | int64(i)}
		}
		slices.SortFunc(recs, compareSpill)
		segs[r] = recs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := mergeRuns(segs, func(spillRecord) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != runs*perRun {
			b.Fatalf("merged %d records, want %d", n, runs*perRun)
		}
	}
}
