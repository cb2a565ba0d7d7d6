package mapreduce

import (
	"fmt"
	"math/rand"
	"slices"
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

// benchPartition builds one reducer partition's worth of records, each
// tagged with a sequence number in arrival order.
func benchPartition(n int) []spillRecord {
	rng := rand.New(rand.NewSource(2))
	words := benchWords(n, rng)
	recs := make([]spillRecord, n)
	for i, w := range words {
		recs[i] = spillRecord{kv: KeyValue{Key: w, Value: 1}, seq: int64(i)}
	}
	return recs
}

// BenchmarkPartitionSortKeySeq is the reducer's sort: one partition
// ordered by (key, seq) with compareSpill.
func BenchmarkPartitionSortKeySeq(b *testing.B) {
	recs := benchPartition(8192)
	scratch := make([]spillRecord, len(recs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, recs)
		slices.SortFunc(scratch, compareSpill)
	}
}
