package mapreduce

import (
	"fmt"
	"math/rand"
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
	e.mergeFanIn = fanIn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(e, wordCountJob(lines, false)); err != nil {
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

// benchSortPartition times the sort that the reducer and the combiner
// run: building a partition's index and ordering it.
func benchSortPartition[K Key](b *testing.B, keys []K) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortPartition(keys)
	}
}

// BenchmarkPartitionSortWords sorts 8,192 records keyed by the skewed
// 3-byte words of benchWords.
func BenchmarkPartitionSortWords(b *testing.B) {
	benchSortPartition(b, benchWords(8192, rand.New(rand.NewSource(2))))
}

// BenchmarkPartitionSortPairKeys sorts 8,192 records keyed by Key128
// pairs of two read indices below 65,536, the shape of the
// connected-components jobs' edge keys.
func BenchmarkPartitionSortPairKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	keys := make([]Key128, 8192)
	for i := range keys {
		keys[i] = Key128{uint64(rng.Intn(1 << 16)), uint64(rng.Intn(1 << 16))}
	}
	benchSortPartition(b, keys)
}
