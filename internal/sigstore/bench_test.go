package sigstore

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// The sigstore benchmarks feed BENCH_sigstore.json: put throughput and
// borrowed-view similarity/band-hash latency for full vs b-bit packed
// storage, each reporting resident sig-bytes/read — the metric behind
// the >=8x compression acceptance bar (b=4 at n=100: 56 vs 800).

const benchHashes = 100

func benchStore(b *testing.B, bits, n int) (*Store, []minhash.Signature) {
	b.Helper()
	sigs := randSigs(b, n, benchHashes, 13, 42)
	s, err := New(Config{NumHashes: benchHashes, Bits: bits})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.PutBatch(0, sigs); err != nil {
		b.Fatal(err)
	}
	return s, sigs
}

func BenchmarkSigStorePut(b *testing.B) {
	for _, bits := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("b%d", bits), func(b *testing.B) {
			const n = 4096
			sigs := randSigs(b, n, benchHashes, 13, 42)
			s, err := New(Config{NumHashes: benchHashes, Bits: bits})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(uint32(i%n), sigs[i%n]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(s.ResidentBytes())/float64(s.Len()), "sig-bytes/read")
		})
	}
}

func BenchmarkSigStoreViewSimilarity(b *testing.B) {
	for _, bits := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("b%d", bits), func(b *testing.B) {
			const n = 1024
			s, _ := benchStore(b, bits, n)
			v := s.View(minhash.SetOverlap)
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += v.Similarity(i%n, (i*7+1)%n)
			}
			b.StopTimer()
			_ = sink
			b.ReportMetric(float64(s.ResidentBytes())/float64(s.Len()), "sig-bytes/read")
		})
	}
}

func BenchmarkSigStoreViewBandHash(b *testing.B) {
	for _, bits := range []int{0, 4} {
		b.Run(fmt.Sprintf("b%d", bits), func(b *testing.B) {
			const n = 1024
			s, _ := benchStore(b, bits, n)
			v := s.View(minhash.SetOverlap)
			b.ReportAllocs()
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= v.BandHash(i%n, i%20, 5)
			}
			b.StopTimer()
			_ = sink
		})
	}
}

// BenchmarkSigStoreViewBuild times building a full store's view, which
// prepares every row, over lsh-cc-65k's store: 65,530 signatures of
// random 100-bp reads at k=8, n=24. Run it at -cpu 1,2: the rows prepare
// in parallel.
func BenchmarkSigStoreViewBuild(b *testing.B) {
	const rows, k, n = 65530, 8, 24
	sk, err := minhash.NewSketcher(n, k, 2)
	if err != nil {
		b.Fatal(err)
	}
	ex := &kmer.Extractor{K: k}
	rng := rand.New(rand.NewSource(42))
	seq := make([]byte, 100)
	var kms []uint64
	sigs := make([]minhash.Signature, rows)
	for i := range sigs {
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
		}
		kms = ex.SliceInto(kms[:0], seq)
		sigs[i] = sk.SketchInto(make(minhash.Signature, n), kms)
	}
	s, err := New(Config{NumHashes: n})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.PutBatch(0, sigs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := s.View(minhash.SetOverlap); v.Len() != rows {
			b.Fatalf("view of %d rows", v.Len())
		}
	}
}

func BenchmarkSigStoreSnapshot(b *testing.B) {
	for _, bits := range []int{0, 4} {
		b.Run(fmt.Sprintf("b%d", bits), func(b *testing.B) {
			s, _ := benchStore(b, bits, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := s.Snapshot()
				if i == 0 {
					b.SetBytes(int64(len(snap)))
				}
			}
		})
	}
}
