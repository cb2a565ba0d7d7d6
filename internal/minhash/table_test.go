package minhash

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/kmer"
)

// warm hashes features 0..M−1 directly through s, which builds its table
// when M ≤ 2^16 and n·M·2 bytes ≤ 16 MiB.
func warm(s *Sketcher) {
	kms := make([]uint64, s.Family.M)
	for x := range kms {
		kms[x] = uint64(x)
	}
	s.SketchInto(nil, kms)
}

// hashMin is the reference signature: per function, the minimum of Hash
// over kms, or EmptyMin when kms is empty.
func hashMin(f *HashFamily, kms []uint64) Signature {
	sig := make(Signature, f.N())
	for i := range sig {
		sig[i] = EmptyMin
		for _, x := range kms {
			sig[i] = min(sig[i], f.Hash(i, x))
		}
	}
	return sig
}

// tableSlices returns feature slices for a family of range m: empty,
// single, duplicated and random slices within [0, m), and slices holding
// a feature ≥ m, which must take the direct loop.
func tableSlices(m uint64, rng *rand.Rand) [][]uint64 {
	out := [][]uint64{nil, {}, {0}, {m - 1}, {m - 1, m - 1, 0, 0}}
	for len(out) < 40 {
		kms := make([]uint64, rng.Intn(200))
		for j := range kms {
			kms[j] = uint64(rng.Int63n(int64(m)))
		}
		if len(kms) > 2 {
			kms[len(kms)-1] = kms[0] // a duplicate
		}
		out = append(out, kms)
	}
	for _, big := range []uint64{m, m + 7, MersennePrime61, 1<<64 - 1} {
		out = append(out, []uint64{0, big, m - 1}, []uint64{big})
	}
	return out
}

// TestSketchTableMatchesHash checks, for power-of-four ranges 4^1..4^8,
// the Pig script's prime 1031, the largest prime below 2^16 and 2^16+1
// (never tabulated), that the table holds Hash(i, x) for every (i, x)
// and that SketchInto equals the per-function minimum over Hash both
// before and after the table exists.
func TestSketchTableMatchesHash(t *testing.T) {
	ranges := []uint64{1031, 65521, 65537}
	for m := uint64(4); m <= 1<<16; m *= 4 {
		ranges = append(ranges, m)
	}
	rng := rand.New(rand.NewSource(31))
	for _, m := range ranges {
		for _, n := range []int{1, 3, 24, 100} {
			f := MustHashFamily(n, m, int64(n)*7+int64(m))
			sets := tableSlices(m, rng)
			check := func(stage string, sk func() *Sketcher) {
				for _, kms := range sets {
					if got, want := sk().SketchInto(nil, kms), hashMin(f, kms); !got.Equal(want) {
						t.Fatalf("m=%d n=%d %s, features %v: SketchInto %v, Hash minimum %v", m, n, stage, kms, got, want)
					}
				}
			}
			check("cold", func() *Sketcher { return &Sketcher{Family: f} })
			s := &Sketcher{Family: f}
			warm(s)
			tp := s.table.Load()
			if m > 1<<16 {
				if tp != nil {
					t.Fatalf("m=%d n=%d: tabulated a range above 2^16", m, n)
				}
				continue
			}
			if tp == nil {
				t.Fatalf("m=%d n=%d: no table after M features", m, n)
			}
			tab := *tp
			if len(tab) != n*int(m) {
				t.Fatalf("m=%d n=%d: table has %d entries, want %d", m, n, len(tab), n*int(m))
			}
			for x := uint64(0); x < m; x++ {
				for i := 0; i < n; i++ {
					if got, want := uint64(tab[x*uint64(n)+uint64(i)]), f.Hash(i, x); got != want {
						t.Fatalf("m=%d n=%d: table[x=%d][i=%d] = %d, Hash = %d", m, n, x, i, got, want)
					}
				}
			}
			check("from the table", func() *Sketcher { return s })
		}
	}
}

// TestSketchTableRule pins when a sketcher tabulates: at lsh-cc-65k's
// geometry (k=8, n=24), in the call that takes the count of directly
// hashed features to M and not before; never for a range above 2^16
// (k=12, or 2^16+1); and never when the table would exceed 16 MiB.
func TestSketchTableRule(t *testing.T) {
	s := MustSketcher(24, 8, 12)
	m := s.Family.M
	half := make([]uint64, m/2)
	s.SketchInto(nil, half)
	s.SketchInto(nil, half[1:])
	if s.table.Load() != nil {
		t.Fatal("k=8 n=24: tabulated after M-1 features")
	}
	s.SketchInto(nil, []uint64{5})
	if s.table.Load() == nil {
		t.Fatal("k=8 n=24: no table after M features")
	}

	many := make([]uint64, 1<<17) // more features than any tabulable range
	for _, c := range []struct {
		name string
		s    *Sketcher
	}{
		{"k=12 n=64", MustSketcher(64, 12, 3)},
		{"m=2^16+1 n=1", &Sketcher{Family: MustHashFamily(1, 1<<16+1, 1)}},
		{"k=8 n=129 (16.1 MiB)", MustSketcher(129, 8, 1)},
	} {
		c.s.SketchInto(nil, many)
		if c.s.table.Load() != nil {
			t.Errorf("%s: tabulated", c.name)
		}
	}
	at := MustSketcher(128, 8, 1) // exactly 16 MiB
	warm(at)
	if at.table.Load() == nil {
		t.Error("k=8 n=128 (16 MiB): no table after M features")
	}
}

// TestSketchTableConcurrentBuild has 8 goroutines sketch random reads
// through one k=8 n=24 sketcher while one of them builds the table (run
// under -race, -short included); every signature must equal the Hash
// reference.
func TestSketchTableConcurrentBuild(t *testing.T) {
	s := MustSketcher(24, 8, 12)
	ex := kmer.MustExtractor(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			seq := make([]byte, 100)
			var kms []uint64
			var dst Signature
			for r := 0; r < 150; r++ {
				for i := range seq {
					seq[i] = "ACGT"[rng.Intn(4)]
				}
				kms = ex.SliceInto(kms[:0], seq)
				dst = s.SketchInto(dst, kms)
				if want := hashMin(s.Family, kms); !dst.Equal(want) {
					t.Errorf("goroutine %d read %d: SketchInto %v, Hash minimum %v", g, r, dst, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.table.Load() == nil {
		t.Error("no table after 8×150 reads of 93 k-mers")
	}
}

// TestSketchTableNoAllocs checks that once the table exists, sketching
// into a reused destination allocates nothing.
func TestSketchTableNoAllocs(t *testing.T) {
	s := MustSketcher(24, 8, 12)
	warm(s)
	kms := kmer.MustExtractor(8).Slice(benchRead(100))
	dst := make(Signature, s.N())
	if a := testing.AllocsPerRun(100, func() { dst = s.SketchInto(dst, kms) }); a != 0 {
		t.Fatalf("SketchInto with a warm table allocates %v times per call", a)
	}
}

// BenchmarkSketchReadK8N24 is BenchmarkSketchReadKernel at lsh-cc-65k's
// geometry (k=8, 24 hashes) on a 100-bp read, with the table built and
// the destination reused.
func BenchmarkSketchReadK8N24(b *testing.B) {
	s := MustSketcher(24, 8, 12)
	warm(s)
	ex := kmer.MustExtractor(8)
	seq := benchRead(100)
	var buf []uint64
	dst := make(Signature, s.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ex.SliceInto(buf[:0], seq)
		dst = s.SketchInto(dst, buf)
	}
}

// BenchmarkSketchTabulate times building the k=8 n=24 table (3 MiB).
func BenchmarkSketchTabulate(b *testing.B) {
	f := MustSketcher(24, 8, 12).Family
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tabulate(f)
	}
}
