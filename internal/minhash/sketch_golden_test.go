package minhash

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/kmer"
)

// sketcherGoldenCases are the NewSketcher geometries testdata/sketch.golden
// pins: the daemon's (k=12, n=64, canonical), the LSH benchmark's (k=8,
// n=24), the kernel benchmarks' (k=5, n=100) and the largest sketchable k
// with a hash count that is not a multiple of four.
var sketcherGoldenCases = []struct {
	name      string
	n, k      int
	seed      int64
	canonical bool
}{
	{"k12-n64-s3-canonical", 64, 12, 3, true},
	{"k8-n24-s12", 24, 8, 12, false},
	{"k5-n100-s1", 100, 5, 1, false},
	{"k30-n7-s1", 7, 30, 1, false},
}

// familyGoldenCases are HashFamily ranges that are not powers of two,
// sketched through SketchSlice as the Pig UDF does: the benchmark
// script's $DIV (the next prime above 4^5) and scripts/algorithm3.pig's.
var familyGoldenCases = []struct {
	name string
	n    int
	m    uint64
	seed int64
}{
	{"family-m1031-n16-s5", 16, 1031, 5},
	{"family-m1073741827-n16-s9", 16, 1073741827, 9},
}

// goldenReads returns the reads each sketcher case sketches: a random
// read, the same read with N bases, a read one base shorter than k (an
// empty feature set) and a tandem repeat whose k-mers recur.
func goldenReads(k int) [][2]string {
	rng := rand.New(rand.NewSource(17))
	seq := make([]byte, 200)
	for i := range seq {
		seq[i] = "ACGT"[rng.Intn(4)]
	}
	withN := slices.Clone(seq)
	withN[50], withN[121] = 'N', 'N'
	return [][2]string{
		{"random", string(seq)},
		{"n-bases", string(withN)},
		{"short", string(seq[:k-1])},
		{"repeat", strings.Repeat("ACGTTGCAAGT", 19)},
	}
}

// goldenValues returns arbitrary uint64 features for the family cases,
// including the values around the modulus and the top of the range.
func goldenValues() []uint64 {
	rng := rand.New(rand.NewSource(23))
	xs := []uint64{0, 1, MersennePrime61 - 1, MersennePrime61, 1 << 61, 1<<64 - 1}
	for i := 0; i < 34; i++ {
		xs = append(xs, rng.Uint64())
	}
	return xs
}

func goldenLine(name string, sig Signature) string {
	var b strings.Builder
	b.WriteString(name)
	for _, v := range sig {
		fmt.Fprintf(&b, " %x", v)
	}
	return b.String()
}

// sketchGoldenLines computes every line testdata/sketch.golden pins, in
// file order. With warmed set, each sketcher whose range is at most 2^16
// first hashes features 0..M−1, so it sketches from its table.
func sketchGoldenLines(t *testing.T, warmed bool) []string {
	t.Helper()
	var lines []string
	warmUp := func(sk *Sketcher) {
		if warmed && sk.Family.M <= 1<<16 {
			if warm(sk); sk.table.Load() == nil {
				t.Fatalf("m=%d n=%d: no table after warm-up", sk.Family.M, sk.N())
			}
		}
	}
	for _, c := range sketcherGoldenCases {
		sk, err := NewSketcher(c.n, c.k, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		warmUp(sk)
		ex := &kmer.Extractor{K: c.k, Canonical: c.canonical}
		for _, r := range goldenReads(c.k) {
			kms := ex.Slice([]byte(r[1]))
			name := c.name + "/" + r[0]
			got := sk.SketchInto(nil, kms)
			if want := sk.Sketch(kmer.FromSlice(kms)); !got.Equal(want) {
				t.Fatalf("%s: SketchInto != Sketch", name)
			}
			lines = append(lines, goldenLine(name, got))
		}
	}
	xs := goldenValues()
	for _, c := range familyGoldenCases {
		sk := &Sketcher{Family: MustHashFamily(c.n, c.m, c.seed)}
		warmUp(sk)
		lines = append(lines, goldenLine(c.name, sk.SketchSlice(xs)))
	}
	return lines
}

// TestSketchGolden pins the signature bits of the sketch kernel, so a
// faster kernel must reproduce every slot the WAL, snapshots, checkpoint
// journals and the other goldens were written with: cold, and again from
// the hash-value table where the range allows one. A mismatch prints the
// actual line.
func TestSketchGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/sketch.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			want[name] = line
		}
	}
	for _, warmed := range []bool{false, true} {
		lines := sketchGoldenLines(t, warmed)
		if len(lines) != len(want) {
			t.Errorf("testdata/sketch.golden has %d lines, the cases produce %d", len(want), len(lines))
		}
		for _, got := range lines {
			name, _, _ := strings.Cut(got, " ")
			if got != want[name] {
				t.Errorf("%s (warmed %v): line differs from testdata/sketch.golden (recorded: %q); actual line:\n%s", name, warmed, want[name], got)
			}
		}
	}
}
