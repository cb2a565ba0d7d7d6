package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNumClusters(t *testing.T) {
	c := Clustering{0, 0, 1, 2, 2, -1}
	if got := c.NumClusters(); got != 3 {
		t.Fatalf("NumClusters = %d, want 3", got)
	}
	if got := (Clustering{}).NumClusters(); got != 0 {
		t.Fatalf("empty NumClusters = %d", got)
	}
}

func TestSizesAndMembers(t *testing.T) {
	c := Clustering{0, 1, 0, -1, 1, 1}
	sizes := c.Sizes()
	if sizes[0] != 2 || sizes[1] != 3 {
		t.Fatalf("Sizes = %v", sizes)
	}
	members := c.Members()
	if len(members[1]) != 3 || members[1][0] != 1 || members[1][2] != 5 {
		t.Fatalf("Members = %v", members)
	}
	if _, ok := members[-1]; ok {
		t.Fatal("unassigned items must not form a cluster")
	}
}

func TestNumClustersAtLeast(t *testing.T) {
	c := Clustering{0, 0, 0, 1, 2, 2}
	if got := c.NumClustersAtLeast(2); got != 2 {
		t.Fatalf("NumClustersAtLeast(2) = %d, want 2", got)
	}
	if got := c.NumClustersAtLeast(4); got != 0 {
		t.Fatalf("NumClustersAtLeast(4) = %d, want 0", got)
	}
}

func TestWeightedAccuracyPerfect(t *testing.T) {
	c := Clustering{0, 0, 1, 1}
	truth := []string{"a", "a", "b", "b"}
	acc, err := WeightedAccuracy(c, truth)
	if err != nil || acc != 100 {
		t.Fatalf("acc = %v err = %v", acc, err)
	}
}

func TestWeightedAccuracyMixedCluster(t *testing.T) {
	// One cluster of 4 with 3 'a' and 1 'b' -> 75%.
	c := Clustering{0, 0, 0, 0}
	truth := []string{"a", "a", "a", "b"}
	acc, err := WeightedAccuracy(c, truth)
	if err != nil || acc != 75 {
		t.Fatalf("acc = %v err = %v", acc, err)
	}
}

func TestWeightedAccuracyWeighting(t *testing.T) {
	// Cluster 0: 2 members all correct. Cluster 1: 8 members, 4 correct.
	// Weighted: (2*100 + 8*50)/10 = 60.
	c := Clustering{0, 0, 1, 1, 1, 1, 1, 1, 1, 1}
	truth := []string{"x", "x", "a", "a", "a", "a", "b", "b", "b", "b"}
	acc, err := WeightedAccuracy(c, truth)
	if err != nil || acc != 60 {
		t.Fatalf("acc = %v err = %v", acc, err)
	}
}

func TestWeightedAccuracyLengthMismatch(t *testing.T) {
	if _, err := WeightedAccuracy(Clustering{0}, []string{"a", "b"}); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestWeightedAccuracyEmptyClustering(t *testing.T) {
	acc, err := WeightedAccuracy(Clustering{-1, -1}, []string{"a", "b"})
	if err != nil || acc != 0 {
		t.Fatalf("acc = %v err = %v", acc, err)
	}
}

func TestWeightedAccuracyRange(t *testing.T) {
	f := func(assign []uint8, labels []uint8) bool {
		n := len(assign)
		if len(labels) < n {
			n = len(labels)
		}
		c := make(Clustering, n)
		truth := make([]string, n)
		for i := 0; i < n; i++ {
			c[i] = int(assign[i] % 5)
			truth[i] = string(rune('a' + labels[i]%3))
		}
		acc, err := WeightedAccuracy(c, truth)
		if err != nil {
			return false
		}
		return acc >= 0 && acc <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func makeCluster(n int, seq string) ([][]byte, Clustering) {
	seqs := make([][]byte, n)
	c := make(Clustering, n)
	for i := range seqs {
		seqs[i] = []byte(seq)
		c[i] = 0
	}
	return seqs, c
}

func TestWeightedSimilarityIdenticalReads(t *testing.T) {
	seqs, c := makeCluster(60, "ACGTACGTACGTACGT")
	opt := SimilarityOptions{MinClusterSize: 50, MaxPairsPerCluster: 50, Seed: 1}
	sim, ok, err := WeightedSimilarity(c, seqs, opt)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if sim != 100 {
		t.Fatalf("sim = %v, want 100", sim)
	}
}

func TestWeightedSimilaritySkipsSmallClusters(t *testing.T) {
	seqs, c := makeCluster(10, "ACGT")
	opt := SimilarityOptions{MinClusterSize: 50}
	_, ok, err := WeightedSimilarity(c, seqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("small cluster should not qualify")
	}
}

func TestWeightedSimilarityAllPairsSmall(t *testing.T) {
	// 3 reads, one mismatching half: verify exact all-pairs mode.
	seqs := [][]byte{[]byte("AAAAAAAA"), []byte("AAAAAAAA"), []byte("AAAATTTT")}
	c := Clustering{0, 0, 0}
	opt := SimilarityOptions{MinClusterSize: 2, MaxPairsPerCluster: 0}
	sim, ok, err := WeightedSimilarity(c, seqs, opt)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	// pairs: (0,1)=1.0, (0,2)=0.5, (1,2)=0.5 -> mean 2/3.
	want := 100 * 2.0 / 3.0
	if sim < want-0.01 || sim > want+0.01 {
		t.Fatalf("sim = %v, want %v", sim, want)
	}
}

func TestWeightedSimilarityDeterministicSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 80
	seqs := make([][]byte, n)
	c := make(Clustering, n)
	for i := range seqs {
		s := make([]byte, 50)
		for j := range s {
			s[j] = "ACGT"[rng.Intn(4)]
		}
		seqs[i] = s
		c[i] = 0
	}
	opt := SimilarityOptions{MinClusterSize: 50, MaxPairsPerCluster: 40, Seed: 7}
	s1, _, _ := WeightedSimilarity(c, seqs, opt)
	s2, _, _ := WeightedSimilarity(c, seqs, opt)
	if s1 != s2 {
		t.Fatalf("same seed produced %v then %v", s1, s2)
	}
}

func TestWeightedSimilarityLengthMismatch(t *testing.T) {
	if _, _, err := WeightedSimilarity(Clustering{0}, nil, DefaultSimilarityOptions); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestEvaluateAndRow(t *testing.T) {
	seqs, c := makeCluster(60, "ACGTACGT")
	truth := make([]string, 60)
	for i := range truth {
		truth[i] = "sp1"
	}
	opt := SimilarityOptions{MinClusterSize: 50, MaxPairsPerCluster: 20, Seed: 1}
	s, err := Evaluate("test-method", c, truth, seqs, opt, 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasAcc || s.WAcc != 100 || !s.HasSim || s.WSim != 100 || s.NumClusters != 1 {
		t.Fatalf("summary %+v", s)
	}
	row := s.Row()
	for _, frag := range []string{"test-method", "100.00", "1m 30s"} {
		if !strings.Contains(row, frag) {
			t.Fatalf("row %q missing %q", row, frag)
		}
	}
	if !strings.Contains(HeaderRow(), "#Cluster") {
		t.Fatal("header missing column")
	}
}

func TestEvaluateNoTruthNoSeqs(t *testing.T) {
	s, err := Evaluate("m", Clustering{0, 0}, nil, nil, DefaultSimilarityOptions, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.HasAcc || s.HasSim {
		t.Fatalf("summary %+v should have no metrics", s)
	}
	if !strings.Contains(s.Row(), "-") {
		t.Fatal("row should render '-' for missing metrics")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		265 * time.Second:        "4m 25s",
		8400 * time.Millisecond:  "8.4s",
		161 * time.Second:        "2m 41s",
		500 * time.Millisecond:   "0.5s",
		60 * time.Second:         "1m 00s",
		59900 * time.Millisecond: "59.9s",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestWeightedAccuracyIgnoresUnassigned(t *testing.T) {
	// Unassigned reads (-1) belong to no cluster and weigh nothing.
	acc, err := WeightedAccuracy(Clustering{0, 0, -1, 1, -1}, []string{"a", "a", "b", "c", "d"})
	if err != nil || acc != 100 {
		t.Fatalf("acc = %v err = %v, want 100", acc, err)
	}
	acc, err = WeightedAccuracy(Clustering{0, 0, 0, -1}, []string{"a", "a", "b", "b"})
	if err != nil || math.Abs(acc-200.0/3) > 1e-9 {
		t.Fatalf("acc = %v err = %v, want 66.67", acc, err)
	}
}

func TestEvaluatePropagatesMetricErrors(t *testing.T) {
	c := Clustering{0, 0, 1}
	if _, err := Evaluate("x", c, []string{"a", "b"}, nil, DefaultSimilarityOptions, 0); err == nil {
		t.Error("truth of the wrong length accepted")
	}
	seqs := [][]byte{[]byte("ACGT"), []byte("ACGT")}
	if _, err := Evaluate("x", c, []string{"a", "a", "b"}, seqs, DefaultSimilarityOptions, 0); err == nil {
		t.Error("sequences of the wrong length accepted")
	}
}
