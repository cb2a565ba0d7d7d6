package chimera

import (
	"math/rand"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/fasta"
)

// makeParents draws distinct random templates.
func makeParents(n, length int, seed int64) []fasta.Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]fasta.Record, n)
	for i := range out {
		seq := make([]byte, length)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
		}
		out[i] = fasta.Record{ID: string(rune('A' + i)), Seq: seq}
	}
	return out
}

func TestSimulateChimeras(t *testing.T) {
	parents := makeParents(4, 300, 1)
	reads, pairs, err := Simulate(parents, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 10 || len(pairs) != 10 {
		t.Fatalf("got %d reads, %d pairs", len(reads), len(pairs))
	}
	for i, r := range reads {
		if pairs[i][0] == pairs[i][1] {
			t.Fatalf("read %d spliced from one parent", i)
		}
		if len(r.Seq) < 200 {
			t.Fatalf("read %d too short: %d", i, len(r.Seq))
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, _, err := Simulate(makeParents(1, 100, 1), 5, 1); err == nil {
		t.Error("single parent accepted")
	}
	if _, _, err := Simulate(makeParents(2, 100, 1), -1, 1); err == nil {
		t.Error("negative count accepted")
	}
	if _, _, err := Simulate(makeParents(2, 4, 1), 1, 1); err == nil {
		t.Error("tiny parents accepted")
	}
}

func TestDetectorFlagsChimerasAndKeepsClean(t *testing.T) {
	parents := makeParents(5, 400, 3)
	det, err := NewDetector(parents, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chimeras, pairs, err := Simulate(parents, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range chimeras {
		v, err := det.Check(r.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Chimeric {
			t.Fatalf("chimera %d not flagged (score %.3f)", i, v.Score)
		}
		// Parents recovered (order may flip with the breakpoint side).
		found := map[int]bool{v.ParentA: true, v.ParentB: true}
		if !found[pairs[i][0]] || !found[pairs[i][1]] {
			t.Fatalf("chimera %d parents %v, want %v", i, []int{v.ParentA, v.ParentB}, pairs[i])
		}
	}
	// Clean reads: exact fragments and noisy copies of single parents.
	rng := rand.New(rand.NewSource(5))
	for i, p := range parents {
		frag := append([]byte{}, p.Seq[50:350]...)
		for j := range frag {
			if rng.Float64() < 0.01 {
				frag[j] = "ACGT"[rng.Intn(4)]
			}
		}
		v, err := det.Check(frag)
		if err != nil {
			t.Fatal(err)
		}
		if v.Chimeric {
			t.Fatalf("clean read %d flagged as chimera (score %.3f)", i, v.Score)
		}
	}
}

func TestDetectorBreakpointAccuracy(t *testing.T) {
	parents := makeParents(2, 300, 7)
	// Hand-spliced at position 150.
	seq := append(append([]byte{}, parents[0].Seq[:150]...), parents[1].Seq[150:]...)
	det, err := NewDetector(parents, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := det.Check(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Chimeric {
		t.Fatalf("hand-spliced chimera not flagged: %+v", v)
	}
	// Breakpoint is in k-mer coordinates; allow k of slack.
	if v.Breakpoint < 130 || v.Breakpoint > 170 {
		t.Fatalf("breakpoint %d, want ~150", v.Breakpoint)
	}
}

func TestDetectorValidation(t *testing.T) {
	parents := makeParents(3, 100, 9)
	if _, err := NewDetector(parents[:1], DetectorOptions{}); err == nil {
		t.Error("single reference accepted")
	}
	if _, err := NewDetector(parents, DetectorOptions{K: 99}); err == nil {
		t.Error("bad k accepted")
	}
	if _, err := NewDetector(parents, DetectorOptions{MinSegment: 0.9}); err == nil {
		t.Error("bad MinSegment accepted")
	}
	det, err := NewDetector(parents, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Check([]byte("ACGT")); err == nil {
		t.Error("tiny read accepted")
	}
}

func TestCleanVerdictNamesItsParent(t *testing.T) {
	parents := makeParents(4, 300, 11)
	det, err := NewDetector(parents, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parents {
		v, err := det.Check(p.Seq[20:280])
		if err != nil {
			t.Fatal(err)
		}
		if v.Chimeric || v.ParentA != i || v.ParentB != i || v.Breakpoint != 0 {
			t.Fatalf("fragment of parent %d: verdict %+v", i, v)
		}
	}
}
