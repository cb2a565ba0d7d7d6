package align

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

func TestGlobalIdentical(t *testing.T) {
	s := []byte("ACGTACGT")
	r := Global(s, s, DefaultScoring)
	if r.Score != 8 || r.Matches != 8 || r.AlignedLen != 8 {
		t.Fatalf("unexpected %+v", r)
	}
	if r.Identity() != 1 {
		t.Fatalf("identity %v", r.Identity())
	}
}

func TestGlobalCompletelyDifferent(t *testing.T) {
	r := Global([]byte("AAAA"), []byte("TTTT"), DefaultScoring)
	if r.Matches != 0 {
		t.Fatalf("matches %d, want 0", r.Matches)
	}
	if r.Identity() != 0 {
		t.Fatalf("identity %v", r.Identity())
	}
}

func TestGlobalEmptySides(t *testing.T) {
	r := Global(nil, []byte("ACGT"), DefaultScoring)
	if r.Score != -8 || r.AlignedLen != 4 || r.Identity() != 0 {
		t.Fatalf("unexpected %+v", r)
	}
	r = Global([]byte("AC"), nil, DefaultScoring)
	if r.Score != -4 || r.AlignedLen != 2 {
		t.Fatalf("unexpected %+v", r)
	}
	r = Global(nil, nil, DefaultScoring)
	if r.Score != 0 || r.AlignedLen != 0 || r.Identity() != 0 {
		t.Fatalf("unexpected %+v", r)
	}
}

func TestGlobalSingleInsertion(t *testing.T) {
	// ACGT vs ACGGT: one gap, four matches.
	r := Global([]byte("ACGT"), []byte("ACGGT"), DefaultScoring)
	if r.Matches != 4 || r.AlignedLen != 5 {
		t.Fatalf("unexpected %+v", r)
	}
	if r.Score != 4*1+(-2) {
		t.Fatalf("score %d", r.Score)
	}
}

func TestGlobalKnownAlignment(t *testing.T) {
	// Classic example: GATTACA vs GCATGCU-style check with our scheme.
	r := Global([]byte("GATTACA"), []byte("GATGACA"), DefaultScoring)
	// One substitution in the middle: 6 matches over length 7.
	if r.Matches != 6 || r.AlignedLen != 7 || r.Score != 6-1 {
		t.Fatalf("unexpected %+v", r)
	}
}

func TestGlobalSymmetricScore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		a := randSeq(rng, 5+rng.Intn(60))
		b := randSeq(rng, 5+rng.Intn(60))
		r1 := Global(a, b, DefaultScoring)
		r2 := Global(b, a, DefaultScoring)
		if r1.Score != r2.Score {
			t.Fatalf("asymmetric score %d vs %d", r1.Score, r2.Score)
		}
	}
}

func TestGlobalIdentityRange(t *testing.T) {
	f := func(ra, rb []byte) bool {
		a := make([]byte, len(ra)%64)
		b := make([]byte, len(rb)%64)
		for i := range a {
			a[i] = "ACGT"[int(ra[i])%4]
		}
		for i := range b {
			b[i] = "ACGT"[int(rb[i])%4]
		}
		id := Global(a, b, DefaultScoring).Identity()
		return id >= 0 && id <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalAlignedLenBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		a := randSeq(rng, rng.Intn(50))
		b := randSeq(rng, rng.Intn(50))
		r := Global(a, b, DefaultScoring)
		longer := len(a)
		if len(b) > longer {
			longer = len(b)
		}
		if r.AlignedLen < longer || r.AlignedLen > len(a)+len(b) {
			t.Fatalf("aligned len %d outside [%d,%d]", r.AlignedLen, longer, len(a)+len(b))
		}
		if r.Matches > r.AlignedLen {
			t.Fatalf("matches %d > length %d", r.Matches, r.AlignedLen)
		}
	}
}

func TestBandedMatchesFullForSimilarSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		a := randSeq(rng, 200)
		// Mutate ~5% of positions and make one small indel.
		b := append([]byte{}, a...)
		for i := range b {
			if rng.Float64() < 0.05 {
				b[i] = "ACGT"[rng.Intn(4)]
			}
		}
		cut := rng.Intn(len(b) - 2)
		b = append(b[:cut], b[cut+1:]...) // single deletion
		full := Global(a, b, DefaultScoring)
		banded := GlobalBanded(a, b, DefaultScoring, 16)
		if full.Score != banded.Score {
			t.Fatalf("trial %d: banded score %d != full %d", trial, banded.Score, full.Score)
		}
		if full.Matches != banded.Matches || full.AlignedLen != banded.AlignedLen {
			t.Fatalf("trial %d: banded stats %+v != full %+v", trial, banded, full)
		}
	}
}

func TestBandedWideBandDelegatesToFull(t *testing.T) {
	a, b := []byte("ACGTACGT"), []byte("ACTTACGA")
	if GlobalBanded(a, b, DefaultScoring, 100) != Global(a, b, DefaultScoring) {
		t.Fatal("wide band should equal full alignment")
	}
}

func TestBandedEmptySides(t *testing.T) {
	r := GlobalBanded(nil, []byte("ACG"), DefaultScoring, 3)
	if r.AlignedLen != 3 || r.Score != -6 {
		t.Fatalf("unexpected %+v", r)
	}
}

func TestBandedLengthDifferenceWidening(t *testing.T) {
	// Band narrower than the length difference must auto-widen, not crash.
	a := []byte("ACGTACGTACGTACGTACGT")
	b := []byte("ACGT")
	r := GlobalBanded(a, b, DefaultScoring, 1)
	if r.AlignedLen < len(a) {
		t.Fatalf("aligned len %d < %d", r.AlignedLen, len(a))
	}
}

func TestLocalFindsEmbeddedMatch(t *testing.T) {
	a := []byte("TTTTTACGTACGATTTTT")
	b := []byte("GGGGGACGTACGAGGGGG")
	r := Local(a, b, DefaultScoring)
	if r.Matches < 8 {
		t.Fatalf("local alignment found only %d matches: %+v", r.Matches, r)
	}
	if r.Identity() != 1 {
		t.Fatalf("embedded exact match should have identity 1, got %v", r.Identity())
	}
}

func TestLocalEmptyAndDisjoint(t *testing.T) {
	if r := Local(nil, []byte("ACG"), DefaultScoring); r.Score != 0 {
		t.Fatalf("empty local %+v", r)
	}
	r := Local([]byte("AAAA"), []byte("TTTT"), DefaultScoring)
	if r.Score != 0 || r.Matches != 0 {
		t.Fatalf("disjoint local %+v", r)
	}
}

func TestLocalScoreAtLeastGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		a := randSeq(rng, 10+rng.Intn(50))
		b := randSeq(rng, 10+rng.Intn(50))
		l := Local(a, b, DefaultScoring)
		g := Global(a, b, DefaultScoring)
		if l.Score < g.Score {
			t.Fatalf("local score %d < global %d", l.Score, g.Score)
		}
		if l.Score < 0 {
			t.Fatalf("local score %d negative", l.Score)
		}
	}
}

func BenchmarkGlobal200bp(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x, y := randSeq(rng, 200), randSeq(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Global(x, y, DefaultScoring)
	}
}

func BenchmarkBanded200bp(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randSeq(rng, 200)
	y := append([]byte{}, x...)
	y[50] = 'A'
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = GlobalBanded(x, y, DefaultScoring, 16)
	}
}
