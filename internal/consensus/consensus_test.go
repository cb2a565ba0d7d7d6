package consensus

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/align"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// mutate returns seq with substitutions at the given positions.
func mutate(seq []byte, positions ...int) []byte {
	out := append([]byte{}, seq...)
	for _, p := range positions {
		switch out[p] {
		case 'A':
			out[p] = 'C'
		default:
			out[p] = 'A'
		}
	}
	return out
}

func TestConsensusOutvotesErrors(t *testing.T) {
	truth := []byte("ACGTACGGTTCAGGCATTACGGATCAGG")
	reads := []fasta.Record{
		{ID: "r0", Seq: append([]byte{}, truth...)},
		{ID: "r1", Seq: mutate(truth, 3)},
		{ID: "r2", Seq: mutate(truth, 10)},
		{ID: "r3", Seq: mutate(truth, 20)},
		{ID: "r4", Seq: mutate(truth, 25)},
	}
	labels := metrics.Clustering{0, 0, 0, 0, 0}
	reps := map[int]int{0: 0}
	cons, err := Build(reads, labels, reps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cons[0], truth) {
		t.Fatalf("consensus %s != truth %s", cons[0], truth)
	}
}

func TestConsensusErrorInRepresentativeCorrected(t *testing.T) {
	truth := []byte("ACGTACGGTTCAGGCATTAC")
	// The representative itself carries an error at position 5; the four
	// clean members outvote it.
	reads := []fasta.Record{
		{ID: "rep", Seq: mutate(truth, 5)},
		{ID: "r1", Seq: append([]byte{}, truth...)},
		{ID: "r2", Seq: append([]byte{}, truth...)},
		{ID: "r3", Seq: append([]byte{}, truth...)},
	}
	labels := metrics.Clustering{0, 0, 0, 0}
	cons, err := Build(reads, labels, map[int]int{0: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cons[0], truth) {
		t.Fatalf("consensus %s != truth %s", cons[0], truth)
	}
}

func TestConsensusHandlesIndels(t *testing.T) {
	truth := []byte("ACGGTTCAGGCATTACGGAT")
	withDel := append(append([]byte{}, truth[:8]...), truth[9:]...) // one deletion
	withIns := append(append(append([]byte{}, truth[:12]...), 'G'), truth[12:]...)
	reads := []fasta.Record{
		{ID: "rep", Seq: append([]byte{}, truth...)},
		{ID: "del", Seq: withDel},
		{ID: "ins", Seq: withIns},
	}
	labels := metrics.Clustering{0, 0, 0}
	cons, err := Build(reads, labels, map[int]int{0: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cons[0], truth) {
		t.Fatalf("consensus %s != truth %s", cons[0], truth)
	}
}

func TestConsensusOverhangTrimming(t *testing.T) {
	core := []byte("ACGGTTCAGGCATTAC")
	long := append(append([]byte{}, core...), []byte("GGGGGGGG")...)
	// Representative is long; most members only cover the core, so the
	// overhang columns fall below the support floor.
	reads := []fasta.Record{
		{ID: "rep", Seq: long},
		{ID: "r1", Seq: append([]byte{}, core...)},
		{ID: "r2", Seq: append([]byte{}, core...)},
		{ID: "r3", Seq: append([]byte{}, core...)},
	}
	labels := metrics.Clustering{0, 0, 0, 0}
	cons, err := Build(reads, labels, map[int]int{0: 0}, Options{MinColumnSupport: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cons[0], core) {
		t.Fatalf("consensus %q, want trimmed core %q", cons[0], core)
	}
}

func TestConsensusMultipleClusters(t *testing.T) {
	a := []byte("AAAACCCCGGGGTTTTAAAA")
	b := []byte("TTTTGGGGCCCCAAAATTTT")
	reads := []fasta.Record{
		{ID: "a0", Seq: append([]byte{}, a...)},
		{ID: "a1", Seq: mutate(a, 2)},
		{ID: "b0", Seq: append([]byte{}, b...)},
		{ID: "b1", Seq: mutate(b, 7)},
	}
	labels := metrics.Clustering{0, 0, 1, 1}
	cons, err := Build(reads, labels, map[int]int{0: 0, 1: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != 2 {
		t.Fatalf("%d consensi", len(cons))
	}
	if !bytes.Equal(cons[0], a) || !bytes.Equal(cons[1], b) {
		t.Fatalf("consensi %q / %q", cons[0], cons[1])
	}
}

func TestConsensusValidation(t *testing.T) {
	reads := []fasta.Record{{ID: "a", Seq: []byte("ACGT")}}
	if _, err := Build(reads, metrics.Clustering{0, 0}, nil, Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Build(reads, metrics.Clustering{0}, map[int]int{}, Options{}); err == nil {
		t.Error("missing representative accepted")
	}
	if _, err := Build(reads, metrics.Clustering{0}, map[int]int{0: 9}, Options{}); err == nil {
		t.Error("out-of-range representative accepted")
	}
	if _, err := Build(reads, metrics.Clustering{0}, map[int]int{0: 0}, Options{MinColumnSupport: 2}); err == nil {
		t.Error("bad support accepted")
	}
	if _, err := Build(reads, metrics.Clustering{0}, map[int]int{0: 0}, Options{MinColumnSupport: math.NaN()}); err == nil {
		t.Error("support NaN accepted")
	}
}

func TestConsensusMaxMembersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := make([]byte, 60)
	for i := range truth {
		truth[i] = "ACGT"[rng.Intn(4)]
	}
	var reads []fasta.Record
	labels := metrics.Clustering{}
	for i := 0; i < 30; i++ {
		seq := append([]byte{}, truth...)
		if rng.Float64() < 0.5 {
			seq = mutate(seq, rng.Intn(len(seq)))
		}
		reads = append(reads, fasta.Record{ID: "r", Seq: seq})
		labels = append(labels, 0)
	}
	opt := Options{MaxMembers: 10}
	c1, err := Build(reads, labels, map[int]int{0: 0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Build(reads, labels, map[int]int{0: 0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1[0], c2[0]) {
		t.Fatal("capped consensus not deterministic")
	}
	if !bytes.Equal(c1[0], truth) {
		t.Fatalf("capped consensus %q != truth", c1[0])
	}
}

// pathStep is one column of refAlignPath: refPos is the reference
// coordinate (-1 for an insertion in the member), base is the member's
// base code (-1 for a deletion or ambiguous base).
type pathStep struct {
	refPos int
	base   int8
}

// refAlignPath is the traceback consensus ran before it voted inside
// align.Walk: its own Needleman–Wunsch fill and traceback, kept as the
// reference the walk's columns are held to.
func refAlignPath(ref, member []byte) []pathStep {
	n, m := len(ref), len(member)
	if n == 0 || m == 0 {
		return nil
	}
	const (
		diag = byte(0)
		up   = byte(1) // consume ref (deletion in member)
		left = byte(2) // consume member (insertion in member)
	)
	sc := align.DefaultScoring
	trace := make([]byte, (n+1)*(m+1))
	prev := make([]int32, m+1)
	cur := make([]int32, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = int32(sc.Gap) * int32(j)
		trace[j] = left
	}
	for i := 1; i <= n; i++ {
		cur[0] = int32(sc.Gap) * int32(i)
		trace[i*(m+1)] = up
		for j := 1; j <= m; j++ {
			sub := int32(sc.Mismatch)
			if ref[i-1] == member[j-1] {
				sub = int32(sc.Match)
			}
			best, dir := prev[j-1]+sub, diag
			if u := prev[j] + int32(sc.Gap); u > best {
				best, dir = u, up
			}
			if l := cur[j-1] + int32(sc.Gap); l > best {
				best, dir = l, left
			}
			cur[j] = best
			trace[i*(m+1)+j] = dir
		}
		prev, cur = cur, prev
	}
	var rev []pathStep
	i, j := n, m
	for i > 0 || j > 0 {
		switch trace[i*(m+1)+j] {
		case diag:
			rev = append(rev, pathStep{refPos: i - 1, base: fasta.BaseCode(member[j-1])})
			i--
			j--
		case up:
			rev = append(rev, pathStep{refPos: i - 1, base: -1})
			i--
		default:
			rev = append(rev, pathStep{refPos: -1, base: fasta.BaseCode(member[j-1])})
			j--
		}
	}
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev
}

// TestWalkMatchesReferencePath holds align.Walk's columns to
// refAlignPath on random pairs: related and unrelated sequences, with
// indels, N bases and empty sides. With an empty side the reference has
// no columns and the walk's are all gaps, which cast no vote.
func TestWalkMatchesReferencePath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGTN"[rng.Intn(5)]
		}
		return s
	}
	for trial := 0; trial < 300; trial++ {
		ref := seq(rng.Intn(40))
		var member []byte
		switch trial % 3 {
		case 0: // unrelated
			member = seq(rng.Intn(40))
		default: // ref with edits
			member = append([]byte{}, ref...)
			for e := rng.Intn(4); e > 0 && len(member) > 0; e-- {
				p := rng.Intn(len(member))
				switch rng.Intn(3) {
				case 0:
					member[p] = "ACGTN"[rng.Intn(5)]
				case 1:
					member = append(member[:p], member[p+1:]...)
				default:
					member = append(member[:p], append([]byte{"ACGT"[rng.Intn(4)]}, member[p:]...)...)
				}
			}
		}
		var got []pathStep
		align.Walk(ref, member, align.DefaultScoring, func(i, j int) {
			base := int8(-1)
			if j >= 0 {
				base = fasta.BaseCode(member[j])
			}
			got = append(got, pathStep{refPos: i, base: base})
		})
		slices.Reverse(got)
		want := refAlignPath(ref, member)
		if len(ref) == 0 || len(member) == 0 {
			if want != nil || len(got) != len(ref)+len(member) {
				t.Fatalf("%q vs %q: reference %v, walk %v", ref, member, want, got)
			}
			for _, c := range got {
				if c.refPos >= 0 && c.base >= 0 {
					t.Fatalf("%q vs %q: walk votes %v", ref, member, c)
				}
			}
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%q vs %q:\nwalk      %v\nreference %v", ref, member, got, want)
		}
	}
}
