package simulate

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/metagenomics/mrmcminh/internal/align"
	"github.com/metagenomics/mrmcminh/internal/fasta"
)

func TestGenerateGenomeGCContent(t *testing.T) {
	for _, gc := range []float64{0.3, 0.5, 0.65} {
		g, err := GenerateGenome("x", 50000, gc, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := fasta.GCContent(g.Seq)
		if math.Abs(got-gc) > 0.02 {
			t.Errorf("target GC %v, got %v", gc, got)
		}
	}
}

func TestGenerateGenomeValidation(t *testing.T) {
	if _, err := GenerateGenome("x", 0, 0.5, 1); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := GenerateGenome("x", 10, 1.5, 1); err == nil {
		t.Error("bad GC accepted")
	}
	if _, err := GenerateGenome("x", 10, math.NaN(), 1); err == nil {
		t.Error("GC NaN accepted")
	}
}

func TestGenerateGenomeDeterministic(t *testing.T) {
	a, _ := GenerateGenome("x", 1000, 0.5, 42)
	b, _ := GenerateGenome("x", 1000, 0.5, 42)
	if string(a.Seq) != string(b.Seq) {
		t.Fatal("same seed produced different genomes")
	}
	c, _ := GenerateGenome("x", 1000, 0.5, 43)
	if string(a.Seq) == string(c.Seq) {
		t.Fatal("different seeds produced identical genomes")
	}
}

func TestDeriveRelativeDivergenceTracksRank(t *testing.T) {
	base, _ := GenerateGenome("base", 5000, 0.5, 1)
	prevIdentity := 1.0
	for _, rank := range []Rank{RankStrain, RankSpecies, RankGenus, RankFamily, RankOrder, RankPhylum, RankKingdom} {
		rel, err := DeriveRelative(base, "rel", rank.Divergence(), 2)
		if err != nil {
			t.Fatal(err)
		}
		id := align.Global(base.Seq[:1500], rel.Seq[:1500], align.DefaultScoring).Identity()
		if id >= prevIdentity+0.02 {
			t.Errorf("rank %v: identity %v not decreasing (prev %v)", rank, id, prevIdentity)
		}
		prevIdentity = id
	}
	if prevIdentity > 0.75 {
		t.Errorf("kingdom-level relative still %v identical", prevIdentity)
	}
}

func TestDeriveRelativeValidation(t *testing.T) {
	base, _ := GenerateGenome("base", 100, 0.5, 1)
	if _, err := DeriveRelative(base, "rel", -0.1, 1); err == nil {
		t.Error("negative divergence accepted")
	}
	if _, err := DeriveRelative(base, "rel", 1.1, 1); err == nil {
		t.Error("divergence > 1 accepted")
	}
	if _, err := DeriveRelative(base, "rel", math.NaN(), 1); err == nil {
		t.Error("divergence NaN accepted")
	}
}

func TestRankStrings(t *testing.T) {
	if RankSpecies.String() != "species" || RankKingdom.String() != "kingdom" || Rank(99).String() != "unknown" {
		t.Fatal("rank names wrong")
	}
}

func TestNewCommunityValidation(t *testing.T) {
	g, _ := GenerateGenome("x", 100, 0.5, 1)
	if _, err := NewCommunity(nil, nil); err == nil {
		t.Error("empty community accepted")
	}
	if _, err := NewCommunity([]*Genome{g}, []float64{1, 2}); err == nil {
		t.Error("weight mismatch accepted")
	}
	if _, err := NewCommunity([]*Genome{g}, []float64{0}); err == nil {
		t.Error("zero weight accepted")
	}
}

func TestReadsAbundanceRatio(t *testing.T) {
	a, _ := GenerateGenome("abundant", 20000, 0.5, 1)
	b, _ := GenerateGenome("rare", 20000, 0.5, 2)
	comm, err := NewCommunity([]*Genome{a, b}, []float64{8, 1})
	if err != nil {
		t.Fatal(err)
	}
	reads, truth, err := comm.Reads(ReadOptions{Count: 9000, Length: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 9000 || len(truth) != 9000 {
		t.Fatalf("got %d reads, %d labels", len(reads), len(truth))
	}
	nA := 0
	for _, l := range truth {
		if l == "abundant" {
			nA++
		}
	}
	frac := float64(nA) / 9000
	if frac < 0.85 || frac > 0.92 {
		t.Fatalf("abundant fraction %v, want ~8/9", frac)
	}
}

func TestReadsErrorRate(t *testing.T) {
	g, _ := GenerateGenome("x", 50000, 0.5, 1)
	comm, _ := NewCommunity([]*Genome{g}, []float64{1})
	reads, _, err := comm.Reads(ReadOptions{Count: 200, Length: 500, ErrorRate: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Average identity of a read against the genome region it came from
	// should track 1 - errorRate. Rather than recover positions, align the
	// read locally against the genome.
	totID := 0.0
	for _, r := range reads[:20] {
		res := align.Local(r.Seq, g.Seq, align.DefaultScoring)
		totID += res.Identity()
	}
	avg := totID / 20
	if avg < 0.90 || avg > 0.98 {
		t.Fatalf("average identity %v for 5%% error reads", avg)
	}
}

func TestReadsValidation(t *testing.T) {
	g, _ := GenerateGenome("x", 1000, 0.5, 1)
	comm, _ := NewCommunity([]*Genome{g}, []float64{1})
	bad := []ReadOptions{
		{Count: -1, Length: 100},
		{Count: 1, Length: 0},
		{Count: 1, Length: 100, Jitter: 100},
		{Count: 1, Length: 100, ErrorRate: 2},
		{Count: 1, Length: 100, ErrorRate: math.NaN()},
	}
	for i, o := range bad {
		if _, _, err := comm.Reads(o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReadsLengthJitter(t *testing.T) {
	g, _ := GenerateGenome("x", 100000, 0.5, 1)
	comm, _ := NewCommunity([]*Genome{g}, []float64{1})
	reads, _, err := comm.Reads(ReadOptions{Count: 500, Length: 100, Jitter: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	minL, maxL := 1<<30, 0
	for _, r := range reads {
		if r.Len() < minL {
			minL = r.Len()
		}
		if r.Len() > maxL {
			maxL = r.Len()
		}
	}
	if minL < 80 || maxL > 120 {
		t.Fatalf("lengths [%d,%d] outside jitter range", minL, maxL)
	}
	if maxL-minL < 10 {
		t.Fatalf("lengths [%d,%d] suspiciously uniform", minL, maxL)
	}
}

func TestReadsDeterministic(t *testing.T) {
	g, _ := GenerateGenome("x", 10000, 0.5, 1)
	comm, _ := NewCommunity([]*Genome{g}, []float64{1})
	opt := ReadOptions{Count: 50, Length: 80, ErrorRate: 0.01, ReverseStrand: true, Seed: 5}
	r1, _, _ := comm.Reads(opt)
	r2, _, _ := comm.Reads(opt)
	for i := range r1 {
		if string(r1[i].Seq) != string(r2[i].Seq) {
			t.Fatal("reads not deterministic")
		}
	}
}

func Test16SModelSharedConservedRegions(t *testing.T) {
	m, err := New16SModel(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	g0, g1 := m.Gene(0), m.Gene(1)
	// Same model: genes share conserved prefix.
	c0 := m.conserved[0]
	if string(g0[:len(c0)]) != string(c0) || string(g1[:len(c0)]) != string(c0) {
		t.Fatal("genes do not share the conserved prefix")
	}
	if string(g0) == string(g1) {
		t.Fatal("distinct taxa produced identical genes")
	}
	// Same taxon is reproducible.
	if string(m.Gene(3)) != string(m.Gene(3)) {
		t.Fatal("gene generation not deterministic")
	}
}

func Test16SModelValidation(t *testing.T) {
	if _, err := New16SModel(0, 1); err == nil {
		t.Fatal("zero variable regions accepted")
	}
}

func TestAmpliconsBasics(t *testing.T) {
	reads, truth, err := Amplicons(AmpliconOptions{
		Taxa: 10, ReadsPerTaxon: 20, ReadLength: 60, ErrorRate: 0.03, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 200 || len(truth) != 200 {
		t.Fatalf("got %d reads", len(reads))
	}
	seen := map[string]bool{}
	for i, r := range reads {
		if r.Len() != 60 {
			t.Fatalf("read %d length %d", i, r.Len())
		}
		seen[truth[i]] = true
	}
	if len(seen) < 8 {
		t.Fatalf("only %d taxa sampled", len(seen))
	}
}

func TestAmpliconsSkewConcentratesAbundance(t *testing.T) {
	_, truth, err := Amplicons(AmpliconOptions{
		Taxa: 50, ReadsPerTaxon: 20, ReadLength: 60, Skew: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, l := range truth {
		counts[l]++
	}
	if counts["taxon00"] <= counts["taxon49"] {
		t.Fatalf("skew not applied: first %d vs last %d", counts["taxon00"], counts["taxon49"])
	}
}

func TestAmpliconsValidation(t *testing.T) {
	bad := []AmpliconOptions{
		{Taxa: 0, ReadsPerTaxon: 1, ReadLength: 60},
		{Taxa: 1, ReadsPerTaxon: 0, ReadLength: 60},
		{Taxa: 1, ReadsPerTaxon: 1, ReadLength: 5},
		{Taxa: 1, ReadsPerTaxon: 1, ReadLength: 60, ErrorRate: 2},
		{Taxa: 1, ReadsPerTaxon: 1, ReadLength: 60, Skew: 2},
		{Taxa: 1, ReadsPerTaxon: 1, ReadLength: 60, ErrorRate: math.NaN()},
		{Taxa: 1, ReadsPerTaxon: 1, ReadLength: 60, Skew: math.NaN()},
	}
	for i, o := range bad {
		if _, _, err := Amplicons(o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTableIIComplete(t *testing.T) {
	specs := TableII()
	if len(specs) != 14 {
		t.Fatalf("got %d specs, want 14", len(specs))
	}
	wantClusters := map[string]int{"S1": 2, "S9": 3, "S11": 4, "S12": 6, "S14": 3}
	for _, s := range specs {
		if len(s.Species) < 2 {
			t.Errorf("%s has %d species", s.SID, len(s.Species))
		}
		if s.Reads <= 0 || s.ReadLength <= 0 {
			t.Errorf("%s has bad sizes", s.SID)
		}
		if want, ok := wantClusters[s.SID]; ok && s.Clusters != want {
			t.Errorf("%s clusters %d, want %d", s.SID, s.Clusters, want)
		}
	}
	if _, err := TableIISpec("S7"); err != nil {
		t.Error(err)
	}
	if _, err := TableIISpec("S99"); err == nil {
		t.Error("unknown SID accepted")
	}
}

func TestBuildWholeMetagenome(t *testing.T) {
	spec, _ := TableIISpec("S9")
	reads, truth, err := BuildWholeMetagenome(spec, 0.01, 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != len(truth) || len(reads) < 100 {
		t.Fatalf("got %d reads", len(reads))
	}
	// Abundance 1:1:8 -> third species ~80%.
	counts := map[string]int{}
	for _, l := range truth {
		counts[l]++
	}
	if len(counts) != 3 {
		t.Fatalf("species %v", counts)
	}
	frac := float64(counts["Nitrobacter hamburgensis"]) / float64(len(truth))
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("dominant fraction %v", frac)
	}
	if _, _, err := BuildWholeMetagenome(spec, 0, 0, 1); err == nil {
		t.Fatal("scale 0 accepted")
	}
}

func TestBuildR1(t *testing.T) {
	reads, truth, err := BuildR1(0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != len(truth) || len(reads) < 100 {
		t.Fatalf("got %d reads", len(reads))
	}
	if _, _, err := BuildR1(2, 2); err == nil {
		t.Fatal("scale 2 accepted")
	}
}

func TestTableIAndEnvironmental(t *testing.T) {
	samples := TableI()
	if len(samples) != 8 {
		t.Fatalf("got %d samples, want 8", len(samples))
	}
	s, err := TableISample("FS312")
	if err != nil || s.Reads != 52569 {
		t.Fatalf("FS312: %+v, %v", s, err)
	}
	if _, err := TableISample("XX"); err == nil {
		t.Fatal("unknown sample accepted")
	}
	reads, truth, err := BuildEnvironmental(samples[0], 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != len(truth) || len(reads) < 20 {
		t.Fatalf("got %d reads", len(reads))
	}
	for _, r := range reads[:5] {
		if r.Len() != 60 {
			t.Fatalf("read length %d, want 60", r.Len())
		}
	}
}

func TestBuildHuse16S(t *testing.T) {
	reads, truth, err := BuildHuse16S(0.03, 0.002, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != len(truth) || len(reads) < 86 {
		t.Fatalf("got %d reads", len(reads))
	}
	taxa := map[string]bool{}
	for _, l := range truth {
		taxa[l] = true
	}
	if len(taxa) < 30 || len(taxa) > 43 {
		t.Fatalf("taxa %d, want near 43", len(taxa))
	}
}

func TestReadsAllValidDNA(t *testing.T) {
	f := func(seed int64) bool {
		g, err := GenerateGenome("x", 2000, 0.5, seed)
		if err != nil {
			return false
		}
		comm, err := NewCommunity([]*Genome{g}, []float64{1})
		if err != nil {
			return false
		}
		reads, _, err := comm.Reads(ReadOptions{Count: 20, Length: 50, ErrorRate: 0.1, ReverseStrand: true, Seed: seed})
		if err != nil {
			return false
		}
		for _, r := range reads {
			if r.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
