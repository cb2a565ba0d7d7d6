package taxonomy

import (
	"math"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/simulate"
)

// buildRefs makes two related genomes (same genus) and one distant one,
// returning the classifier and genomes.
func buildRefs(t *testing.T) (*Classifier, []*simulate.Genome) {
	t.Helper()
	c, err := NewClassifier(Options{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	coli, err := simulate.GenerateGenome("E. coli", 20000, 0.51, 10)
	if err != nil {
		t.Fatal(err)
	}
	ferg, err := simulate.DeriveRelative(coli, "E. fergusonii", simulate.RankSpecies.Divergence(), 11)
	if err != nil {
		t.Fatal(err)
	}
	bacillus, err := simulate.GenerateGenome("B. subtilis", 20000, 0.44, 12)
	if err != nil {
		t.Fatal(err)
	}
	refs := []*simulate.Genome{coli, ferg, bacillus}
	lineages := []Lineage{
		{"Bacteria", "Proteobacteria", "Enterobacteriaceae", "Escherichia", "Escherichia coli"},
		{"Bacteria", "Proteobacteria", "Enterobacteriaceae", "Escherichia", "Escherichia fergusonii"},
		{"Bacteria", "Firmicutes", "Bacillaceae", "Bacillus", "Bacillus subtilis"},
	}
	for i, g := range refs {
		if err := c.AddReference(g.Name, lineages[i], g.Seq); err != nil {
			t.Fatal(err)
		}
	}
	return c, refs
}

func TestClassifyExactFragment(t *testing.T) {
	c, refs := buildRefs(t)
	a, err := c.Classify(refs[2].Seq[3000:4000])
	if err != nil {
		t.Fatal(err)
	}
	if !a.Classified || a.Ambiguous {
		t.Fatalf("assignment %+v", a)
	}
	if a.Reference != "B. subtilis" {
		t.Fatalf("assigned %q", a.Reference)
	}
	if a.Lineage[len(a.Lineage)-1] != "Bacillus subtilis" {
		t.Fatalf("lineage %v", a.Lineage)
	}
}

func TestClassifyAmbiguousBacksOffToLCA(t *testing.T) {
	c, refs := buildRefs(t)
	// A fragment of the shared ancestor region: both Escherichia refs
	// score nearly identically (2% divergence), forcing LCA backoff to
	// the genus.
	a, err := c.Classify(refs[0].Seq[5000:6000])
	if err != nil {
		t.Fatal(err)
	}
	if !a.Classified {
		t.Fatalf("assignment %+v", a)
	}
	if !a.Ambiguous {
		// Depending on sketch noise the species may separate; accept a
		// confident species hit but require the genus to be right.
		if a.Lineage[3] != "Escherichia" {
			t.Fatalf("lineage %v", a.Lineage)
		}
		return
	}
	if got := a.Lineage.String(); got != "Bacteria;Proteobacteria;Enterobacteriaceae;Escherichia" {
		t.Fatalf("LCA %q", got)
	}
	if a.Reference != "" {
		t.Fatalf("ambiguous hit kept reference %q", a.Reference)
	}
}

func TestClassifyUnrelatedIsUnclassified(t *testing.T) {
	c, _ := buildRefs(t)
	random, err := simulate.GenerateGenome("novel organism", 1000, 0.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Classify(random.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if a.Classified {
		t.Fatalf("random sequence classified as %+v", a)
	}
}

func TestClassifyEmptyQuery(t *testing.T) {
	c, _ := buildRefs(t)
	a, err := c.Classify([]byte("NNNNN"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Classified {
		t.Fatalf("empty feature set classified: %+v", a)
	}
}

func TestClassifierValidation(t *testing.T) {
	if _, err := NewClassifier(Options{K: 99}); err == nil {
		t.Error("bad k accepted")
	}
	if _, err := NewClassifier(Options{MinContainment: 2}); err == nil {
		t.Error("bad MinContainment accepted")
	}
	if _, err := NewClassifier(Options{AmbiguityBand: -1}); err == nil {
		t.Error("bad AmbiguityBand accepted")
	}
	if _, err := NewClassifier(Options{MinContainment: math.NaN()}); err == nil {
		t.Error("MinContainment NaN accepted")
	}
	if _, err := NewClassifier(Options{AmbiguityBand: math.NaN()}); err == nil {
		t.Error("AmbiguityBand NaN accepted")
	}
	c, err := NewClassifier(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddReference("", Lineage{"x"}, []byte("ACGTACGTACGTACGT")); err == nil {
		t.Error("empty name accepted")
	}
	if err := c.AddReference("x", nil, []byte("ACGTACGTACGTACGT")); err == nil {
		t.Error("empty lineage accepted")
	}
	if err := c.AddReference("x", Lineage{"a"}, []byte("NN")); err == nil {
		t.Error("featureless reference accepted")
	}
	if _, err := c.Classify([]byte("ACGT")); err == nil {
		t.Error("classification without references accepted")
	}
}

func TestClassifyAll(t *testing.T) {
	c, refs := buildRefs(t)
	queries := map[int][]byte{
		0: refs[0].Seq[100:900],
		1: refs[2].Seq[100:900],
	}
	out, err := c.ClassifyAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d assignments", len(out))
	}
	if !out[1].Classified || out[1].Lineage[1] != "Firmicutes" {
		t.Fatalf("cluster 1 assignment %+v", out[1])
	}
	if c.NumReferences() != 3 {
		t.Fatalf("refs %d", c.NumReferences())
	}
}

func TestLineageLCA(t *testing.T) {
	a := Lineage{"k", "p", "c", "s1"}
	b := Lineage{"k", "p", "d", "s2"}
	if got := a.LCA(b).String(); got != "k;p" {
		t.Fatalf("LCA %q", got)
	}
	if got := a.LCA(a).String(); got != "k;p;c;s1" {
		t.Fatalf("self LCA %q", got)
	}
	if got := a.LCA(Lineage{"x"}).String(); got != "" {
		t.Fatalf("disjoint LCA %q", got)
	}
}
