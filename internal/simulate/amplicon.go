package simulate

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/metagenomics/mrmcminh/internal/fasta"
)

// The 16S rRNA gene model: a ~1500 bp marker with conserved regions shared
// across all taxa (primer sites) interleaved with hypervariable regions
// (V1–V9-like) that differ between taxa. Amplicon sequencing reads a
// fragment anchored at a conserved primer — short 454 reads (~60–100 bp)
// covering one or two variable regions, which is exactly the regime of the
// paper's 16S benchmarks.

// SixteenSModel holds the shared conserved scaffolding of a 16S gene family.
type SixteenSModel struct {
	conserved [][]byte // C0 .. Cn segments shared by every taxon
	varLens   []int    // lengths of variable segments between them
	seed      int64
}

// New16SModel builds a gene model with the given number of variable
// regions. Region sizes follow the real 16S layout loosely: ~100 bp
// conserved stretches alternating with 60–150 bp variable stretches.
func New16SModel(variableRegions int, seed int64) (*SixteenSModel, error) {
	if variableRegions < 1 {
		return nil, fmt.Errorf("simulate: need at least one variable region")
	}
	rng := rand.New(rand.NewSource(seed))
	m := &SixteenSModel{seed: seed}
	for i := 0; i <= variableRegions; i++ {
		c := make([]byte, 80+rng.Intn(40))
		for j := range c {
			c[j] = "ACGT"[rng.Intn(4)]
		}
		m.conserved = append(m.conserved, c)
	}
	for i := 0; i < variableRegions; i++ {
		m.varLens = append(m.varLens, 60+rng.Intn(90))
	}
	return m, nil
}

// Gene generates the full-length 16S gene of one taxon: shared conserved
// segments with taxon-specific variable regions. Taxa with nearby ids get
// correlated variable regions (sister taxa), stressing clustering at
// OTU-like thresholds.
func (m *SixteenSModel) Gene(taxon int) []byte {
	rng := rand.New(rand.NewSource(m.seed*1000003 + int64(taxon)))
	var gene []byte
	gene = append(gene, m.conserved[0]...)
	for i, vl := range m.varLens {
		v := make([]byte, vl)
		for j := range v {
			v[j] = "ACGT"[rng.Intn(4)]
		}
		gene = append(gene, v...)
		gene = append(gene, m.conserved[i+1]...)
	}
	return gene
}

// AmpliconOptions controls 16S read simulation.
type AmpliconOptions struct {
	// Taxa is the number of distinct 16S genes (the paper's simulated set
	// derives from 43 genomes).
	Taxa int
	// ReadsPerTaxon draws this many amplicons per taxon on average; the
	// actual counts follow the abundance skew.
	ReadsPerTaxon int
	// ReadLength is the amplicon fragment length (Sogin-style ~60 bp).
	ReadLength int
	// ErrorRate is the *maximum* per-base sequencing error: each read
	// draws its own rate uniformly from [0, ErrorRate], matching the
	// paper's "reads upto 3% and 5% errors with respect to reference"
	// phrasing — pyrosequencing error varies per read, and low-error reads
	// form the dense cluster cores.
	ErrorRate float64
	// Skew makes abundances uneven: 0 = uniform; 1 = strongly skewed
	// (rare-biosphere tail as in the environmental samples).
	Skew float64
	// Seed drives everything.
	Seed int64
}

// Validate rejects unusable options.
func (o AmpliconOptions) Validate() error {
	if o.Taxa < 1 {
		return fmt.Errorf("simulate: need at least one taxon")
	}
	if o.ReadsPerTaxon < 1 {
		return fmt.Errorf("simulate: need at least one read per taxon")
	}
	if o.ReadLength < 10 {
		return fmt.Errorf("simulate: amplicon read length %d too short", o.ReadLength)
	}
	if !(o.ErrorRate >= 0 && o.ErrorRate <= 1) {
		return fmt.Errorf("simulate: error rate %v out of [0,1]", o.ErrorRate)
	}
	if !(o.Skew >= 0 && o.Skew <= 1) {
		return fmt.Errorf("simulate: skew %v out of [0,1]", o.Skew)
	}
	return nil
}

// ampliconPrimerLen is how much of the conserved primer region each
// amplicon read retains before entering the variable region.
const ampliconPrimerLen = 15

// Amplicons simulates a 16S sample: reads are anchored at the conserved
// primer site at the end of the first conserved region (as in real 454
// amplicon sequencing, where every read starts at the PCR primer), so
// same-taxon reads overlap almost completely while different taxa diverge
// in the variable region. Returns reads and index-aligned taxon labels.
func Amplicons(opt AmpliconOptions) ([]fasta.Record, []string, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	model, err := New16SModel(4, opt.Seed)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed + 7))
	genes := make([][]byte, opt.Taxa)
	weights := make([]float64, opt.Taxa)
	totalW := 0.0
	for t := 0; t < opt.Taxa; t++ {
		genes[t] = model.Gene(t)
		// Zipf-like skew: weight ∝ 1/(rank^skew).
		w := 1.0
		if opt.Skew > 0 {
			w = 1.0 / math.Pow(float64(t+1), opt.Skew)
		}
		weights[t] = w
		totalW += w
	}
	total := opt.Taxa * opt.ReadsPerTaxon
	reads := make([]fasta.Record, 0, total)
	truth := make([]string, 0, total)
	for i := 0; i < total; i++ {
		// Sample taxon by weight.
		r := rng.Float64() * totalW
		taxon := opt.Taxa - 1
		for t, w := range weights {
			if r < w {
				taxon = t
				break
			}
			r -= w
		}
		gene := genes[taxon]
		length := opt.ReadLength
		if length > len(gene) {
			length = len(gene)
		}
		// Anchor at the primer: the last ampliconPrimerLen bases of the
		// first conserved region, with a few bases of pyrosequencing
		// start jitter.
		anchor := len(model.conserved[0]) - ampliconPrimerLen
		if anchor < 0 {
			anchor = 0
		}
		start := anchor + rng.Intn(4)
		if start+length > len(gene) {
			start = len(gene) - length
		}
		seq := append([]byte{}, gene[start:start+length]...)
		injectErrors(seq, rng.Float64()*opt.ErrorRate, rng)
		reads = append(reads, fasta.Record{
			ID:          fmt.Sprintf("amp_%06d", i),
			Description: fmt.Sprintf("taxon%02d", taxon),
			Seq:         seq,
		})
		truth = append(truth, fmt.Sprintf("taxon%02d", taxon))
	}
	return reads, truth, nil
}
