package simulate

import (
	"fmt"
	"math/rand"

	"github.com/metagenomics/mrmcminh/internal/fasta"
)

// Member is one organism in a community with a relative abundance weight.
type Member struct {
	Genome    *Genome
	Abundance float64
}

// Community is a weighted organism mixture.
type Community struct {
	Members []Member
}

// NewCommunity builds a community from genomes and abundance weights
// (weights are normalized internally; e.g. the paper's 1:1:8 ratios).
func NewCommunity(genomes []*Genome, weights []float64) (*Community, error) {
	if len(genomes) == 0 {
		return nil, fmt.Errorf("simulate: community needs at least one genome")
	}
	if len(weights) != len(genomes) {
		return nil, fmt.Errorf("simulate: %d weights for %d genomes", len(weights), len(genomes))
	}
	c := &Community{}
	for i, g := range genomes {
		if weights[i] <= 0 {
			return nil, fmt.Errorf("simulate: abundance weight %v must be positive", weights[i])
		}
		c.Members = append(c.Members, Member{Genome: g, Abundance: weights[i]})
	}
	return c, nil
}

// ReadOptions controls shotgun read simulation.
type ReadOptions struct {
	// Count is the number of reads to draw.
	Count int
	// Length is the mean read length; Jitter the +/- uniform variation
	// (Sanger-like 1000 bp for Table II, 454-like 60 bp for Table I).
	Length int
	Jitter int
	// ErrorRate is the per-base substitution error probability.
	ErrorRate float64
	// ReverseStrand, when set, samples reads from both strands (shotgun
	// sequencing); 16S amplicons keep one orientation.
	ReverseStrand bool
	// Seed drives all sampling.
	Seed int64
}

// Validate rejects unusable options.
func (o ReadOptions) Validate() error {
	if o.Count < 0 {
		return fmt.Errorf("simulate: negative read count %d", o.Count)
	}
	if o.Length < 1 {
		return fmt.Errorf("simulate: read length must be positive, got %d", o.Length)
	}
	if o.Jitter < 0 || o.Jitter >= o.Length {
		return fmt.Errorf("simulate: jitter %d out of [0,length)", o.Jitter)
	}
	if !(o.ErrorRate >= 0 && o.ErrorRate <= 1) {
		return fmt.Errorf("simulate: error rate %v out of [0,1]", o.ErrorRate)
	}
	return nil
}

// Reads draws shotgun reads from the community. It returns the reads and
// the index-aligned ground-truth organism names.
func (c *Community) Reads(opt ReadOptions) ([]fasta.Record, []string, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	total := 0.0
	for _, m := range c.Members {
		total += m.Abundance
	}
	reads := make([]fasta.Record, 0, opt.Count)
	truth := make([]string, 0, opt.Count)
	for i := 0; i < opt.Count; i++ {
		m := c.pick(rng, total)
		length := opt.Length
		if opt.Jitter > 0 {
			length += rng.Intn(2*opt.Jitter+1) - opt.Jitter
		}
		if length > len(m.Genome.Seq) {
			length = len(m.Genome.Seq)
		}
		start := 0
		if len(m.Genome.Seq) > length {
			start = rng.Intn(len(m.Genome.Seq) - length + 1)
		}
		seq := append([]byte{}, m.Genome.Seq[start:start+length]...)
		if opt.ReverseStrand && rng.Intn(2) == 1 {
			seq = fasta.ReverseComplement(seq)
		}
		injectErrors(seq, opt.ErrorRate, rng)
		reads = append(reads, fasta.Record{
			ID:          fmt.Sprintf("read_%06d", i),
			Description: m.Genome.Name,
			Seq:         seq,
		})
		truth = append(truth, m.Genome.Name)
	}
	return reads, truth, nil
}

// pick samples a member proportionally to abundance.
func (c *Community) pick(rng *rand.Rand, total float64) Member {
	r := rng.Float64() * total
	for _, m := range c.Members {
		if r < m.Abundance {
			return m
		}
		r -= m.Abundance
	}
	return c.Members[len(c.Members)-1]
}

// injectErrors applies per-base substitution errors in place.
func injectErrors(seq []byte, rate float64, rng *rand.Rand) {
	if rate <= 0 {
		return
	}
	for i := range seq {
		if rng.Float64() < rate {
			seq[i] = substitute(seq[i], rng)
		}
	}
}
