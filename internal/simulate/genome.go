// Package simulate generates synthetic metagenome benchmarks standing in
// for the paper's datasets (Huse et al. 16S reads, Sogin et al. seawater
// samples, Chatterji et al. S1–S12 mixtures, the sharpshooter-gut R1
// sample). Real data is gated behind accession downloads; the simulator
// reproduces the properties that drive clustering difficulty — species
// count, abundance ratios, taxonomic divergence, GC content, read length
// and sequencing error — with deterministic seeds and free ground truth.
package simulate

import (
	"fmt"
	"math/rand"
)

// Rank indexes taxonomy levels from most to least specific.
type Rank int

// Taxonomic ranks as used in Table II's "Taxonomic Difference" column.
const (
	RankStrain Rank = iota
	RankSpecies
	RankGenus
	RankFamily
	RankOrder
	RankPhylum
	RankKingdom
)

// String names the rank.
func (r Rank) String() string {
	switch r {
	case RankStrain:
		return "strain"
	case RankSpecies:
		return "species"
	case RankGenus:
		return "genus"
	case RankFamily:
		return "family"
	case RankOrder:
		return "order"
	case RankPhylum:
		return "phylum"
	case RankKingdom:
		return "kingdom"
	default:
		return "unknown"
	}
}

// Divergence returns the approximate genome-wide nucleotide divergence
// between two organisms that differ at this rank — the knob controlling
// how hard a pair is to separate (coarser rank = easier).
func (r Rank) Divergence() float64 {
	switch r {
	case RankStrain:
		return 0.005
	case RankSpecies:
		return 0.02
	case RankGenus:
		return 0.06
	case RankFamily:
		return 0.12
	case RankOrder:
		return 0.18
	case RankPhylum:
		return 0.28
	default: // kingdom
		return 0.38
	}
}

// Genome is one synthetic organism.
type Genome struct {
	Name string
	// GC is the target GC content in [0,1] (Table II brackets).
	GC  float64
	Seq []byte
}

// GenerateGenome draws a random genome of the given length and GC content.
func GenerateGenome(name string, length int, gc float64, seed int64) (*Genome, error) {
	if length < 1 {
		return nil, fmt.Errorf("simulate: genome length must be positive, got %d", length)
	}
	if !(gc >= 0 && gc <= 1) {
		return nil, fmt.Errorf("simulate: GC content %v out of [0,1]", gc)
	}
	rng := rand.New(rand.NewSource(seed))
	seq := make([]byte, length)
	for i := range seq {
		if rng.Float64() < gc {
			seq[i] = "GC"[rng.Intn(2)]
		} else {
			seq[i] = "AT"[rng.Intn(2)]
		}
	}
	return &Genome{Name: name, GC: gc, Seq: seq}, nil
}

// DeriveRelative derives a genome at the given nucleotide divergence from
// base: each position mutates with probability div (substitutions), plus a
// sprinkling of short indels to keep alignments honest.
func DeriveRelative(base *Genome, name string, div float64, seed int64) (*Genome, error) {
	if !(div >= 0 && div <= 1) {
		return nil, fmt.Errorf("simulate: divergence %v out of [0,1]", div)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, len(base.Seq)+16)
	for _, b := range base.Seq {
		r := rng.Float64()
		switch {
		case r < div*0.85: // substitution
			out = append(out, substitute(b, rng))
		case r < div*0.925: // deletion
			// skip base
		case r < div: // insertion
			out = append(out, b, "ACGT"[rng.Intn(4)])
		default:
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = append(out, base.Seq...)
	}
	return &Genome{Name: name, GC: base.GC, Seq: out}, nil
}

// substitute returns a random base different from b.
func substitute(b byte, rng *rand.Rand) byte {
	for {
		c := "ACGT"[rng.Intn(4)]
		if c != b {
			return c
		}
	}
}
