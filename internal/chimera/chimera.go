// Package chimera simulates and detects PCR chimeras — artefact reads
// spliced from two parent templates during amplification. Chimeras are
// the classic cause of spurious OTUs in 16S studies (the OTU-inflation
// literature the paper's Table IV sits in), and UCHIME-style detection is
// the standard counter: a read whose prefix matches one abundant
// reference and whose suffix matches a different one, with both partial
// matches beating its best full-length match, is flagged.
package chimera

import (
	"fmt"
	"math/rand"

	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/kmer"
)

// Simulate splices chimeric reads from random pairs of parent sequences:
// a breakpoint is drawn in the middle third, the left part comes from one
// parent and the right part from another. Returns the chimeras and the
// parent index pairs.
func Simulate(parents []fasta.Record, count int, seed int64) ([]fasta.Record, [][2]int, error) {
	if len(parents) < 2 {
		return nil, nil, fmt.Errorf("chimera: need at least two parents, got %d", len(parents))
	}
	if count < 0 {
		return nil, nil, fmt.Errorf("chimera: negative count %d", count)
	}
	rng := rand.New(rand.NewSource(seed))
	reads := make([]fasta.Record, 0, count)
	pairs := make([][2]int, 0, count)
	for i := 0; i < count; i++ {
		a := rng.Intn(len(parents))
		b := rng.Intn(len(parents) - 1)
		if b >= a {
			b++
		}
		pa, pb := parents[a].Seq, parents[b].Seq
		n := len(pa)
		if len(pb) < n {
			n = len(pb)
		}
		if n < 6 {
			return nil, nil, fmt.Errorf("chimera: parents too short (%d bp)", n)
		}
		// Breakpoint in the middle third keeps both segments detectable.
		bp := n/3 + rng.Intn(n/3)
		seq := append(append([]byte{}, pa[:bp]...), pb[bp:n]...)
		reads = append(reads, fasta.Record{
			ID:          fmt.Sprintf("chimera_%04d", i),
			Description: fmt.Sprintf("parents=%s+%s bp=%d", parents[a].ID, parents[b].ID, bp),
			Seq:         seq,
		})
		pairs = append(pairs, [2]int{a, b})
	}
	return reads, pairs, nil
}

// DetectorOptions tunes detection.
type DetectorOptions struct {
	// K is the k-mer size for segment matching.
	K int
	// MinSegment is the minimum fraction of a read on each side of the
	// candidate breakpoint (rejects trivial splits).
	MinSegment float64
	// Gain is how much better the two-parent explanation must be than the
	// best single parent before flagging (UCHIME's score margin).
	Gain float64
}

// withDefaults fills zero values.
func (o DetectorOptions) withDefaults() DetectorOptions {
	if o.K == 0 {
		o.K = 10
	}
	if o.MinSegment == 0 {
		o.MinSegment = 0.2
	}
	if o.Gain == 0 {
		o.Gain = 0.15
	}
	return o
}

// Detector checks reads against reference (parent candidate) sequences.
type Detector struct {
	opt  DetectorOptions
	ex   *kmer.Extractor
	refs []fasta.Record
	sets []kmer.Set
}

// NewDetector indexes the references (typically cluster representatives
// or consensus sequences, ordered by abundance).
func NewDetector(refs []fasta.Record, opt DetectorOptions) (*Detector, error) {
	opt = opt.withDefaults()
	if opt.K < 1 || opt.K > kmer.MaxK {
		return nil, fmt.Errorf("chimera: k=%d out of range", opt.K)
	}
	if opt.MinSegment <= 0 || opt.MinSegment >= 0.5 {
		return nil, fmt.Errorf("chimera: MinSegment %v out of (0,0.5)", opt.MinSegment)
	}
	if len(refs) < 2 {
		return nil, fmt.Errorf("chimera: need at least two references")
	}
	d := &Detector{opt: opt, ex: kmer.MustExtractor(opt.K), refs: refs}
	for _, r := range refs {
		d.sets = append(d.sets, d.ex.Set(r.Seq))
	}
	return d, nil
}

// Verdict is one detection outcome.
type Verdict struct {
	// Chimeric is the call.
	Chimeric bool
	// ParentA and ParentB index the best left/right parents when chimeric.
	ParentA, ParentB int
	// Breakpoint is the approximate split position in the read.
	Breakpoint int
	// Score is the two-parent coverage minus the best single-parent
	// coverage (fraction of read k-mers explained).
	Score float64
}

// Check classifies one read. The algorithm walks candidate breakpoints at
// k-mer resolution: for each, the best left-parent coverage plus best
// right-parent coverage forms the chimeric model; it is compared with the
// best single-parent full coverage.
func (d *Detector) Check(read []byte) (Verdict, error) {
	kms := d.ex.Slice(read)
	if len(kms) < 4 {
		return Verdict{}, fmt.Errorf("chimera: read too short for k=%d", d.opt.K)
	}
	nRefs := len(d.sets)
	// hit[r][i] = 1 if read k-mer i is present in reference r.
	// prefix[r][i] = number of hits among first i k-mers.
	prefix := make([][]int, nRefs)
	for r := 0; r < nRefs; r++ {
		prefix[r] = make([]int, len(kms)+1)
		for i, km := range kms {
			h := 0
			if d.sets[r].Contains(km) {
				h = 1
			}
			prefix[r][i+1] = prefix[r][i] + h
		}
	}
	total := float64(len(kms))
	// Best single-parent coverage.
	bestSingle, bestSingleRef := 0.0, 0
	for r := 0; r < nRefs; r++ {
		cov := float64(prefix[r][len(kms)]) / total
		if cov > bestSingle {
			bestSingle, bestSingleRef = cov, r
		}
	}
	// Best two-parent split.
	minSeg := int(d.opt.MinSegment * float64(len(kms)))
	if minSeg < 1 {
		minSeg = 1
	}
	bestTwo, bestBP, bestA, bestB := 0.0, 0, 0, 0
	for bp := minSeg; bp <= len(kms)-minSeg; bp++ {
		bl, br := 0, 0
		la, rb := 0, 0
		for r := 0; r < nRefs; r++ {
			if prefix[r][bp] > bl {
				bl, la = prefix[r][bp], r
			}
			if right := prefix[r][len(kms)] - prefix[r][bp]; right > br {
				br, rb = right, r
			}
		}
		if la == rb {
			continue // same parent both sides is not a chimera model
		}
		cov := float64(bl+br) / total
		if cov > bestTwo {
			bestTwo, bestBP, bestA, bestB = cov, bp, la, rb
		}
	}
	v := Verdict{Score: bestTwo - bestSingle}
	if bestTwo-bestSingle >= d.opt.Gain {
		v.Chimeric = true
		v.ParentA, v.ParentB = bestA, bestB
		v.Breakpoint = bestBP
	} else {
		v.ParentA, v.ParentB = bestSingleRef, bestSingleRef
	}
	return v, nil
}
