package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/metagenomics/mrmcminh/internal/fasta"
)

// corpusSpec describes a synthetic metagenome of planted groups: each
// group is a random template, and its members are copies with independent
// point substitutions, so the planted group is the ground truth a
// clustering is scored against.
type corpusSpec struct {
	groups, members int
	// length is the mean read length. Each group draws its own length in
	// [length-5, length+5], so the k-mer count — and with it the modelled
	// cluster time — differs between seeds while every member of a group
	// keeps the same length (a length change alone would lower its Jaccard
	// similarity to the template).
	length  int
	mutRate float64
}

// corpus is the generated input of one run.
type corpus struct {
	reads []fasta.Record
	truth []string // read index -> planted group
}

// generate builds the corpus for seed. The same seed yields the same reads
// in the same (shuffled) order; the read IDs carry the seed so two seeds
// never share an ID.
func (c corpusSpec) generate(seed int64) corpus {
	rng := rand.New(rand.NewSource(seed))
	out := corpus{
		reads: make([]fasta.Record, 0, c.groups*c.members),
		truth: make([]string, 0, c.groups*c.members),
	}
	for g := 0; g < c.groups; g++ {
		template := make([]byte, c.length-5+rng.Intn(11))
		for i := range template {
			template[i] = "ACGT"[rng.Intn(4)]
		}
		for m := 0; m < c.members; m++ {
			seq := append([]byte(nil), template...)
			for i := range seq {
				if rng.Float64() < c.mutRate {
					seq[i] = "ACGT"[rng.Intn(4)]
				}
			}
			out.reads = append(out.reads, fasta.Record{ID: fmt.Sprintf("s%d_g%d_r%d", seed, g, m), Seq: seq})
			out.truth = append(out.truth, fmt.Sprintf("g%d", g))
		}
	}
	rng.Shuffle(len(out.reads), func(i, j int) {
		out.reads[i], out.reads[j] = out.reads[j], out.reads[i]
		out.truth[i], out.truth[j] = out.truth[j], out.truth[i]
	})
	return out
}

// fastaBytes renders the corpus as a FASTA file.
func (c corpus) fastaBytes() []byte {
	var sb strings.Builder
	for _, r := range c.reads {
		sb.WriteByte('>')
		sb.WriteString(r.ID)
		sb.WriteByte('\n')
		sb.Write(r.Seq)
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// ids returns the read IDs in corpus order.
func (c corpus) ids() []string {
	out := make([]string, len(c.reads))
	for i, r := range c.reads {
		out[i] = r.ID
	}
	return out
}
