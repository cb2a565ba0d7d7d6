// Full post-clustering pipeline: cluster shotgun reads, build one
// consensus sequence per cluster, then assign taxonomy to each cluster by
// classifying its consensus against a labelled reference collection —
// binning, denoising and annotation in one pass.
//
//	go run ./examples/annotate
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"github.com/metagenomics/mrmcminh"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Reference collection: three "known" genomes with lineages.
	refs := []struct {
		name    string
		lineage mrmcminh.Lineage
		genome  []byte
	}{
		{"Gluconobacter oxydans", mrmcminh.Lineage{"Bacteria", "Proteobacteria", "Acetobacteraceae", "Gluconobacter"}, randomGenome(rng, 8000)},
		{"Nitrobacter hamburgensis", mrmcminh.Lineage{"Bacteria", "Proteobacteria", "Bradyrhizobiaceae", "Nitrobacter"}, randomGenome(rng, 8000)},
		{"Bacillus anthracis", mrmcminh.Lineage{"Bacteria", "Firmicutes", "Bacillaceae", "Bacillus"}, randomGenome(rng, 8000)},
	}
	classifier, err := mrmcminh.NewTaxonomyClassifier(mrmcminh.TaxonomyOptions{K: 12})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range refs {
		if err := classifier.AddReference(r.name, r.lineage, r.genome); err != nil {
			log.Fatal(err)
		}
	}

	// Community: reads from two of the references plus one novel genome
	// absent from the reference collection.
	novel := randomGenome(rng, 8000)
	sources := [][]byte{refs[0].genome, refs[2].genome, novel}
	sourceNames := []string{refs[0].name, refs[2].name, "novel organism"}
	var reads []mrmcminh.Record
	for i := 0; i < 900; i++ {
		src := rng.Intn(3)
		start := rng.Intn(len(sources[src]) - 400)
		seq := append([]byte{}, sources[src][start:start+400]...)
		for p := range seq {
			if rng.Float64() < 0.01 {
				seq[p] = "ACGT"[rng.Intn(4)]
			}
		}
		reads = append(reads, mrmcminh.Record{
			ID:          fmt.Sprintf("read_%04d", i),
			Description: sourceNames[src],
			Seq:         seq,
		})
	}

	// 1. Cluster.
	opt := mrmcminh.Options{
		K: 20, NumHashes: 100, Theta: 0.4,
		Mode: mrmcminh.Hierarchical, Linkage: mrmcminh.SingleLinkage,
		Canonical: true, Seed: 1,
	}
	res, err := mrmcminh.Cluster(reads, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clustered %d reads into %d bins\n\n", len(reads), res.NumClusters())

	// 2. Consensus per cluster.
	cons, err := mrmcminh.Consensus(reads, res, mrmcminh.ConsensusOptions{MaxMembers: 20})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Annotate each cluster's consensus.
	assignments, err := classifier.ClassifyAll(cons)
	if err != nil {
		log.Fatal(err)
	}

	sizes := res.Assignments.Sizes()
	ids := make([]int, 0, len(assignments))
	for id := range assignments {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if sa, sb := sizes[ids[a]], sizes[ids[b]]; sa != sb {
			return sa > sb
		}
		return ids[a] < ids[b]
	})
	fmt.Printf("%-8s %6s %-30s %11s\n", "cluster", "reads", "assignment", "containment")
	shown := 0
	for _, id := range ids {
		if sizes[id] < 3 {
			continue // dust
		}
		a := assignments[id]
		label := "unclassified (novel?)"
		if a.Classified {
			label = a.Lineage.String()
			if a.Ambiguous {
				label += " (LCA)"
			}
		}
		fmt.Printf("%-8d %6d %-30.60s %10.2f\n", id, sizes[id], label, a.Containment)
		shown++
		if shown >= 10 {
			break
		}
	}
	fmt.Println("\nclusters from reference organisms annotate to their lineage;")
	fmt.Println("the novel organism's clusters stay unclassified — candidate new taxa.")
}

// randomGenome draws a uniform DNA sequence.
func randomGenome(rng *rand.Rand, n int) []byte {
	g := make([]byte, n)
	for i := range g {
		g[i] = "ACGT"[rng.Intn(4)]
	}
	return g
}
