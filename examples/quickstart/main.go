// Quickstart: cluster a handful of reads with both MrMC-MinH algorithms
// and print the resulting groups.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"github.com/metagenomics/mrmcminh"
)

// Two tight read families (a/b differ by a whole variable block) plus one
// unrelated read — enough to see clustering do something.
const demoFasta = `
>frag1a source=geneA
ACGTACGGTTCAGGCATTACGGATCAGGTTACGGATTACGAATTCCGGAAGGTTACGATCAGGACTTCAGGCA
>frag1b source=geneA one substitution
ACGTACGGTTCAGGCATTACGGATCAGGTTACGGATTACGAATTCCGGAAGGTTACGATCAGGACTTCAGGCT
>frag1c source=geneA two substitutions
ACGTACGGTTCAGGCATTACGGATCTGGTTACGGATTACGAATTCCGGAAGGTTACGATCAGGACTTCAGGCT
>frag2a source=geneB
TTGACCATGGCCAATTGACCGGTTAACGGTCCATGGACCTTGGAACCGGTTAAGGCCTTAACCGGATTCCAA
>frag2b source=geneB one substitution
TTGACCATGGCCAATTGACCGGTTAACGGTCCATGGACCTTGGAACCGGTTAAGGCCTTAACCGGATTCCAT
>lonely source=neither
GGGGCCCCAAAATTTTGGGGCCCCAAAATTTTGGGGCCCCAAAATTTTGGGGCCCCAAAATTTTGGGGCCCC
`

func main() {
	reads, err := mrmcminh.ParseFasta(strings.NewReader(strings.TrimSpace(demoFasta)))
	if err != nil {
		log.Fatal(err)
	}

	for _, mode := range []mrmcminh.Mode{mrmcminh.Greedy, mrmcminh.Hierarchical} {
		res, err := mrmcminh.Cluster(reads, mrmcminh.Options{
			K:         8,    // k-mer size
			NumHashes: 100,  // signature length
			Theta:     0.35, // Jaccard threshold
			Mode:      mode,
			Linkage:   mrmcminh.AverageLinkage,
			Seed:      1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v: %d reads -> %d clusters (modelled 8-node time %v)\n",
			mode, len(reads), res.NumClusters(), res.Virtual.Round(1e9))
		clusters := res.ClustersByID()
		ids := make([]int, 0, len(clusters))
		for id := range clusters {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Printf("  cluster %d: %v\n", id, clusters[id])
		}
	}

	// The core primitive is also exposed directly: estimate the Jaccard
	// similarity of two reads from their minhash sketches.
	j, err := mrmcminh.EstimateJaccard(reads[0], reads[1], 8, 200, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated k-mer Jaccard(frag1a, frag1b) = %.2f\n", j)
}
