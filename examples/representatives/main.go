// Cluster representatives and diversity: cluster a skewed amplicon sample,
// extract one medoid read per OTU (the pre-processing reduction the paper
// motivates — downstream tools analyze representatives, not all reads),
// and print the standard diversity statistics with a rarefaction curve.
//
//	go run ./examples/representatives
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"github.com/metagenomics/mrmcminh"
)

func main() {
	reads := simulateSample(600, 70, 40, 99)
	fmt.Printf("simulated %d amplicon reads across 40 taxa\n\n", len(reads))

	opt := mrmcminh.Options{
		K:         15,
		NumHashes: 50,
		Theta:     0.30,
		Mode:      mrmcminh.Hierarchical,
		Linkage:   mrmcminh.AverageLinkage,
		Seed:      1,
	}
	res, err := mrmcminh.Cluster(reads, opt)
	if err != nil {
		log.Fatal(err)
	}

	// One representative per cluster: the medoid under minhash similarity.
	reps, err := res.Representatives()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reduced %d reads to %d representatives (%.1fx reduction)\n\n",
		len(reads), len(reps), float64(len(reads))/float64(len(reps)))

	// Diversity statistics over the OTU profile.
	profile := mrmcminh.Diversity(res)
	fmt.Println(profile.Report())

	// Rarefaction: how fast does OTU discovery saturate with depth?
	depths := []int{50, 100, 200, 400, 600}
	points, err := profile.Rarefaction(depths, 25, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rarefaction (expected OTUs at subsampled depth):")
	for _, p := range points {
		bar := ""
		for i := 0; i < int(p.OTUs/2); i++ {
			bar += "#"
		}
		fmt.Printf("  %5d reads %6.1f OTUs %s\n", p.Depth, p.OTUs, bar)
	}
}

// simulateSample builds primer-anchored amplicons with Zipf-skewed taxa.
func simulateSample(count, readLen, taxa int, seed int64) []mrmcminh.Record {
	rng := rand.New(rand.NewSource(seed))
	primer := randomDNA(rng, 15)
	variable := make([][]byte, taxa)
	for t := range variable {
		variable[t] = randomDNA(rng, readLen)
	}
	weights := make([]float64, taxa)
	total := 0.0
	for t := range weights {
		weights[t] = 1 / math.Pow(float64(t+1), 0.9)
		total += weights[t]
	}
	reads := make([]mrmcminh.Record, 0, count)
	for i := 0; i < count; i++ {
		r := rng.Float64() * total
		taxon := taxa - 1
		for t, w := range weights {
			if r < w {
				taxon = t
				break
			}
			r -= w
		}
		gene := append(append([]byte{}, primer...), variable[taxon]...)
		seq := append([]byte{}, gene[:readLen]...)
		errRate := rng.Float64() * 0.02
		for p := range seq {
			if rng.Float64() < errRate {
				seq[p] = "ACGT"[rng.Intn(4)]
			}
		}
		reads = append(reads, mrmcminh.Record{ID: fmt.Sprintf("r%04d", i), Seq: seq})
	}
	return reads
}

// randomDNA draws a uniform DNA string.
func randomDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}
