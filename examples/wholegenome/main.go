// Whole-metagenome binning: simulate a three-species community with an
// 1:1:8 abundance skew (the shape of the paper's S9/S10 benchmarks),
// cluster the shotgun reads hierarchically, and evaluate against the known
// species labels.
//
//	go run ./examples/wholegenome
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"github.com/metagenomics/mrmcminh"
)

func main() {
	reads, truth := simulateCommunity(600, 500, 42)
	fmt.Printf("simulated %d shotgun reads from 3 species (1:1:8 abundance)\n\n", len(reads))

	res, err := mrmcminh.Cluster(reads, mrmcminh.Options{
		K:         20,
		NumHashes: 100,
		Theta:     0.55,
		Mode:      mrmcminh.Hierarchical,
		Linkage:   mrmcminh.SingleLinkage, // chains overlapping reads along each genome
		Canonical: true,                   // shotgun reads come from both strands
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}

	ev, err := mrmcminh.Evaluate(res, truth, reads)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clusters: %d   W.Acc: %.2f%%", ev.NumClusters, ev.WAcc)
	if ev.HasSim {
		fmt.Printf("   W.Sim: %.2f%%", ev.WSim)
	}
	fmt.Printf("\nmodelled 8-node Hadoop time: %v   measured local time: %v\n\n",
		res.Virtual.Round(1e9), res.Real.Round(1e6))

	// Per-cluster composition report.
	composition := map[int]map[string]int{}
	for i, label := range res.Assignments {
		if composition[label] == nil {
			composition[label] = map[string]int{}
		}
		composition[label][truth[i]]++
	}
	ids := make([]int, 0, len(composition))
	for id := range composition {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if sa, sb := clusterSize(composition[ids[a]]), clusterSize(composition[ids[b]]); sa != sb {
			return sa > sb
		}
		return ids[a] < ids[b]
	})
	fmt.Println("largest clusters by species composition:")
	for _, id := range ids[:min(5, len(ids))] {
		fmt.Printf("  cluster %-3d %v\n", id, composition[id])
	}
}

// simulateCommunity builds three divergent genomes and draws reads with an
// 1:1:8 abundance ratio, error rate 0.5%.
func simulateCommunity(count, readLen int, seed int64) ([]mrmcminh.Record, []string) {
	rng := rand.New(rand.NewSource(seed))
	genomeLen := count * readLen / 36 // ~12x pooled coverage over 3 genomes
	species := []string{"Gluconobacter-like", "Granulobacter-like", "Nitrobacter-like"}
	weights := []float64{1, 1, 8}
	genomes := make([][]byte, len(species))
	for gi := range genomes {
		g := make([]byte, genomeLen)
		for i := range g {
			g[i] = "ACGT"[rng.Intn(4)]
		}
		genomes[gi] = g
	}
	totalW := 0.0
	for _, w := range weights {
		totalW += w
	}
	var reads []mrmcminh.Record
	var truth []string
	for i := 0; i < count; i++ {
		r := rng.Float64() * totalW
		gi := len(weights) - 1
		for j, w := range weights {
			if r < w {
				gi = j
				break
			}
			r -= w
		}
		start := rng.Intn(genomeLen - readLen)
		seq := append([]byte{}, genomes[gi][start:start+readLen]...)
		for p := range seq {
			if rng.Float64() < 0.005 {
				seq[p] = "ACGT"[rng.Intn(4)]
			}
		}
		reads = append(reads, mrmcminh.Record{ID: fmt.Sprintf("read_%04d", i), Seq: seq})
		truth = append(truth, species[gi])
	}
	return reads, truth
}

// clusterSize sums a composition map.
func clusterSize(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
