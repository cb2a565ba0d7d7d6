package mrmcminh

import (
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/consensus"
	"github.com/metagenomics/mrmcminh/internal/diversity"
)

// Level is one flat clustering cut from a run's dendrogram, as
// Result.Levels returns it: species/genus/family OTU levels from a
// single hierarchical run.
type Level = cluster.Level

// DiversityProfile summarizes a clustering as an OTU abundance profile
// exposing the standard diversity statistics (Shannon, Simpson, Chao1,
// Good's coverage, rarefaction).
type DiversityProfile = diversity.Profile

// Diversity builds the abundance profile of a clustering result.
func Diversity(res *Result) DiversityProfile {
	return diversity.NewProfile(res.Assignments)
}

// ConsensusOptions tunes per-cluster consensus building.
type ConsensusOptions = consensus.Options

// Consensus derives one consensus sequence per cluster of res, the run
// that clustered reads: members are star-aligned to the cluster's medoid
// (res.Representatives) and each column takes the majority base,
// outvoting individual sequencing errors. Returns clusterID -> consensus
// sequence.
func Consensus(reads []Record, res *Result, copt ConsensusOptions) (map[int][]byte, error) {
	reps, err := res.Representatives()
	if err != nil {
		return nil, err
	}
	return consensus.Build(reads, res.Assignments, reps, copt)
}
