// Package consensus derives a representative consensus sequence per
// cluster: members are pairwise-aligned to the cluster medoid (a star
// alignment) and each consensus column takes the majority base. OTU
// pipelines feed such consensus sequences to downstream taxonomy search
// instead of raw error-laden reads — the post-clustering step the paper's
// introduction gestures at ("analysis of cluster representatives").
package consensus

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/align"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// Options tunes consensus building.
type Options struct {
	// MinColumnSupport is the minimum fraction of members that must cover
	// a consensus column for it to be emitted (columns seen by fewer
	// members — overhangs — are trimmed). Default 0.5.
	MinColumnSupport float64
	// MaxMembers caps how many members vote (0 = all); large clusters use
	// the first MaxMembers in index order for determinism.
	MaxMembers int
}

// withDefaults fills zero values.
func (o Options) withDefaults() Options {
	if o.MinColumnSupport == 0 {
		o.MinColumnSupport = 0.5
	}
	return o
}

// Build returns clusterID -> consensus sequence for every cluster, using
// reps (clusterID -> medoid read index) as star centers.
func Build(reads []fasta.Record, labels metrics.Clustering, reps map[int]int, opt Options) (map[int][]byte, error) {
	opt = opt.withDefaults()
	if len(reads) != len(labels) {
		return nil, fmt.Errorf("consensus: %d reads for %d labels", len(reads), len(labels))
	}
	if !(opt.MinColumnSupport >= 0 && opt.MinColumnSupport <= 1) {
		return nil, fmt.Errorf("consensus: MinColumnSupport %v out of [0,1]", opt.MinColumnSupport)
	}
	members := labels.Members()
	out := make(map[int][]byte, len(members))
	for id, idx := range members {
		rep, ok := reps[id]
		if !ok {
			return nil, fmt.Errorf("consensus: no representative for cluster %d", id)
		}
		if rep < 0 || rep >= len(reads) {
			return nil, fmt.Errorf("consensus: representative %d out of range", rep)
		}
		voters := idx
		if opt.MaxMembers > 0 && len(voters) > opt.MaxMembers {
			voters = voters[:opt.MaxMembers]
		}
		out[id] = starConsensus(reads, rep, voters, opt.MinColumnSupport)
	}
	return out, nil
}

// starConsensus votes member bases onto the representative's coordinates.
// Insertions relative to the representative are dropped (star alignments
// cannot place them consistently without an MSA); deletions leave the
// column's vote to other members and the representative.
func starConsensus(reads []fasta.Record, rep int, members []int, minSupport float64) []byte {
	ref := reads[rep].Seq
	n := len(ref)
	// counts[i][code] votes for base code at reference column i;
	// coverage[i] counts members whose alignment spans column i.
	counts := make([][4]int, n)
	coverage := make([]int, n)
	for _, m := range members {
		seq := reads[m].Seq
		align.Walk(ref, seq, align.DefaultScoring, func(i, j int) {
			// An insertion relative to the representative (i < 0) has no
			// column. A deletion (j < 0), like an ambiguous base, is
			// *absence* of coverage: a member that skips a column gets no
			// say in it, and overhang columns beyond short members stay
			// unsupported.
			if i < 0 || j < 0 {
				return
			}
			if base := fasta.BaseCode(seq[j]); base >= 0 {
				coverage[i]++
				counts[i][base]++
			}
		})
	}
	minVotes := int(minSupport * float64(len(members)))
	if minVotes < 1 {
		minVotes = 1
	}
	var consensus []byte
	for i := 0; i < n; i++ {
		if coverage[i] < minVotes {
			continue
		}
		best, bestN := -1, 0
		for c := 0; c < 4; c++ {
			if counts[i][c] > bestN {
				best, bestN = c, counts[i][c]
			}
		}
		// Ties break toward the representative's own base — the medoid is
		// the cluster's least-error member by construction.
		if rc := fasta.BaseCode(ref[i]); rc >= 0 && counts[i][rc] == bestN {
			best = int(rc)
		}
		if best < 0 {
			continue
		}
		consensus = append(consensus, fasta.CodeBase(int8(best)))
	}
	return consensus
}
