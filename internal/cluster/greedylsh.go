package cluster

import (
	"fmt"
	"math"

	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// LSHOptions sizes the banding index used to accelerate greedy clustering.
type LSHOptions struct {
	// Bands × Rows must not exceed the signature length. A pair with
	// Jaccard similarity s collides in some band with probability
	// 1-(1-s^Rows)^Bands; pick geometry so the S-curve knee sits at the
	// clustering threshold (rule of thumb: (1/Bands)^(1/Rows) ≈ θ).
	Bands, Rows int
}

// Validate rejects unusable geometry.
func (o LSHOptions) Validate(sigLen int) error {
	if o.Bands < 1 || o.Rows < 1 {
		return fmt.Errorf("cluster: LSH bands and rows must be positive (got %d, %d)", o.Bands, o.Rows)
	}
	if o.Bands*o.Rows > sigLen {
		return fmt.Errorf("cluster: LSH needs %d signature slots but only %d available", o.Bands*o.Rows, sigLen)
	}
	return nil
}

// GeometryFor picks a banding whose collision S-curve knee approximates
// theta given n signature slots: rows grow until (1/bands)^(1/rows) ≥ θ.
func GeometryFor(n int, theta float64) LSHOptions {
	if n < 2 {
		return LSHOptions{Bands: 1, Rows: 1}
	}
	best := LSHOptions{Bands: n, Rows: 1}
	for rows := 1; rows <= n; rows++ {
		bands := n / rows
		if bands < 1 {
			break
		}
		knee := kneeOf(bands, rows)
		best = LSHOptions{Bands: bands, Rows: rows}
		if knee >= theta {
			return best
		}
	}
	return best
}

// kneeOf approximates the S-curve threshold (1/b)^(1/r).
func kneeOf(bands, rows int) float64 {
	return math.Pow(1/float64(bands), 1/float64(rows))
}

// GreedyLSH is Algorithm 1 with a banded LSH index over cluster
// representatives: instead of scanning every representative, a new read
// checks only representatives sharing at least one LSH band — the
// MC-LSH acceleration folded into MrMC-MinH as an optional fast path.
// Results can differ slightly from exact Greedy when a qualifying
// representative never collides (missed-candidate recall loss). It is
// the batch form of the banded Incremental: the labels are those of
// adding elements 0..n-1 in order.
func GreedyLSH(src SigSource, theta float64, lsh LSHOptions) (metrics.Clustering, error) {
	return addAll(src, theta, &lsh)
}
