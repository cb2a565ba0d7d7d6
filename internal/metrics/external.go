package metrics

import (
	"fmt"
	"math"
)

// Additional external quality measures beyond the paper's W.Acc (which is
// purity as a percentage): normalized mutual information (NMI) and
// adjusted Rand index (ARI) — with purity, the standard trio in clustering
// literature, useful when comparing against modern binning tools whose
// papers report them.

// contingency builds the cluster × class contingency table.
func contingency(c Clustering, truth []string) (table map[int]map[string]int, clusterSizes map[int]int, classSizes map[string]int, n int, err error) {
	if len(c) != len(truth) {
		return nil, nil, nil, 0, fmt.Errorf("metrics: clustering has %d items but truth has %d", len(c), len(truth))
	}
	table = make(map[int]map[string]int)
	clusterSizes = make(map[int]int)
	classSizes = make(map[string]int)
	for i, label := range c {
		if label < 0 {
			continue
		}
		if table[label] == nil {
			table[label] = make(map[string]int)
		}
		table[label][truth[i]]++
		clusterSizes[label]++
		classSizes[truth[i]]++
		n++
	}
	return table, clusterSizes, classSizes, n, nil
}

// NMI computes normalized mutual information between the clustering and
// the ground-truth classes: I(C;T) / sqrt(H(C)·H(T)), in [0,1]. A
// clustering identical to the truth scores 1; independent labelings score
// ~0. Degenerate cases (single cluster or single class) return 0 unless
// both sides are single, which scores 1.
func NMI(c Clustering, truth []string) (float64, error) {
	table, clusterSizes, classSizes, n, err := contingency(c, truth)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	if len(clusterSizes) == 1 && len(classSizes) == 1 {
		return 1, nil
	}
	hc := entropy(clusterSizes, n)
	ht := entropyStr(classSizes, n)
	if hc == 0 || ht == 0 {
		return 0, nil
	}
	mi := 0.0
	fn := float64(n)
	for cl, row := range table {
		pc := float64(clusterSizes[cl]) / fn
		for cls, cnt := range row {
			pct := float64(cnt) / fn
			pt := float64(classSizes[cls]) / fn
			mi += pct * math.Log(pct/(pc*pt))
		}
	}
	return mi / math.Sqrt(hc*ht), nil
}

// entropy over integer-keyed size map.
func entropy(sizes map[int]int, n int) float64 {
	h := 0.0
	for _, s := range sizes {
		p := float64(s) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

// entropyStr over string-keyed size map.
func entropyStr(sizes map[string]int, n int) float64 {
	h := 0.0
	for _, s := range sizes {
		p := float64(s) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

// ARI computes the adjusted Rand index: pair-counting agreement between
// clustering and truth, corrected for chance. 1 = identical partitions,
// ~0 = random relation, negative = worse than chance.
func ARI(c Clustering, truth []string) (float64, error) {
	table, clusterSizes, classSizes, n, err := contingency(c, truth)
	if err != nil {
		return 0, err
	}
	if n < 2 {
		return 0, nil
	}
	var sumComb, sumClusterComb, sumClassComb float64
	for _, row := range table {
		for _, cnt := range row {
			sumComb += choose2(cnt)
		}
	}
	for _, s := range clusterSizes {
		sumClusterComb += choose2(s)
	}
	for _, s := range classSizes {
		sumClassComb += choose2(s)
	}
	total := choose2(n)
	expected := sumClusterComb * sumClassComb / total
	maxIndex := (sumClusterComb + sumClassComb) / 2
	if maxIndex == expected {
		// Both partitions are degenerate in the same way (e.g. both all
		// singletons matching, or both one block): perfect agreement.
		return 1, nil
	}
	return (sumComb - expected) / (maxIndex - expected), nil
}

// choose2 returns n choose 2 as float64.
func choose2(n int) float64 {
	return float64(n) * float64(n-1) / 2
}
