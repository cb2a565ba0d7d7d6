package metrics

import (
	"fmt"
	"time"
)

// Summary bundles the paper's reported measures for one run:
// cluster count, W.Acc, W.Sim and wall time.
type Summary struct {
	Name        string
	NumClusters int
	WAcc        float64 // percentage; NaN-free, HasAcc gates validity
	HasAcc      bool
	WSim        float64 // percentage; HasSim gates validity
	HasSim      bool
	Elapsed     time.Duration
}

// Evaluate computes a Summary for a clustering. truth may be nil (real
// samples without ground truth, e.g. R1); seqs may be nil to skip W.Sim.
func Evaluate(name string, c Clustering, truth []string, seqs [][]byte, opt SimilarityOptions, elapsed time.Duration) (Summary, error) {
	s := Summary{Name: name, NumClusters: c.NumClusters(), Elapsed: elapsed}
	if truth != nil {
		acc, err := WeightedAccuracy(c, truth)
		if err != nil {
			return s, err
		}
		s.WAcc, s.HasAcc = acc, true
	}
	if seqs != nil {
		sim, ok, err := WeightedSimilarity(c, seqs, opt)
		if err != nil {
			return s, err
		}
		s.WSim, s.HasSim = sim, ok
	}
	return s, nil
}

// Row renders the summary as a fixed-width table row matching the paper's
// column layout: #Cluster, W.Acc, W.Sim, Time.
func (s Summary) Row() string {
	acc := "-"
	if s.HasAcc {
		acc = fmt.Sprintf("%.2f", s.WAcc)
	}
	sim := "-"
	if s.HasSim {
		sim = fmt.Sprintf("%.2f", s.WSim)
	}
	return fmt.Sprintf("%-24s %9d %8s %8s %12s", s.Name, s.NumClusters, acc, sim, FormatDuration(s.Elapsed))
}

// HeaderRow returns the table header matching Row's layout.
func HeaderRow() string {
	return fmt.Sprintf("%-24s %9s %8s %8s %12s", "Method", "#Cluster", "W.Acc", "W.Sim", "Time")
}

// FormatDuration renders a duration in the paper's style: "4m 25s" for
// minutes-scale values and "8.4s" / "161.0s" for seconds-scale values.
func FormatDuration(d time.Duration) string {
	if d >= time.Minute {
		m := int(d.Minutes())
		s := int(d.Seconds()) - 60*m
		return fmt.Sprintf("%dm %02ds", m, s)
	}
	return fmt.Sprintf("%.1fs", d.Seconds())
}
