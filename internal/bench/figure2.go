package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/metagenomics/mrmcminh/internal/core"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/simulate"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// Figure 2 — runtime of the hierarchical algorithm versus number of
// computing nodes (2–12) and input size (1,000 to 10,000,000 reads from
// benchmark S1). Two data sources combine:
//
//   - executed points: for sizes below ExecuteLimit the pipeline really
//     runs on the engine and reports its virtual-clock makespan;
//   - modelled points: larger sizes use core.ModelRuntime, the same cost
//     model evaluated analytically (running 10M reads' all-pairs matrix
//     for real is infeasible on one machine — and, as EXPERIMENTS.md
//     discusses, on the paper's own cluster too).
type Figure2Point struct {
	Nodes    int
	Reads    int
	Runtime  time.Duration
	Executed bool // true when the pipeline actually ran
}

// Figure2Config sizes the sweep.
type Figure2Config struct {
	Nodes []int
	Reads []int
	// ExecuteLimit is the largest read count run for real.
	ExecuteLimit int
	Seed         int64
	// Trace collects spans from executed (non-modelled) points; nil
	// disables.
	Trace *trace.Recorder
}

// DefaultFigure2Config mirrors the paper's grid. ExecuteLimit is zero:
// every printed point comes from the same analytic cost model, keeping
// the series mutually comparable (the engine-executed path assumes exact
// all-pairs similarity, whose quadratic row cost diverges from the
// bounded-candidate model that makes the 10M-read points meaningful;
// executed points are cross-checked against the model in the tests
// instead).
func DefaultFigure2Config() Figure2Config {
	return Figure2Config{
		Nodes: []int{2, 4, 6, 8, 10, 12},
		Reads: []int{1000, 10000, 100000, 1000000, 10000000},
		Seed:  1,
	}
}

// Figure2 produces the runtime grid.
func Figure2(cfg Figure2Config) ([]Figure2Point, error) {
	spec, err := simulate.TableIISpec("S1")
	if err != nil {
		return nil, err
	}
	var points []Figure2Point
	for _, reads := range cfg.Reads {
		for _, nodes := range cfg.Nodes {
			c := mapreduce.Cluster{Nodes: nodes, SlotsPerNode: 2, Cost: mapreduce.DefaultCostModel}
			if reads <= cfg.ExecuteLimit {
				scale := float64(reads) / float64(spec.Reads)
				if scale > 1 {
					scale = 1
				}
				rs, _, err := simulate.BuildWholeMetagenome(spec, scale, 0.005, cfg.Seed)
				if err != nil {
					return nil, err
				}
				res, err := core.Run(rs, core.Options{
					K: table3K, NumHashes: table3Hashes, Theta: table3Theta,
					Mode: core.HierarchicalMode, Canonical: true,
					Seed: cfg.Seed, Cluster: c, Trace: cfg.Trace,
				})
				if err != nil {
					return nil, err
				}
				points = append(points, Figure2Point{Nodes: nodes, Reads: reads, Runtime: res.Virtual, Executed: true})
			} else {
				rt := core.ModelRuntime(reads, c, core.HierarchicalMode, table3Hashes)
				points = append(points, Figure2Point{Nodes: nodes, Reads: reads, Runtime: rt})
			}
		}
	}
	return points, nil
}

// FormatFigure2 renders the grid as the paper's figure data: one series
// per input size, runtime in minutes per node count.
func FormatFigure2(points []Figure2Point) string {
	byReads := map[int][]Figure2Point{}
	var order []int
	for _, p := range points {
		if _, ok := byReads[p.Reads]; !ok {
			order = append(order, p.Reads)
		}
		byReads[p.Reads] = append(byReads[p.Reads], p)
	}
	var sb strings.Builder
	sb.WriteString("Figure 2: runtime (minutes) vs number of nodes\n")
	sb.WriteString(fmt.Sprintf("%-12s", "reads\\nodes"))
	if len(order) > 0 {
		for _, p := range byReads[order[0]] {
			sb.WriteString(fmt.Sprintf("%8d", p.Nodes))
		}
	}
	sb.WriteString("\n")
	for _, reads := range order {
		sb.WriteString(fmt.Sprintf("%-12d", reads))
		for _, p := range byReads[reads] {
			sb.WriteString(fmt.Sprintf("%8.1f", p.Runtime.Minutes()))
		}
		if len(byReads[reads]) > 0 && !byReads[reads][0].Executed {
			sb.WriteString("   (modelled)")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// AblationPoint is one (theta, hashes) quality sample for experiment E5.
type AblationPoint struct {
	Theta     float64
	NumHashes int
	Mode      core.Mode
	Clusters  int
	WAcc      float64
}

// AblationThetaHashes sweeps the two MrMC-MinH knobs over an S1-like
// sample, showing the θ/cluster-count trade-off the paper discusses in
// §III-B and the estimator-variance effect of the hash count.
func AblationThetaHashes(cfg Config) ([]AblationPoint, error) {
	spec, err := simulate.TableIISpec("S1")
	if err != nil {
		return nil, err
	}
	reads, truth, err := simulate.BuildWholeMetagenome(spec, cfg.Scale, 0.005, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var out []AblationPoint
	for _, mode := range []core.Mode{core.GreedyMode, core.HierarchicalMode} {
		for _, theta := range []float64{0.2, 0.35, 0.5, 0.7, 0.9} {
			for _, hashes := range []int{25, 100} {
				res, err := core.Run(reads, core.Options{
					K: table3K, NumHashes: hashes, Theta: theta, Mode: mode,
					Canonical: true, Seed: cfg.Seed, Cluster: cfg.Base.Cluster,
				})
				if err != nil {
					return nil, err
				}
				acc, err := metrics.WeightedAccuracy(res.Assignments, truth)
				if err != nil {
					return nil, err
				}
				out = append(out, AblationPoint{
					Theta: theta, NumHashes: hashes, Mode: mode,
					Clusters: res.NumClusters(), WAcc: acc,
				})
			}
		}
	}
	return out, nil
}

// FormatAblation renders ablation points as a table.
func FormatAblation(points []AblationPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation: theta x hashes (E5)\n")
	fmt.Fprintf(&sb, "%-14s %6s %7s %9s %7s\n", "mode", "theta", "hashes", "#cluster", "W.Acc")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-14s %6.2f %7d %9d %7.2f\n", p.Mode, p.Theta, p.NumHashes, p.Clusters, p.WAcc)
	}
	return sb.String()
}
