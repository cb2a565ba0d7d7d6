// Package bench regenerates the paper's evaluation: Table III (whole
// metagenome, MrMC-MinH vs MetaCluster), Table IV (16S simulated, eight
// methods), Table V (16S environmental, eight methods), Figure 2 (runtime
// vs nodes and input size) and two ablations (threshold/hash-count sweep
// and Jaccard-estimator comparison).
//
// Every experiment accepts a scale factor: the paper's read counts are
// multiplied down so a laptop run finishes in seconds; `cmd/experiments
// -scale` raises it toward paper sizes. Quality *shapes* (who wins, by
// what rough factor) are preserved across scales; EXPERIMENTS.md records
// paper-vs-measured values.
package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/metagenomics/mrmcminh/internal/baselines"
	"github.com/metagenomics/mrmcminh/internal/core"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies the paper's dataset sizes (0 < Scale <= 1).
	Scale float64
	// Seed drives all dataset generation and hashing.
	Seed int64
	// Base is the run environment every MrMC-MinH run starts from: the
	// simulated cluster, trace recorder, fault injector, shuffle buffer,
	// candidate generator and signature-store packing. Each experiment
	// sets the algorithm (K, NumHashes, Theta, Mode, Linkage, Canonical,
	// Seed) per run; baseline methods use none of it. With
	// Base.Checkpoint set, each run journals under its own subdirectory
	// (run name plus input hash) so an interrupted sweep can resume, and
	// Base.Resume applies per run — except that under ResumeOn a run
	// with no journal yet runs fresh instead of failing.
	Base core.Options
	// SimOptions controls the W.Sim evaluation cost.
	SimOptions metrics.SimilarityOptions
	// TrimCounts reports cluster counts only for clusters above the
	// evaluation size floor. The paper trims Table III ("clustering
	// results are trimmed after applying threshold on number of
	// clusters") but reports raw counts — dust included — in Tables IV
	// and V.
	TrimCounts bool
}

// DefaultConfig is a laptop-friendly configuration.
func DefaultConfig() Config {
	sim := metrics.DefaultSimilarityOptions
	sim.MinClusterSize = 5 // scaled-down clusters are small
	sim.MaxPairsPerCluster = 60
	return Config{
		Scale:      0.01,
		Seed:       1,
		Base:       core.Options{Cluster: mapreduce.DefaultCluster},
		SimOptions: sim,
	}
}

// JaccardThresholdForIdentity maps an alignment-identity threshold t (the
// paper's "95% similarity") onto the equivalent k-mer Jaccard threshold:
// a pair at identity t keeps a ~t^k fraction of its k-mers intact, giving
// Jaccard ≈ t^k / (2 - t^k). Sketch-based methods cluster in Jaccard
// space, alignment-based methods in identity space; this mapping keeps the
// two families cutting at the same biological level.
func JaccardThresholdForIdentity(t float64, k int) float64 {
	f := math.Pow(t, float64(k))
	return f / (2 - f)
}

// Row is one method's result on one dataset. Time semantics: Summary's
// Elapsed is the locally measured wall time for every method (so runtime
// comparisons across methods are apples-to-apples); Model, set only for
// the MrMC-MinH modes, is the simulated-cluster virtual time (the paper's
// reported "Time" on Amazon EMR).
type Row struct {
	Dataset string
	Method  string
	Summary metrics.Summary
	Model   time.Duration
}

// Table renders rows grouped by dataset in the paper's column layout,
// with cluster counts trimmed to clusters above the evaluation size floor
// (the paper trims small clusters before reporting counts).
func Table(title string, rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-8s %s %12s\n", "SID", metrics.HeaderRow(), "T.model")
	last := ""
	for _, r := range rows {
		sid := r.Dataset
		if sid == last {
			sid = ""
		} else if last != "" {
			sb.WriteString("\n")
		}
		model := "-"
		if r.Model > 0 {
			model = metrics.FormatDuration(r.Model)
		}
		fmt.Fprintf(&sb, "%-8s %s %12s\n", sid, r.Summary.Row(), model)
		last = r.Dataset
	}
	return sb.String()
}

// runMrMC executes an MrMC-MinH mode (opt starts from cfg.Base) and
// evaluates it.
func runMrMC(name string, reads []fasta.Record, truth []string, opt core.Options, cfg Config) (Row, error) {
	if opt.Checkpoint != nil {
		journal, err := opt.Checkpoint.Sub(slug(name) + "-" + core.HashReads(reads)[:12])
		if err != nil {
			return Row{}, fmt.Errorf("bench: %s: %w", name, err)
		}
		opt.Checkpoint = journal
		if opt.Resume == core.ResumeOn && journal.Empty() {
			opt.Resume = core.ResumeOff
		}
	}
	res, err := core.Run(reads, opt)
	if err != nil {
		return Row{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	seqs := seqsOf(reads)
	sum, err := metrics.Evaluate(name, res.Assignments, truth, seqs, cfg.SimOptions, res.Real)
	if err != nil {
		return Row{}, err
	}
	if cfg.TrimCounts {
		sum.NumClusters = res.Assignments.NumClustersAtLeast(cfg.SimOptions.MinClusterSize + 1)
	}
	return Row{Method: name, Summary: sum, Model: res.Virtual}, nil
}

// runBaseline executes a baseline method and evaluates it with measured
// wall time.
func runBaseline(m baselines.Method, reads []fasta.Record, truth []string, opt baselines.Options, cfg Config) (Row, error) {
	start := time.Now()
	labels, err := m.Cluster(reads, opt)
	if err != nil {
		return Row{}, fmt.Errorf("bench: %s: %w", m.Name(), err)
	}
	elapsed := time.Since(start)
	sum, err := metrics.Evaluate(m.Name(), labels, truth, seqsOf(reads), cfg.SimOptions, elapsed)
	if err != nil {
		return Row{}, err
	}
	if cfg.TrimCounts {
		sum.NumClusters = labels.NumClustersAtLeast(cfg.SimOptions.MinClusterSize + 1)
	}
	return Row{Method: m.Name(), Summary: sum}, nil
}

// slug makes a run name directory-safe ("MrMC-MinH^h" -> "mrmc-minh-h").
func slug(name string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	return sb.String()
}

// seqsOf projects record sequences.
func seqsOf(reads []fasta.Record) [][]byte {
	out := make([][]byte, len(reads))
	for i := range reads {
		out[i] = reads[i].Seq
	}
	return out
}
