package bench

import (
	"fmt"
	"strings"

	"github.com/metagenomics/mrmcminh/internal/core"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/simulate"
)

// Ablation E8 — sequencing error channel: the paper's 16S benchmarks come
// from 454 pyrosequencers whose signature error is homopolymer indels,
// not substitutions. This ablation clusters the same community through
// both channels and reports the OTU inflation each causes relative to the
// true taxon count — the effect Huse et al. (the paper's accuracy
// reference) documented.
type ErrorModelPoint struct {
	Channel  string
	Taxa     int
	Reads    int
	Clusters int
	WAccPct  float64
}

// AblationErrorModel builds matched samples under the substitution and
// 454 channels and clusters both hierarchically.
func AblationErrorModel(cfg Config) ([]ErrorModelPoint, error) {
	const (
		taxa    = 20
		perTax  = 20
		readLen = 80
	)
	opt := core.Options{
		K: sixteenSK, NumHashes: sixteenSHashes,
		Theta: JaccardThresholdForIdentity(sketchIdentityTheta, sixteenSK),
		Mode:  core.HierarchicalMode, Seed: cfg.Seed, Cluster: cfg.Base.Cluster,
	}
	var out []ErrorModelPoint

	// Substitution channel (uniform per-read rate up to 3%).
	subReads, subTruth, err := simulate.Amplicons(simulate.AmpliconOptions{
		Taxa: taxa, ReadsPerTaxon: perTax, ReadLength: readLen,
		ErrorRate: 0.03, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	p, err := clusterAndScore("substitution", subReads, subTruth, opt, taxa)
	if err != nil {
		return nil, err
	}
	out = append(out, p)

	// 454 channel (homopolymer indels dominate).
	recs454, err := simulate.Amplicons454(simulate.AmpliconOptions{
		Taxa: taxa, ReadsPerTaxon: perTax, ReadLength: readLen, Seed: cfg.Seed,
	}, simulate.DefaultError454)
	if err != nil {
		return nil, err
	}
	reads454 := make([]fasta.Record, len(recs454))
	truth454 := make([]string, len(recs454))
	for i, r := range recs454 {
		reads454[i] = fasta.Record{ID: r.ID, Seq: r.Read}
		truth454[i] = fmt.Sprintf("taxon%02d", r.Taxon)
	}
	p, err = clusterAndScore("454-homopolymer", reads454, truth454, opt, taxa)
	if err != nil {
		return nil, err
	}
	out = append(out, p)
	return out, nil
}

// clusterAndScore runs one channel's sample.
func clusterAndScore(channel string, reads []fasta.Record, truth []string, opt core.Options, taxa int) (ErrorModelPoint, error) {
	res, err := core.Run(reads, opt)
	if err != nil {
		return ErrorModelPoint{}, err
	}
	acc := 0.0
	if truth != nil {
		acc, err = metrics.WeightedAccuracy(res.Assignments, truth)
		if err != nil {
			return ErrorModelPoint{}, err
		}
	}
	return ErrorModelPoint{
		Channel:  channel,
		Taxa:     taxa,
		Reads:    len(reads),
		Clusters: res.NumClusters(),
		WAccPct:  acc,
	}, nil
}

// FormatErrorModel renders the ablation.
func FormatErrorModel(points []ErrorModelPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation: sequencing error channel (E8)\n")
	fmt.Fprintf(&sb, "%-18s %6s %6s %9s %8s %10s\n", "channel", "taxa", "reads", "#cluster", "W.Acc", "inflation")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-18s %6d %6d %9d %8.2f %9.1fx\n",
			p.Channel, p.Taxa, p.Reads, p.Clusters, p.WAccPct, float64(p.Clusters)/float64(p.Taxa))
	}
	return sb.String()
}
