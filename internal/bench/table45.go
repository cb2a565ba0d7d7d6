package bench

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/baselines"
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/core"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/simulate"
)

// Tables IV and V — 16S benchmarks comparing all eight methods:
// MrMC-MinH^h, MrMC-MinH^g, MC-LSH, UCLUST, CD-HIT, ESPRIT, DOTUR, Mothur.
// Paper parameters: 15-mers, 50 hash functions, 95% similarity threshold.
const (
	sixteenSK      = 15
	sixteenSHashes = 50
	// identityTheta is the paper's 95% threshold in alignment-identity
	// space; sketch methods use the Jaccard-mapped equivalent, anchored a
	// point lower because minhash estimates of borderline pairs are noisy
	// (n=50 gives σ≈0.07) and the paper's own MrMC cluster counts sit
	// *below* the alignment tools', implying a slightly looser effective
	// cut.
	identityTheta       = 0.95
	sketchIdentityTheta = 0.94
)

// sixteenSMethods runs all eight methods over one 16S dataset.
func sixteenSMethods(reads []fasta.Record, truth []string, cfg Config) ([]Row, error) {
	jaccTheta := JaccardThresholdForIdentity(sketchIdentityTheta, sixteenSK)
	var rows []Row

	hierOpt := cfg.Base
	hierOpt.K, hierOpt.NumHashes, hierOpt.Theta = sixteenSK, sixteenSHashes, jaccTheta
	hierOpt.Mode, hierOpt.Linkage = core.HierarchicalMode, cluster.Average
	hierOpt.Seed = cfg.Seed
	r, err := runMrMC("MrMC-MinH^h", reads, truth, hierOpt, cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r)

	greedyOpt := hierOpt
	greedyOpt.Mode = core.GreedyMode
	r, err = runMrMC("MrMC-MinH^g", reads, truth, greedyOpt, cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r)

	type baselineRun struct {
		m   baselines.Method
		opt baselines.Options
	}
	runs := []baselineRun{
		{baselines.MCLSH{}, baselines.Options{Threshold: jaccTheta, WordSize: sixteenSK, Seed: cfg.Seed}},
		{baselines.UClust{}, baselines.Options{Threshold: identityTheta, Seed: cfg.Seed}},
		{baselines.CDHit{}, baselines.Options{Threshold: identityTheta, Seed: cfg.Seed}},
		{baselines.Esprit{}, baselines.Options{Threshold: identityTheta, Seed: cfg.Seed}},
		{baselines.Dotur{}, baselines.Options{Threshold: identityTheta, Seed: cfg.Seed}},
		{baselines.Mothur{}, baselines.Options{Threshold: identityTheta, Seed: cfg.Seed}},
	}
	for _, br := range runs {
		r, err := runBaseline(br.m, reads, truth, br.opt, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Table4 runs the 16S simulated benchmark (Huse et al. derived) at 3% and
// 5% sequencing error, reporting #Cluster and W.Sim per method.
func Table4(cfg Config) ([]Row, error) {
	var rows []Row
	for _, errRate := range []float64{0.03, 0.05} {
		reads, truth, err := simulate.BuildHuse16S(errRate, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		rs, err := sixteenSMethods(reads, truth, cfg)
		if err != nil {
			return nil, err
		}
		ds := fmt.Sprintf("err%.0f%%", errRate*100)
		for i := range rs {
			rs[i].Dataset = ds
		}
		rows = append(rows, rs...)
	}
	return rows, nil
}

// Table5Samples lists the environmental sample ids.
func Table5Samples() []string {
	out := []string{}
	for _, s := range simulate.TableI() {
		out = append(out, s.SID)
	}
	return out
}

// Table5 runs the eight-method comparison over the eight environmental
// seawater samples (Sogin et al. analogs), reporting #Cluster / W.Sim /
// Time. Samples may narrow the run (nil = all eight).
func Table5(cfg Config, samples []string) ([]Row, error) {
	if samples == nil {
		samples = Table5Samples()
	}
	var rows []Row
	for _, sid := range samples {
		sample, err := simulate.TableISample(sid)
		if err != nil {
			return nil, err
		}
		reads, truth, err := simulate.BuildEnvironmental(sample, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		rs, err := sixteenSMethods(reads, truth, cfg)
		if err != nil {
			return nil, err
		}
		for i := range rs {
			rs[i].Dataset = sid
		}
		rows = append(rows, rs...)
	}
	return rows, nil
}
