// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -table 3 [-samples S1,S9] [-scale 0.01]
//	experiments -table 4 [-scale 0.001]
//	experiments -table 5 [-samples 53R,55R] [-scale 0.02]
//	experiments -figure 2
//	experiments -ablation theta | estimator
//	experiments -all
//
// Scale multiplies the paper's dataset sizes; higher scales take longer
// but sharpen the comparison. Output goes to stdout in the paper's table
// layout.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/metagenomics/mrmcminh/internal/bench"
	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/core"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		table      = flag.Int("table", 0, "regenerate table 3, 4 or 5")
		figure     = flag.Int("figure", 0, "regenerate figure 2")
		ablation   = flag.String("ablation", "", "run ablation: theta, estimator, speculative, errormodel, bbit or scaling")
		svg        = flag.String("svg", "", "write the Figure 2 chart to this SVG file")
		all        = flag.Bool("all", false, "run everything")
		scale      = flag.Float64("scale", 0.01, "dataset scale in (0,1]")
		seed       = flag.Int64("seed", 1, "generation seed")
		nodes      = flag.Int("nodes", 8, "simulated cluster nodes for MrMC runs")
		samples    = flag.String("samples", "", "comma-separated sample subset (tables 3 and 5)")
		traceOut   = flag.String("trace", "", "write a task trace of all MrMC runs here (.jsonl = JSON lines, anything else = Chrome trace_event)")
		faultSpec  = flag.String("faults", "", "fault-injection plan for MrMC runs: 'chaos' or comma-separated crash=P,kill=NODE@DUR,... (results unchanged; modelled time includes recovery)")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for probabilistic fault injection")
		ckptDir    = flag.String("checkpoint-dir", "", "journal every MrMC run's stages under this directory (per-run subdirectories; enables -resume)")
		shuffleBuf = flag.Int("shuffle-buffer", 0, "map-side sort buffer bytes for MrMC runs; >0 switches jobs onto the external spill-and-merge shuffle (0 = in-memory)")
		candidate  = flag.String("candidate", "exact", "candidate-pair generation for MrMC runs: exact (all-pairs) or lsh (banded candidates + log-round connected components)")
		storeBits  = flag.Int("store-bbits", 0, "signature store packing for MrMC runs: 0 = full 64-bit slots (default), 1..16 = b-bit minwise packing")
		resume     checkpoint.ResumeFlag
	)
	flag.Var(&resume, "resume", "resume interrupted MrMC runs from -checkpoint-dir; 'force' discards all journals first")
	flag.Parse()

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.New()
	}
	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Cluster = mapreduce.Cluster{Nodes: *nodes, SlotsPerNode: 2, Cost: mapreduce.DefaultCostModel}
	cfg.Trace = rec
	cfg.ShuffleBufferBytes = *shuffleBuf
	cand, err := core.ParseCandidateGen(*candidate)
	if err != nil {
		return err
	}
	cfg.Candidate = cand
	cfg.StoreBits = *storeBits
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec, *faultSeed)
		if err != nil {
			return err
		}
		cfg.Faults, err = faults.New(plan)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fault injection: %s (seed %d)\n", plan, *faultSeed)
	}

	if resume.On && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if *ckptDir != "" {
		if resume.Force {
			if err := os.RemoveAll(*ckptDir); err != nil {
				return err
			}
			resume.On = false
		}
		store, err := checkpoint.NewDirStore(*ckptDir)
		if err != nil {
			return err
		}
		cfg.CheckpointStore = store
		cfg.Resume = resume.On
	}

	var subset []string
	if *samples != "" {
		subset = strings.Split(*samples, ",")
	}

	ran := false
	if *all || *table == 3 {
		rows, err := bench.Table3(cfg, subset)
		if err != nil {
			return err
		}
		fmt.Println(bench.Table("Table III: simulated and real whole metagenome reads", rows))
		ran = true
	}
	if *all || *table == 4 {
		t4cfg := cfg
		if *scale > 0.002 && !flagSet("scale") {
			t4cfg.Scale = 0.001 // the Huse set is 345k reads; default gentler
		}
		rows, err := bench.Table4(t4cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.Table("Table IV: 16S simulated dataset (3% and 5% error)", rows))
		ran = true
	}
	if *all || *table == 5 {
		rows, err := bench.Table5(cfg, subset)
		if err != nil {
			return err
		}
		fmt.Println(bench.Table("Table V: 16S environmental samples", rows))
		ran = true
	}
	if *all || *figure == 2 {
		f2 := bench.DefaultFigure2Config()
		f2.Seed = *seed
		f2.Trace = rec
		points, err := bench.Figure2(f2)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatFigure2(points))
		ran = true
	}
	if *all || *ablation == "theta" {
		points, err := bench.AblationThetaHashes(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatAblation(points))
		ran = true
	}
	if *all || *ablation == "estimator" {
		points, err := bench.EstimatorAblation(200, *seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatEstimator(points))
		ran = true
	}
	if *all || *ablation == "speculative" {
		points := bench.AblationSpeculative(1000000, []int{2, 4, 8, 12}, 100)
		fmt.Println(bench.FormatSpeculative(points))
		ran = true
	}
	if *all || *ablation == "errormodel" {
		points, err := bench.AblationErrorModel(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatErrorModel(points))
		ran = true
	}
	if *all || *ablation == "scaling" {
		points, err := bench.RuntimeScaling([]float64{0.01, 0.02, 0.04, 0.08}, *seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatScaling(points))
		ran = true
	}
	if *all || *ablation == "bbit" {
		points, err := bench.AblationBBit(200, *seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatBBit(points))
		ran = true
	}
	if *svg != "" {
		f2 := bench.DefaultFigure2Config()
		f2.Seed = *seed
		points, err := bench.Figure2(f2)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*svg, []byte(bench.Figure2SVG(points)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *svg)
		ran = true
	}
	if !ran {
		flag.Usage()
		return fmt.Errorf("nothing selected: pass -table, -figure, -ablation or -all")
	}
	if rec != nil {
		spans := rec.Spans()
		if err := trace.WriteFile(*traceOut, spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(spans), *traceOut)
		fmt.Fprint(os.Stderr, trace.UtilizationSummary(spans))
	}
	if cfg.Faults != nil {
		fmt.Fprintf(os.Stderr, "faults injected: %d (recovery included in modelled times; results unaffected)\n",
			cfg.Faults.Injected())
	}
	return nil
}

// flagSet reports whether the named flag was explicitly provided.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
