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
	"github.com/metagenomics/mrmcminh/internal/cli"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	shared := cli.Register(flag.CommandLine)
	shared.Batch()
	var (
		table    = flag.Int("table", 0, "regenerate table 3, 4 or 5")
		figure   = flag.Int("figure", 0, "regenerate figure 2")
		ablation = flag.String("ablation", "", "run ablation: theta, estimator, speculative, errormodel, bbit or scaling")
		svg      = flag.String("svg", "", "write the Figure 2 chart to this SVG file")
		all      = flag.Bool("all", false, "run everything")
		scale    = flag.Float64("scale", 0.01, "dataset scale in (0,1]")
		samples  = flag.String("samples", "", "comma-separated sample subset (tables 3 and 5)")
	)
	flag.Parse()
	base, err := shared.Options()
	if err != nil {
		return err
	}
	// Finish writes the trace whether the run succeeds or fails.
	defer func() { err = shared.Finish(base, err) }()
	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = base.Seed
	cfg.Base = base

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
		f2.Seed = base.Seed
		f2.Trace = base.Trace
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
		points, err := bench.EstimatorAblation(200, base.Seed)
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
		points, err := bench.RuntimeScaling([]float64{0.01, 0.02, 0.04, 0.08}, base.Seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatScaling(points))
		ran = true
	}
	if *all || *ablation == "bbit" {
		points, err := bench.AblationBBit(200, base.Seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatBBit(points))
		ran = true
	}
	if *svg != "" {
		f2 := bench.DefaultFigure2Config()
		f2.Seed = base.Seed
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
