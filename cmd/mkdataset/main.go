// Command mkdataset materializes the paper's benchmark datasets as FASTA
// plus ground-truth TSV files.
//
// Usage:
//
//	mkdataset -sample S1 -scale 0.01 -out s1.fa -truth s1.tsv
//	mkdataset -sample 53R -scale 0.1 -out 53r.fa
//	mkdataset -sample huse3 -scale 0.001 -out huse3.fa
//	mkdataset -list
//
// Samples: S1..S14 and R1 (whole metagenome, Table II), the eight
// environmental seawater samples (Table I: 53R 55R 112R 115R 137 138
// FS312 FS396), and huse3/huse5 (the 16S simulated set at 3%/5% error).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/simulate"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mkdataset:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		sample = flag.String("sample", "", "sample id (see -list)")
		scale  = flag.Float64("scale", 0.01, "fraction of the paper's read count in (0,1]")
		errT   = flag.Float64("error", 0.005, "per-base error rate for whole-metagenome samples")
		seed   = flag.Int64("seed", 1, "generation seed")
		out    = flag.String("out", "", "output FASTA path (required unless -list)")
		truth  = flag.String("truth", "", "optional ground-truth TSV path")
		list   = flag.Bool("list", false, "list available samples")
	)
	flag.Parse()
	if *list {
		fmt.Println("Whole metagenome (Table II):")
		for _, s := range simulate.TableII() {
			fmt.Printf("  %-4s %d species, %d reads of ~%d bp, %d true clusters\n",
				s.SID, len(s.Species), s.Reads, s.ReadLength, s.Clusters)
		}
		fmt.Println("  R1   sharpshooter gut sample analog, 7137 reads (no ground truth)")
		fmt.Println("Environmental 16S (Table I):")
		for _, s := range simulate.TableI() {
			fmt.Printf("  %-6s %-18s %6d reads\n", s.SID, s.Site, s.Reads)
		}
		fmt.Println("16S simulated (Huse et al.): huse3 (3% error), huse5 (5% error), 345000 reads, 43 taxa")
		return nil
	}
	if *sample == "" || *out == "" {
		flag.Usage()
		return fmt.Errorf("-sample and -out are required")
	}

	reads, labels, err := build(*sample, *scale, *errT, *seed)
	if err != nil {
		return err
	}
	if err := fasta.WriteFile(*out, reads); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d reads to %s\n", len(reads), *out)
	if *truth != "" {
		f, err := os.Create(*truth)
		if err != nil {
			return err
		}
		defer f.Close() // on error paths; the success path checks Close
		bw := bufio.NewWriter(f)
		for i, r := range reads {
			fmt.Fprintf(bw, "%s\t%s\n", r.ID, labels[i])
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote ground truth to %s\n", *truth)
	}
	return nil
}

// build dispatches on the sample id.
func build(sample string, scale, errRate float64, seed int64) ([]fasta.Record, []string, error) {
	switch sample {
	case "R1":
		return simulate.BuildR1(scale, seed)
	case "huse3":
		return simulate.BuildHuse16S(0.03, scale, seed)
	case "huse5":
		return simulate.BuildHuse16S(0.05, scale, seed)
	}
	if spec, err := simulate.TableIISpec(sample); err == nil {
		return simulate.BuildWholeMetagenome(spec, scale, errRate, seed)
	}
	if env, err := simulate.TableISample(sample); err == nil {
		return simulate.BuildEnvironmental(env, scale, seed)
	}
	return nil, nil, fmt.Errorf("unknown sample %q (try -list)", sample)
}
