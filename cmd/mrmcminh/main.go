// Command mrmcminh clusters metagenome sequence reads from a FASTA file
// using minwise hashing, with either the greedy (Algorithm 1) or the
// agglomerative hierarchical (Algorithm 2) approach, on a simulated
// MapReduce cluster.
//
// Usage:
//
//	mrmcminh -in reads.fa [-mode hierarchical|greedy] [-k 5] [-hashes 100]
//	         [-theta 0.9] [-link average] [-nodes 8] [-canonical]
//	         [-out clusters.tsv] [-labels truth.tsv]
//
// The output is one "readID<TAB>clusterLabel" line per read. With -labels
// (a readID<TAB>class ground-truth file) the tool also reports W.Acc.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/metagenomics/mrmcminh"
	"github.com/metagenomics/mrmcminh/internal/cli"
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mrmcminh:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	shared := cli.Register(flag.CommandLine)
	shared.Batch()
	shared.Sketch(5, 100, 0.9)
	var (
		in           = flag.String("in", "", "input FASTA file (required)")
		out          = flag.String("out", "", "output TSV file (default stdout)")
		mode         = flag.String("mode", "hierarchical", "clustering mode: hierarchical or greedy")
		link         = flag.String("link", "average", "hierarchical linkage: single, average or complete")
		bucketCap    = flag.Int("lsh-bucket-cap", 0, "max reads per LSH bucket expanded into candidate pairs (0 = default cap; -candidate=lsh only)")
		labels       = flag.String("labels", "", "optional ground-truth TSV (readID<TAB>class) for W.Acc")
		levels       = flag.String("levels", "", "comma-separated extra thresholds to cut the run's dendrogram at (exact hierarchical mode)")
		otu          = flag.String("otu", "", "write an OTU table (size, abundance, representative) to this file")
		consensusOut = flag.String("consensus", "", "write per-cluster consensus sequences to this FASTA file")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("-in is required")
	}
	opt, err := shared.Options()
	if err != nil {
		return err
	}
	// Finish writes the trace whether the run succeeds or fails.
	defer func() { err = shared.Finish(opt, err) }()
	switch *mode {
	case "hierarchical":
		opt.Mode = mrmcminh.Hierarchical
	case "greedy":
		opt.Mode = mrmcminh.Greedy
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if opt.Linkage, err = cluster.ParseLinkage(*link); err != nil {
		return err
	}
	opt.LSHBucketCap = *bucketCap
	var thetas []float64
	if *levels != "" {
		for _, s := range strings.Split(*levels, ",") {
			t, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("-levels: bad threshold %q", s)
			}
			thetas = append(thetas, t)
		}
	}
	reads, err := fasta.ReadSequencesFile(*in) // FASTA or FASTQ
	if err != nil {
		return err
	}

	res, err := mrmcminh.Cluster(reads, opt)
	if err != nil {
		return err
	}
	for _, s := range res.SkippedStages {
		fmt.Fprintf(os.Stderr, "resume: skipped stage %s (checkpoint valid)\n", s)
	}
	// Cut the levels before writing anything, so that a run which cannot
	// answer -levels leaves no output behind.
	var lvls []mrmcminh.Level
	if thetas != nil {
		if lvls, err = res.Levels(thetas); err != nil {
			return fmt.Errorf("-levels: %w", err)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close() // on error paths; the success path checks Close
		w = f
	}
	bw := bufio.NewWriter(w)
	for i, id := range res.ReadIDs {
		fmt.Fprintf(bw, "%s\t%d\n", id, res.Assignments[i])
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "%d reads -> %d clusters in %v (modelled %d-node time %s)\n",
		len(reads), res.NumClusters(), res.Real.Round(1000000), opt.Cluster.Nodes, metrics.FormatDuration(res.Virtual))

	if *labels != "" {
		truth, err := loadLabels(*labels, res.ReadIDs)
		if err != nil {
			return err
		}
		acc, err := metrics.WeightedAccuracy(res.Assignments, truth)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "W.Acc against %s: %.2f%%\n", *labels, acc)
	}

	if *otu != "" {
		reps, err := res.Representatives()
		if err != nil {
			return err
		}
		names := map[int]string{}
		for id, idx := range reps {
			names[id] = res.ReadIDs[idx]
		}
		table := mrmcminh.Diversity(res).OTUTable(reps, names)
		if err := os.WriteFile(*otu, []byte(table), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote OTU table to %s\n", *otu)
	}

	if *consensusOut != "" {
		cons, err := mrmcminh.Consensus(reads, res, mrmcminh.ConsensusOptions{MaxMembers: 50})
		if err != nil {
			return err
		}
		var recs []mrmcminh.Record
		ids := make([]int, 0, len(cons))
		for id := range cons {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if len(cons[id]) == 0 {
				continue
			}
			recs = append(recs, mrmcminh.Record{
				ID:          fmt.Sprintf("otu_%d", id),
				Description: fmt.Sprintf("size=%d", res.Assignments.Sizes()[id]),
				Seq:         cons[id],
			})
		}
		if err := fasta.WriteFile(*consensusOut, recs); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d consensus sequences to %s\n", len(recs), *consensusOut)
	}

	for _, lv := range lvls {
		fmt.Fprintf(os.Stderr, "level θ=%.2f: %d clusters\n", lv.Theta, lv.Clusters)
	}
	return nil
}

// loadLabels reads a readID<TAB>class file into read order.
func loadLabels(path string, ids []string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byID := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("malformed label line %q", line)
		}
		byID[parts[0]] = parts[1]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	truth := make([]string, len(ids))
	for i, id := range ids {
		cls, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("read %q missing from %s", id, path)
		}
		truth[i] = cls
	}
	return truth, nil
}
