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
	"strings"

	"github.com/metagenomics/mrmcminh"
	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mrmcminh:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in           = flag.String("in", "", "input FASTA file (required)")
		out          = flag.String("out", "", "output TSV file (default stdout)")
		mode         = flag.String("mode", "hierarchical", "clustering mode: hierarchical or greedy")
		k            = flag.Int("k", 5, "k-mer size")
		hashes       = flag.Int("hashes", 100, "number of minwise hash functions")
		theta        = flag.Float64("theta", 0.9, "similarity threshold in [0,1]")
		link         = flag.String("link", "average", "hierarchical linkage: single, average or complete")
		nodes        = flag.Int("nodes", 8, "simulated cluster nodes")
		canonical    = flag.Bool("canonical", false, "fold reverse-complement k-mers (shotgun reads)")
		useLSH       = flag.Bool("lsh", false, "accelerate greedy mode with an LSH candidate index")
		candidate    = flag.String("candidate", "exact", "candidate-pair generation: exact (all-pairs) or lsh (banded candidates + log-round connected components)")
		bucketCap    = flag.Int("lsh-bucket-cap", 0, "max reads per LSH bucket expanded into candidate pairs (0 = default cap; -candidate=lsh only)")
		seed         = flag.Int64("seed", 1, "hash seed")
		labels       = flag.String("labels", "", "optional ground-truth TSV (readID<TAB>class) for W.Acc")
		levels       = flag.String("levels", "", "comma-separated extra thresholds for multi-level output (hierarchical mode)")
		otu          = flag.String("otu", "", "write an OTU table (size, abundance, representative) to this file")
		consensusOut = flag.String("consensus", "", "write per-cluster consensus sequences to this FASTA file")
		traceOut     = flag.String("trace", "", "write a task trace here after the run (.jsonl = JSON lines, anything else = Chrome trace_event for chrome://tracing)")
		faultSpec    = flag.String("faults", "", "fault-injection plan: 'chaos' or comma-separated crash=P,maxcrash=N,taskfail=JOB:PHASE:TASK:UPTO,kill=NODE@DUR,slow=NODE@FACTOR,driver-crash:after=STAGE (clustering output is unaffected; modelled time includes recovery)")
		faultSeed    = flag.Int64("fault-seed", 1, "seed for probabilistic fault injection")
		ckptDir      = flag.String("checkpoint-dir", "", "journal each pipeline stage's committed output under this directory (enables -resume after a driver crash)")
		shuffleBuf   = flag.Int("shuffle-buffer", 0, "map-side sort buffer bytes; >0 switches jobs onto the external spill-and-merge shuffle (0 = in-memory)")
		storeBits    = flag.Int("store-bbits", 0, "signature store packing: 0 = full 64-bit slots (default), 1..16 = b-bit minwise packing (8-64x smaller resident signatures, approximate)")
		resume       checkpoint.ResumeFlag
	)
	flag.Var(&resume, "resume", "resume from -checkpoint-dir, skipping stages whose checkpoint validates; 'force' discards the journal first")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("-in is required")
	}
	reads, err := fasta.ReadSequencesFile(*in) // FASTA or FASTQ
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.New()
	}
	var injector *faults.Injector
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec, *faultSeed)
		if err != nil {
			return err
		}
		injector, err = faults.New(plan)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fault injection: %s (seed %d)\n", plan, *faultSeed)
	}
	opt := mrmcminh.Options{
		K:                  *k,
		NumHashes:          *hashes,
		Theta:              *theta,
		Canonical:          *canonical,
		UseLSH:             *useLSH,
		Seed:               *seed,
		Cluster:            mapreduce.Cluster{Nodes: *nodes, SlotsPerNode: 2, Cost: mapreduce.DefaultCostModel},
		ShuffleBufferBytes: *shuffleBuf,
		StoreBits:          *storeBits,
		Trace:              rec,
		Faults:             injector,
	}
	switch *mode {
	case "hierarchical":
		opt.Mode = mrmcminh.Hierarchical
	case "greedy":
		opt.Mode = mrmcminh.Greedy
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	cand, err := mrmcminh.ParseCandidateGen(*candidate)
	if err != nil {
		return err
	}
	opt.Candidate = cand
	opt.LSHBucketCap = *bucketCap
	switch *link {
	case "single":
		opt.Linkage = mrmcminh.SingleLinkage
	case "average":
		opt.Linkage = mrmcminh.AverageLinkage
	case "complete":
		opt.Linkage = mrmcminh.CompleteLinkage
	default:
		return fmt.Errorf("unknown linkage %q", *link)
	}
	if resume.On && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if *ckptDir != "" {
		journal, err := mrmcminh.OpenCheckpointDir(*ckptDir)
		if err != nil {
			return err
		}
		opt.Checkpoint = journal
		switch {
		case resume.Force:
			opt.Resume = mrmcminh.ResumeForce
		case resume.On:
			opt.Resume = mrmcminh.ResumeOn
		}
	}

	res, err := mrmcminh.Cluster(reads, opt)
	if err != nil {
		return err
	}
	for _, s := range res.SkippedStages {
		fmt.Fprintf(os.Stderr, "resume: skipped stage %s (checkpoint valid)\n", s)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	for i, id := range res.ReadIDs {
		fmt.Fprintf(bw, "%s\t%d\n", id, res.Assignments[i])
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "%d reads -> %d clusters in %v (modelled %d-node time %s)\n",
		len(reads), res.NumClusters(), res.Real.Round(1000000), *nodes, metrics.FormatDuration(res.Virtual))
	if injector != nil {
		fmt.Fprintf(os.Stderr, "faults injected: %d (recovery included in modelled time; clusters unaffected)\n",
			injector.Injected())
	}

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
		reps, err := mrmcminh.Representatives(reads, res, opt)
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
		cons, err := mrmcminh.Consensus(reads, res, opt, mrmcminh.ConsensusOptions{MaxMembers: 50})
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

	if *levels != "" {
		if opt.Mode != mrmcminh.Hierarchical {
			return fmt.Errorf("-levels requires hierarchical mode")
		}
		var thetas []float64
		for _, s := range strings.Split(*levels, ",") {
			var t float64
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%f", &t); err != nil {
				return fmt.Errorf("bad level %q", s)
			}
			thetas = append(thetas, t)
		}
		lres, err := mrmcminh.ClusterLevels(reads, opt, thetas)
		if err != nil {
			return err
		}
		for _, lv := range lres.Levels {
			fmt.Fprintf(os.Stderr, "level θ=%.2f: %d clusters\n", lv.Theta, lv.Assignments.NumClusters())
		}
	}

	if rec != nil {
		spans := rec.Spans()
		if err := trace.WriteFile(*traceOut, spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(spans), *traceOut)
		fmt.Fprint(os.Stderr, trace.UtilizationSummary(spans))
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
