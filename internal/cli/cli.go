// Package cli is the one flag set the command-line tools share. Each
// shared flag is defined here once, with one name, one meaning and one
// help text; a command registers the groups it takes, passing its own
// defaults, and gets back a ready core.Options: sketch geometry, the
// simulated cluster, the trace recorder, the fault injector, and the
// checkpoint journal with its resume mode.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/core"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// Flags holds one command's shared flags. Register defines the flags
// every command takes; Batch and Sketch define the two optional groups.
type Flags struct {
	fs        *flag.FlagSet
	seed      int64
	faults    string
	storeBits int

	// Batch group.
	batch     bool
	faultSeed int64
	nodes     int
	candidate string
	shuffle   int
	tracePath string
	ckptDir   string
	resume    resumeFlag

	// Sketch group.
	k, hashes int
	theta     float64
	canonical bool
	lsh       bool
}

// Register defines -seed, -faults and -store-bbits on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.Int64Var(&f.seed, "seed", 1, "seed for the hash functions and for generated datasets")
	fs.StringVar(&f.faults, "faults", "", "fault-injection plan: on the batch commands 'chaos' or comma-separated crash=P,maxcrash=N,taskfail=JOB:PHASE:TASK:UPTO,kill=NODE@DUR,slow=NODE@FACTOR,driver-crash:after=STAGE (results are unaffected; modelled time includes recovery); on mrmcminhd service-crash:after=N")
	fs.IntVar(&f.storeBits, "store-bbits", 0, "signature store packing: 0 = full 64-bit slots, 1..16 = b-bit minwise packing (8-64x smaller resident signatures, approximate)")
	return f
}

// Batch defines the batch-run flags: -fault-seed, -nodes, -candidate,
// -shuffle-buffer, -trace, -checkpoint-dir and -resume. A command with
// this group injects faults at the task, node and driver sites; one
// without it only at the service site.
func (f *Flags) Batch() {
	f.batch = true
	f.fs.Int64Var(&f.faultSeed, "fault-seed", 1, "seed for probabilistic fault injection")
	f.fs.IntVar(&f.nodes, "nodes", 8, "simulated cluster nodes")
	f.fs.StringVar(&f.candidate, "candidate", "exact", "candidate-pair generation: exact (all pairs) or lsh (banded candidates + log-round connected components)")
	f.fs.IntVar(&f.shuffle, "shuffle-buffer", 0, "map-side sort buffer bytes per map task; >0 spills and charges modelled spill and merge I/O (0 = unbounded: one in-memory flush per task, no spill cost)")
	f.fs.StringVar(&f.tracePath, "trace", "", "write a task trace here after the run (.jsonl = JSON lines, anything else = Chrome trace_event for chrome://tracing)")
	f.fs.StringVar(&f.ckptDir, "checkpoint-dir", "", "journal committed stage outputs under this directory (enables -resume after a crash)")
	f.fs.Var(&f.resume, "resume", "resume from -checkpoint-dir, restoring work whose checkpoint validates; 'force' discards the journal first")
}

// Sketch defines -k, -hashes, -theta, -canonical and -lsh, with the
// command's defaults for the first three.
func (f *Flags) Sketch(k, hashes int, theta float64) {
	f.fs.IntVar(&f.k, "k", k, "k-mer size")
	f.fs.IntVar(&f.hashes, "hashes", hashes, "number of minwise hash functions")
	f.fs.Float64Var(&f.theta, "theta", theta, "similarity threshold in [0,1]")
	f.fs.BoolVar(&f.canonical, "canonical", false, "fold reverse-complement k-mers (shotgun reads)")
	f.fs.BoolVar(&f.lsh, "lsh", false, "match new reads against cluster representatives through an LSH index (greedy clustering)")
}

// Options validates the parsed flags and builds the run they describe,
// opening the fault injector and the checkpoint journal. Every bad value
// fails here, before the command does any work.
func (f *Flags) Options() (core.Options, error) {
	if f.fs.Lookup("k") != nil { // the Sketch group
		// core.Options reads a zero k, hash count or theta as "use the
		// default", so a zero flag would silently run another geometry.
		switch {
		case f.k == 0:
			return core.Options{}, fmt.Errorf("-k must be at least 1, got 0")
		case f.hashes == 0:
			return core.Options{}, fmt.Errorf("-hashes must be at least 1, got 0")
		case f.theta == 0:
			return core.Options{}, fmt.Errorf("-theta must be above 0, got 0")
		}
	}
	cand, err := core.ParseCandidateGen(f.candidate)
	if err != nil {
		return core.Options{}, err
	}
	opt := core.Options{
		K:                  f.k,
		NumHashes:          f.hashes,
		Theta:              f.theta,
		Canonical:          f.canonical,
		UseLSH:             f.lsh,
		Candidate:          cand,
		StoreBits:          f.storeBits,
		Seed:               f.seed,
		Cluster:            mapreduce.Cluster{Nodes: f.nodes, SlotsPerNode: 2, Cost: mapreduce.DefaultCostModel},
		ShuffleBufferBytes: f.shuffle,
		Resume:             core.ResumeMode(f.resume),
	}
	if err := opt.Validate(); err != nil {
		return core.Options{}, err
	}
	if opt.Resume != core.ResumeOff && f.ckptDir == "" {
		return core.Options{}, fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if f.faults != "" {
		// The service site is deterministic: only the batch sites use a seed.
		sites, seed := []faults.Site{faults.SiteService}, ""
		if f.batch {
			sites = []faults.Site{faults.SiteTask, faults.SiteNode, faults.SiteDriver}
			seed = fmt.Sprintf(" (seed %d)", f.faultSeed)
		}
		plan, err := faults.ParsePlan(f.faults, f.faultSeed, sites...)
		if err != nil {
			return core.Options{}, fmt.Errorf("%s -faults: %w", filepath.Base(f.fs.Name()), err)
		}
		if opt.Faults, err = faults.New(plan); err != nil {
			return core.Options{}, err
		}
		fmt.Fprintf(os.Stderr, "fault injection: %s%s\n", plan, seed)
	}
	if f.ckptDir != "" {
		store, err := checkpoint.NewDirStore(f.ckptDir)
		if err != nil {
			return core.Options{}, err
		}
		if opt.Checkpoint, err = checkpoint.Open(store, "/"); err != nil {
			return core.Options{}, err
		}
	}
	if f.tracePath != "" {
		opt.Trace = trace.New()
	}
	return opt, nil
}

// Finish ends a run built from Options, given the run's error. Whether
// the run succeeded or failed, it writes the trace to -trace with a
// per-node utilization summary on stderr: a failed run's timeline is the
// one most worth reading. A failed run returns its own error, and a
// trace that cannot be written is then only reported on stderr. A
// successful run also reports how many faults were injected.
func (f *Flags) Finish(opt core.Options, runErr error) error {
	if opt.Trace != nil {
		spans := opt.Trace.Spans()
		if err := trace.WriteFile(f.tracePath, spans); err != nil {
			if runErr == nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(spans), f.tracePath)
			fmt.Fprint(os.Stderr, trace.UtilizationSummary(spans))
		}
	}
	if runErr != nil {
		return runErr
	}
	if opt.Faults != nil {
		fmt.Fprintf(os.Stderr, "faults injected: %d (recovery included in modelled time; results unaffected)\n",
			opt.Faults.Injected())
	}
	return nil
}

// resumeFlag is -resume: bare or =true resumes, =force discards the
// journal first, =false (the default) runs fresh.
type resumeFlag core.ResumeMode

var resumeNames = [...]string{core.ResumeOff: "false", core.ResumeOn: "true", core.ResumeForce: "force"}

func (r *resumeFlag) String() string { return resumeNames[*r] }

func (r *resumeFlag) Set(v string) error {
	for mode, name := range resumeNames {
		if v == name {
			*r = resumeFlag(mode)
			return nil
		}
	}
	return fmt.Errorf("want true, false or force, got %q", v)
}

// IsBoolFlag lets bare -resume mean -resume=true.
func (r *resumeFlag) IsBoolFlag() bool { return true }
