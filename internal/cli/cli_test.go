package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/core"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// Each command's registration, as its main performs it.
var commands = map[string]func(*Flags){
	"mrmcminh":    func(f *Flags) { f.Batch(); f.Sketch(5, 100, 0.9) },
	"experiments": func(f *Flags) { f.Batch() },
	"pigrun":      func(f *Flags) { f.Batch() },
	"mrmcminhd":   func(f *Flags) { f.Sketch(12, 64, 0.5) },
}

// parse registers a command's flags on a fresh FlagSet and builds its
// options from args.
func parse(t *testing.T, command string, args ...string) (*Flags, core.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet(command, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	commands[command](f)
	if err := fs.Parse(args); err != nil {
		return nil, core.Options{}, err
	}
	opt, err := f.Options()
	return f, opt, err
}

func TestDefaults(t *testing.T) {
	cases := []struct {
		command   string
		k, hashes int
		theta     float64
		nodes     int
	}{
		{"mrmcminh", 5, 100, 0.9, 8},
		{"experiments", 0, 0, 0, 8},
		{"pigrun", 0, 0, 0, 8},
		{"mrmcminhd", 12, 64, 0.5, 0},
	}
	for _, c := range cases {
		t.Run(c.command, func(t *testing.T) {
			_, opt, err := parse(t, c.command)
			if err != nil {
				t.Fatal(err)
			}
			if opt.K != c.k || opt.NumHashes != c.hashes || opt.Theta != c.theta {
				t.Fatalf("sketch defaults k=%d hashes=%d theta=%v, want %d/%d/%v",
					opt.K, opt.NumHashes, opt.Theta, c.k, c.hashes, c.theta)
			}
			if opt.Cluster.Nodes != c.nodes || opt.Seed != 1 {
				t.Fatalf("nodes=%d seed=%d, want %d/1", opt.Cluster.Nodes, opt.Seed, c.nodes)
			}
			if opt.StoreBits != 0 || opt.Candidate != core.CandidateExact {
				t.Fatalf("store-bbits=%d candidate=%v, want 0/exact", opt.StoreBits, opt.Candidate)
			}
			if opt.Canonical || opt.UseLSH || opt.ShuffleBufferBytes != 0 {
				t.Fatalf("unexpected non-default options %+v", opt)
			}
			if opt.Trace != nil || opt.Faults != nil || opt.Checkpoint != nil || opt.Resume != core.ResumeOff {
				t.Fatal("a bare command must not trace, inject faults or checkpoint")
			}
		})
	}
}

func TestBatchFlagsReachOptions(t *testing.T) {
	_, opt, err := parse(t, "mrmcminh")
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cluster != mapreduce.DefaultCluster {
		t.Fatalf("default cluster %+v, want %+v", opt.Cluster, mapreduce.DefaultCluster)
	}
	_, opt, err = parse(t, "pigrun", "-nodes", "3", "-seed", "7", "-store-bbits", "4",
		"-candidate", "lsh", "-shuffle-buffer", "4096")
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cluster.Nodes != 3 || opt.Cluster.SlotsPerNode != 2 || opt.Seed != 7 ||
		opt.StoreBits != 4 || opt.Candidate != core.CandidateLSH || opt.ShuffleBufferBytes != 4096 {
		t.Fatalf("flags not carried into options: %+v", opt)
	}
}

func TestResumeFlag(t *testing.T) {
	cases := []struct {
		arg  string
		want core.ResumeMode
	}{
		{"-resume", core.ResumeOn},
		{"-resume=true", core.ResumeOn},
		{"-resume=force", core.ResumeForce},
		{"-resume=false", core.ResumeOff},
	}
	for _, c := range cases {
		_, opt, err := parse(t, "pigrun", "-checkpoint-dir", t.TempDir(), c.arg)
		if err != nil {
			t.Fatalf("%s: %v", c.arg, err)
		}
		if opt.Resume != c.want || opt.Checkpoint == nil {
			t.Fatalf("%s: resume=%v journal=%v, want %v", c.arg, opt.Resume, opt.Checkpoint, c.want)
		}
	}
	if _, _, err := parse(t, "pigrun", "-checkpoint-dir", t.TempDir(), "-resume=bogus"); err == nil {
		t.Fatal("-resume=bogus accepted")
	}
	if _, _, err := parse(t, "mrmcminh", "-resume"); err == nil {
		t.Fatal("-resume without -checkpoint-dir accepted")
	}
	if _, _, err := parse(t, "experiments", "-resume=force"); err == nil {
		t.Fatal("-resume=force without -checkpoint-dir accepted")
	}
}

// runStart performs the journal checks a run makes as it starts.
func runStart(opt core.Options) error {
	_, err := core.NewPigContext(dfs.MustNew(dfs.DefaultConfig), nil, opt)
	return err
}

func TestResumeForceEmptiesTheJournal(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := checkpoint.Open(store, "/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit("store:/out", "h", nil, []byte("rows")); err != nil {
		t.Fatal(err)
	}
	_, opt, err := parse(t, "pigrun", "-checkpoint-dir", dir, "-resume=force")
	if err != nil {
		t.Fatal(err)
	}
	if err := runStart(opt); err != nil {
		t.Fatal(err)
	}
	if files := store.List("/"); len(files) != 0 {
		t.Fatalf("-resume=force left %v", files)
	}
}

func TestResumeOnEmptyDirIsMissing(t *testing.T) {
	_, opt, err := parse(t, "pigrun", "-checkpoint-dir", t.TempDir(), "-resume")
	if err != nil {
		t.Fatal(err)
	}
	var missing *checkpoint.MissingError
	if err := runStart(opt); !errors.As(err, &missing) {
		t.Fatalf("resume on an empty journal: %v, want *checkpoint.MissingError", err)
	}
}

func TestBadFlagsFailBeforeAnyWork(t *testing.T) {
	batch := []string{"mrmcminh", "experiments", "pigrun"}
	daemon := []string{"mrmcminhd"}
	all := append(batch[:len(batch):len(batch)], daemon...)
	cases := []struct {
		name     string
		args     []string
		commands []string
	}{
		{"store-bbits 17", []string{"-store-bbits", "17"}, all},
		{"store-bbits -1", []string{"-store-bbits", "-1"}, all},
		{"candidate bogus", []string{"-candidate", "bogus"}, batch},
		{"malformed faults", []string{"-faults", "crash=lots"}, all},
		{"k 31", []string{"-k", "31"}, []string{"mrmcminh", "mrmcminhd"}}, // packs into a uint64, but 4^31 exceeds the sketch modulus
		// core reads zero as its default, so 0 would run another geometry.
		{"k 0", []string{"-k", "0"}, []string{"mrmcminh", "mrmcminhd"}},
		{"hashes 0", []string{"-hashes", "0"}, []string{"mrmcminh", "mrmcminhd"}},
		{"theta 0", []string{"-theta", "0"}, []string{"mrmcminh", "mrmcminhd"}},
		{"shuffle-buffer -1", []string{"-shuffle-buffer", "-1"}, batch},
		{"fault-seed", []string{"-fault-seed", "2"}, daemon}, // the service site is deterministic
		// A command refuses a directive at a site it does not run.
		{"service-crash", []string{"-faults", "service-crash:after=1"}, batch},
		{"crash", []string{"-faults", "crash=1"}, daemon},
		{"chaos", []string{"-faults", "chaos"}, daemon},
		{"driver-crash", []string{"-faults", "driver-crash:after=sketch"}, daemon},
		{"kill", []string{"-faults", "kill=0@1s"}, daemon},
		{"dfsfail", []string{"-faults", "dfsfail=1"}, all},
	}
	for _, c := range cases {
		for _, command := range c.commands {
			t.Run(c.name+"/"+command, func(t *testing.T) {
				ck := filepath.Join(t.TempDir(), "ck")
				argv := c.args
				if command != "mrmcminhd" {
					argv = append(c.args[:len(c.args):len(c.args)], "-checkpoint-dir", ck)
				}
				_, _, err := parse(t, command, argv...)
				if err == nil {
					t.Fatalf("%v accepted", argv)
				}
				if c.args[0] == "-faults" {
					directive, _, _ := strings.Cut(c.args[1], "=")
					if msg := err.Error(); !strings.Contains(msg, command) || !strings.Contains(msg, directive) {
						t.Fatalf("error %q does not name the command and %q", msg, directive)
					}
				}
				if c.args[1] == "0" && !strings.Contains(err.Error(), c.args[0]) {
					t.Fatalf("error %q does not name %s", err, c.args[0])
				}
				if _, err := os.Stat(ck); !os.IsNotExist(err) {
					t.Fatal("a rejected command created its checkpoint directory")
				}
			})
		}
	}
}

// TestFaultsAtOwnSites: each command accepts the directives at the sites
// it runs.
func TestFaultsAtOwnSites(t *testing.T) {
	for command, spec := range map[string]string{
		"mrmcminh":    "chaos,taskfail=*:map:0:1,kill=0@1s,slow=1@2,driver-crash:after=sketch",
		"experiments": "crash=0.1,maxcrash=1",
		"pigrun":      "driver-crash:after=store:/out/hierarchical",
		"mrmcminhd":   "service-crash:after=1",
	} {
		t.Run(command, func(t *testing.T) {
			if _, opt, err := parse(t, command, "-faults", spec); err != nil || opt.Faults == nil {
				t.Fatalf("%s -faults %s: %v", command, spec, err)
			}
		})
	}
}

// TestFinishWritesTrace: the trace is written after a failed run as
// after a successful one, and a failed run returns its own error, even
// when its trace cannot be written.
func TestFinishWritesTrace(t *testing.T) {
	dir := t.TempDir()
	crashed := errors.New("driver crashed")
	for _, runErr := range []error{nil, crashed} {
		path := filepath.Join(dir, fmt.Sprintf("trace-%v.json", runErr != nil))
		f, opt, err := parse(t, "experiments", "-trace", path, "-faults", "crash=0.1")
		if err != nil {
			t.Fatal(err)
		}
		if opt.Trace == nil || opt.Faults == nil {
			t.Fatal("-trace/-faults built no recorder/injector")
		}
		opt.Trace.End(opt.Trace.Begin(trace.KindJob, "job"))
		if err := f.Finish(opt, runErr); err != runErr {
			t.Fatalf("Finish after run error %v returned %v", runErr, err)
		}
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Fatalf("run error %v: trace file: %v, %v", runErr, info, err)
		}
	}
	f, opt, err := parse(t, "experiments", "-trace", filepath.Join(dir, "missing", "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Finish(opt, crashed); err != crashed {
		t.Fatalf("failed run with an unwritable trace returned %v, want its own error", err)
	}
	if err := f.Finish(opt, nil); err == nil {
		t.Fatal("successful run with an unwritable trace returned no error")
	}
}
