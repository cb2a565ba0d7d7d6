package core

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/faults"
)

// resumeSeeds mirrors the chaos matrix: CHAOS_SEED (set by CI) selects one
// seed, otherwise all five default seeds run.
func resumeSeeds(t *testing.T) []int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", s, err)
		}
		return []int64{n}
	}
	return []int64{1, 2, 3, 4, 5}
}

func resumeOptions(mode Mode, seed int64) Options {
	return Options{
		K: 8, NumHashes: 40, Theta: 0.4, Mode: mode,
		Seed: seed, Cluster: smallCluster(),
	}
}

func openJournal(t *testing.T, dir string) *checkpoint.Journal {
	t.Helper()
	store, err := checkpoint.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := checkpoint.Open(store, "/")
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// stagesOf lists the pipeline stages of a mode, in execution order.
func stagesOf(mode Mode) []string {
	if mode == GreedyMode {
		return []string{StageSketch, StageGreedy}
	}
	return []string{StageSketch, StageSimilarity, StageCluster}
}

// TestResumeBitIdentical kills the driver after every stage boundary of
// both pipelines, resumes from the on-disk journal in a fresh process
// (modelled by a fresh Journal over the same directory), and requires the
// resumed clustering to be bit-identical to an uninterrupted run —
// re-executing only the stages after the last committed manifest entry.
func TestResumeBitIdentical(t *testing.T) {
	for _, seed := range resumeSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reads, _ := makeReads(4, 6, 200, 0.01, seed)
			for _, mode := range []Mode{GreedyMode, HierarchicalMode} {
				mode := mode
				t.Run(mode.String(), func(t *testing.T) {
					baseline, err := Run(reads, resumeOptions(mode, seed))
					if err != nil {
						t.Fatal(err)
					}
					for _, crashAfter := range stagesOf(mode) {
						dir := t.TempDir()

						// First run: journal every stage, crash after one.
						opt := resumeOptions(mode, seed)
						opt.Checkpoint = openJournal(t, dir)
						opt.Faults = faults.MustNew(faults.Plan{
							DriverCrashes: []faults.DriverCrash{{AfterStage: crashAfter}},
						})
						_, err := Run(reads, opt)
						var dce *faults.DriverCrashError
						if !errors.As(err, &dce) || dce.Stage != crashAfter {
							t.Fatalf("crash after %s: got %v", crashAfter, err)
						}

						// Second run: a fresh journal over the same directory
						// (the dead driver's survivor) with --resume.
						opt2 := resumeOptions(mode, seed)
						opt2.Checkpoint = openJournal(t, dir)
						opt2.Resume = ResumeOn
						res, err := Run(reads, opt2)
						if err != nil {
							t.Fatalf("resume after %s: %v", crashAfter, err)
						}
						if !reflect.DeepEqual(res.Assignments, baseline.Assignments) {
							t.Fatalf("resume after %s changed the clustering", crashAfter)
						}
						// Exactly the stages up to and including the crash
						// point were restored; everything after re-ran.
						var wantSkipped []string
						for _, s := range stagesOf(mode) {
							wantSkipped = append(wantSkipped, s)
							if s == crashAfter {
								break
							}
						}
						if !reflect.DeepEqual(res.SkippedStages, wantSkipped) {
							t.Fatalf("crash after %s: skipped %v, want %v", crashAfter, res.SkippedStages, wantSkipped)
						}
					}
				})
			}
		})
	}
}

// TestResumeSkipsCrashSite proves the crash site is not re-triggered: the
// same fault plan is active on the resumed run, but the crashed stage is
// restored from its checkpoint instead of executed, so the driver sails
// past it.
func TestResumeSkipsCrashSite(t *testing.T) {
	reads, _ := makeReads(3, 5, 180, 0.01, 2)
	dir := t.TempDir()
	plan := faults.Plan{DriverCrashes: []faults.DriverCrash{{AfterStage: StageSketch}}}

	opt := resumeOptions(GreedyMode, 2)
	opt.Checkpoint = openJournal(t, dir)
	opt.Faults = faults.MustNew(plan)
	if _, err := Run(reads, opt); err == nil {
		t.Fatal("planned driver crash did not fire")
	}

	opt2 := resumeOptions(GreedyMode, 2)
	opt2.Checkpoint = openJournal(t, dir)
	opt2.Resume = ResumeOn
	opt2.Faults = faults.MustNew(plan) // same plan, still armed
	if _, err := Run(reads, opt2); err != nil {
		t.Fatalf("resume re-triggered the crash: %v", err)
	}
}

func TestResumeErrors(t *testing.T) {
	reads, _ := makeReads(3, 5, 180, 0.01, 3)

	// Resume without a journal at all.
	opt := resumeOptions(GreedyMode, 3)
	opt.Resume = ResumeOn
	if _, err := Run(reads, opt); err == nil {
		t.Fatal("Resume without Checkpoint accepted")
	}

	// Resume against an empty checkpoint directory.
	opt = resumeOptions(GreedyMode, 3)
	opt.Checkpoint = openJournal(t, t.TempDir())
	opt.Resume = ResumeOn
	_, err := Run(reads, opt)
	var me *checkpoint.MissingError
	if !errors.As(err, &me) {
		t.Fatalf("want MissingError, got %v", err)
	}

	// A parameter change on resume is a typed error naming the parameter.
	dir := t.TempDir()
	opt = resumeOptions(HierarchicalMode, 3)
	opt.Checkpoint = openJournal(t, dir)
	if _, err := Run(reads, opt); err != nil {
		t.Fatal(err)
	}
	changed := resumeOptions(HierarchicalMode, 3)
	changed.Theta = 0.6
	changed.Checkpoint = openJournal(t, dir)
	changed.Resume = ResumeOn
	_, err = Run(reads, changed)
	var pm *checkpoint.ParamMismatchError
	if !errors.As(err, &pm) {
		t.Fatalf("want ParamMismatchError, got %v", err)
	}
	if pm.Stage != StageCluster || pm.Param != "theta" {
		t.Fatalf("mismatch misattributed: %+v", pm)
	}

	// A changed dataset invalidates from the first stage.
	otherReads, _ := makeReads(3, 5, 180, 0.01, 99)
	other := resumeOptions(HierarchicalMode, 3)
	other.Checkpoint = openJournal(t, dir)
	other.Resume = ResumeOn
	_, err = Run(otherReads, other)
	var im *checkpoint.InputMismatchError
	if !errors.As(err, &im) || im.Stage != StageSketch {
		t.Fatalf("want InputMismatchError at sketch, got %v", err)
	}

	// ResumeForce discards the stale journal and re-runs cleanly.
	forced := resumeOptions(HierarchicalMode, 3)
	forced.Theta = 0.6
	forced.Checkpoint = openJournal(t, dir)
	forced.Resume = ResumeForce
	res, err := Run(reads, forced)
	if err != nil {
		t.Fatalf("ResumeForce: %v", err)
	}
	if len(res.SkippedStages) != 0 {
		t.Fatalf("forced run skipped stages: %v", res.SkippedStages)
	}
}

// TestCheckpointedRunMatchesPlain guards against the journaling itself
// perturbing the pipeline: with a journal attached but no resume, results
// equal the journal-free run's.
func TestCheckpointedRunMatchesPlain(t *testing.T) {
	reads, _ := makeReads(4, 5, 200, 0.01, 7)
	for _, mode := range []Mode{GreedyMode, HierarchicalMode} {
		plain, err := Run(reads, resumeOptions(mode, 7))
		if err != nil {
			t.Fatal(err)
		}
		opt := resumeOptions(mode, 7)
		opt.Checkpoint = openJournal(t, t.TempDir())
		journaled, err := Run(reads, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Assignments, journaled.Assignments) {
			t.Fatalf("%v: journaling changed the clustering", mode)
		}
		if want := stagesOf(mode); opt.Checkpoint.Len() != len(want) {
			t.Fatalf("%v: journal has %d entries, want %d", mode, opt.Checkpoint.Len(), len(want))
		}
	}
}

// TestCodecRoundTrips exercises the exact binary codecs resume depends on
// for bit-identical restoration.
func TestCodecRoundTrips(t *testing.T) {
	reads, _ := makeReads(3, 4, 150, 0.02, 11)
	opt := resumeOptions(HierarchicalMode, 11)
	if HashReads(reads) == HashReads(reads[:len(reads)-1]) {
		t.Fatal("reads hash insensitive to content")
	}

	res, err := Run(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := decodeLabels(encodeLabels(res.Assignments))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, res.Assignments) {
		t.Fatal("labels codec not exact")
	}
	if _, err := decodeLabels([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated labels accepted")
	}
	if _, err := decodeMatrix([]byte{9}); err == nil {
		t.Fatal("truncated matrix accepted")
	}
}
