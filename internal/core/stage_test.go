package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/faults"
)

// stringStage runs stage with string outputs, counting how often the
// stage ran and how often it was restored.
type stringStage struct {
	runs, decodes int
}

func (s *stringStage) do(ck *ckptRunner, name, inputsHash, out string) (string, string, error) {
	return stage(ck, name, inputsHash, map[string]string{"p": "1"},
		func(v string) []byte { return []byte(v) },
		func(data []byte) (string, error) { s.decodes++; return string(data), nil },
		func() (string, error) { s.runs++; return out, nil })
}

// TestStageResumesValidatedPrefixOnly commits stages a and c but not b.
// A resumed run restores a, runs b, and then runs c as well although c
// has an entry: the first stage with no entry ends the resumable prefix.
// Each stage returns the hash of its journaled bytes.
func TestStageResumesValidatedPrefixOnly(t *testing.T) {
	dir := t.TempDir()
	var first stringStage
	ck := &ckptRunner{journal: openJournal(t, dir)}
	for _, st := range []struct{ name, out string }{{"a", "A"}, {"c", "C"}} {
		out, hash, err := first.do(ck, st.name, "in", st.out)
		if err != nil {
			t.Fatal(err)
		}
		if out != st.out || hash != checkpoint.HashBytes([]byte(st.out)) {
			t.Fatalf("stage %s: got (%q, %s), want (%q, hash of %q)", st.name, out, hash, st.out, st.out)
		}
	}
	if first.runs != 2 || first.decodes != 0 || ck.skipped != nil {
		t.Fatalf("fresh run: %d runs, %d decodes, skipped %v", first.runs, first.decodes, ck.skipped)
	}

	var again stringStage
	ck = &ckptRunner{journal: openJournal(t, dir), resume: true}
	a, hashA, err := again.do(ck, "a", "in", "not run")
	if err != nil || a != "A" || hashA != checkpoint.HashBytes([]byte("A")) {
		t.Fatalf("restored a = (%q, %s, %v), want (\"A\", hash of \"A\", nil)", a, hashA, err)
	}
	if _, _, err := again.do(ck, "b", hashA, "B"); err != nil {
		t.Fatal(err)
	}
	c, _, err := again.do(ck, "c", "in", "C2")
	if err != nil || c != "C2" {
		t.Fatalf("stage c after the prefix = (%q, %v), want it run to \"C2\"", c, err)
	}
	if again.runs != 2 || again.decodes != 1 || !reflect.DeepEqual(ck.skipped, []string{"a"}) {
		t.Fatalf("resumed run: %d runs, %d decodes, skipped %v; want 2, 1, [a]", again.runs, again.decodes, ck.skipped)
	}
	if got := ck.journal.Stages(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("journal stages %v, want [a b c] (c committed again, last)", got)
	}
}

// TestStageWithoutJournal runs the stage and encodes nothing: with no
// journal there are no bytes to hash, so the next stage's inputs hash is
// empty.
func TestStageWithoutJournal(t *testing.T) {
	ran := false
	out, hash, err := stage(&ckptRunner{}, "a", "", nil,
		func(string) []byte { t.Fatal("encoded without a journal"); return nil },
		func([]byte) (string, error) { t.Fatal("decoded without a journal"); return "", nil },
		func() (string, error) { ran = true; return "A", nil })
	if err != nil || !ran || out != "A" || hash != "" {
		t.Fatalf("got (%q, %q, %v), ran %v; want (\"A\", \"\", nil), ran", out, hash, err, ran)
	}
}

// TestStageCrashFiresAfterCommit: a planned driver crash after a stage
// lands once the stage is journaled, and a resumed run under the same
// plan restores the stage instead of running it, so the crash does not
// fire again.
func TestStageCrashFiresAfterCommit(t *testing.T) {
	dir := t.TempDir()
	plan := faults.Plan{DriverCrashes: []faults.DriverCrash{{AfterStage: "a"}}}
	var first stringStage
	ck := &ckptRunner{journal: openJournal(t, dir), faults: faults.MustNew(plan)}
	_, _, err := first.do(ck, "a", "in", "A")
	var crash *faults.DriverCrashError
	if !errors.As(err, &crash) || crash.Stage != "a" {
		t.Fatalf("err = %v, want a driver crash after a", err)
	}
	if got := ck.journal.Stages(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("journal stages after the crash %v, want [a]", got)
	}

	var again stringStage
	ck = &ckptRunner{journal: openJournal(t, dir), resume: true, faults: faults.MustNew(plan)}
	out, _, err := again.do(ck, "a", "in", "not run")
	if err != nil || out != "A" || again.runs != 0 {
		t.Fatalf("resumed a = (%q, %v) after %d runs, want \"A\" restored", out, err, again.runs)
	}
}

// TestStageFailuresCommitNothing: a stage whose run fails journals
// nothing and fires no planned crash, and a restored entry that does not
// decode fails the stage without running it or counting it skipped.
func TestStageFailuresCommitNothing(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	inj := faults.MustNew(faults.Plan{DriverCrashes: []faults.DriverCrash{{AfterStage: "a"}}})
	ck := &ckptRunner{journal: openJournal(t, dir), faults: inj}
	_, _, err := stage(ck, "a", "in", nil,
		func(string) []byte { t.Fatal("encoded a failed stage"); return nil },
		func([]byte) (string, error) { return "", nil },
		func() (string, error) { return "", boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !ck.journal.Empty() || inj.Counts()["driver.crash"] != 0 {
		t.Fatalf("failed stage journaled %v and crashed %d times", ck.journal.Stages(), inj.Counts()["driver.crash"])
	}

	var first stringStage
	if _, _, err := first.do(&ckptRunner{journal: openJournal(t, dir)}, "a", "in", "A"); err != nil {
		t.Fatal(err)
	}
	ck = &ckptRunner{journal: openJournal(t, dir), resume: true}
	ran := false
	_, _, err = stage(ck, "a", "in", map[string]string{"p": "1"},
		func(v string) []byte { return []byte(v) },
		func([]byte) (string, error) { return "", boom },
		func() (string, error) { ran = true; return "A", nil })
	if !errors.Is(err, boom) || ran || ck.skipped != nil {
		t.Fatalf("undecodable entry: err %v, ran %v, skipped %v; want %v, not run, none skipped", err, ran, ck.skipped, boom)
	}
}
