package mapreduce

import (
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

func committerFS(t *testing.T) *dfs.FileSystem {
	t.Helper()
	return dfs.MustNew(dfs.Config{NumDataNodes: 3, BlockSize: 64, Replication: 2})
}

func TestCommitTaskPromotesAtomically(t *testing.T) {
	fs := committerFS(t)
	oc := NewOutputCommitter(fs, "/out")
	if err := oc.WriteAttemptFile(0, 1, "part-00000", []byte("a\t1\n")); err != nil {
		t.Fatal(err)
	}
	if err := oc.WriteAttemptFile(0, 1, "part-00001", []byte("b\t2\n")); err != nil {
		t.Fatal(err)
	}
	// Staged files live under _temporary and are invisible to readers.
	if got := fs.ListOutputs("/out"); len(got) != 0 {
		t.Fatalf("staged files leaked into the output listing: %v", got)
	}
	if err := oc.CommitTask(0, 1); err != nil {
		t.Fatal(err)
	}
	got := fs.ListOutputs("/out")
	if len(got) != 2 || got[0] != "/out/part-00000" || got[1] != "/out/part-00001" {
		t.Fatalf("commit published %v", got)
	}
	if fs.Exists(oc.AttemptPath(0, 1) + "/part-00000") {
		t.Fatal("staging survived the commit")
	}
}

func TestCommitTaskWithoutStagedOutputFails(t *testing.T) {
	oc := NewOutputCommitter(committerFS(t), "/out")
	if err := oc.CommitTask(3, 1); err == nil {
		t.Fatal("committing an attempt that staged nothing must fail")
	}
}

func TestNoPartialOutputVisible(t *testing.T) {
	fs := committerFS(t)
	oc := NewOutputCommitter(fs, "/out")

	// Attempt 1 stages output and dies before commit: abort discards it.
	if err := oc.WriteAttemptFile(0, 1, "part-00000", []byte("partial junk")); err != nil {
		t.Fatal(err)
	}
	oc.AbortTask(0, 1)
	if got := fs.ListOutputs("/out"); len(got) != 0 {
		t.Fatalf("aborted attempt leaked output: %v", got)
	}

	// Attempt 2 of the same task commits; only its bytes are visible.
	if err := oc.WriteAttemptFile(0, 2, "part-00000", []byte("good\t1\n")); err != nil {
		t.Fatal(err)
	}
	if err := oc.CommitTask(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := oc.CommitJob(); err != nil {
		t.Fatal(err)
	}
	got := fs.ListOutputs("/out")
	if len(got) != 1 || got[0] != "/out/part-00000" {
		t.Fatalf("output listing = %v", got)
	}
	data, err := fs.ReadFile("/out/part-00000")
	if err != nil || string(data) != "good\t1\n" {
		t.Fatalf("committed bytes = %q, %v", data, err)
	}
	// The _SUCCESS marker exists but stays hidden from output listings.
	if !Succeeded(fs, "/out") {
		t.Fatal("no _SUCCESS after CommitJob")
	}
	for _, p := range fs.ListOutputs("/out") {
		if strings.Contains(p, "_SUCCESS") || strings.Contains(p, "_temporary") {
			t.Fatalf("marker or staging visible: %v", p)
		}
	}
}

func TestAbortJobRemovesEverything(t *testing.T) {
	fs := committerFS(t)
	oc := NewOutputCommitter(fs, "/out")
	if err := oc.WriteAttemptFile(0, 1, "part-00000", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := oc.CommitTask(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := oc.WriteAttemptFile(1, 1, "part-00001", []byte("y")); err != nil {
		t.Fatal(err)
	}
	oc.AbortJob()
	if got := fs.List("/out"); len(got) != 0 {
		t.Fatalf("abort left files: %v", got)
	}
	if Succeeded(fs, "/out") {
		t.Fatal("aborted job reports success")
	}
}

func TestCommitterCountersAndSpans(t *testing.T) {
	fs := committerFS(t)
	rec := trace.New()
	counters := NewCounters()
	oc := NewOutputCommitter(fs, "/out")
	oc.SetTrace(rec)
	oc.SetCounters(counters)
	if oc.Dir() != "/out" {
		t.Fatalf("Dir = %q", oc.Dir())
	}
	if err := oc.WriteAttemptFile(0, 1, "part-00000", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := oc.CommitTask(0, 1); err != nil {
		t.Fatal(err)
	}
	oc.AbortTask(1, 1) // aborting with nothing staged is a no-op on disk
	if err := oc.CommitJob(); err != nil {
		t.Fatal(err)
	}
	if got := counters.Get(CounterCommitCommitted); got != 1 {
		t.Fatalf("commit.committed = %d", got)
	}
	if got := counters.Get(CounterCommitAborted); got != 1 {
		t.Fatalf("commit.aborted = %d", got)
	}
	var commits, aborts int
	for _, sp := range rec.Spans() {
		switch sp.Kind {
		case trace.KindCommit:
			commits++
		case trace.KindAbort:
			aborts++
		}
	}
	if commits != 2 || aborts != 1 { // task commit + job commit, one abort
		t.Fatalf("spans: %d commits, %d aborts", commits, aborts)
	}
}
