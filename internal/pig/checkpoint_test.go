package pig

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

const storeScript = `
A = LOAD '$IN';
B = FOREACH A GENERATE ToUpper(line) AS up;
STORE B INTO '$OUT';
`

func storeContext(t *testing.T, journal *checkpoint.Journal, resume bool) *Context {
	t.Helper()
	ctx := testContext(t)
	ctx.FS.WriteLines("/in/data.txt", []string{"hello world", "foo"})
	ctx.Params["IN"] = "/in/data.txt"
	ctx.Params["OUT"] = "/out"
	ctx.Checkpoint = journal
	ctx.Resume = resume
	return ctx
}

func dirJournal(t *testing.T, dir string) *checkpoint.Journal {
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

func TestStoreGoesThroughCommitProtocol(t *testing.T) {
	ctx := storeContext(t, nil, false)
	rec := trace.New()
	ctx.Engine.Trace = rec
	if _, err := MustCompile(storeScript).Run(ctx); err != nil {
		t.Fatal(err)
	}
	got := ctx.FS.ListOutputs("/out")
	if len(got) != 1 || got[0] != "/out/part-00000" {
		t.Fatalf("outputs = %v", got)
	}
	if !ctx.FS.Exists("/out/_SUCCESS") {
		t.Fatal("STORE did not finalize with _SUCCESS")
	}
	if staged := ctx.FS.List("/out/_temporary"); len(staged) != 0 {
		t.Fatalf("staging survived the commit: %v", staged)
	}
	var commits []string
	for _, sp := range rec.Spans() {
		if sp.Kind == trace.KindCommit {
			commits = append(commits, fmt.Sprintf("%s node=%d %s %s", sp.Name, sp.Node, sp.Detail, sp.Status))
		}
	}
	want := []string{"commit.task[0] node=-1 /out attempt 0 committed", "commit.job node=0 /out committed"}
	if !reflect.DeepEqual(commits, want) {
		t.Fatalf("commit spans %q, want %q", commits, want)
	}
}

func TestStoreDriverCrashAndResume(t *testing.T) {
	dir := t.TempDir()

	// First run: journal the STORE, crash right after its commit.
	ctx := storeContext(t, dirJournal(t, dir), false)
	ctx.Engine.Faults = faults.MustNew(faults.Plan{
		DriverCrashes: []faults.DriverCrash{{AfterStage: "store:/out"}},
	})
	_, err := MustCompile(storeScript).Run(ctx)
	var dce *faults.DriverCrashError
	if !errors.As(err, &dce) || dce.Stage != "store:/out" {
		t.Fatalf("planned crash: got %v", err)
	}

	// Reference bytes from a fault-free run on a fresh stack.
	ref := storeContext(t, nil, false)
	if _, err := MustCompile(storeScript).Run(ref); err != nil {
		t.Fatal(err)
	}
	want, err := ref.FS.ReadFile("/out/part-00000")
	if err != nil {
		t.Fatal(err)
	}

	// Resumed run (fresh journal over the surviving directory): the STORE
	// is restored from the checkpoint, bit-identical, and reported.
	ctx2 := storeContext(t, dirJournal(t, dir), true)
	res, err := MustCompile(storeScript).Run(ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Restored, []string{"/out"}) {
		t.Fatalf("Restored = %v", res.Restored)
	}
	got, err := ctx2.FS.ReadFile("/out/part-00000")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed STORE bytes differ: %q vs %q", got, want)
	}
}

func TestStoreResumeRejectsChangedInput(t *testing.T) {
	dir := t.TempDir()
	ctx := storeContext(t, dirJournal(t, dir), false)
	if _, err := MustCompile(storeScript).Run(ctx); err != nil {
		t.Fatal(err)
	}

	ctx2 := storeContext(t, dirJournal(t, dir), true)
	ctx2.FS.WriteLines("/in/data.txt", []string{"different", "content"})
	_, err := MustCompile(storeScript).Run(ctx2)
	var im *checkpoint.InputMismatchError
	if !errors.As(err, &im) || im.Stage != "store:/out" {
		t.Fatalf("want InputMismatchError for store:/out, got %v", err)
	}
}

func TestStoreOnDFSBackedJournal(t *testing.T) {
	// The journal can live on the simulated DFS itself (same-process
	// resume), exercising the structural Store implementation.
	ckfs := dfs.MustNew(dfs.Config{NumDataNodes: 2, BlockSize: 64, Replication: 1})
	j, err := checkpoint.Open(ckfs, "/ck")
	if err != nil {
		t.Fatal(err)
	}
	ctx := storeContext(t, j, false)
	if _, err := MustCompile(storeScript).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if j.Empty() || j.Stages()[0] != "store:/out" {
		t.Fatalf("journal = %v", j.Stages())
	}
}
