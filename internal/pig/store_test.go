package pig

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// storedFiles returns every path under dir, staging and marker included,
// and the bytes of dir's part file.
func storedFiles(t *testing.T, ctx *Context, dir string) ([]string, string) {
	t.Helper()
	data, err := ctx.FS.ReadFile(dir + "/part-00000")
	if err != nil {
		t.Fatal(err)
	}
	return ctx.FS.List(dir + "/"), string(data)
}

func TestStoreDiscardsStaleStaging(t *testing.T) {
	ctx := storeContext(t, nil, false)
	// Leftovers of an earlier driver that died mid-STORE: its own attempt
	// directory and another attempt's.
	for _, p := range []string{"/out/_temporary/attempt_0_0/part-00000", "/out/_temporary/attempt_0_1/part-00000"} {
		if err := ctx.FS.WriteFile(p, []byte("partial junk")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MustCompile(storeScript).Run(ctx); err != nil {
		t.Fatal(err)
	}
	files, data := storedFiles(t, ctx, "/out")
	if want := []string{"/out/_SUCCESS", "/out/part-00000"}; !reflect.DeepEqual(files, want) {
		t.Fatalf("files under /out = %v, want %v", files, want)
	}
	if data != "HELLO WORLD\nFOO\n" {
		t.Fatalf("stored %q", data)
	}
}

func TestStoreReplacesEarlierOutput(t *testing.T) {
	ctx := storeContext(t, nil, false)
	if _, err := MustCompile(storeScript).Run(ctx); err != nil {
		t.Fatal(err)
	}
	ctx.FS.WriteLines("/in/data.txt", []string{"bar"})
	if _, err := MustCompile(storeScript).Run(ctx); err != nil {
		t.Fatal(err)
	}
	files, data := storedFiles(t, ctx, "/out")
	if want := []string{"/out/_SUCCESS", "/out/part-00000"}; !reflect.DeepEqual(files, want) {
		t.Fatalf("files under /out = %v, want %v", files, want)
	}
	if data != "BAR\n" {
		t.Fatalf("second STORE left %q", data)
	}
}

func TestStoreCommitSpansPerStatement(t *testing.T) {
	ctx := storeContext(t, nil, false)
	rec := trace.New()
	ctx.Engine.Trace = rec
	script := MustCompile(`
A = LOAD '$IN';
B = FOREACH A GENERATE ToUpper(line) AS up;
STORE A INTO '/raw';
STORE B INTO '/upper';
`)
	if _, err := script.Run(ctx); err != nil {
		t.Fatal(err)
	}
	var commits []string
	for _, sp := range rec.Spans() {
		if sp.Kind == trace.KindCommit {
			commits = append(commits, sp.Name+" "+sp.Detail)
		}
	}
	want := []string{
		"commit.task[0] /raw attempt 0", "commit.job /raw",
		"commit.task[0] /upper attempt 0", "commit.job /upper",
	}
	if !reflect.DeepEqual(commits, want) {
		t.Fatalf("commit spans %q, want %q", commits, want)
	}
	for dir, want := range map[string]string{"/raw": "hello world\nfoo\n", "/upper": "HELLO WORLD\nFOO\n"} {
		if _, data := storedFiles(t, ctx, dir); data != want {
			t.Errorf("%s holds %q, want %q", dir, data, want)
		}
	}
}

func TestStoreRejectsMalformedPath(t *testing.T) {
	for name, out := range map[string]string{"relative": "out", "trailing slash": "/out/"} {
		t.Run(name, func(t *testing.T) {
			ctx := storeContext(t, nil, false)
			ctx.Params["OUT"] = out
			_, err := MustCompile(storeScript).Run(ctx)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line 4: storing %q", out)) {
				t.Fatalf("err = %v, want a line-4 storing error", err)
			}
			if got := ctx.FS.List("/"); !reflect.DeepEqual(got, []string{"/in/data.txt"}) {
				t.Fatalf("a refused STORE wrote %v", got)
			}
		})
	}
}

func TestDriverCrashAfterStoreLeavesCommittedOutput(t *testing.T) {
	ctx := storeContext(t, nil, false)
	ctx.Engine.Faults = faults.MustNew(faults.Plan{
		DriverCrashes: []faults.DriverCrash{{AfterStage: "store:/out"}},
	})
	_, err := MustCompile(storeScript).Run(ctx)
	var dce *faults.DriverCrashError
	if !errors.As(err, &dce) {
		t.Fatalf("planned crash: got %v", err)
	}
	// The crash point follows the commit, so the output is whole.
	files, data := storedFiles(t, ctx, "/out")
	if want := []string{"/out/_SUCCESS", "/out/part-00000"}; !reflect.DeepEqual(files, want) {
		t.Fatalf("files under /out = %v, want %v", files, want)
	}
	if data != "HELLO WORLD\nFOO\n" {
		t.Fatalf("stored %q", data)
	}
}
