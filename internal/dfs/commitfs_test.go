package dfs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Tests for the rename-atomicity primitives the output committer and the
// checkpoint journal build on.

func TestReplaceOverwritesDestination(t *testing.T) {
	fs := smallFS(t)
	if err := fs.WriteFile("/old", []byte("old bytes")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/staged", []byte("new bytes")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Replace("/staged", "/old"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/staged") {
		t.Fatal("source survived Replace")
	}
	got, err := fs.ReadFile("/old")
	if err != nil || string(got) != "new bytes" {
		t.Fatalf("destination = %q, %v", got, err)
	}
	if err := fs.Replace("/missing", "/old"); err == nil {
		t.Fatal("Replace of a missing source succeeded")
	}
}

func TestRenameDirMovesWholeTree(t *testing.T) {
	fs := smallFS(t)
	files := map[string]string{
		"/out/_temporary/attempt_0_1/part-00000":     "p0",
		"/out/_temporary/attempt_0_1/sub/part-00001": "p1",
	}
	for p, d := range files {
		if err := fs.WriteFile(p, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-existing destination files are replaced, not duplicated.
	if err := fs.WriteFile("/out/part-00000", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := fs.RenameDir("/out/_temporary/attempt_0_1", "/out"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/out/part-00000")
	if err != nil || string(got) != "p0" {
		t.Fatalf("promoted part = %q, %v", got, err)
	}
	if data, err := fs.ReadFile("/out/sub/part-00001"); err != nil || string(data) != "p1" {
		t.Fatalf("nested part = %q, %v", data, err)
	}
	if got := fs.List("/out/_temporary"); len(got) != 0 {
		t.Fatalf("staging survived: %v", got)
	}
	// Renaming an empty directory is a protocol violation, not a no-op.
	if err := fs.RenameDir("/out/_temporary/attempt_9_9", "/out"); err == nil {
		t.Fatal("RenameDir of an empty prefix succeeded")
	}
}

func TestRemoveAllCountsAndTolerates(t *testing.T) {
	fs := smallFS(t)
	for _, p := range []string{"/d/a", "/d/b/c", "/d2/x"} {
		if err := fs.WriteFile(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := fs.RemoveAll("/d"); n != 2 {
		t.Fatalf("RemoveAll removed %d, want 2", n)
	}
	if fs.Exists("/d/a") || !fs.Exists("/d2/x") {
		t.Fatal("RemoveAll scope wrong")
	}
	// Prefix matching is per-segment: /d2 must not match /d.
	if n := fs.RemoveAll("/d"); n != 0 {
		t.Fatalf("second RemoveAll removed %d", n)
	}
}

func TestListOutputsHidesUnderscoreAndDotSegments(t *testing.T) {
	fs := smallFS(t)
	visible := []string{"/out/part-00000", "/out/part-00001", "/out/nested/part-00002"}
	hidden := []string{
		"/out/_SUCCESS",
		"/out/_temporary/attempt_1_1/part-00000",
		"/out/.part-00003.tmp",
		"/out/nested/_logs/history",
	}
	for _, p := range append(append([]string{}, visible...), hidden...) {
		if err := fs.WriteFile(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.ListOutputs("/out")
	if len(got) != len(visible) {
		t.Fatalf("ListOutputs = %v", got)
	}
	want := map[string]bool{}
	for _, p := range visible {
		want[p] = true
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("hidden path leaked: %s", p)
		}
	}
}

func TestMovesRefuseMalformedPaths(t *testing.T) {
	fs := smallFS(t)
	for _, p := range []string{"/a", "/d/x"} {
		if err := fs.WriteFile(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []string{"", "relative", "/a//b", "/trailing/"} {
		if err := fs.Replace("/a", bad); err == nil {
			t.Errorf("Replace to %q accepted", bad)
		}
		if err := fs.RenameDir("/d", bad); err == nil {
			t.Errorf("RenameDir to %q accepted", bad)
		}
		if err := fs.RenameDir(bad, "/e"); err == nil {
			t.Errorf("RenameDir from %q accepted", bad)
		}
	}
	if got := fs.List("/"); len(got) != 2 || got[0] != "/a" || got[1] != "/d/x" {
		t.Fatalf("refused moves changed the namespace: %v", got)
	}
}

// TestRenameDirIsAtomicToConcurrentList: a List racing a directory commit
// sees every file on one side of it, never some staged and some promoted.
func TestRenameDirIsAtomicToConcurrentList(t *testing.T) {
	fs := smallFS(t)
	const parts = 64
	for i := 0; i < parts; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/out/_temporary/attempt_0_1/part-%05d", i), []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var listing, wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		listing.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; ; first = false {
				paths := fs.List("/out/")
				if first {
					listing.Done()
				}
				staged, promoted := 0, 0
				for _, p := range paths {
					if strings.HasPrefix(p, "/out/_temporary/") {
						staged++
					} else {
						promoted++
					}
				}
				if (staged != parts || promoted != 0) && (staged != 0 || promoted != parts) {
					errs <- fmt.Errorf("saw %d staged and %d promoted parts", staged, promoted)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	listing.Wait()
	if err := fs.RenameDir("/out/_temporary/attempt_0_1", "/out"); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := fs.ListOutputs("/out"); len(got) != parts {
		t.Fatalf("%d parts promoted, want %d", len(got), parts)
	}
}

// TestReplaceIsAtomicToConcurrentReaders: a reader of a file that is
// rewritten by write-then-Replace, as the checkpoint journal does, sees
// one whole version or the other, never a missing file.
func TestReplaceIsAtomicToConcurrentReaders(t *testing.T) {
	fs := smallFS(t)
	versions := [2][]byte{bytes.Repeat([]byte("a"), 40), bytes.Repeat([]byte("b"), 40)} // three blocks each
	if err := fs.WriteFile("/ck/journal", versions[0]); err != nil {
		t.Fatal(err)
	}
	done, reading := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		for first := true; ; first = false {
			got, err := fs.ReadFile("/ck/journal")
			if first {
				close(reading)
			}
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, versions[0]) && !bytes.Equal(got, versions[1]) {
				errs <- fmt.Errorf("read a mix: %q", got)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	<-reading
	for i := 1; i <= 200; i++ {
		if err := fs.WriteFile("/ck/journal.tmp", versions[i%2]); err != nil {
			t.Fatal(err)
		}
		if err := fs.Replace("/ck/journal.tmp", "/ck/journal"); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	for err := range errs {
		t.Fatal(err)
	}
	if got, err := fs.ReadFile("/ck/journal"); err != nil || !bytes.Equal(got, versions[0]) || fs.Exists("/ck/journal.tmp") {
		t.Fatalf("journal after the last Replace = %q, %v", got, err)
	}
}
