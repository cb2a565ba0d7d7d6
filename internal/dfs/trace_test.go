package dfs

import (
	"bytes"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/trace"
)

// TestFileSystemTraceSpans checks block writes and reads each emit a
// span carrying the block's round-robin node, its byte count (a write
// counts every replica) and the path, and that a rename keeps the nodes.
func TestFileSystemTraceSpans(t *testing.T) {
	fs := MustNew(Config{NumDataNodes: 4, BlockSize: 8, Replication: 2})
	rec := trace.New()
	fs.SetTrace(rec)

	data := bytes.Repeat([]byte("x"), 20) // 3 blocks
	if err := fs.WriteFile("/t/file", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Replace("/t/file", "/t/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/t/moved"); err != nil {
		t.Fatal(err)
	}
	wantBytes := []int64{8, 8, 4}
	for kind, factor := range map[trace.Kind]int64{trace.KindDFSWrite: 2, trace.KindDFSRead: 1} {
		spans := spansOf(rec, kind)
		if len(spans) != 3 {
			t.Fatalf("got %d %v spans, want 3", len(spans), kind)
		}
		for i, s := range spans {
			if s.Node != i || s.Bytes != wantBytes[i]*factor {
				t.Fatalf("%v span %d on node %d with %d bytes, want node %d, %d bytes", kind, i, s.Node, s.Bytes, i, wantBytes[i]*factor)
			}
		}
	}
	if r := spansOf(rec, trace.KindDFSRead)[0]; r.Name != "dfs.read.remote" || r.Detail != "/t/moved" {
		t.Fatalf("read span %+v", r)
	}

	// Replication is capped at the datanode count and defaults to 1.
	for repl, want := range map[int]int64{5: 16, 0: 8} {
		fs := MustNew(Config{NumDataNodes: 2, BlockSize: 8, Replication: repl})
		rec := trace.New()
		fs.SetTrace(rec)
		if err := fs.WriteFile("/f", make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		if got := spansOf(rec, trace.KindDFSWrite)[0].Bytes; got != want {
			t.Fatalf("replication %d: write span carries %d bytes, want %d", repl, got, want)
		}
	}
}

// TestFileSystemUntraced ensures the default (no recorder) path works and
// records nothing.
func TestFileSystemUntraced(t *testing.T) {
	fs := MustNew(Config{NumDataNodes: 2, BlockSize: 16, Replication: 1})
	if err := fs.WriteFile("/a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/a"); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyFileSpans: an empty file still takes one (empty) block, so its
// write and its read each emit one zero-byte span.
func TestEmptyFileSpans(t *testing.T) {
	fs := MustNew(Config{NumDataNodes: 2, BlockSize: 16, Replication: 2})
	rec := trace.New()
	fs.SetTrace(rec)
	if err := fs.WriteFile("/empty", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/empty"); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []trace.Kind{trace.KindDFSWrite, trace.KindDFSRead} {
		spans := spansOf(rec, kind)
		if len(spans) != 1 || spans[0].Bytes != 0 || spans[0].Detail != "/empty" {
			t.Fatalf("%v spans of an empty file: %+v", kind, spans)
		}
	}
}

// TestSetTraceSwapsRecorder: SetTrace(nil) detaches the recorder, and a
// newly attached one receives the spans from then on, the old one none.
func TestSetTraceSwapsRecorder(t *testing.T) {
	fs := MustNew(Config{NumDataNodes: 2, BlockSize: 16, Replication: 1})
	first := trace.New()
	fs.SetTrace(first)
	if err := fs.WriteFile("/a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if n := len(first.Spans()); n != 1 {
		t.Fatalf("first recorder holds %d spans, want 1", n)
	}
	fs.SetTrace(nil)
	if _, err := fs.ReadFile("/a"); err != nil {
		t.Fatal(err)
	}
	second := trace.New()
	fs.SetTrace(second)
	if err := fs.WriteFile("/b", []byte("world")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/b"); err != nil {
		t.Fatal(err)
	}
	if n := len(first.Spans()); n != 1 {
		t.Fatalf("detached recorder gained spans: %d", n)
	}
	if got := second.Spans(); len(got) != 2 || got[0].Detail != "/b" || got[1].Detail != "/b" {
		t.Fatalf("second recorder holds %+v, want the write and read of /b", got)
	}
}

// spansOf filters a recorder's spans by kind.
func spansOf(rec *trace.Recorder, kind trace.Kind) []trace.Span {
	var out []trace.Span
	for _, s := range rec.Spans() {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}
