package dfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/trace"
)

func smallFS(t *testing.T) *FileSystem {
	t.Helper()
	fs, err := New(Config{NumDataNodes: 4, BlockSize: 16, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumDataNodes: 0, BlockSize: 10}); err == nil {
		t.Error("0 datanodes accepted")
	}
	if _, err := New(Config{NumDataNodes: 1, BlockSize: 0}); err == nil {
		t.Error("0 block size accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := smallFS(t)
	data := []byte("The quick brown fox jumps over the lazy dog, twice over.")
	if err := fs.WriteFile("/in/reads.fa", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/in/reads.fa")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
	// The file system keeps its own copy, and each reader gets another.
	data[0], got[1] = 'X', 'X'
	if again, _ := fs.ReadFile("/in/reads.fa"); string(again[:3]) != "The" {
		t.Fatalf("stored copy changed through a caller's slice: %q", again)
	}
	if err := fs.WriteFile("/in/reads.fa", []byte("short")); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile("/in/reads.fa"); string(got) != "short" {
		t.Fatalf("overwritten file reads %q", got)
	}
}

// TestWriteSplitsIntoBlocks: a file is labelled as BlockSize-byte blocks,
// one write span each, charged once per replica.
func TestWriteSplitsIntoBlocks(t *testing.T) {
	fs := smallFS(t)
	rec := trace.New()
	fs.SetTrace(rec)
	data := make([]byte, 50) // 16-byte blocks -> 4 blocks (16+16+16+2)
	if err := fs.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	writes := spansOf(rec, trace.KindDFSWrite)
	if len(writes) != 4 {
		t.Fatalf("got %d block writes, want 4", len(writes))
	}
	var total int64
	for i, s := range writes {
		if want := int64(min(16, 50-16*i) * 2); s.Bytes != want {
			t.Fatalf("block %d charged %d bytes, want %d (2 replicas)", i, s.Bytes, want)
		}
		if s.Name != "dfs.write" || s.Detail != "/f" {
			t.Fatalf("block %d span %+v", i, s)
		}
		total += s.Bytes
	}
	if total != 100 {
		t.Fatalf("block writes charge %d bytes, want 100", total)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := smallFS(t)
	if err := fs.WriteFile("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file read %q", got)
	}
}

// TestOverwriteReleasesOldBlocks: an overwrite drops the old file's
// blocks, so a read of the new contents spans only the new blocks.
func TestOverwriteReleasesOldBlocks(t *testing.T) {
	fs := smallFS(t)
	rec := trace.New()
	fs.SetTrace(rec)
	if err := fs.WriteFile("/f", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil || len(got) != 16 {
		t.Fatalf("overwritten file length %d, %v", len(got), err)
	}
	writes, reads := spansOf(rec, trace.KindDFSWrite), spansOf(rec, trace.KindDFSRead)
	if len(writes) != 5 || len(reads) != 1 {
		t.Fatalf("%d block writes and %d block reads, want 5 and 1", len(writes), len(reads))
	}
	if reads[0].Node != writes[4].Node || reads[0].Bytes != 16 {
		t.Fatalf("read %+v, want the overwrite's block on node %d", reads[0], writes[4].Node)
	}
}

func TestPathValidation(t *testing.T) {
	fs := smallFS(t)
	for _, bad := range []string{"", "relative", "/a//b", "/trailing/"} {
		if err := fs.WriteFile(bad, nil); err == nil {
			t.Errorf("path %q accepted", bad)
		}
	}
}

func TestMissingFileErrors(t *testing.T) {
	fs := smallFS(t)
	if _, err := fs.ReadFile("/nope"); err == nil {
		t.Error("ReadFile on missing file succeeded")
	}
	if err := fs.Remove("/nope"); err == nil {
		t.Error("Remove on missing file succeeded")
	}
	if _, err := fs.ReadLines("/nope"); err == nil {
		t.Error("ReadLines on missing file succeeded")
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew accepted 0 datanodes")
		}
	}()
	MustNew(Config{NumDataNodes: 0, BlockSize: 16})
}

func TestRemove(t *testing.T) {
	fs := smallFS(t)
	fs.WriteFile("/f", []byte("data"))
	if !fs.Exists("/f") {
		t.Fatal("file should exist")
	}
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/f") {
		t.Fatal("file should be gone")
	}
}

func TestList(t *testing.T) {
	fs := smallFS(t)
	fs.WriteFile("/out/part-0", nil)
	fs.WriteFile("/out/part-1", nil)
	fs.WriteFile("/other", nil)
	got := fs.List("/out/")
	if len(got) != 2 || got[0] != "/out/part-0" || got[1] != "/out/part-1" {
		t.Fatalf("List = %v", got)
	}
}

// TestReadBlockLocality: each block is read from the datanode it was
// written to, after later writes moved the round-robin on and after the
// file was moved by Replace or RenameDir.
func TestReadBlockLocality(t *testing.T) {
	fs := smallFS(t)
	rec := trace.New()
	fs.SetTrace(rec)
	for _, w := range []struct {
		path string
		size int
	}{{"/a", 40}, {"/d/b", 20}, {"/d/c", 16}} { // blocks on nodes 0,1,2 | 3,0 | 1
		if err := fs.WriteFile(w.path, make([]byte, w.size)); err != nil {
			t.Fatal(err)
		}
	}
	written := map[string][]int{}
	for _, s := range spansOf(rec, trace.KindDFSWrite) {
		written[s.Detail] = append(written[s.Detail], s.Node)
	}
	if err := fs.Replace("/a", "/moved/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RenameDir("/d", "/e"); err != nil {
		t.Fatal(err)
	}
	for from, to := range map[string]string{"/a": "/moved/a", "/d/b": "/e/b", "/d/c": "/e/c"} {
		before := len(rec.Spans())
		if _, err := fs.ReadFile(to); err != nil {
			t.Fatal(err)
		}
		var read []int
		for _, s := range rec.Spans()[before:] {
			read = append(read, s.Node)
		}
		if fmt.Sprint(read) != fmt.Sprint(written[from]) {
			t.Fatalf("%s read from nodes %v, written to %v", to, read, written[from])
		}
	}
}

// TestReplicaBalance: blocks go to the datanodes round-robin, and the
// rotation carries on from one file to the next.
func TestReplicaBalance(t *testing.T) {
	fs := MustNew(Config{NumDataNodes: 4, BlockSize: 8, Replication: 1})
	rec := trace.New()
	fs.SetTrace(rec)
	for _, size := range []int{8 * 8, 8 * 3, 5} { // 8 + 3 + 1 blocks
		if err := fs.WriteFile(fmt.Sprintf("/f%d", size), make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	blocks, held := make([]int, 4), make([]int64, 4)
	for _, s := range spansOf(rec, trace.KindDFSWrite) {
		blocks[s.Node]++
		held[s.Node] += s.Bytes
	}
	for node := range blocks {
		if blocks[node] != 3 {
			t.Fatalf("node %d holds %d blocks, want 3 (round-robin): %v", node, blocks[node], blocks)
		}
	}
	if total := held[0] + held[1] + held[2] + held[3]; total != 64+24+5 {
		t.Fatalf("nodes hold %v bytes, %d in all", held, total)
	}
}

func TestWriteLinesReadLines(t *testing.T) {
	fs := smallFS(t)
	lines := []string{"alpha", "beta", "gamma delta"}
	if err := fs.WriteLines("/l", lines); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadLines("/l")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != "gamma delta" {
		t.Fatalf("ReadLines = %v", got)
	}
	fs.WriteLines("/e", nil)
	if got, _ := fs.ReadLines("/e"); len(got) != 0 {
		t.Fatalf("empty ReadLines = %v", got)
	}
}

func TestConcurrentReadsAndWrites(t *testing.T) {
	fs := MustNew(Config{NumDataNodes: 4, BlockSize: 64, Replication: 2})
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				path := fmt.Sprintf("/w%d/f%d", w, i)
				data := make([]byte, rng.Intn(256))
				if err := fs.WriteFile(path, data); err != nil {
					done <- err
					return
				}
				got, err := fs.ReadFile(path)
				if err != nil {
					done <- err
					return
				}
				if len(got) != len(data) {
					done <- fmt.Errorf("length mismatch")
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
