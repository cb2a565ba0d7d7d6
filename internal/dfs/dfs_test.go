package dfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
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
	fs, err := New(Config{NumDataNodes: 2, BlockSize: 10, Replication: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Config().Replication != 2 {
		t.Fatalf("replication not capped: %d", fs.Config().Replication)
	}
	fs2, _ := New(Config{NumDataNodes: 2, BlockSize: 10, Replication: 0})
	if fs2.Config().Replication != 1 {
		t.Fatalf("replication not defaulted: %d", fs2.Config().Replication)
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
}

func TestWriteSplitsIntoBlocks(t *testing.T) {
	fs := smallFS(t)
	data := make([]byte, 50) // 16-byte blocks -> 4 blocks (16+16+16+2)
	if err := fs.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.Blocks("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(blocks))
	}
	total := 0
	for _, b := range blocks {
		total += b.Len
		if len(b.Replicas) != 2 {
			t.Fatalf("block %v has %d replicas, want 2", b.ID, len(b.Replicas))
		}
	}
	if total != 50 {
		t.Fatalf("block lengths sum to %d", total)
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
	size, err := fs.Stat("/empty")
	if err != nil || size != 0 {
		t.Fatalf("size=%d err=%v", size, err)
	}
}

func TestOverwriteReleasesOldBlocks(t *testing.T) {
	fs := smallFS(t)
	fs.WriteFile("/f", make([]byte, 64))
	before := 0
	for _, dn := range fs.DataNodes() {
		before += dn.NumBlocks()
	}
	fs.WriteFile("/f", make([]byte, 16))
	after := 0
	for _, dn := range fs.DataNodes() {
		after += dn.NumBlocks()
	}
	if after >= before {
		t.Fatalf("overwrite leaked blocks: before=%d after=%d", before, after)
	}
	got, _ := fs.ReadFile("/f")
	if len(got) != 16 {
		t.Fatalf("overwritten file length %d", len(got))
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
	if _, err := fs.Stat("/nope"); err == nil {
		t.Error("Stat on missing file succeeded")
	}
	if err := fs.Remove("/nope"); err == nil {
		t.Error("Remove on missing file succeeded")
	}
	if _, err := fs.Blocks("/nope"); err == nil {
		t.Error("Blocks on missing file succeeded")
	}
	if _, _, err := fs.ReadBlock("/nope", 0, -1); err == nil {
		t.Error("ReadBlock on missing file succeeded")
	}
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
	for _, dn := range fs.DataNodes() {
		if dn.NumBlocks() != 0 {
			t.Fatal("replicas leaked after remove")
		}
	}
}

func TestRename(t *testing.T) {
	fs := smallFS(t)
	fs.WriteFile("/a", []byte("data"))
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") || !fs.Exists("/b") {
		t.Fatal("rename did not move file")
	}
	got, _ := fs.ReadFile("/b")
	if string(got) != "data" {
		t.Fatalf("renamed contents %q", got)
	}
	fs.WriteFile("/c", []byte("x"))
	if err := fs.Rename("/b", "/c"); err == nil {
		t.Fatal("rename over existing file succeeded")
	}
	if err := fs.Rename("/nope", "/d"); err == nil {
		t.Fatal("rename of missing file succeeded")
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

func TestReadBlockLocality(t *testing.T) {
	fs := smallFS(t)
	fs.WriteFile("/f", make([]byte, 16))
	blocks, _ := fs.Blocks("/f")
	holder := blocks[0].Replicas[0]
	nonHolder := -1
	for i := 0; i < fs.Config().NumDataNodes; i++ {
		if !hasReplica(blocks[0], i) {
			nonHolder = i
			break
		}
	}
	fs.ResetStats()
	if _, local, err := fs.ReadBlock("/f", 0, holder); err != nil || !local {
		t.Fatalf("holder read local=%v err=%v", local, err)
	}
	if _, local, err := fs.ReadBlock("/f", 0, nonHolder); err != nil || local {
		t.Fatalf("non-holder read local=%v err=%v", local, err)
	}
	st := fs.Stats()
	if st.LocalReads != 1 || st.RemoteReads != 1 {
		t.Fatalf("stats %+v", st)
	}
	if _, _, err := fs.ReadBlock("/f", 5, -1); err == nil {
		t.Fatal("out of range block accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	fs := smallFS(t)
	fs.WriteFile("/f", make([]byte, 32)) // 2 blocks x 2 replicas
	st := fs.Stats()
	if st.BlocksWritten != 2 || st.BytesWritten != 64 {
		t.Fatalf("write stats %+v", st)
	}
	fs.ReadFile("/f")
	st = fs.Stats()
	if st.BlocksRead != 2 || st.BytesRead != 32 {
		t.Fatalf("read stats %+v", st)
	}
	fs.ResetStats()
	if fs.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero")
	}
}

func TestReplicaBalance(t *testing.T) {
	fs := MustNew(Config{NumDataNodes: 4, BlockSize: 8, Replication: 1})
	fs.WriteFile("/f", make([]byte, 8*8)) // 8 blocks over 4 nodes
	for _, dn := range fs.DataNodes() {
		if dn.NumBlocks() != 2 {
			t.Fatalf("node %d holds %d blocks, want 2 (round-robin)", dn.ID, dn.NumBlocks())
		}
		if dn.UsedBytes() != 16 {
			t.Fatalf("node %d uses %d bytes", dn.ID, dn.UsedBytes())
		}
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
