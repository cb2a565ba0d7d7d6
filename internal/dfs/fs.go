// Package dfs is an in-memory stand-in for the HDFS namespace the paper's
// Pig scripts LOAD their FASTA input from and STORE their clusters to: a
// namenode that maps absolute, slash-rooted paths to file contents.
//
// Each file is stored once. Its block split and the round-robin datanode
// of each block are kept only to label the dfs.read and dfs.write trace
// spans; there are no replicas to lose, and LOAD and STORE add no
// modelled time. The rename operations are atomic under one namenode lock,
// which is what the MapReduce output committer and the checkpoint journal
// build their commit protocols on.
package dfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/metagenomics/mrmcminh/internal/trace"
)

// Config shapes the trace metadata of the simulated file system.
type Config struct {
	// NumDataNodes is the number of simulated storage machines that
	// blocks are assigned to round-robin.
	NumDataNodes int
	// BlockSize is the maximum bytes per block (HDFS default is 64/128 MB;
	// tests use small values to exercise multi-block paths).
	BlockSize int
	// Replication is the number of copies a write span charges per
	// block, capped at NumDataNodes.
	Replication int
}

// DefaultConfig mirrors a small Hadoop deployment: 4 datanodes, 64 KiB
// blocks (scaled down from 64 MiB so unit tests split files), 3 replicas.
var DefaultConfig = Config{NumDataNodes: 4, BlockSize: 64 * 1024, Replication: 3}

// FileSystem is the namenode: every path with its contents.
type FileSystem struct {
	mu       sync.RWMutex
	cfg      Config
	files    map[string]file
	nextNode int             // datanode of the next block written
	trace    *trace.Recorder // nil = tracing disabled
}

// file is one stored file: its bytes and the datanode of each block.
type file struct {
	data  []byte
	nodes []int
}

// New creates a file system with the given configuration.
func New(cfg Config) (*FileSystem, error) {
	if cfg.NumDataNodes < 1 {
		return nil, fmt.Errorf("dfs: need at least one datanode, got %d", cfg.NumDataNodes)
	}
	if cfg.BlockSize < 1 {
		return nil, fmt.Errorf("dfs: block size must be positive, got %d", cfg.BlockSize)
	}
	cfg.Replication = max(1, min(cfg.Replication, cfg.NumDataNodes))
	return &FileSystem{cfg: cfg, files: make(map[string]file)}, nil
}

// MustNew is New panicking on error.
func MustNew(cfg Config) *FileSystem {
	fs, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return fs
}

// SetTrace attaches a span recorder: every block read and block write
// emits one event. Pass nil to disable (the default); a disabled recorder
// costs nothing on the I/O paths.
func (fs *FileSystem) SetTrace(r *trace.Recorder) {
	fs.mu.Lock()
	fs.trace = r
	fs.mu.Unlock()
}

// WriteFile stores a copy of data at path, replacing any existing file.
// An empty file still takes one (empty) block.
func (fs *FileSystem) WriteFile(path string, data []byte) error {
	if err := validPath(path); err != nil {
		return err
	}
	f := file{data: append([]byte(nil), data...)}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for off := 0; off == 0 || off < len(data); off += fs.cfg.BlockSize {
		n := min(fs.cfg.BlockSize, len(data)-off)
		f.nodes = append(f.nodes, fs.nextNode)
		fs.emit(trace.KindDFSWrite, "dfs.write", fs.nextNode, n*fs.cfg.Replication, path)
		fs.nextNode = (fs.nextNode + 1) % fs.cfg.NumDataNodes
	}
	fs.files[path] = f
	return nil
}

// ReadFile returns a copy of the contents of path. Each block is read
// from its datanode by a client outside the cluster, so its span is named
// dfs.read.remote.
func (fs *FileSystem) ReadFile(path string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", path)
	}
	for i, node := range f.nodes {
		fs.emit(trace.KindDFSRead, "dfs.read.remote", node, min(fs.cfg.BlockSize, len(f.data)-i*fs.cfg.BlockSize), path)
	}
	return append([]byte(nil), f.data...), nil
}

// emit records one block's span; the caller holds fs.mu.
func (fs *FileSystem) emit(kind trace.Kind, name string, node, bytes int, path string) {
	if !fs.trace.Enabled() {
		return
	}
	fs.trace.Emit(trace.Span{
		Kind:   kind,
		Name:   name,
		Node:   node,
		Bytes:  int64(bytes),
		Detail: path,
		VStart: fs.trace.VirtualNow(),
		RStart: fs.trace.RealNow(),
	})
}

// Exists reports whether path exists.
func (fs *FileSystem) Exists(path string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[path]
	return ok
}

// Remove deletes path. Removing a missing file is an error.
func (fs *FileSystem) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("dfs: no such file %q", path)
	}
	delete(fs.files, path)
	return nil
}

// Replace moves a file onto a possibly-existing destination in one
// metadata step: the namenode swaps the path binding under a single
// lock, so readers see either the old file or the new one, never a mix.
// This is the rename-atomicity primitive the output committer and the
// checkpoint journal rely on.
func (fs *FileSystem) Replace(from, to string) error {
	if err := validPath(to); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[from]
	if !ok {
		return fmt.Errorf("dfs: no such file %q", from)
	}
	delete(fs.files, from)
	fs.files[to] = f
	return nil
}

// RenameDir atomically moves every file under the directory fromPrefix to
// the same relative path under toPrefix. The whole move happens under one
// namenode lock — a concurrent List sees either none or all of the moved
// files — which makes directory rename a valid commit operation. Existing
// files at destination paths are replaced.
func (fs *FileSystem) RenameDir(fromPrefix, toPrefix string) error {
	if err := validPath(fromPrefix); err != nil {
		return err
	}
	if err := validPath(toPrefix); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var moved []string
	for p := range fs.files {
		if strings.HasPrefix(p, fromPrefix+"/") {
			moved = append(moved, p)
		}
	}
	if len(moved) == 0 {
		return fmt.Errorf("dfs: no files under %q", fromPrefix)
	}
	sort.Strings(moved)
	for _, p := range moved {
		fs.files[toPrefix+strings.TrimPrefix(p, fromPrefix)] = fs.files[p]
		delete(fs.files, p)
	}
	return nil
}

// RemoveAll deletes every file under the directory prefix (and prefix
// itself if it names a file), returning how many files were dropped.
// Removing nothing is not an error: STORE calls this on a staging tree
// its commit rename has already emptied.
func (fs *FileSystem) RemoveAll(prefix string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for p := range fs.files {
		if p == prefix || strings.HasPrefix(p, prefix+"/") {
			delete(fs.files, p)
			n++
		}
	}
	return n
}

// List returns all paths with the given prefix, sorted.
func (fs *FileSystem) List(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// ListOutputs returns the visible output files under dir, sorted: paths
// whose relative part contains a segment starting with "_" or "." are
// hidden, matching Hadoop's convention that `_temporary` staging trees,
// `_SUCCESS` markers and dot-files are invisible to downstream readers.
func (fs *FileSystem) ListOutputs(dir string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if !strings.HasPrefix(p, dir+"/") {
			continue
		}
		rel := strings.TrimPrefix(p, dir+"/")
		hidden := false
		for _, seg := range strings.Split(rel, "/") {
			if strings.HasPrefix(seg, "_") || strings.HasPrefix(seg, ".") {
				hidden = true
				break
			}
		}
		if !hidden {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// validPath enforces absolute, slash-rooted HDFS-style paths.
func validPath(path string) error {
	if path == "" || !strings.HasPrefix(path, "/") {
		return fmt.Errorf("dfs: path must be absolute, got %q", path)
	}
	if strings.Contains(path, "//") || strings.HasSuffix(path, "/") {
		return fmt.Errorf("dfs: malformed path %q", path)
	}
	return nil
}
