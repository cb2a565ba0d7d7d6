package checkpoint

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// DirStore adapts a local OS directory to the Store interface so the
// CLIs can checkpoint across process lifetimes: the simulated DFS dies
// with the driver, but a --checkpoint-dir on disk survives it, which is
// what makes `mrmcminh --resume` after a driver crash possible. Journal
// paths ("/sketch/data") map to files under the root.
//
// DirStore is the one durable local write path: WriteFile fsyncs the
// file, and Replace renames (atomic on POSIX filesystems) and then
// fsyncs the destination directory. A crash during a WriteFile+Replace
// pair leaves the old file or the new one, never a torn mix, and once
// the pair returns the new file survives a power cut.
type DirStore struct {
	root string
}

// NewDirStore creates (if needed) and wraps the directory root.
func NewDirStore(root string) (*DirStore, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: resolving %q: %w", root, err)
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %q: %w", abs, err)
	}
	return &DirStore{root: abs}, nil
}

// Root returns the absolute root directory.
func (d *DirStore) Root() string { return d.root }

// local maps a journal path to a file under the root, rejecting escapes.
func (d *DirStore) local(path string) (string, error) {
	clean := filepath.Clean("/" + strings.TrimPrefix(path, "/"))
	if clean == "/" {
		return "", fmt.Errorf("checkpoint: empty path")
	}
	return filepath.Join(d.root, filepath.FromSlash(clean)), nil
}

// WriteFile stores data at path, creating parent directories, and
// fsyncs the file before closing it.
func (d *DirStore) WriteFile(path string, data []byte) error {
	p, err := d.local(path)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile returns the contents of path.
func (d *DirStore) ReadFile(path string) ([]byte, error) {
	p, err := d.local(path)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// Exists reports whether path names a regular file.
func (d *DirStore) Exists(path string) bool {
	p, err := d.local(path)
	if err != nil {
		return false
	}
	info, err := os.Stat(p)
	return err == nil && info.Mode().IsRegular()
}

// Replace atomically moves from onto to (os.Rename overwrites), then
// fsyncs the destination directory so the rename itself is durable.
func (d *DirStore) Replace(from, to string) error {
	src, err := d.local(from)
	if err != nil {
		return err
	}
	dst, err := d.local(to)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	if err := os.Rename(src, dst); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(dst))
	if err != nil {
		return err
	}
	if err := dir.Sync(); err != nil {
		dir.Close()
		return err
	}
	return dir.Close()
}

// List returns the journal paths of all regular files under prefix,
// sorted.
func (d *DirStore) List(prefix string) []string {
	var out []string
	_ = filepath.WalkDir(d.root, func(p string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return nil
		}
		rel, rerr := filepath.Rel(d.root, p)
		if rerr != nil {
			return nil
		}
		jp := "/" + filepath.ToSlash(rel)
		if strings.HasPrefix(jp, prefix) {
			out = append(out, jp)
		}
		return nil
	})
	sort.Strings(out)
	return out
}

// Remove deletes path.
func (d *DirStore) Remove(path string) error {
	p, err := d.local(path)
	if err != nil {
		return err
	}
	return os.Remove(p)
}
