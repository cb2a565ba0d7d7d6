package dfs

import (
	"bytes"
	"strings"
)

// WriteLines stores records joined by newlines at path.
func (fs *FileSystem) WriteLines(path string, lines []string) error {
	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}
	return fs.WriteFile(path, buf.Bytes())
}

// ReadLines returns the newline-separated records of path.
func (fs *FileSystem) ReadLines(path string) ([]string, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, nil
	}
	s := strings.TrimSuffix(string(data), "\n")
	if s == "" {
		return nil, nil
	}
	return strings.Split(s, "\n"), nil
}
