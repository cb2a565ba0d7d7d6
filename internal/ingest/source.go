package ingest

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"

	"github.com/metagenomics/mrmcminh/internal/fasta"
)

// seqStream abstracts the two on-disk formats behind one Next call.
type seqStream interface {
	next() (Record, error)
}

type fastaStream struct{ r *fasta.Reader }

func (s fastaStream) next() (Record, error) {
	rec, err := s.r.Next()
	if err != nil {
		return Record{}, err
	}
	return Record{ID: rec.ID, Seq: rec.Seq}, nil
}

type fastqStream struct{ r *fasta.FastqReader }

func (s fastqStream) next() (Record, error) {
	rec, err := s.r.Next()
	if err != nil {
		return Record{}, err
	}
	return Record{ID: rec.ID, Seq: rec.Seq}, nil
}

// sniffStream dispatches on the leading byte ('>' FASTA, '@' FASTQ),
// the same convention as fasta.ReadSequencesFile, but streaming: records
// are decoded one Next at a time instead of loaded wholesale.
func sniffStream(r io.Reader, name string) (seqStream, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("ingest: %s is empty", name)
	}
	switch first[0] {
	case '@':
		return fastqStream{fasta.NewFastqReader(br)}, nil
	case '>', ';', '\r', '\n', ' ', '\t':
		return fastaStream{fasta.NewReader(br)}, nil
	default:
		return nil, fmt.Errorf("ingest: %s does not look like FASTA or FASTQ", name)
	}
}

// FileSource streams reads from a FASTA or FASTQ file without loading
// it into memory.
type FileSource struct {
	f      *os.File
	stream seqStream
}

// OpenFile opens path and sniffs its format from the first byte.
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	stream, err := sniffStream(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSource{f: f, stream: stream}, nil
}

// Next returns the next record or io.EOF.
func (s *FileSource) Next(ctx context.Context) (Record, error) {
	if err := ctx.Err(); err != nil {
		return Record{}, err
	}
	return s.stream.next()
}

// Close releases the underlying file.
func (s *FileSource) Close() error { return s.f.Close() }

// HTTPSource streams reads from a remote FASTA/FASTQ endpoint. A broken
// connection surfaces as a transient error from Next; the next call
// reconnects and skips the records already delivered, so the Ingester's
// retry loop resumes exactly where the stream tore.
type HTTPSource struct {
	url    string
	client *http.Client

	body      io.ReadCloser
	stream    seqStream
	delivered int64 // records handed out across all connections
}

// OpenHTTP prepares a source for url; the first connection is made
// lazily on Next. client may be nil for http.DefaultClient.
func OpenHTTP(url string, client *http.Client) *HTTPSource {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPSource{url: url, client: client}
}

func (s *HTTPSource) connect(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("ingest: GET %s: %s", s.url, resp.Status)
	}
	stream, err := sniffStream(resp.Body, s.url)
	if err != nil {
		resp.Body.Close()
		return err
	}
	// Skip past the records a previous connection already delivered. The
	// endpoint must serve a stable prefix (same records in the same
	// order), which holds for static files and append-only feeds.
	for skipped := int64(0); skipped < s.delivered; skipped++ {
		if _, err := stream.next(); err != nil {
			resp.Body.Close()
			return fmt.Errorf("ingest: reconnect skip %d/%d: %w", skipped, s.delivered, err)
		}
	}
	s.body, s.stream = resp.Body, stream
	return nil
}

// Next returns the next record, reconnecting if the previous connection
// failed. Connection and mid-stream errors are transient: the caller's
// retry loop calls Next again and resumes from the tear point.
func (s *HTTPSource) Next(ctx context.Context) (Record, error) {
	if err := ctx.Err(); err != nil {
		return Record{}, err
	}
	if s.stream == nil {
		if err := s.connect(ctx); err != nil {
			return Record{}, err
		}
	}
	rec, err := s.stream.next()
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil {
		// Drop the torn connection; the retried Next reconnects.
		s.body.Close()
		s.body, s.stream = nil, nil
		return Record{}, err
	}
	s.delivered++
	return rec, nil
}

// Close releases any live connection.
func (s *HTTPSource) Close() error {
	if s.body != nil {
		err := s.body.Close()
		s.body, s.stream = nil, nil
		return err
	}
	return nil
}
