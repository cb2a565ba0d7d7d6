package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
)

// FASTQ support. Modern read archives ship FASTQ (sequence + per-base
// Phred quality); the clustering pipeline accepts either format and drops
// the quality column, so the Record type downstream does not change.

// FastqRecord is one FASTQ entry.
type FastqRecord struct {
	ID          string
	Description string
	Seq         []byte
	// Qual holds Phred+33 encoded qualities, one byte per base.
	Qual []byte
}

// Record converts to a plain FASTA record (quality dropped).
func (r *FastqRecord) Record() Record {
	return Record{ID: r.ID, Description: r.Description, Seq: r.Seq}
}

// Validate checks structural invariants.
func (r *FastqRecord) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("fastq: record has empty ID")
	}
	if len(r.Seq) == 0 {
		return fmt.Errorf("fastq: record %q has empty sequence", r.ID)
	}
	if len(r.Qual) != len(r.Seq) {
		return fmt.Errorf("fastq: record %q has %d qualities for %d bases", r.ID, len(r.Qual), len(r.Seq))
	}
	for i, q := range r.Qual {
		if q < '!' || q > '~' {
			return fmt.Errorf("fastq: record %q has invalid quality byte %q at %d", r.ID, q, i)
		}
	}
	return nil
}

// FastqReader parses FASTQ records.
type FastqReader struct {
	br   *bufio.Reader
	line int
}

// NewFastqReader wraps r.
func NewFastqReader(r io.Reader) *FastqReader {
	return &FastqReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next record or io.EOF.
func (fr *FastqReader) Next() (FastqRecord, error) {
	header, err := fr.nonEmptyLine()
	if err != nil {
		return FastqRecord{}, err
	}
	if !strings.HasPrefix(header, "@") {
		return FastqRecord{}, fmt.Errorf("fastq: line %d: expected '@' header, got %.20q", fr.line, header)
	}
	id, desc := splitHeader(strings.TrimPrefix(header, "@"))
	seq, err := fr.requiredLine("sequence")
	if err != nil {
		return FastqRecord{}, err
	}
	plus, err := fr.requiredLine("'+' separator")
	if err != nil {
		return FastqRecord{}, err
	}
	if !strings.HasPrefix(plus, "+") {
		return FastqRecord{}, fmt.Errorf("fastq: line %d: expected '+', got %.20q", fr.line, plus)
	}
	qual, err := fr.requiredLine("quality")
	if err != nil {
		return FastqRecord{}, err
	}
	rec := FastqRecord{ID: id, Description: desc, Seq: []byte(seq), Qual: []byte(qual)}
	if err := rec.Validate(); err != nil {
		return FastqRecord{}, fmt.Errorf("%w (near line %d)", err, fr.line)
	}
	return rec, nil
}

// nonEmptyLine skips blank lines; io.EOF at end.
func (fr *FastqReader) nonEmptyLine() (string, error) {
	for {
		line, err := fr.br.ReadString('\n')
		if len(line) == 0 && err != nil {
			return "", io.EOF
		}
		fr.line++
		line = strings.TrimRight(line, "\r\n")
		if line != "" {
			return line, nil
		}
		if err != nil {
			return "", io.EOF
		}
	}
}

// requiredLine errors (not EOF) when a record is truncated mid-way.
func (fr *FastqReader) requiredLine(what string) (string, error) {
	line, err := fr.nonEmptyLine()
	if err != nil {
		return "", fmt.Errorf("fastq: line %d: truncated record, missing %s", fr.line, what)
	}
	return line, nil
}

// ReadAllFastq parses every record from r.
func ReadAllFastq(r io.Reader) ([]FastqRecord, error) {
	fr := NewFastqReader(r)
	var recs []FastqRecord
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// FastqToRecords converts FASTQ records to plain records.
func FastqToRecords(recs []FastqRecord) []Record {
	out := make([]Record, len(recs))
	for i := range recs {
		out[i] = recs[i].Record()
	}
	return out
}

// ReadSequencesFile loads either FASTA or FASTQ based on the leading
// byte of the file ('>' vs '@'), returning plain records either way.
func ReadSequencesFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("fasta: %s is empty", path)
	}
	switch first[0] {
	case '>':
		return ReadAll(br)
	case '@':
		fq, err := ReadAllFastq(br)
		if err != nil {
			return nil, err
		}
		return FastqToRecords(fq), nil
	default:
		// Tolerate leading comments/blank lines by falling back to FASTA.
		if bytes.ContainsAny(first, ";\r\n \t") {
			return ReadAll(br)
		}
		return nil, fmt.Errorf("fasta: %s does not look like FASTA or FASTQ", path)
	}
}
