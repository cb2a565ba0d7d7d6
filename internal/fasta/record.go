// Package fasta provides FASTA parsing, writing and DNA alphabet encoding
// for metagenome sequence reads.
//
// The package corresponds to the paper's FastaStorage and StringGenerator
// user-defined functions: it loads variable-length reads from FASTA text and
// maps the DNA alphabet onto small integers so that downstream k-mer
// extraction can pack subsequences into machine words.
package fasta

import (
	"fmt"
	"strings"
)

// Record is a single FASTA entry: an identifier, an optional free-form
// description (the remainder of the header line), and the sequence bytes.
type Record struct {
	ID          string
	Description string
	Seq         []byte
}

// Len returns the sequence length in bases.
func (r *Record) Len() int { return len(r.Seq) }

// Header reconstructs the full header line content (without the leading '>').
func (r *Record) Header() string {
	if r.Description == "" {
		return r.ID
	}
	return r.ID + " " + r.Description
}

// Validate checks that the record has an ID and that every base is an
// accepted IUPAC nucleotide code (ACGT plus ambiguity codes and N, any case).
func (r *Record) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("fasta: record has empty ID")
	}
	if len(r.Seq) == 0 {
		return fmt.Errorf("fasta: record %q has empty sequence", r.ID)
	}
	for i, b := range r.Seq {
		if !validBase(b) {
			return fmt.Errorf("fasta: record %q has invalid base %q at position %d", r.ID, b, i)
		}
	}
	return nil
}

// validBase reports whether b is an accepted nucleotide character.
func validBase(b byte) bool {
	switch b {
	case 'A', 'C', 'G', 'T', 'U', 'N',
		'a', 'c', 'g', 't', 'u', 'n',
		'R', 'Y', 'S', 'W', 'K', 'M', 'B', 'D', 'H', 'V',
		'r', 'y', 's', 'w', 'k', 'm', 'b', 'd', 'h', 'v':
		return true
	}
	return false
}

// String renders the record in FASTA format with a single sequence line.
func (r *Record) String() string {
	var sb strings.Builder
	sb.WriteByte('>')
	sb.WriteString(r.Header())
	sb.WriteByte('\n')
	sb.Write(r.Seq)
	sb.WriteByte('\n')
	return sb.String()
}
