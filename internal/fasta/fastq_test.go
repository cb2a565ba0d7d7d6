package fasta

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleFastq = "@r1 first read\nACGT\n+\nIIII\n@r2\nTTAA\n+\n!!II\n"

func TestFastqReaderBasics(t *testing.T) {
	recs, err := ReadAllFastq(strings.NewReader(sampleFastq))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	r := recs[0]
	if r.ID != "r1" || r.Description != "first read" || string(r.Seq) != "ACGT" || string(r.Qual) != "IIII" {
		t.Fatalf("record %+v", r)
	}
}

func TestFastqReaderErrors(t *testing.T) {
	cases := map[string]string{
		"missing @":       ">r1\nACGT\n+\nIIII\n",
		"missing plus":    "@r1\nACGT\nIIII\nIIII\n",
		"truncated":       "@r1\nACGT\n+\n",
		"length mismatch": "@r1\nACGT\n+\nIII\n",
		"invalid quality": "@r1\nACGT\n+\nII\tI\n",
	}
	for name, src := range cases {
		if _, err := ReadAllFastq(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFastqReaderEOF(t *testing.T) {
	fr := NewFastqReader(strings.NewReader(sampleFastq))
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("err %v, want io.EOF", err)
	}
}

func TestFastqRecordConversion(t *testing.T) {
	fq := []FastqRecord{{ID: "a", Description: "d", Seq: []byte("ACGT"), Qual: []byte("IIII")}}
	recs := FastqToRecords(fq)
	if len(recs) != 1 || recs[0].ID != "a" || string(recs[0].Seq) != "ACGT" {
		t.Fatalf("converted %+v", recs)
	}
}

func TestReadSequencesFileDispatch(t *testing.T) {
	dir := t.TempDir()
	fastaPath := filepath.Join(dir, "reads.fa")
	if err := WriteFile(fastaPath, []Record{{ID: "f", Seq: []byte("ACGT")}}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadSequencesFile(fastaPath)
	if err != nil || len(recs) != 1 || recs[0].ID != "f" {
		t.Fatalf("fasta dispatch: %v %v", recs, err)
	}

	fastqPath := filepath.Join(dir, "reads.fq")
	if err := writeStringFile(fastqPath, sampleFastq); err != nil {
		t.Fatal(err)
	}
	recs, err = ReadSequencesFile(fastqPath)
	if err != nil || len(recs) != 2 || recs[0].ID != "r1" {
		t.Fatalf("fastq dispatch: %v %v", recs, err)
	}

	junkPath := filepath.Join(dir, "junk.txt")
	if err := writeStringFile(junkPath, "not sequences"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSequencesFile(junkPath); err == nil {
		t.Fatal("junk accepted")
	}
	emptyPath := filepath.Join(dir, "empty")
	if err := writeStringFile(emptyPath, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSequencesFile(emptyPath); err == nil {
		t.Fatal("empty file accepted")
	}
	if _, err := ReadSequencesFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// writeStringFile is a tiny test helper.
func writeStringFile(path, content string) error {
	return writeBytesFile(path, []byte(content))
}

// writeBytesFile writes a file for tests.
func writeBytesFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestFastqReaderCRLFAndBlankLines(t *testing.T) {
	src := "\r\n@r1 first\r\nACGT\r\n+\r\nIIII\r\n\r\n\n@r2\r\nTT\r\n+r2\r\n!!"
	recs, err := ReadAllFastq(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if r := recs[0]; r.ID != "r1" || r.Description != "first" || string(r.Seq) != "ACGT" || string(r.Qual) != "IIII" {
		t.Fatalf("record 0 %+v", r)
	}
	if r := recs[1]; r.ID != "r2" || string(r.Seq) != "TT" || string(r.Qual) != "!!" {
		t.Fatalf("record 1 %+v", r)
	}
}

func TestFastqErrorsNameTheLine(t *testing.T) {
	cases := map[string]struct{ src, want string }{
		"quality length": {sampleFastq + "@r3\nACGT\n+\nIII\n", `"r3" has 3 qualities for 4 bases (near line 12)`},
		"truncated":      {sampleFastq + "@r3\nACGT\n", "line 10: truncated record, missing '+' separator"},
		"bad separator":  {sampleFastq + "@r3\nACGT\n-\nIIII\n", "line 11: expected '+'"},
	}
	for name, c := range cases {
		_, err := ReadAllFastq(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to contain %q", name, err, c.want)
		}
	}
}

func TestFastqRecordValidate(t *testing.T) {
	cases := []struct {
		rec  FastqRecord
		want string // "" = valid
	}{
		{FastqRecord{ID: "a", Seq: []byte("AC"), Qual: []byte("!~")}, ""},
		{FastqRecord{ID: "", Seq: []byte("A"), Qual: []byte("I")}, "empty ID"},
		{FastqRecord{ID: "a", Qual: []byte("I")}, "empty sequence"},
		{FastqRecord{ID: "a", Seq: []byte("AC"), Qual: []byte("I")}, "1 qualities for 2 bases"},
		{FastqRecord{ID: "a", Seq: []byte("AC"), Qual: []byte("I ")}, "invalid quality byte ' ' at 1"},
		{FastqRecord{ID: "a", Seq: []byte("AC"), Qual: []byte("\x7fI")}, `invalid quality byte '\x7f' at 0`},
	}
	for i, c := range cases {
		err := c.rec.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("case %d: valid record refused: %v", i, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("case %d: err = %v, want it to contain %q", i, err, c.want)
		}
	}
}

func TestReadAllFastqKeepsRecordsBeforeError(t *testing.T) {
	recs, err := ReadAllFastq(strings.NewReader(sampleFastq + "@bad\nAC\n+\nI\n"))
	if err == nil {
		t.Fatal("malformed third record accepted")
	}
	if len(recs) != 2 || recs[0].ID != "r1" || recs[1].ID != "r2" {
		t.Fatalf("records before the error = %+v", recs)
	}
}

func TestFastqThroughFastaRoundTrip(t *testing.T) {
	fq, err := ReadAllFastq(strings.NewReader(sampleFastq))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteAll(&buf, FastqToRecords(fq)); err != nil {
		t.Fatal(err)
	}
	if want := ">r1 first read\nACGT\n>r2\nTTAA\n"; buf.String() != want {
		t.Fatalf("FASTA %q, want %q", buf.String(), want)
	}
	recs, err := ParseString(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fq {
		if recs[i].ID != fq[i].ID || recs[i].Description != fq[i].Description || recs[i].Len() != len(fq[i].Qual) {
			t.Fatalf("record %d: %+v from %+v", i, recs[i], fq[i])
		}
	}
}
