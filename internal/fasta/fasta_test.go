package fasta

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestReaderSingleRecord(t *testing.T) {
	recs, err := ParseString(">r1 sample read\nACGT\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.ID != "r1" || r.Description != "sample read" || string(r.Seq) != "ACGT" {
		t.Fatalf("unexpected record %+v", r)
	}
}

func TestReaderMultiLineSequence(t *testing.T) {
	recs, err := ParseString(">r1\nACGT\nTTAA\nGG\n>r2\nCCCC\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if string(recs[0].Seq) != "ACGTTTAAGG" {
		t.Fatalf("r1 seq = %q", recs[0].Seq)
	}
	if string(recs[1].Seq) != "CCCC" {
		t.Fatalf("r2 seq = %q", recs[1].Seq)
	}
}

func TestReaderCRLFAndComments(t *testing.T) {
	recs, err := ParseString("; a comment\r\n>r1 desc here\r\nAC\r\nGT\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Seq) != "ACGT" {
		t.Fatalf("unexpected records %+v", recs)
	}
	if recs[0].Description != "desc here" {
		t.Fatalf("desc = %q", recs[0].Description)
	}
}

func TestReaderBlankLines(t *testing.T) {
	recs, err := ParseString("\n\n>r1\n\nACGT\n\n>r2\nTT\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

func TestReaderMissingHeaderFails(t *testing.T) {
	_, err := ParseString("ACGT\n")
	if err == nil {
		t.Fatal("expected error for missing header")
	}
}

func TestReaderEmptySequenceFails(t *testing.T) {
	_, err := ParseString(">r1\n>r2\nACGT\n")
	if err == nil {
		t.Fatal("expected error for empty sequence")
	}
}

func TestReaderEOFWithoutTrailingNewline(t *testing.T) {
	recs, err := ParseString(">r1\nACGT")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Seq) != "ACGT" {
		t.Fatalf("unexpected records %+v", recs)
	}
}

func TestReaderEmptyInput(t *testing.T) {
	recs, err := ParseString("")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("got %d records, want 0", len(recs))
	}
}

func TestNextReturnsEOF(t *testing.T) {
	fr := NewReader(strings.NewReader(">a\nAC\n"))
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("got err %v, want io.EOF", err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	in := []Record{
		{ID: "a", Description: "first", Seq: []byte("ACGTACGTACGT")},
		{ID: "b", Seq: []byte(strings.Repeat("ACGT", 50))},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || !bytes.Equal(out[i].Seq, in[i].Seq) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
}

func TestWriterWrapsLines(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(&buf)
	fw.Width = 4
	if err := fw.Write(Record{ID: "x", Seq: []byte("ACGTACGTAC")}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	want := ">x\nACGT\nACGT\nAC\n"
	if buf.String() != want {
		t.Fatalf("got %q want %q", buf.String(), want)
	}
}

func TestReadWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fa")
	in := []Record{{ID: "r1", Seq: []byte("ACGTN")}}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || string(out[0].Seq) != "ACGTN" {
		t.Fatalf("unexpected %+v", out)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		rec Record
		ok  bool
	}{
		{Record{ID: "a", Seq: []byte("ACGT")}, true},
		{Record{ID: "a", Seq: []byte("acgtn")}, true},
		{Record{ID: "a", Seq: []byte("ACRYSWKMBDHVN")}, true},
		{Record{ID: "", Seq: []byte("ACGT")}, false},
		{Record{ID: "a", Seq: nil}, false},
		{Record{ID: "a", Seq: []byte("ACX")}, false},
		{Record{ID: "a", Seq: []byte("AC GT")}, false},
	}
	for i, c := range cases {
		err := c.rec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() err=%v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestHeaderAndString(t *testing.T) {
	r := Record{ID: "id", Description: "desc", Seq: []byte("AC")}
	if r.Header() != "id desc" {
		t.Fatalf("header %q", r.Header())
	}
	if r.String() != ">id desc\nAC\n" {
		t.Fatalf("string %q", r.String())
	}
	r2 := Record{ID: "id", Seq: []byte("AC")}
	if r2.Header() != "id" {
		t.Fatalf("header %q", r2.Header())
	}
}

func TestBaseCode(t *testing.T) {
	for i, want := range map[byte]int8{'A': 0, 'C': 1, 'G': 2, 'T': 3, 'a': 0, 't': 3, 'U': 3, 'N': -1, 'X': -1} {
		if got := BaseCode(i); got != want {
			t.Errorf("BaseCode(%q) = %d, want %d", i, got, want)
		}
	}
}

func TestReverseComplement(t *testing.T) {
	got := ReverseComplement([]byte("ACGTN"))
	if string(got) != "NACGT" {
		t.Fatalf("ReverseComplement = %q", got)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = "ACGT"[int(b)%4]
		}
		return string(ReverseComplement(ReverseComplement(seq))) == string(seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGCContent(t *testing.T) {
	cases := []struct {
		seq  string
		want float64
	}{
		{"GGCC", 1},
		{"AATT", 0},
		{"ACGT", 0.5},
		{"NNNN", 0},
		{"GCNN", 1},
		{"", 0},
	}
	for _, c := range cases {
		if got := GCContent([]byte(c.seq)); got != c.want {
			t.Errorf("GCContent(%q) = %v, want %v", c.seq, got, c.want)
		}
	}
}

func TestWriterUnwrapped(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(&buf)
	fw.Width = 0
	seq := strings.Repeat("ACGT", 40)
	if err := fw.Write(Record{ID: "x", Description: "long", Seq: []byte(seq)}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := ">x long\n" + seq + "\n"; buf.String() != want {
		t.Fatalf("got %q want %q", buf.String(), want)
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteAllReportsWriterError(t *testing.T) {
	err := WriteAll(failingWriter{}, []Record{{ID: "a", Seq: []byte("ACGT")}})
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("err = %v, want the writer's error", err)
	}
}

func TestWriteFileTruncatesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reads.fa")
	long := []Record{{ID: "a", Seq: []byte("ACGT")}, {ID: "b", Seq: []byte("GGCC")}, {ID: "c", Seq: []byte("TTAA")}}
	if err := WriteFile(path, long); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []Record{{ID: "z", Seq: []byte("CA")}}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ID != "z" || string(out[0].Seq) != "CA" {
		t.Fatalf("rewritten file holds %+v", out)
	}
}

func TestWriteFileIntoMissingDirectoryFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	if err := WriteFile(filepath.Join(dir, "reads.fa"), []Record{{ID: "a", Seq: []byte("ACGT")}}); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("WriteFile created %s (stat err %v)", dir, err)
	}
}
