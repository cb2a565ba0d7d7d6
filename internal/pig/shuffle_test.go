package pig

import (
	"testing"

	"github.com/metagenomics/mrmcminh/internal/trace"
)

const spillScript = `
Lines = LOAD '/in';
Words = FOREACH Lines GENERATE FLATTEN(TOKENIZE(line)) AS word;
G     = GROUP Words BY word;
Out   = FOREACH G GENERATE group, COUNT(Words);
STORE Out INTO '/out';
`

// TestSpillShuffleStoreBitIdentical runs the canonical Pig wordcount
// twice — in-memory shuffle and a sort buffer so small every grouped
// record spills — and requires the STORE files to match byte for byte.
func TestSpillShuffleStoreBitIdentical(t *testing.T) {
	lines := []string{"the quick brown fox", "the lazy dog", "the fox", "lazy lazy dog"}
	storedBytes := func(bufBytes int, rec *trace.Recorder) map[string]string {
		t.Helper()
		ctx := opsContext(t)
		ctx.FS.WriteLines("/in", lines)
		ctx.Engine.ShuffleBufferBytes = bufBytes
		ctx.Engine.Trace = rec
		if _, err := MustCompile(spillScript).Run(ctx); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, p := range ctx.FS.ListOutputs("/out") {
			data, err := ctx.FS.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[p] = string(data)
		}
		if len(out) == 0 {
			t.Fatal("STORE produced no part files")
		}
		return out
	}

	want := storedBytes(0, nil)
	rec := trace.New()
	got := storedBytes(16, rec)
	if len(got) != len(want) {
		t.Fatalf("part files diverged: %v vs %v", got, want)
	}
	for p, data := range want {
		if got[p] != data {
			t.Fatalf("%s diverged:\n in-memory %q\n spilled   %q", p, data, got[p])
		}
	}
	var spills, merges int
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.KindSpill:
			spills++
		case trace.KindMerge:
			merges++
		}
	}
	if spills == 0 || merges == 0 {
		t.Fatalf("bounded Pig run did not exercise the external shuffle (spills=%d merges=%d)", spills, merges)
	}
}
