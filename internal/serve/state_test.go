package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/ingest"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

func testParams() Params {
	return Params{
		K: 8, NumHashes: 48, Seed: 11, Canonical: true,
		Theta: 0.35, Estimator: minhash.SetOverlap,
	}
}

// makeReads builds a corpus with real cluster structure: reads are
// mutated copies of a few base sequences, so similar reads land in the
// same cluster and the assignment table is non-trivial.
func makeReads(t *testing.T, p Params, n int) []ingest.Sketched {
	t.Helper()
	const bases = "ACGT"
	rng := uint64(12345)
	next := func(m uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % m
	}
	base := make([][]byte, 5)
	for b := range base {
		base[b] = make([]byte, 150)
		for j := range base[b] {
			base[b][j] = bases[next(4)]
		}
	}
	sk, err := minhash.NewSketcher(p.NumHashes, p.K, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ex := &kmer.Extractor{K: p.K, Canonical: p.Canonical}
	out := make([]ingest.Sketched, n)
	for i := range out {
		seq := append([]byte(nil), base[next(uint64(len(base)))]...)
		for m := uint64(0); m < 4; m++ { // a few point mutations
			seq[next(uint64(len(seq)))] = bases[next(4)]
		}
		out[i] = ingest.Sketched{
			ID:  fmt.Sprintf("read-%05d", i),
			Sig: sk.SketchInto(nil, ex.Slice(seq)),
		}
	}
	return out
}

func commitAll(t *testing.T, st *State, reads []ingest.Sketched, batch int) {
	t.Helper()
	for i := 0; i < len(reads); i += batch {
		end := i + batch
		if end > len(reads) {
			end = len(reads)
		}
		if _, err := st.CommitBatch(reads[i:end]); err != nil {
			t.Fatal(err)
		}
	}
}

func dump(t *testing.T, st *State) string {
	t.Helper()
	var buf bytes.Buffer
	if err := st.DumpTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCrashRecoveryBitIdentical is the core durability contract: commit
// part of a corpus, crash WITHOUT checkpointing (the WAL is the only
// durable record), reopen with resume, commit the rest — and the final
// assignment table is byte-identical to an uninterrupted run. Exercised
// over full, packed, and LSH-indexed configurations.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Params)
	}{
		{"full-exact", func(p *Params) {}},
		{"full-lsh", func(p *Params) { p.UseLSH = true }},
		{"packed-b4", func(p *Params) { p.Bits = 4 }},
		{"packed-b4-lsh", func(p *Params) { p.Bits = 4; p.UseLSH = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testParams()
			tc.mod(&p)
			reads := makeReads(t, p, 300)

			// Reference: one uninterrupted run.
			ref, err := Open(t.TempDir(), p, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			commitAll(t, ref, reads, 32)
			want := dump(t, ref)
			ref.Close()

			// Crashed run: commit 140 reads, then drop the state on the
			// floor (no Checkpoint — simulates SIGKILL after the last ack).
			dir := t.TempDir()
			st1, err := Open(dir, p, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			commitAll(t, st1, reads[:140], 32)
			if err := st1.Close(); err != nil {
				t.Fatal(err)
			}

			// Recover and finish. Re-submitting an overlap (120..140)
			// exercises duplicate suppression across the restart.
			st2, err := Open(dir, p, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := st2.Stats().Reads; got != 140 {
				t.Fatalf("recovered %d reads, want 140", got)
			}
			commitAll(t, st2, reads[120:], 32)
			if st2.Stats().Duplicates != 20 {
				t.Fatalf("duplicates = %d, want 20", st2.Stats().Duplicates)
			}
			got := dump(t, st2)
			if got != want {
				t.Fatalf("recovered assignments differ from uninterrupted run:\nrecovered:\n%s\nwant:\n%s",
					head(got, 10), head(want, 10))
			}
			st2.Close()
		})
	}
}

func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestGracefulDrainInvariant: every acknowledged read survives a
// checkpointed shutdown and restart with its assignment intact — and
// the restarted state re-snapshots byte-identically.
func TestGracefulDrainInvariant(t *testing.T) {
	p := testParams()
	reads := makeReads(t, p, 200)
	dir := t.TempDir()
	st, err := Open(dir, p, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	commitAll(t, st, reads, 16)
	want := dump(t, st)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, p, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := dump(t, st2); got != want {
		t.Fatal("assignments changed across graceful drain + restart")
	}
	for _, r := range reads { // every acked read individually queryable
		if _, ok := st2.Assignment(r.ID); !ok {
			t.Fatalf("read %s lost across drain", r.ID)
		}
	}
}

// TestOpenRefusesUnmatchedState guards the two fatal misconfigurations:
// restarting over durable data without resume, and resuming under
// different params.
func TestOpenRefusesUnmatchedState(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	st, err := Open(dir, p, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	commitAll(t, st, makeReads(t, p, 10), 10)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	if _, err := Open(dir, p, false, nil); err == nil {
		t.Fatal("reopening durable state without resume succeeded")
	}
	p2 := p
	p2.Theta = 0.9
	if _, err := Open(dir, p2, true, nil); err == nil {
		t.Fatal("resume under different params succeeded")
	}
	if _, err := Open(dir, p, true, nil); err != nil {
		t.Fatalf("legitimate resume failed: %v", err)
	}
}

// TestOpenRefusesOldSnapshotFormat: a data dir whose manifest names a
// snapshot an older build wrote (magic SIGSNAP1) fails to open by name,
// and the refusal leaves every file in the dir byte-identical.
func TestOpenRefusesOldSnapshotFormat(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	st, err := Open(dir, p, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	commitAll(t, st, makeReads(t, p, 10), 10)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Re-seal the snapshot under the old magic and point the manifest's
	// hash at it, as if an older build had checkpointed this dir.
	manifestPath := filepath.Join(dir, manifestFile)
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, m.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte("SIGSNAP1"), blob[8:len(blob)-sha256.Size]...)
	inner := sha256.Sum256(body)
	blob = append(body, inner[:]...)
	sum := sha256.Sum256(blob)
	m.SHA256 = hex.EncodeToString(sum[:])
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, m.Snapshot), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	files := func() map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(entries))
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(b)
		}
		return out
	}
	before := files()
	if st, err := Open(dir, p, true, nil); err == nil || !strings.Contains(err.Error(), "SIGSNAP1") {
		if st != nil {
			st.Close()
		}
		t.Fatalf("Open over a SIGSNAP1 snapshot: %v, want an error naming SIGSNAP1", err)
	}
	if after := files(); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused Open changed the data dir")
	}
}

// TestOpenRejectsUnsketchableK: k=31 packs into a uint64, but its feature
// space 4^31 exceeds the sketch modulus, so Open must refuse it before it
// creates any state.
func TestOpenRejectsUnsketchableK(t *testing.T) {
	p := testParams()
	p.K = 31
	dir := t.TempDir()
	if st, err := Open(dir, p, false, nil); err == nil {
		st.Close()
		t.Fatal("Open accepted k=31")
	}
	if _, err := os.Stat(filepath.Join(dir, walFile)); !os.IsNotExist(err) {
		t.Fatalf("a rejected Open left %s behind (stat: %v)", walFile, err)
	}
}

// TestServiceCrashInjection: the faults plan fires once the acked count
// crosses the threshold, and the resulting state recovers everything
// acked before the crash.
func TestServiceCrashInjection(t *testing.T) {
	p := testParams()
	reads := makeReads(t, p, 100)
	plan, err := faults.ParsePlan("service-crash:after=50", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(dir, p, false, faults.MustNew(plan))
	if err != nil {
		t.Fatal(err)
	}
	var crashed *faults.ServiceCrashError
	committed := 0
	for i := 0; i < len(reads); i += 10 {
		acks, err := st.CommitBatch(reads[i : i+10])
		if err != nil {
			var sc *faults.ServiceCrashError
			if !asServiceCrash(err, &sc) {
				t.Fatal(err)
			}
			crashed = sc
			committed = i + len(acks)
			break
		}
		committed = i + 10
	}
	if crashed == nil {
		t.Fatal("service crash never fired")
	}
	if crashed.Acked < 50 {
		t.Fatalf("crashed at %d acked, before threshold", crashed.Acked)
	}
	st.Close() // crash path: no checkpoint

	st2, err := Open(dir, p, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Reads; got != committed {
		t.Fatalf("recovered %d reads, want %d (all acked before crash)", got, committed)
	}
}

func asServiceCrash(err error, out **faults.ServiceCrashError) bool {
	sc, ok := err.(*faults.ServiceCrashError)
	if ok {
		*out = sc
	}
	return ok
}

// TestDiversityAndQueries sanity-checks the query surface over a known
// corpus.
func TestDiversityAndQueries(t *testing.T) {
	p := testParams()
	reads := makeReads(t, p, 120)
	st, err := Open(t.TempDir(), p, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < len(reads); i += 30 {
		acks, err := st.CommitBatch(reads[i : i+30])
		if err != nil {
			t.Fatal(err)
		}
		for j, a := range acks { // fresh reads take dense IDs in commit order
			if a.Read != i+j || a.Duplicate {
				t.Fatalf("ack %+v, want fresh dense ID %d", a, i+j)
			}
		}
	}

	d := st.Diversity()
	if d.Reads != 120 || d.Clusters < 1 || d.Clusters > 120 {
		t.Fatalf("diversity = %+v", d)
	}
	if d.Clusters >= 100 {
		t.Fatalf("mutated copies of 5 bases produced %d clusters — no structure", d.Clusters)
	}
	if d.Shannon < 0 || d.Simpson <= 0 || d.Simpson > 1 {
		t.Fatalf("indices out of range: %+v", d)
	}

	info, ok := st.Assignment(reads[7].ID)
	if !ok || info.ID != reads[7].ID || info.Read != 7 {
		t.Fatalf("assignment lookup: %+v ok=%v", info, ok)
	}
	ci, ok := st.Cluster(info.Cluster)
	if !ok || ci.Size < 1 {
		t.Fatalf("cluster lookup: %+v ok=%v", ci, ok)
	}
	// The representative of a read's cluster must itself map to that
	// cluster.
	repInfo, ok := st.Assignment(ci.Representative)
	if !ok || repInfo.Cluster != info.Cluster {
		t.Fatalf("representative %q maps to %+v", ci.Representative, repInfo)
	}
	all := st.Clusters()
	if len(all) != d.Clusters {
		t.Fatalf("Clusters() returned %d, diversity says %d", len(all), d.Clusters)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Size > all[i-1].Size {
			t.Fatal("Clusters() not sorted by size")
		}
	}
	if _, ok := st.Assignment("nope"); ok {
		t.Fatal("unknown read found")
	}
	if _, ok := st.Cluster(10_000); ok {
		t.Fatal("unknown cluster found")
	}
}
