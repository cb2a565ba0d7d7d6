package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// buildCLI compiles mrmcminh once per test into a temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mrmcminh")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeCorpus emits a deterministic FASTA community of n reads of about
// 150 bp: copies of eight random sequences, each with up to three
// substitutions, sometimes a one-base insertion or deletion, and now and
// then an N, so that clusters form at every threshold the cases cut and
// the consensus aligns across gaps.
func writeCorpus(t *testing.T, path string, n int) {
	t.Helper()
	const bases = "ACGT"
	rng := uint64(2718)
	next := func(m uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % m
	}
	base := make([][]byte, 8)
	for b := range base {
		base[b] = make([]byte, 150)
		for j := range base[b] {
			base[b][j] = bases[next(4)]
		}
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		seq := append([]byte(nil), base[next(uint64(len(base)))]...)
		for m := next(4); m > 0; m-- {
			seq[next(uint64(len(seq)))] = bases[next(4)]
		}
		switch p := int(next(uint64(len(seq)))); next(4) {
		case 0:
			seq = append(seq[:p], seq[p+1:]...)
		case 1:
			seq = append(seq[:p], append([]byte{bases[next(4)]}, seq[p:]...)...)
		}
		if next(20) == 0 {
			seq[next(uint64(len(seq)))] = 'N'
		}
		fmt.Fprintf(&sb, ">read-%04d\n%s\n", i, seq)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// extrasCases are the runs testdata/extras.golden pins, each with -otu
// and -consensus: the hierarchical defaults and another linkage and
// geometry, both with -levels, then greedy and LSH runs.
var extrasCases = []struct {
	name string
	args []string
}{
	{"hierarchical-levels", []string{"-levels", "0.5,0.7"}},
	{"single-k8-n64-levels", []string{"-link", "single", "-k", "8", "-hashes", "64", "-theta", "0.6", "-levels", "0.3,0.9"}},
	{"greedy", []string{"-mode", "greedy", "-theta", "0.5"}},
	{"lsh", []string{"-candidate", "lsh", "-theta", "0.8"}},
}

// runCLI runs bin with args and returns its stderr and exit code.
func runCLI(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return stderr.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stderr.String(), 0
}

// extrasArgs are the output flags of case name, writing into dir.
func extrasArgs(dir, name string) []string {
	return []string{
		"-out", filepath.Join(dir, name+".tsv"),
		"-otu", filepath.Join(dir, name+".otu"),
		"-consensus", filepath.Join(dir, name+".fa"),
	}
}

// extrasLine runs case name, which must exit 0, and renders its golden
// line: the name, the SHA-256 of its TSV, OTU table and consensus FASTA,
// and any "level θ=" lines, joined by "; ".
func extrasLine(t *testing.T, bin, corpus, dir, name string, args ...string) string {
	t.Helper()
	all := append(append([]string{"-in", corpus}, extrasArgs(dir, name)...), args...)
	stderr, code := runCLI(t, bin, all...)
	if code != 0 {
		t.Fatalf("%s: exit %d\n%s", name, code, stderr)
	}
	fields := []string{name}
	for _, ext := range []string{".tsv", ".otu", ".fa"} {
		data, err := os.ReadFile(filepath.Join(dir, name+ext))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fields = append(fields, hex.EncodeToString(sum[:]))
	}
	var levels []string
	sc := bufio.NewScanner(strings.NewReader(stderr))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "level θ=") {
			levels = append(levels, sc.Text())
		}
	}
	if len(levels) > 0 {
		fields = append(fields, strings.Join(levels, "; "))
	}
	return strings.Join(fields, " ")
}

// TestExtrasGolden pins what mrmcminh writes beside its clusters, for
// every extrasCases run and for a run crashed after its similarity stage
// and resumed with -levels: the TSV, the OTU table, the consensus FASTA
// and the level lines. The resumed run must write exactly what the
// uninterrupted first case wrote. A mismatch prints the actual lines.
func TestExtrasGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	corpus := filepath.Join(dir, "reads.fa")
	writeCorpus(t, corpus, 300)

	var got []string
	for _, c := range extrasCases {
		got = append(got, extrasLine(t, bin, corpus, dir, c.name, c.args...))
	}

	ck := filepath.Join(dir, "ck")
	crash := append(append([]string{"-in", corpus, "-checkpoint-dir", ck,
		"-faults", "driver-crash:after=similarity"}, extrasArgs(dir, "crashed")...), extrasCases[0].args...)
	if stderr, code := runCLI(t, bin, crash...); code != 1 || !strings.Contains(stderr, `driver crashed after stage "similarity"`) {
		t.Fatalf("crash run: exit %d, want 1 naming the similarity stage\n%s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "crashed.tsv")); !os.IsNotExist(err) {
		t.Fatalf("crashed run left an -out file (stat: %v)", err)
	}
	resumed := extrasLine(t, bin, corpus, dir, "resumed",
		append([]string{"-checkpoint-dir", ck, "-resume"}, extrasCases[0].args...)...)
	if strings.TrimPrefix(resumed, "resumed") != strings.TrimPrefix(got[0], extrasCases[0].name) {
		t.Errorf("resumed run differs from %s:\n%s\n%s", extrasCases[0].name, resumed, got[0])
	}
	got = append(got, resumed)

	data, err := os.ReadFile("testdata/extras.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("outputs differ from testdata/extras.golden; actual lines:\n%s", strings.Join(got, "\n"))
	}
}

// jobSpans counts the job spans of a JSON-lines trace by job name.
func jobSpans(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var span struct{ Kind, Name string }
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatal(err)
		}
		if span.Kind == "job" {
			jobs[span.Name]++
		}
	}
	return jobs
}

// TestExtrasLaunchNoJobs: the OTU table, the consensus and the levels
// read the run's own signatures and dendrogram, so the first extras
// case launches one sketch job and one matrix job in all.
func TestExtrasLaunchNoJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	corpus := filepath.Join(dir, "reads.fa")
	writeCorpus(t, corpus, 300)
	tr := filepath.Join(dir, "x.jsonl")
	args := append(append([]string{"-in", corpus, "-trace", tr}, extrasArgs(dir, "traced")...), extrasCases[0].args...)
	if stderr, code := runCLI(t, bin, args...); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	want := map[string]int{"mrmcminh-sketch": 1, "mrmcminh-simrows": 1}
	if got := jobSpans(t, tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("job spans %v, want %v", got, want)
	}
}

// TestRefusedBeforeOutput: a -levels the run cannot answer, or a θ no
// check can place in [0,1], exits 1 and leaves no -out, -otu or
// -consensus file. Unparsable levels and θ=NaN are refused before any
// job runs; θ=NaN also before the checkpoint directory is made.
func TestRefusedBeforeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	corpus := filepath.Join(dir, "reads.fa")
	writeCorpus(t, corpus, 120)
	done := filepath.Join(dir, "done")
	if stderr, code := runCLI(t, bin, "-in", corpus, "-checkpoint-dir", done, "-out", filepath.Join(dir, "done.tsv")); code != 0 {
		t.Fatalf("journaled run: exit %d\n%s", code, stderr)
	}
	for _, c := range []struct {
		name, msg string
		args      []string
	}{
		{"levels-0.x", `bad threshold "0.x"`, []string{"-levels", "0.x"}},
		{"levels-0.5x", `bad threshold "0.5x"`, []string{"-levels", "0.5x"}},
		{"levels-nan", "threshold NaN out of [0,1]", []string{"-levels", "nan"}},
		{"levels-1.5", "threshold 1.5 out of [0,1]", []string{"-levels", "1.5"}},
		{"greedy-levels", "no dendrogram", []string{"-mode", "greedy", "-levels", "0.5"}},
		{"lsh-levels", "no dendrogram", []string{"-candidate", "lsh", "-levels", "0.5"}},
		{"restored-levels", `restored its "cluster" stage`, []string{"-checkpoint-dir", done, "-resume", "-levels", "0.5"}},
		{"theta-nan", "θ=NaN", []string{"-theta", "nan", "-checkpoint-dir", filepath.Join(dir, "nan-ck")}},
	} {
		tr := filepath.Join(dir, c.name+".jsonl")
		args := append(append([]string{"-in", corpus, "-trace", tr}, extrasArgs(dir, c.name)...), c.args...)
		stderr, code := runCLI(t, bin, args...)
		if code != 1 || !strings.Contains(stderr, c.msg) {
			t.Errorf("%s: exit %d, want 1 with %q\n%s", c.name, code, c.msg, stderr)
		}
		for _, ext := range []string{".tsv", ".otu", ".fa"} {
			if _, err := os.Stat(filepath.Join(dir, c.name+ext)); !os.IsNotExist(err) {
				t.Errorf("%s: left %s behind (stat: %v)", c.name, c.name+ext, err)
			}
		}
		switch c.name {
		case "levels-0.x", "levels-0.5x":
			if jobs := jobSpans(t, tr); len(jobs) != 0 {
				t.Errorf("%s: ran jobs %v before refusing", c.name, jobs)
			}
		case "theta-nan":
			for _, p := range []string{tr, filepath.Join(dir, "nan-ck")} {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Errorf("theta-nan: wrote %s (stat: %v)", p, err)
				}
			}
		}
	}
}
