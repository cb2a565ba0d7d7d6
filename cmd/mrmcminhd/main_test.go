package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDaemon compiles mrmcminhd once per test binary into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mrmcminhd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeCorpus emits a deterministic FASTA community: mutated copies of
// a few base sequences, so clustering produces real structure.
func writeCorpus(t *testing.T, path string, n int) {
	t.Helper()
	const bases = "ACGT"
	rng := uint64(4242)
	next := func(m uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % m
	}
	base := make([][]byte, 6)
	for b := range base {
		base[b] = make([]byte, 160)
		for j := range base[b] {
			base[b][j] = bases[next(4)]
		}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	for i := 0; i < n; i++ {
		seq := append([]byte(nil), base[next(uint64(len(base)))]...)
		for m := uint64(0); m < 5; m++ {
			seq[next(uint64(len(seq)))] = bases[next(4)]
		}
		fmt.Fprintf(w, ">read-%05d\n%s\n", i, seq)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonChaosKillAndRecover is the end-to-end chaos contract at the
// process level: a daemon killed mid-ingest by an injected service
// crash (exit 3) loses NO acknowledged read, and restarting with
// -resume over the same input produces assignments byte-identical to a
// never-crashed run.
func TestDaemonChaosKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildDaemon(t)
	work := t.TempDir()
	corpus := filepath.Join(work, "reads.fa")
	writeCorpus(t, corpus, 400)

	common := []string{
		"-addr", "127.0.0.1:0", "-k", "10", "-hashes", "48", "-theta", "0.4",
		"-canonical", "-lsh", "-ingest", corpus, "-drain-after-ingest",
	}

	// Reference: uninterrupted run.
	refDump := filepath.Join(work, "ref.tsv")
	refDir := filepath.Join(work, "ref-state")
	cmd := exec.Command(bin, append(append([]string{}, common...),
		"-data-dir", refDir, "-dump", refDump)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}

	// θ=NaN is refused before the daemon writes any state.
	nanDir := filepath.Join(work, "nan-state")
	cmd = exec.Command(bin, append(append([]string{}, common...), "-theta", "nan", "-data-dir", nanDir)...)
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("-theta nan accepted\n%s", out)
	}
	if _, err := os.Stat(nanDir); !os.IsNotExist(err) {
		t.Fatalf("-theta nan left a data dir behind (stat: %v)", err)
	}

	// Chaos run: crash after 150 acked reads.
	dir := filepath.Join(work, "chaos-state")
	cmd = exec.Command(bin, append(append([]string{}, common...),
		"-data-dir", dir, "-faults", "service-crash:after=150")...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("chaos run exited 0, expected injected crash\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("chaos run: %v (want exit 3)\n%s", err, out)
	}

	// The params were durable before the first ack: resuming under
	// another theta is refused (exit 1), naming the field and both
	// values, without advice to pass a flag the daemon does not have.
	cmd = exec.Command(bin, append(append([]string{}, common...),
		"-data-dir", dir, "-resume", "-theta", "0.5")...)
	out, err = cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("resume under -theta 0.5: %v (want exit 1)\n%s", err, out)
	}
	if msg := string(out); !strings.Contains(msg, "theta=0.4") || !strings.Contains(msg, "theta=0.5") ||
		strings.Contains(msg, "resume=force") {
		t.Fatalf("params refusal must name theta with both values and not advise --resume=force:\n%s", msg)
	}

	// Recovery: resume over the SAME input; already-acked reads dedup,
	// the rest commit in original order.
	recDump := filepath.Join(work, "recovered.tsv")
	cmd = exec.Command(bin, append(append([]string{}, common...),
		"-data-dir", dir, "-resume", "-dump", recDump)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("recovery run: %v\n%s", err, out)
	}

	ref, err := os.ReadFile(refDump)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(recDump)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference dump empty")
	}
	if string(ref) != string(rec) {
		t.Fatalf("recovered assignments differ from uninterrupted run (%d vs %d bytes)", len(rec), len(ref))
	}

	// A second restart must refuse to run without -resume.
	cmd = exec.Command(bin, append(append([]string{}, common...), "-data-dir", dir)...)
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("restart without -resume succeeded\n%s", out)
	}
}
