package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// TestAlgorithm3Plan pins the MapReduce jobs both Algorithm 3 scripts
// compile to, with the statements each phase of a shuffle job runs, as
// the job spans of a traced run name them. B and C run in E's map phase
// and F in E's reduce phase; F (read by I and J) and I (read by J through
// I.F, and by L) materialize, and J, K and L keep their own jobs.
func TestAlgorithm3Plan(t *testing.T) {
	reads, _ := makeReads(3, 4, 150, 0.01, 5)
	var sb strings.Builder
	for _, r := range reads {
		fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
	}
	for _, c := range []struct {
		candidate CandidateGen
		jobs      []string
	}{
		{CandidateExact, []string{
			"foreach-grouped-E [map: B, C, E; reduce: E, F]",
			"group-I [map: I; reduce: I]",
			"foreach-J",
			"foreach-whole-K",
			"foreach-L",
		}},
		{CandidateLSH, []string{
			"foreach-grouped-E [map: B, C, E; reduce: E, F]",
			"group-I [map: I; reduce: I]",
			"foreach-K",
			"foreach-L",
		}},
	} {
		fs := dfs.MustNew(dfs.Config{NumDataNodes: 4, BlockSize: 4096, Replication: 2})
		if err := fs.WriteFile("/in/reads.fa", []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
		rec := trace.New()
		res, err := RunScript(fs, ScriptParams{
			Input: "/in/reads.fa", Output1: "/out/hier", Output2: "/out/greedy",
			K: 6, NumHash: 20, Cutoff: 0.5,
		}, Options{Cluster: smallCluster(), Seed: 5, Trace: rec, Candidate: c.candidate})
		if err != nil {
			t.Fatal(err)
		}
		var jobs []string
		for _, s := range rec.Spans() {
			if s.Kind != trace.KindJob {
				continue
			}
			if s.Detail != "" {
				jobs = append(jobs, s.Name+" ["+s.Detail+"]")
			} else {
				jobs = append(jobs, s.Name)
			}
		}
		if fmt.Sprint(jobs) != fmt.Sprint(c.jobs) || res.Jobs != len(c.jobs) {
			t.Errorf("candidate %v: %d jobs %q, want %q", c.candidate, res.Jobs, jobs, c.jobs)
		}
	}
}
