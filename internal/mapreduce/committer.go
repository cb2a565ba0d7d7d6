package mapreduce

import (
	"fmt"

	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// OutputCommitter implements Hadoop's FileOutputCommitter v1 protocol on
// the simulated DFS. Each task attempt writes into a private staging
// directory
//
//	<out>/_temporary/attempt_<task>_<n>/
//
// and nothing under a "_"-prefixed segment is visible to readers that use
// ListOutputs. Committing an attempt is a single atomic directory rename
// into <out>; aborting deletes the staging tree. Because the rename is
// one namenode metadata operation, a crashed, killed or speculative-loser
// attempt can never leak partial records into the job output: either the
// rename happened (all files visible at once) or it did not (none are).
// CommitJob finalizes with a _SUCCESS marker after removing the whole
// _temporary tree.
type OutputCommitter struct {
	fs       *dfs.FileSystem
	dir      string
	trace    *trace.Recorder
	counters *Counters
}

// NewOutputCommitter creates a committer for job output directory dir.
func NewOutputCommitter(fs *dfs.FileSystem, dir string) *OutputCommitter {
	return &OutputCommitter{fs: fs, dir: dir}
}

// SetTrace attaches a span recorder; commit/abort each emit one span.
func (oc *OutputCommitter) SetTrace(r *trace.Recorder) { oc.trace = r }

// SetCounters attaches a counter set for commit.committed/commit.aborted.
func (oc *OutputCommitter) SetCounters(c *Counters) { oc.counters = c }

// Dir returns the job output directory.
func (oc *OutputCommitter) Dir() string { return oc.dir }

// AttemptPath returns the staging directory for one task attempt.
func (oc *OutputCommitter) AttemptPath(task, attempt int) string {
	return fmt.Sprintf("%s/_temporary/attempt_%d_%d", oc.dir, task, attempt)
}

// WriteAttemptFile stages one file (named rel, e.g. "part-00000") under
// the attempt's staging directory.
func (oc *OutputCommitter) WriteAttemptFile(task, attempt int, rel string, data []byte) error {
	return oc.fs.WriteFile(oc.AttemptPath(task, attempt)+"/"+rel, data)
}

// CommitTask atomically promotes the attempt's staged files into the job
// output directory. Committing an attempt that staged nothing is an
// error: the protocol requires the attempt to have produced its output
// before commit.
func (oc *OutputCommitter) CommitTask(task, attempt int) error {
	staged := oc.AttemptPath(task, attempt)
	if err := oc.fs.RenameDir(staged, oc.dir); err != nil {
		return fmt.Errorf("mapreduce: commit of task %d attempt %d: %w", task, attempt, err)
	}
	if oc.counters != nil {
		oc.counters.Add(CounterCommitCommitted, 1)
	}
	if oc.trace.Enabled() {
		oc.trace.Emit(trace.Span{
			Kind:   trace.KindCommit,
			Name:   fmt.Sprintf("commit.task[%d]", task),
			Node:   -1,
			Detail: fmt.Sprintf("%s attempt %d", oc.dir, attempt),
			Status: "committed",
			VStart: oc.trace.VirtualNow(),
			RStart: oc.trace.RealNow(),
		})
	}
	return nil
}

// AbortTask discards the attempt's staging directory. Aborting an attempt
// that staged nothing is a no-op (the attempt may have crashed before its
// first write).
func (oc *OutputCommitter) AbortTask(task, attempt int) {
	n := oc.fs.RemoveAll(oc.AttemptPath(task, attempt))
	if oc.counters != nil {
		oc.counters.Add(CounterCommitAborted, 1)
	}
	if oc.trace.Enabled() {
		oc.trace.Emit(trace.Span{
			Kind:   trace.KindAbort,
			Name:   fmt.Sprintf("abort.task[%d]", task),
			Node:   -1,
			Detail: fmt.Sprintf("%s attempt %d (%d staged files dropped)", oc.dir, attempt, n),
			Status: "aborted",
			VStart: oc.trace.VirtualNow(),
			RStart: oc.trace.RealNow(),
		})
	}
}

// CommitJob finalizes the output directory: the whole _temporary tree is
// removed (any staging left by uncommitted attempts goes with it) and a
// _SUCCESS marker is written, signalling downstream stages the directory
// is complete.
func (oc *OutputCommitter) CommitJob() error {
	oc.fs.RemoveAll(oc.dir + "/_temporary")
	if err := oc.fs.WriteFile(oc.dir+"/_SUCCESS", nil); err != nil {
		return err
	}
	if oc.trace.Enabled() {
		oc.trace.Emit(trace.Span{
			Kind:   trace.KindCommit,
			Name:   "commit.job",
			Detail: oc.dir,
			Status: "committed",
			VStart: oc.trace.VirtualNow(),
			RStart: oc.trace.RealNow(),
		})
	}
	return nil
}

// AbortJob removes the entire output directory, staged and committed
// files alike, returning the directory to its pre-job state.
func (oc *OutputCommitter) AbortJob() {
	n := oc.fs.RemoveAll(oc.dir)
	if oc.trace.Enabled() {
		oc.trace.Emit(trace.Span{
			Kind:   trace.KindAbort,
			Name:   "abort.job",
			Detail: fmt.Sprintf("%s (%d files dropped)", oc.dir, n),
			Status: "aborted",
			VStart: oc.trace.VirtualNow(),
			RStart: oc.trace.RealNow(),
		})
	}
}

// Succeeded reports whether dir holds a committed job (_SUCCESS marker).
func Succeeded(fs *dfs.FileSystem, dir string) bool {
	return fs.Exists(dir + "/_SUCCESS")
}
