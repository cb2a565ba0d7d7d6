package mapreduce

import "sync"

// Counters collects named job statistics, Hadoop-style.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]int64)}
}

// Add increments counter name by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the value of counter name.
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot copies all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Built-in counter names maintained by the engine.
const (
	CounterMapInputRecords    = "map.input.records"
	CounterMapOutputRecords   = "map.output.records"
	CounterCombineInput       = "combine.input.records"
	CounterCombineOutput      = "combine.output.records"
	CounterReduceInputGroups  = "reduce.input.groups"
	CounterReduceInputRecords = "reduce.input.records"
	CounterReduceOutput       = "reduce.output.records"
	CounterShuffleBytes       = "shuffle.bytes"
)

// Spill counter names, maintained when Engine.ShuffleBufferBytes caps the
// map-side sort buffer (all zero when the buffer is unbounded: its one
// in-memory flush per task is not a spill).
const (
	// CounterShuffleSpills counts map-side spill events: every flush of a
	// full sort buffer plus each task's final flush.
	CounterShuffleSpills = "shuffle.spills"
	// CounterShuffleSpilledBytes totals the approximate bytes written to
	// simulated local disk across all spills.
	CounterShuffleSpilledBytes = "shuffle.spilled_bytes"
	// CounterShuffleMergePasses counts the reducers' modelled merge
	// passes (intermediate passes forced by Engine.mergeFanIn plus the
	// final pass of every partition with at least one segment).
	CounterShuffleMergePasses = "shuffle.merge_passes"
)

// Recovery counter names, maintained by the fault simulator when an
// injector is attached (all zero on fault-free runs).
const (
	// CounterTaskAttempts counts every scheduled attempt, retries and
	// re-executions included.
	CounterTaskAttempts = "task.attempts"
	// CounterTaskFailures counts attempts that crashed (consuming retry
	// budget).
	CounterTaskFailures = "task.failures"
	// CounterTaskKilled counts attempts lost to node deaths or discarded
	// map output — Hadoop's KILLED state.
	CounterTaskKilled = "task.killed"
	// CounterMapReexecutions counts completed map tasks re-executed after
	// their node died before the shuffle drained.
	CounterMapReexecutions = "map.reexecutions"
	// CounterNodesBlacklisted counts nodes blacklisted during the job.
	CounterNodesBlacklisted = "node.blacklisted"
	// CounterSpeculative counts backup attempts launched for modelled
	// stragglers when Cluster.Speculative is set.
	CounterSpeculative = "task.speculative"
)

// Commit-protocol counter names, maintained by the fault simulator: a
// task attempt's output is promoted when it succeeds and discarded when
// it crashes or is killed.
const (
	// CounterCommitCommitted counts task attempts whose staged output was
	// atomically promoted into the job output directory.
	CounterCommitCommitted = "commit.committed"
	// CounterCommitAborted counts attempts whose staging directory was
	// discarded (crashed, killed, or speculative losers).
	CounterCommitAborted = "commit.aborted"
)
