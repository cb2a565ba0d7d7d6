package mapreduce

import (
	"fmt"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
)

// CostModel parameterizes the virtual clock. Values are loosely calibrated
// to the paper's Amazon EMR M1 Large deployment so that modelled runtimes
// land in the same minutes-scale regime as Figure 2 and Table III.
type CostModel struct {
	// JobStartup is the fixed per-job overhead (JVM spin-up, scheduling).
	JobStartup time.Duration
	// TaskStartup is the fixed per-task overhead.
	TaskStartup time.Duration
	// MapPerRecord is the modelled cost to map one record.
	MapPerRecord time.Duration
	// ReducePerRecord is the modelled cost to reduce one value.
	ReducePerRecord time.Duration
	// ShufflePerByte is the modelled network cost to move one byte of
	// intermediate data between nodes.
	ShufflePerByte time.Duration
	// SpillPerByte is the modelled local-disk cost to write or read one
	// byte of spilled map output (bounded shuffle buffer only; Hadoop
	// spills to the tasktracker's local disks, not the DFS). Every
	// spilled byte is charged at least twice — the map-side write and the
	// reducer-side merge read — plus one write+read more per intermediate
	// merge pass.
	SpillPerByte time.Duration
	// StragglerFraction is the share of tasks that run slow (failing
	// disks, hot neighbors — the tail Hadoop's speculative execution
	// exists for). 0 disables stragglers.
	StragglerFraction float64
	// StragglerSlowdown multiplies a straggler's duration (≥ 1).
	StragglerSlowdown float64
}

// DefaultCostModel approximates the paper's EMR environment.
var DefaultCostModel = CostModel{
	JobStartup:      20 * time.Second,
	TaskStartup:     3 * time.Second,
	MapPerRecord:    200 * time.Microsecond,
	ReducePerRecord: 150 * time.Microsecond,
	ShufflePerByte:  10 * time.Nanosecond,
	SpillPerByte:    4 * time.Nanosecond, // local disk, ~2.5x the network rate
}

// Cluster describes the simulated deployment.
type Cluster struct {
	// Nodes is the machine count (the paper varies 2..12).
	Nodes int
	// SlotsPerNode is how many concurrent tasks one machine runs
	// (Hadoop's map/reduce slots; M1 Large ≈ 2).
	SlotsPerNode int
	Cost         CostModel
	// Speculative enables Hadoop-style speculative execution in the
	// runtime model: when a straggler task is detected, a backup copy
	// launches on a free slot and the task finishes at the earlier of the
	// two attempts.
	Speculative bool
}

// DefaultCluster mirrors the paper's 8-node evaluation deployment.
var DefaultCluster = Cluster{Nodes: 8, SlotsPerNode: 2, Cost: DefaultCostModel}

// Validate rejects degenerate clusters.
func (c Cluster) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("mapreduce: cluster needs at least one node, got %d", c.Nodes)
	}
	if c.SlotsPerNode < 1 {
		return fmt.Errorf("mapreduce: cluster needs at least one slot per node, got %d", c.SlotsPerNode)
	}
	return nil
}

// TotalSlots returns the cluster-wide concurrent task capacity.
func (c Cluster) TotalSlots() int { return c.Nodes * c.SlotsPerNode }

// TaskCost is the modelled duration of one task.
type TaskCost struct {
	Duration time.Duration
}

// Makespan schedules task costs onto the cluster's slots with the same
// simulator every job runs on, without faults, and returns the finishing
// time of the last task: each task in longest-processing-time order goes
// to the slot that frees up first (the virtual-clock analogue of
// Hadoop's wave scheduling). The cluster must be valid.
func (c Cluster) Makespan(tasks []TaskCost) time.Duration {
	s := newFaultSim(c, nil, retryPolicy{}, "makespan", 0)
	if err := s.runPhase(faults.PhaseMap, s.newTasks(tasks, 0)); err != nil {
		// Without an injector nothing crashes, dies or is blacklisted, so
		// only a cluster with no slots leaves a task unplaced.
		panic(err)
	}
	return s.makespan()
}

// effectiveDuration applies the straggler model to task ti. Stragglers
// are chosen deterministically by index hash; with speculative execution
// a backup attempt caps the penalty at one extra task startup plus the
// nominal duration (the backup reruns from scratch once the original is
// flagged slow).
func (c Cluster) effectiveDuration(ti int, d time.Duration) time.Duration {
	frac := c.Cost.StragglerFraction
	if frac <= 0 || c.Cost.StragglerSlowdown <= 1 {
		return d
	}
	if !isStraggler(ti, frac) {
		return d
	}
	slow := time.Duration(float64(d) * c.Cost.StragglerSlowdown)
	if !c.Speculative {
		return slow
	}
	backup := d + c.Cost.TaskStartup + d // detection after ~1 nominal duration, then a fresh attempt
	if backup < slow {
		return backup
	}
	return slow
}

// isStraggler deterministically marks ~frac of task indices.
func isStraggler(ti int, frac float64) bool {
	// SplitMix64-style scramble for a uniform pick independent of index
	// locality.
	x := uint64(ti) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x%10000) < frac*10000
}

// mapTaskCost models one map task over a split of records.
func (c Cluster) mapTaskCost(records int, factor float64) TaskCost {
	if factor <= 0 {
		factor = 1
	}
	d := c.Cost.TaskStartup +
		time.Duration(float64(records)*factor*float64(c.Cost.MapPerRecord))
	return TaskCost{Duration: d}
}

// reduceTaskCost models one reduce task over a partition. spillIOBytes
// is a bounded shuffle buffer's local-disk traffic attributed to this
// partition (map-side spill writes plus every modelled merge-pass
// read/write, zero when the buffer is unbounded), charged at
// SpillPerByte.
func (c Cluster) reduceTaskCost(values int, shuffleBytes int, spillIOBytes int64, factor float64) TaskCost {
	if factor <= 0 {
		factor = 1
	}
	d := c.Cost.TaskStartup +
		time.Duration(float64(values)*factor*float64(c.Cost.ReducePerRecord)) +
		time.Duration(float64(shuffleBytes)*float64(c.Cost.ShufflePerByte)) +
		time.Duration(float64(spillIOBytes)*float64(c.Cost.SpillPerByte))
	return TaskCost{Duration: d}
}
