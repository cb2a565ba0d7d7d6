package mapreduce

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
)

// Virtual scheduling. Every job's tasks are placed on the simulated
// cluster by this simulator: pending tasks go in longest-processing-time
// order to the slot that frees up first (Hadoop's wave scheduling). When
// an Engine carries a faults.Injector it also models Hadoop's recovery
// machinery on the virtual clock: task attempts crash and retry with
// exponential backoff, nodes die at planned virtual times (killing their
// running attempts), nodes accumulating too many failures are
// blacklisted, and completed map tasks whose node dies before the
// shuffle drains are re-executed — Hadoop's most distinctive recovery
// rule. Without an injector every task runs exactly one attempt.
// Everything is deterministic: decisions come from the seeded injector
// and scheduling is a pure function of the task costs, so a faulted run
// yields bit-identical job output (recovery is lossless) at a larger
// virtual makespan.

// neverDies marks a node with no planned death.
const neverDies = time.Duration(math.MaxInt64)

// simTask tracks one task's recovery state across attempts.
type simTask struct {
	id      int
	cost    TaskCost
	attempt int           // attempts so far
	crashes int           // crashed attempts so far (retry budget consumed)
	readyAt time.Duration // earliest start of the next attempt
	done    bool
	end     time.Duration // completion time of the final attempt
	node    int           // node of the final attempt
	final   int           // index into faultSim.attempts of the final attempt
}

// faultSim schedules one job's phases, with or without fault injection
// (inj may be nil). One value is used per Run call; it is driven from a
// single goroutine.
type faultSim struct {
	c       Cluster
	inj     *faults.Injector
	pol     retryPolicy
	jobName string

	slotFree    []time.Duration
	deadAt      []time.Duration // per node, job-relative; neverDies if none
	blacklisted []bool
	nodeCrashes []int

	attempts    []TaskAttempt
	reexecuted  int // map tasks re-executed after losing their node
	blacklistCt int
	speculative int // backup attempts launched for modelled stragglers
}

// newFaultSim builds the simulator for a job starting at global virtual
// time vbase (death times in the plan are on the global clock; the job's
// task timeline starts after JobStartup).
func newFaultSim(c Cluster, inj *faults.Injector, pol retryPolicy, jobName string, vbase time.Duration) *faultSim {
	s := &faultSim{
		c:           c,
		inj:         inj,
		pol:         pol.withDefaults(),
		jobName:     jobName,
		slotFree:    make([]time.Duration, c.TotalSlots()),
		deadAt:      make([]time.Duration, c.Nodes),
		blacklisted: make([]bool, c.Nodes),
		nodeCrashes: make([]int, c.Nodes),
	}
	for n := 0; n < c.Nodes; n++ {
		s.deadAt[n] = neverDies
		if at, ok := inj.DeathOf(n); ok {
			rel := at - vbase - c.Cost.JobStartup
			if rel < 0 {
				rel = 0
			}
			s.deadAt[n] = rel
		}
	}
	return s
}

// newTasks wraps phase costs as recovery state, ready at startAt.
func (s *faultSim) newTasks(costs []TaskCost, startAt time.Duration) []*simTask {
	state := make([]simTask, len(costs))
	tasks := make([]*simTask, len(costs))
	for i, c := range costs {
		state[i] = simTask{id: i, cost: c, readyAt: startAt, node: -1, final: -1}
		tasks[i] = &state[i]
	}
	return tasks
}

// barrier holds every slot until t — the map→reduce phase boundary:
// reduces start at the map makespan.
func (s *faultSim) barrier(t time.Duration) {
	for i := range s.slotFree {
		if s.slotFree[i] < t {
			s.slotFree[i] = t
		}
	}
}

// runPhase schedules every pending task of one phase to completion,
// injecting crashes and node deaths, until all succeed or one exhausts
// its retry budget (a *TaskFailedError, which fails the job).
func (s *faultSim) runPhase(phase string, tasks []*simTask) error {
	pending := make([]*simTask, 0, len(tasks))
	for _, t := range tasks {
		if !t.done {
			pending = append(pending, t)
		}
	}
	slices.SortFunc(pending, placementOrder)
	s.attempts = slices.Grow(s.attempts, len(pending))
	// Safety valve: attempts are bounded by the retry budget plus one kill
	// per planned death, but guard against scheduler bugs looping forever.
	maxTotal := len(pending)*(s.pol.MaxAttempts+len(s.inj.NodeDeaths())+2) + 16
	for placed := 0; len(pending) > 0; placed++ {
		if placed > maxTotal {
			return fmt.Errorf("mapreduce: fault simulator exceeded %d attempts in job %q %s phase", maxTotal, s.jobName, phase)
		}
		t := pending[0]
		pending = pending[1:]
		att, idx, err := s.place(phase, t)
		if err != nil {
			return err
		}
		switch att.Outcome {
		case AttemptSuccess:
			t.done = true
			t.end = att.End
			t.node = att.Node
			t.final = idx
			continue
		case AttemptCrashed:
			if t.crashes >= s.pol.MaxAttempts {
				return &TaskFailedError{
					Job: s.jobName, Phase: phase, Task: t.id,
					Attempts: t.attempt, Reason: att.Reason,
				}
			}
			// Capped exponential virtual-time backoff before the retry,
			// de-synchronized by seeded jitter (a pure function of the
			// retry site, so faulted makespans stay reproducible).
			backoff := s.pol.backoffFor(t.crashes)
			site := fmt.Sprintf("retry/%s/%s/%d", s.jobName, phase, t.id)
			t.readyAt = att.End + backoff +
				faults.Jitter(s.inj.Plan().Seed, site, t.crashes, backoff/2)
		case AttemptKilled:
			// Node loss is not the task's fault: retry immediately.
			t.readyAt = att.End
		}
		// Requeue the retry at its place in the order.
		i, _ := slices.BinarySearchFunc(pending, t, placementOrder)
		pending = slices.Insert(pending, i, t)
	}
	return nil
}

// placementOrder is the order pending tasks are placed in: earliest ready
// first, then longest processing time, then lowest id. It is total, so
// the schedule is a pure function of the task costs.
func placementOrder(a, b *simTask) int {
	if c := cmp.Compare(a.readyAt, b.readyAt); c != 0 {
		return c
	}
	if c := cmp.Compare(b.cost.Duration, a.cost.Duration); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// place schedules one attempt of t: picks the earliest-available slot on a
// usable node, asks the injector whether the attempt crashes, and resolves
// crash vs node-death ordering. It returns the attempt that completes the
// task's state transition plus its index in s.attempts — with speculative
// execution the returned attempt may be a backup, not the one placed here.
func (s *faultSim) place(phase string, t *simTask) (TaskAttempt, int, error) {
	bestSlot := -1
	var bestStart time.Duration
	for slot := 0; slot < len(s.slotFree); slot++ {
		node := slot / s.c.SlotsPerNode
		if s.blacklisted[node] {
			continue
		}
		start := s.slotFree[slot]
		if start < t.readyAt {
			start = t.readyAt
		}
		if s.deadAt[node] <= start {
			continue // node is gone before this attempt could launch
		}
		if bestSlot < 0 || start < bestStart {
			bestSlot, bestStart = slot, start
		}
	}
	if bestSlot < 0 {
		return TaskAttempt{}, -1, &TaskFailedError{
			Job: s.jobName, Phase: phase, Task: t.id, Attempts: t.attempt,
			Reason: "no usable cluster nodes (all dead or blacklisted)",
		}
	}
	node := bestSlot / s.c.SlotsPerNode
	t.attempt++

	// Nominal duration: the cost model's straggler model dilated by the
	// injector's slow-node factor.
	dur := time.Duration(float64(s.c.effectiveDuration(t.id, t.cost.Duration)) * s.inj.SlowFactor(node))
	if dur < time.Millisecond {
		dur = time.Millisecond
	}
	crash, failPt := s.inj.CrashAttempt(s.jobName, phase, t.id, t.attempt, t.crashes)
	att := TaskAttempt{
		Phase: phase, Task: t.id, Attempt: t.attempt,
		Node: node, Slot: bestSlot,
		Start: bestStart, End: bestStart + dur,
		Outcome: AttemptSuccess,
	}
	if crash {
		crashEnd := bestStart + time.Duration(failPt*float64(dur))
		if crashEnd <= bestStart {
			crashEnd = bestStart + time.Millisecond
		}
		att.End = crashEnd
		att.Outcome = AttemptCrashed
		att.Reason = "injected crash"
	}
	// A node death beats a later (or absent) crash: the attempt dies with
	// the machine.
	if death := s.deadAt[node]; death < att.End {
		att.End = death
		att.Outcome = AttemptKilled
		att.Reason = fmt.Sprintf("node %d died", node)
	}
	s.slotFree[bestSlot] = att.End

	if att.Outcome == AttemptCrashed {
		t.crashes++
		s.nodeCrashes[node]++
		if s.nodeCrashes[node] >= s.pol.BlacklistAfter && !s.blacklisted[node] && s.usableNodesExcept(node, att.End) > 0 {
			s.blacklisted[node] = true
			s.blacklistCt++
		}
	}
	s.attempts = append(s.attempts, att)
	idx := len(s.attempts) - 1

	// Speculative execution: a successful attempt on a modelled straggler
	// node gets a backup copy; the earlier finisher commits through the
	// output committer and the other is KILLED (never FAILED — losing the
	// race consumes no retry budget).
	if att.Outcome == AttemptSuccess && s.c.Speculative && s.inj.SlowFactor(node) > 1 {
		if widx, ok := s.placeBackup(phase, t, idx); ok {
			return s.attempts[widx], widx, nil
		}
	}
	return att, idx, nil
}

// placeBackup launches a speculative copy of t on a node other than the
// straggling primary's. Detection follows the cost model: the straggler
// is flagged one nominal duration after the primary started, and the
// backup runs a fresh copy from there. Whichever attempt finishes first
// wins; the loser is killed at the winner's commit time. Returns the
// winning attempt's index, or ok=false when no backup launches (no
// usable second node, or the backup could not start before the primary
// finishes).
func (s *faultSim) placeBackup(phase string, t *simTask, primaryIdx int) (int, bool) {
	prim := s.attempts[primaryIdx]
	nominal := s.c.effectiveDuration(t.id, t.cost.Duration)
	if nominal < time.Millisecond {
		nominal = time.Millisecond
	}
	detect := prim.Start + nominal
	if detect >= prim.End {
		return 0, false // primary finishes before the straggler is flagged
	}
	bestSlot := -1
	var bestStart time.Duration
	for slot := 0; slot < len(s.slotFree); slot++ {
		node := slot / s.c.SlotsPerNode
		if node == prim.Node || s.blacklisted[node] {
			continue
		}
		start := s.slotFree[slot]
		if start < detect {
			start = detect
		}
		if s.deadAt[node] <= start {
			continue
		}
		if bestSlot < 0 || start < bestStart {
			bestSlot, bestStart = slot, start
		}
	}
	if bestSlot < 0 || bestStart >= prim.End {
		return 0, false // a backup that cannot win is never launched
	}
	bnode := bestSlot / s.c.SlotsPerNode
	t.attempt++
	bdur := time.Duration(float64(nominal) * s.inj.SlowFactor(bnode))
	if bdur < time.Millisecond {
		bdur = time.Millisecond
	}
	batt := TaskAttempt{
		Phase: phase, Task: t.id, Attempt: t.attempt,
		Node: bnode, Slot: bestSlot,
		Start: bestStart, End: bestStart + bdur,
		Outcome: AttemptSuccess, Speculative: true,
	}
	if death := s.deadAt[bnode]; death < batt.End {
		batt.End = death
		batt.Outcome = AttemptKilled
		batt.Reason = fmt.Sprintf("node %d died", bnode)
	}
	s.speculative++
	winner := primaryIdx
	if batt.Outcome == AttemptSuccess && batt.End < prim.End {
		// Backup wins: the primary is killed when the backup commits.
		s.attempts[primaryIdx].Outcome = AttemptKilled
		s.attempts[primaryIdx].End = batt.End
		s.attempts[primaryIdx].Reason = "speculative backup finished first"
		s.slotFree[prim.Slot] = batt.End
		s.attempts = append(s.attempts, batt)
		winner = len(s.attempts) - 1
	} else {
		// Primary wins (or the backup's node died): kill the backup at
		// the primary's commit time.
		if batt.Outcome == AttemptSuccess {
			batt.Outcome = AttemptKilled
			batt.Reason = "speculative attempt lost the race"
			if batt.End > prim.End {
				batt.End = prim.End
			}
		}
		s.attempts = append(s.attempts, batt)
	}
	s.slotFree[bestSlot] = batt.End
	return winner, true
}

// usableNodesExcept counts nodes other than skip still accepting work at
// time now — the guard that keeps blacklisting from stranding the job.
func (s *faultSim) usableNodesExcept(skip int, now time.Duration) int {
	n := 0
	for node := 0; node < s.c.Nodes; node++ {
		if node != skip && !s.blacklisted[node] && s.deadAt[node] > now {
			n++
		}
	}
	return n
}

// reexecuteMapsLostInMapWindow implements Hadoop's rule for node deaths
// during the map phase of a job with reducers: completed map tasks whose
// node died have lost their intermediate output (it lives on local disk,
// not the DFS) and must re-run. Sweeps until no completed map sits on a
// node that died after it finished, extending the map makespan.
func (s *faultSim) reexecuteMapsLostInMapWindow(mapTasks []*simTask) error {
	for {
		mapEnd := maxTaskEnd(mapTasks)
		var redo []*simTask
		for _, d := range s.inj.NodeDeaths() {
			if d.Node >= s.c.Nodes {
				continue
			}
			rel := s.deadAt[d.Node]
			if rel > mapEnd {
				continue // reduce-window death: handled against the shuffle drain
			}
			for _, t := range mapTasks {
				if t.done && t.node == d.Node && t.end <= rel {
					t.done = false
					t.readyAt = rel
					redo = append(redo, t)
				}
			}
		}
		if len(redo) == 0 {
			return nil
		}
		s.reexecuted += len(redo)
		if err := s.runPhase(faults.PhaseMap, redo); err != nil {
			return err
		}
	}
}

// shuffleWindow returns the shuffle interval of a reduce attempt: startup,
// then the partition's bytes at the modelled transfer rate, capped at the
// attempt window (mirrors the trace exporter's phase model).
func (s *faultSim) shuffleWindow(att TaskAttempt, shuffleBytes int) (time.Duration, time.Duration) {
	shufStart := att.Start + s.c.Cost.TaskStartup
	shufDur := time.Duration(float64(shuffleBytes) * float64(s.c.Cost.ShufflePerByte))
	if window := att.End - att.Start - s.c.Cost.TaskStartup; shufDur > window && window > 0 {
		shufDur = window
	}
	return shufStart, shufStart + shufDur
}

// reexecuteMapsLostInShuffle handles node deaths after the map phase: if
// the node held completed map output and at least one reducer had not
// finished fetching (the shuffle had not drained), the lost maps re-run
// and the affected reducers — those still shuffling at the death, or
// started before the re-executed output was back — are killed and rerun
// once the output is available. Deaths are processed in time order so a
// later death sees the repaired schedule.
func (s *faultSim) reexecuteMapsLostInShuffle(mapTasks, reduceTasks []*simTask, shuffleBytes []int) error {
	for _, d := range s.inj.NodeDeaths() {
		if d.Node >= s.c.Nodes {
			continue
		}
		rel := s.deadAt[d.Node]
		mapEnd := maxTaskEnd(mapTasks)
		if rel <= mapEnd {
			continue // map-window death: already handled
		}
		var lost []*simTask
		for _, t := range mapTasks {
			if t.done && t.node == d.Node && t.end <= rel {
				lost = append(lost, t)
			}
		}
		if len(lost) == 0 {
			continue
		}
		// Has the shuffle drained? Check every reducer's fetch window.
		drained := true
		for _, r := range reduceTasks {
			if r.final < 0 {
				continue
			}
			if _, shufEnd := s.shuffleWindow(s.attempts[r.final], shuffleBytes[r.id]); shufEnd > rel {
				drained = false
				break
			}
		}
		if drained {
			continue // every reducer already fetched the lost output
		}
		// Re-execute the lost maps on surviving nodes, from the death time.
		for _, t := range lost {
			t.done = false
			t.readyAt = rel
		}
		s.reexecuted += len(lost)
		if err := s.runPhase(faults.PhaseMap, lost); err != nil {
			return err
		}
		reexecEnd := maxTaskEnd(lost)
		// Reducers that needed the lost output rerun after it is back.
		var redo []*simTask
		for _, r := range reduceTasks {
			if r.final < 0 {
				continue
			}
			att := s.attempts[r.final]
			_, shufEnd := s.shuffleWindow(att, shuffleBytes[r.id])
			if shufEnd <= rel || att.Start >= reexecEnd {
				continue // drained before the death, or fetches repaired output
			}
			abort := rel
			if abort < att.Start {
				abort = att.Start + time.Millisecond
			}
			if abort < att.End {
				s.attempts[r.final].End = abort
			}
			s.attempts[r.final].Outcome = AttemptKilled
			s.attempts[r.final].Reason = fmt.Sprintf("map output lost (node %d died)", d.Node)
			r.done = false
			r.final = -1
			r.readyAt = reexecEnd
			redo = append(redo, r)
		}
		if err := s.runPhase(faults.PhaseReduce, redo); err != nil {
			return err
		}
	}
	return nil
}

// makespan is the finish time of the last completed attempt.
func (s *faultSim) makespan() time.Duration {
	var end time.Duration
	for _, a := range s.attempts {
		if a.End > end {
			end = a.End
		}
	}
	return end
}

// recordCounters publishes the recovery statistics. Every successful
// attempt committed its staged output through the commit protocol and
// every crashed/killed attempt had its staging aborted, so the commit
// counters mirror the attempt outcomes.
func (s *faultSim) recordCounters(c *Counters) {
	var succeeded, failed, killed int64
	for _, a := range s.attempts {
		switch a.Outcome {
		case AttemptSuccess:
			succeeded++
		case AttemptCrashed:
			failed++
		case AttemptKilled:
			killed++
		}
	}
	c.Add(CounterTaskAttempts, int64(len(s.attempts)))
	c.Add(CounterTaskFailures, failed)
	c.Add(CounterTaskKilled, killed)
	c.Add(CounterMapReexecutions, int64(s.reexecuted))
	c.Add(CounterNodesBlacklisted, int64(s.blacklistCt))
	c.Add(CounterSpeculative, int64(s.speculative))
	c.Add(CounterCommitCommitted, succeeded)
	c.Add(CounterCommitAborted, failed+killed)
}

// spanAttempt returns the attempt number and status a trace span shows
// for a: fault-free runs leave both zero, since each task runs exactly
// one attempt (see trace.Span).
func (s *faultSim) spanAttempt(a TaskAttempt) (int, string) {
	if s.inj == nil {
		return 0, ""
	}
	return a.Attempt, a.Outcome.String()
}

// blacklistedNodes lists blacklisted node ids in order.
func (s *faultSim) blacklistedNodes() []int {
	var out []int
	for node, b := range s.blacklisted {
		if b {
			out = append(out, node)
		}
	}
	return out
}

// maxTaskEnd is the latest completion among done tasks.
func maxTaskEnd(tasks []*simTask) time.Duration {
	var end time.Duration
	for _, t := range tasks {
		if t.done && t.end > end {
			end = t.end
		}
	}
	return end
}
