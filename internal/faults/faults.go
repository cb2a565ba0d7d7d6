// Package faults is the deterministic fault-injection layer of the
// simulated Hadoop stack. A seeded Injector owns a Plan of faults at four
// sites: task-attempt crashes, node deaths at a virtual time and slow
// nodes, which the MapReduce engine consults on its hot paths; driver
// deaths after a pipeline stage commits; and the serving daemon's death
// after it acknowledges enough reads. Every decision is a pure function
// of the plan seed and the site identity (job, phase, task, attempt,
// node, stage), never of goroutine scheduling order, so a faulted run is
// bit-reproducible: the same seed yields the same crashes, the same
// recovery schedule, and — because recovery is lossless — the same job
// output as the fault-free run.
//
// The package is a leaf: it imports none of the layers it breaks, so
// each can depend on it without cycles.
package faults

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Phases a task-level fault can target.
const (
	PhaseMap    = "map"
	PhaseReduce = "reduce"
)

// TaskCrash declares targeted attempt crashes: attempts 1..UpToAttempt of
// the matching task fail, so attempt UpToAttempt+1 (if the retry budget
// allows one) succeeds. Empty/negative selector fields match anything.
type TaskCrash struct {
	// Job matches the job name exactly; "" matches every job.
	Job string
	// Phase is PhaseMap or PhaseReduce; "" matches both.
	Phase string
	// Task is the task index within the phase; -1 matches every task.
	Task int
	// UpToAttempt is the last attempt number that crashes (1-based).
	UpToAttempt int
}

func (tc TaskCrash) matches(job, phase string, task int) bool {
	if tc.Job != "" && tc.Job != job {
		return false
	}
	if tc.Phase != "" && tc.Phase != phase {
		return false
	}
	if tc.Task >= 0 && tc.Task != task {
		return false
	}
	return true
}

// NodeDeath kills a simulated cluster node at a point on the global
// virtual clock. The node never comes back: running attempts on it are
// killed, completed map output it holds is lost, and it receives no
// further work.
type NodeDeath struct {
	Node int
	At   time.Duration
}

// SlowNode models a flaky machine: every attempt placed on Node runs
// Factor times longer than nominal (Factor ≥ 1).
type SlowNode struct {
	Node   int
	Factor float64
}

// DriverCrash kills the pipeline driver immediately after the named stage
// has committed its checkpoint — the cross-job failure class that stage
// checkpointing exists for. The crash fires only when the stage actually
// executes, so a resumed run that skips the stage from its manifest sails
// past the crash site (the model is a one-time process death, not a
// deterministic repeating crash).
type DriverCrash struct {
	// AfterStage names the pipeline stage ("sketch", "similarity",
	// "greedy", "cluster", or a Pig "store:<path>" stage).
	AfterStage string
}

// DriverCrashError is returned by a pipeline whose driver was killed by an
// injected DriverCrash. The stage's output is already committed; re-running
// with resume enabled continues from the next stage. Use errors.As to
// detect it.
type DriverCrashError struct {
	// Stage is the stage after whose commit the driver died.
	Stage string
}

// Error formats the crash.
func (e *DriverCrashError) Error() string {
	return fmt.Sprintf("faults: driver crashed after stage %q (checkpoint committed; re-run with resume)", e.Stage)
}

// ServiceCrash kills the always-on clustering daemon (mrmcminhd) once it
// has acknowledged at least AfterReads reads — the mid-ingest process
// death the service's WAL + snapshot recovery exists for. Acknowledged
// reads are WAL-durable by definition, so a restarted server with
// --resume must recover every one of them bit-identically; the crash is
// a one-time process death (a resumed run that starts past the
// threshold does not re-fire it — the daemon consults the site only for
// reads it acknowledges itself).
type ServiceCrash struct {
	// AfterReads is the acknowledged-read count that triggers the kill
	// (>= 1).
	AfterReads int
}

// ServiceCrashError is returned by the serving state when an injected
// ServiceCrash fires. Every read acknowledged so far is WAL-durable;
// restarting the daemon with --resume recovers all of them. Use
// errors.As to detect it.
type ServiceCrashError struct {
	// Acked is how many reads had been acknowledged when the service
	// died.
	Acked int64
}

// Error formats the crash.
func (e *ServiceCrashError) Error() string {
	return fmt.Sprintf("faults: service crashed after %d acknowledged reads (WAL is durable; restart with --resume)", e.Acked)
}

// Plan declares everything an Injector will break. The zero Plan injects
// nothing; all probabilistic sites are derived deterministically from
// Seed.
type Plan struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// TaskCrashProb is the chance a given task attempt crashes, decided by
	// hashing (seed, job, phase, task, attempt) — independent of execution
	// order.
	TaskCrashProb float64
	// MaxCrashesPerTask caps probabilistic crashes of one task, so a plan
	// with MaxCrashesPerTask below the engine's retry budget always lets
	// the job finish. 0 means unbounded (targeted TaskCrash entries are
	// exempt: they state their own attempt bound).
	MaxCrashesPerTask int
	// Crashes are targeted attempt failures.
	Crashes []TaskCrash
	// NodeDeaths kill cluster nodes at virtual times.
	NodeDeaths []NodeDeath
	// SlowNodes dilate task durations per node.
	SlowNodes []SlowNode
	// DriverCrashes kill the pipeline driver after named stages commit.
	DriverCrashes []DriverCrash
	// ServiceCrashes kill the serving daemon after acknowledged-read
	// thresholds.
	ServiceCrashes []ServiceCrash
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return p.TaskCrashProb == 0 && len(p.Crashes) == 0 &&
		len(p.NodeDeaths) == 0 && len(p.SlowNodes) == 0 &&
		len(p.DriverCrashes) == 0 && len(p.ServiceCrashes) == 0
}

// Validate rejects malformed plans.
func (p Plan) Validate() error {
	if !(p.TaskCrashProb >= 0 && p.TaskCrashProb <= 1) {
		return fmt.Errorf("faults: crash probability %v out of [0,1]", p.TaskCrashProb)
	}
	for _, s := range p.SlowNodes {
		if !(s.Factor >= 1) {
			return fmt.Errorf("faults: slow node %d factor %v must be >= 1", s.Node, s.Factor)
		}
	}
	for _, d := range p.NodeDeaths {
		if d.Node < 0 {
			return fmt.Errorf("faults: node death on negative node %d", d.Node)
		}
	}
	for _, dc := range p.DriverCrashes {
		if dc.AfterStage == "" {
			return fmt.Errorf("faults: driver crash needs a stage name")
		}
	}
	for _, sc := range p.ServiceCrashes {
		if sc.AfterReads < 1 {
			return fmt.Errorf("faults: service crash threshold %d must be >= 1", sc.AfterReads)
		}
	}
	return nil
}

// Injector answers fault queries for one plan. It is safe for concurrent
// use; a nil *Injector is the disabled state and every method on it is an
// inject-nothing no-op.
type Injector struct {
	plan Plan

	mu     sync.Mutex
	counts map[string]int64
}

// New returns an injector for the plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan, counts: make(map[string]int64)}, nil
}

// MustNew is New panicking on error.
func MustNew(plan Plan) *Injector {
	in, err := New(plan)
	if err != nil {
		panic(err)
	}
	return in
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Enabled reports whether the injector can inject anything.
func (in *Injector) Enabled() bool { return in != nil && !in.plan.Empty() }

// CrashAttempt reports whether the given attempt of a task crashes, and
// if so how far through its work the crash lands (a fraction in
// (0,1]). priorCrashes is how many attempts of this task have already
// crashed; the probabilistic path uses it to honor MaxCrashesPerTask.
// The decision is a pure function of (seed, job, phase, task, attempt).
func (in *Injector) CrashAttempt(job, phase string, task, attempt, priorCrashes int) (bool, float64) {
	if in == nil {
		return false, 0
	}
	for _, tc := range in.plan.Crashes {
		if tc.matches(job, phase, task) && attempt <= tc.UpToAttempt {
			in.count("task.crash.targeted")
			return true, failPoint(in.plan.Seed, job, phase, task, attempt)
		}
	}
	if p := in.plan.TaskCrashProb; p > 0 {
		if in.plan.MaxCrashesPerTask > 0 && priorCrashes >= in.plan.MaxCrashesPerTask {
			return false, 0
		}
		h := siteHash(in.plan.Seed, "crash", job, phase, task, attempt)
		if unit(h) < p {
			in.count("task.crash.random")
			return true, failPoint(in.plan.Seed, job, phase, task, attempt)
		}
	}
	return false, 0
}

// DeathOf returns the earliest planned death time of a cluster node on
// the global virtual clock.
func (in *Injector) DeathOf(node int) (time.Duration, bool) {
	if in == nil {
		return 0, false
	}
	var at time.Duration
	found := false
	for _, d := range in.plan.NodeDeaths {
		if d.Node == node && (!found || d.At < at) {
			at, found = d.At, true
		}
	}
	return at, found
}

// NodeDeaths returns all planned deaths sorted by (time, node).
func (in *Injector) NodeDeaths() []NodeDeath {
	if in == nil {
		return nil
	}
	out := make([]NodeDeath, len(in.plan.NodeDeaths))
	copy(out, in.plan.NodeDeaths)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// DriverCrashAfter reports whether the plan kills the driver after the
// named stage executes and commits. The pipeline driver calls this once
// per executed stage (skipped stages never consult it) and returns a
// *DriverCrashError when it fires.
func (in *Injector) DriverCrashAfter(stage string) bool {
	if in == nil {
		return false
	}
	for _, dc := range in.plan.DriverCrashes {
		if dc.AfterStage == stage {
			in.count("driver.crash")
			return true
		}
	}
	return false
}

// ServiceCrashNow reports whether the plan kills the serving daemon
// given that acked reads have been acknowledged so far. The daemon's
// committer calls this after each acknowledged batch; the site fires
// once (the model is a one-time process death).
func (in *Injector) ServiceCrashNow(acked int64) bool {
	if in == nil {
		return false
	}
	for _, sc := range in.plan.ServiceCrashes {
		if acked >= int64(sc.AfterReads) {
			in.count("service.crash")
			return true
		}
	}
	return false
}

// SlowFactor returns the duration multiplier for a node (1.0 when the
// node is healthy).
func (in *Injector) SlowFactor(node int) float64 {
	if in == nil {
		return 1
	}
	f := 1.0
	for _, s := range in.plan.SlowNodes {
		if s.Node == node && s.Factor > f {
			f = s.Factor
		}
	}
	return f
}

// count bumps an injection counter.
func (in *Injector) count(name string) {
	in.mu.Lock()
	in.counts[name]++
	in.mu.Unlock()
}

// Counts snapshots how many faults of each kind have been injected.
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Injected totals all injected faults.
func (in *Injector) Injected() int64 {
	var n int64
	for _, v := range in.Counts() {
		n += v
	}
	return n
}

// failPoint derives a crash point in [0.1, 0.95] of the attempt's nominal
// duration from the site identity.
func failPoint(seed int64, job, phase string, task, attempt int) float64 {
	return 0.1 + 0.85*unit(siteHash(seed, "failpoint", job, phase, task, attempt))
}

// siteHash folds a fault site's identity into 64 bits, FNV-1a over the
// textual fields then SplitMix64-finalized with the numeric ones.
func siteHash(seed int64, kind, a, b string, x, y int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // field separator
		h *= prime64
	}
	mix(kind)
	mix(a)
	mix(b)
	z := h ^ uint64(seed) ^ uint64(x)<<32 ^ uint64(uint32(y))
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
