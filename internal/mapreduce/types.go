// Package mapreduce is a Hadoop-style MapReduce engine executing on a
// *simulated cluster*: jobs run for real on goroutine worker pools, while a
// virtual clock models how long the same work would take on N machines with
// per-task startup, per-record compute and per-byte shuffle costs. The
// paper runs its Pig pipelines as Hadoop jobs on Amazon EMR with 2–12
// nodes; this engine supplies the same dataflow (input splits → map →
// combine → partition → sort/shuffle → reduce → output) and the runtime
// model behind the paper's Figure 2 scalability study.
package mapreduce

import (
	"fmt"
	"reflect"
	"time"
)

// KeyValue is one record a job emits: a shuffle key and its value.
type KeyValue[K Key, V any] struct {
	Key   K
	Value V
}

// Key is the type of a shuffle key: a string, or a fixed-width numeric
// key that partitions, sorts and counts exactly as its big-endian bytes
// would, without a string ever being built.
type Key interface {
	string | Key64 | Key128
}

// Key64 is a numeric key that shuffles as its 8 big-endian bytes: keys
// sort in numeric order and each counts 8 shuffle bytes.
type Key64 uint64

// Key128 is a pair key that shuffles as the 16 big-endian bytes of Hi
// then Lo: keys sort in (Hi, Lo) order and each counts 16 shuffle bytes.
type Key128 struct{ Hi, Lo uint64 }

// FNV-1a, the hash every key is partitioned by.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// DefaultPartition hashes the key (FNV-1a) modulo n. A degenerate
// partition count (n <= 0) returns -1, out of every valid range, instead
// of the integer-divide panic a bare modulo would hit.
func DefaultPartition(key string, n int) int {
	if n <= 0 {
		return -1
	}
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return int(h % uint64(n))
}

// fnvWord folds the 8 big-endian bytes of w into the FNV-1a hash h.
func fnvWord(h, w uint64) uint64 {
	for s := 56; s >= 0; s -= 8 {
		h ^= w >> s & 0xff
		h *= fnvPrime
	}
	return h
}

// partitioner returns the partition function of a key type, chosen once
// per job so that no record pays for a type switch. A numeric key hashes
// its big-endian bytes, so it lands where its byte encoding would.
func partitioner[K Key]() func(key K, n int) int {
	var f any
	switch any(*new(K)).(type) {
	case string:
		f = DefaultPartition
	case Key64:
		f = func(k Key64, n int) int { return int(fnvWord(fnvOffset, uint64(k)) % uint64(n)) }
	case Key128:
		f = func(k Key128, n int) int { return int(fnvWord(fnvWord(fnvOffset, k.Hi), k.Lo) % uint64(n)) }
	}
	return f.(func(K, int) int)
}

// sizer returns how the cost model counts the bytes of a T, chosen once
// per job: the length of a string; the one size of a pointer-free,
// fixed-size type (a Key64 or an int 8, a Key128 16, struct{} 0), as
// approxValueBytes would give it; and approxValueBytes of each value of
// any other type. Pig's KeyValue[string, any] records count their key's
// length plus their value's approxValueBytes.
func sizer[T any]() func(T) int {
	var f any
	switch any(*new(T)).(type) {
	case string:
		f = func(s string) int { return len(s) }
	case KeyValue[string, any]:
		f = func(kv KeyValue[string, any]) int { return len(kv.Key) + approxValueBytes(kv.Value) }
	}
	if f != nil {
		return f.(func(T) int)
	}
	if t := reflect.TypeFor[T](); fixedSize(t) {
		n := reflectValueBytes(reflect.Zero(t), maxSizeDepth)
		return func(T) int { return n }
	}
	return func(v T) int { return approxValueBytes(v) }
}

// fixedSize reports whether every value of type t has the same
// reflectValueBytes: t holds no string, slice, map, pointer or interface.
func fixedSize(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return false
	case reflect.Array:
		return fixedSize(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !fixedSize(t.Field(i).Type) {
				return false
			}
		}
	}
	return true
}

// approxValueBytes estimates serialized size for the cost model. Known
// concrete types are sized directly; anything else (named slice types,
// structs, tuples) is walked reflectively so struct- and slice-valued
// jobs charge shuffle bytes proportional to their payload instead of a
// flat constant.
func approxValueBytes(v any) int {
	switch x := v.(type) {
	case nil:
		return 0
	case string:
		return len(x)
	case []byte:
		return len(x)
	case []uint64:
		return 8 * len(x)
	case []float64:
		return 8 * len(x)
	case int, int64, uint64, float64:
		return 8
	}
	return reflectValueBytes(reflect.ValueOf(v), maxSizeDepth)
}

// maxSizeDepth bounds the reflective size walk: deeply nested (or cyclic,
// via pointers) values are truncated to a word per unexplored branch.
const maxSizeDepth = 12

// reflectValueBytes walks rv summing an approximate wire size. It never
// calls Interface(), so unexported struct fields (common in job payload
// tuples) are sized like exported ones.
func reflectValueBytes(rv reflect.Value, depth int) int {
	if !rv.IsValid() {
		return 0
	}
	if depth <= 0 {
		return 8
	}
	switch rv.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64,
		reflect.Uintptr, reflect.Float64, reflect.Complex64:
		return 8
	case reflect.Complex128:
		return 16
	case reflect.String:
		return rv.Len()
	case reflect.Slice, reflect.Array:
		n := rv.Len()
		if n == 0 {
			return 0
		}
		// Fixed-size element kinds are sized without visiting each element.
		switch rv.Type().Elem().Kind() {
		case reflect.Bool, reflect.Int8, reflect.Uint8:
			return n
		case reflect.Int16, reflect.Uint16:
			return 2 * n
		case reflect.Int32, reflect.Uint32, reflect.Float32:
			return 4 * n
		case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64,
			reflect.Uintptr, reflect.Float64:
			return 8 * n
		}
		total := 0
		for i := 0; i < n; i++ {
			total += reflectValueBytes(rv.Index(i), depth-1)
		}
		return total
	case reflect.Map:
		total := 0
		iter := rv.MapRange()
		for iter.Next() {
			total += reflectValueBytes(iter.Key(), depth-1)
			total += reflectValueBytes(iter.Value(), depth-1)
		}
		return total
	case reflect.Ptr, reflect.Interface:
		if rv.IsNil() {
			return 0
		}
		return reflectValueBytes(rv.Elem(), depth-1)
	case reflect.Struct:
		total := 0
		for i := 0; i < rv.NumField(); i++ {
			total += reflectValueBytes(rv.Field(i), depth-1)
		}
		return total
	default:
		return 8
	}
}

// Validate rejects malformed jobs before execution.
func (j *Job[I, K, V]) Validate() error {
	if j.Map == nil {
		return fmt.Errorf("mapreduce: job %q has no map function", j.Name)
	}
	if j.NumReducers < 0 {
		return fmt.Errorf("mapreduce: job %q has negative reducer count", j.Name)
	}
	if j.Combine != nil && j.Reduce == nil {
		return fmt.Errorf("mapreduce: job %q has a combiner but no reducer", j.Name)
	}
	return nil
}

// AttemptOutcome classifies how one task attempt ended on the simulated
// cluster.
type AttemptOutcome uint8

// Attempt outcomes.
const (
	// AttemptSuccess: the attempt ran to completion; its output is the
	// task's output.
	AttemptSuccess AttemptOutcome = iota
	// AttemptCrashed: an injected fault failed the attempt; it counts
	// against the task's retry budget and the node's blacklist threshold.
	AttemptCrashed
	// AttemptKilled: the attempt was lost through no fault of its own
	// (node death, or a completed map whose output was lost before the
	// shuffle drained). Killed attempts do not consume the retry budget,
	// matching Hadoop's KILLED vs FAILED distinction.
	AttemptKilled
)

// String names the outcome for traces and errors.
func (o AttemptOutcome) String() string {
	switch o {
	case AttemptSuccess:
		return "success"
	case AttemptCrashed:
		return "crashed"
	case AttemptKilled:
		return "killed"
	default:
		return "unknown"
	}
}

// TaskAttempt is one scheduled attempt on the job's virtual timeline
// (times are relative to the end of job startup). The full attempt log of
// a faulted run is exposed on Result for tests and trace export.
type TaskAttempt struct {
	// Phase is faults.PhaseMap or faults.PhaseReduce.
	Phase string
	// Task indexes the task within its phase; Attempt is 1-based.
	Task    int
	Attempt int
	// Node and Slot locate the simulated machine.
	Node int
	Slot int
	// Start and End bound the attempt on the job-relative virtual clock.
	Start   time.Duration
	End     time.Duration
	Outcome AttemptOutcome
	// Reason explains non-success outcomes ("injected crash", "node 2
	// died", "map output lost").
	Reason string
	// Speculative marks a backup attempt launched for a modelled
	// straggler (Cluster.Speculative).
	Speculative bool
}

// retryPolicy governs task recovery on the simulated cluster, mirroring
// Hadoop's mapred.map/reduce.max.attempts and host blacklisting.
type retryPolicy struct {
	// MaxAttempts is the per-task attempt budget including the first run
	// (Hadoop default 4). Crashed attempts consume it; killed ones do not.
	MaxAttempts int
	// Backoff is the virtual-time delay before the first retry; each
	// further retry multiplies it by BackoffFactor (exponential backoff).
	Backoff time.Duration
	// BackoffFactor defaults to 2.
	BackoffFactor float64
	// MaxBackoff caps the exponential growth: no single retry delay
	// exceeds it, however many attempts have failed. 0 means
	// defaultRetryPolicy.MaxBackoff; a task that legitimately needs
	// uncapped growth can set it to a huge value, but an uncapped
	// default turns a long retry tail into hours of virtual idle time.
	MaxBackoff time.Duration
	// BlacklistAfter is how many crashed attempts on one node blacklist it
	// for the rest of the job (Hadoop's mapred.max.tracker.failures). The
	// last usable node is never blacklisted.
	BlacklistAfter int
}

// defaultRetryPolicy mirrors a stock Hadoop configuration.
var defaultRetryPolicy = retryPolicy{
	MaxAttempts:    4,
	Backoff:        3 * time.Second,
	BackoffFactor:  2,
	MaxBackoff:     60 * time.Second,
	BlacklistAfter: 3,
}

// withDefaults fills zero fields.
func (p retryPolicy) withDefaults() retryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultRetryPolicy.MaxAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = defaultRetryPolicy.Backoff
	}
	if p.BackoffFactor < 1 {
		p.BackoffFactor = defaultRetryPolicy.BackoffFactor
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = defaultRetryPolicy.MaxBackoff
	}
	if p.BlacklistAfter <= 0 {
		p.BlacklistAfter = defaultRetryPolicy.BlacklistAfter
	}
	return p
}

// backoffFor returns the capped exponential delay before the retry that
// follows the n-th crashed attempt (n >= 1): Backoff*BackoffFactor^(n-1),
// never exceeding MaxBackoff (when set). Seeded jitter is layered on top
// by the fault simulator via faults.Backoff.
func (p retryPolicy) backoffFor(n int) time.Duration {
	if n < 1 {
		n = 1
	}
	d := float64(p.Backoff)
	for i := 1; i < n; i++ {
		d *= p.BackoffFactor
		if p.MaxBackoff > 0 && d >= float64(p.MaxBackoff) {
			break
		}
	}
	if p.MaxBackoff > 0 && d > float64(p.MaxBackoff) {
		d = float64(p.MaxBackoff)
	}
	return time.Duration(d)
}

// TaskFailedError reports a job killed because one task exhausted its
// retry budget (or ran out of usable nodes) — the simulated analogue of
// Hadoop's "Task failed N times" job failure. Use errors.As to detect it.
type TaskFailedError struct {
	Job      string
	Phase    string
	Task     int
	Attempts int
	Reason   string
}

// Error formats the failure Hadoop-style.
func (e *TaskFailedError) Error() string {
	return fmt.Sprintf("mapreduce: job %q %s task %d failed after %d attempts: %s",
		e.Job, e.Phase, e.Task, e.Attempts, e.Reason)
}

// Job specifies one MapReduce computation over input records of type I
// whose map emits K-keyed V values. The reducer (or, in a map-only job,
// the map) emits the job's output records, of the same key and value
// types.
type Job[I any, K Key, V any] struct {
	Name  string
	Input []I
	// splitSize is the input records per map task. 0 sizes splits so the
	// cluster runs two waves of map tasks per slot, every slot getting
	// work.
	splitSize int
	Map       func(in I, emit func(K, V)) error
	// Combine optionally pre-aggregates map output per task.
	Combine func(key K, values []V, emit func(K, V)) error
	// Reduce folds shuffled groups; nil makes the job map-only (map output
	// is the job output, no shuffle). It may keep its values, or append
	// to them, without touching another group's.
	Reduce func(key K, values []V, emit func(K, V)) error
	// NumReducers defaults to the cluster node count.
	NumReducers int
	// MapCostFactor/ReduceCostFactor scale the modelled per-record compute
	// cost of this job's tasks relative to the cost model baseline
	// (1.0 when zero). Heavy UDFs (e.g. all-pairs similarity rows) set >1.
	MapCostFactor    float64
	ReduceCostFactor float64
	// Detail annotates the job's trace span (Pig lists the statements
	// each phase runs).
	Detail string
}
