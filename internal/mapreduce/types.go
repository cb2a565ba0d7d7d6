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
	"encoding/binary"
	"fmt"
	"reflect"
	"time"
)

// KeyValue is one record flowing through a job.
type KeyValue struct {
	Key   string
	Value any
}

// Uint64Key encodes v as an 8-byte big-endian key. Fixed-width
// big-endian keys compare bytewise in numeric order, as zero-padded
// decimals do, so the engine partitions, sorts and merges them like any
// other key while jobs skip formatting and parsing.
func Uint64Key(v uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return string(b[:])
}

// PairKey encodes (a, b) as a 16-byte big-endian key; keys compare
// bytewise in (a, b) lexicographic order.
func PairKey(a, b uint64) string {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], a)
	binary.BigEndian.PutUint64(buf[8:], b)
	return string(buf[:])
}

// KeyField decodes field i of a key built by Uint64Key (i = 0) or
// PairKey (i = 0 or 1) without allocating. Any other key is a bug in the
// job that built it, and an index past its end panics.
func KeyField(key string, i int) uint64 {
	f := key[8*i : 8*i+8]
	return uint64(f[0])<<56 | uint64(f[1])<<48 | uint64(f[2])<<40 | uint64(f[3])<<32 |
		uint64(f[4])<<24 | uint64(f[5])<<16 | uint64(f[6])<<8 | uint64(f[7])
}

// MapFunc transforms one input record into zero or more output records.
type MapFunc func(kv KeyValue, emit func(KeyValue)) error

// ReduceFunc folds all values sharing a key into zero or more records.
// It is also the signature of combiners (mini-reducers run on map output).
type ReduceFunc func(key string, values []any, emit func(KeyValue)) error

// PartitionFunc routes a key to one of n reduce partitions.
type PartitionFunc func(key string, n int) int

// DefaultPartition hashes the key (FNV-1a) modulo n. A degenerate
// partition count (n <= 0) returns -1 — out of every valid range — so
// the engine rejects the job with a clean partitioner error instead of
// the integer-divide panic a bare modulo would hit.
func DefaultPartition(key string, n int) int {
	if n <= 0 {
		return -1
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// InputSplit is one unit of map-task work.
type InputSplit struct {
	Records []KeyValue
	// Bytes approximates the split's on-disk size for the cost model.
	Bytes int
}

// MemoryInput serves in-memory records chunked into equally sized splits.
type MemoryInput struct {
	Records []KeyValue
	// SplitSize is the records per split. 0 sizes splits so the cluster
	// runs two waves of map tasks per slot, every slot getting work.
	SplitSize int
}

// Splits chunks the records for cluster c.
func (m MemoryInput) Splits(c Cluster) []InputSplit {
	size := m.SplitSize
	if size <= 0 {
		waves := 2 * c.TotalSlots()
		size = max(1, (len(m.Records)+waves-1)/waves)
	}
	var splits []InputSplit
	for off := 0; off < len(m.Records); off += size {
		end := off + size
		if end > len(m.Records) {
			end = len(m.Records)
		}
		chunk := m.Records[off:end]
		b := 0
		for _, kv := range chunk {
			b += len(kv.Key) + approxValueBytes(kv.Value)
		}
		splits = append(splits, InputSplit{Records: chunk, Bytes: b})
	}
	// An empty input yields zero splits (no phantom map task); Run
	// short-circuits a splitless job to an empty result at zero cost.
	return splits
}

// Sizer lets a user value type report its serialized size to the shuffle
// accounting (split sizing, shuffle.bytes, spill-buffer budgeting).
// Implement it on heavy custom payloads where the reflective estimate is
// either wrong or too slow for the emit hot path.
type Sizer interface {
	SizeBytes() int
}

// approxValueBytes estimates serialized size for the cost model. Known
// concrete types are sized directly; a type implementing Sizer reports
// itself; anything else (named slice types, structs, tuples) is walked
// reflectively so struct- and slice-valued jobs charge shuffle bytes
// proportional to their payload instead of a flat constant.
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
	if s, ok := v.(Sizer); ok {
		return s.SizeBytes()
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
func (j *Job) Validate() error {
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

// RetryPolicy governs task recovery on the simulated cluster, mirroring
// Hadoop's mapred.map/reduce.max.attempts and host blacklisting.
type RetryPolicy struct {
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
	// DefaultRetryPolicy.MaxBackoff; a task that legitimately needs
	// uncapped growth can set it to a huge value, but an uncapped
	// default turns a long retry tail into hours of virtual idle time.
	MaxBackoff time.Duration
	// BlacklistAfter is how many crashed attempts on one node blacklist it
	// for the rest of the job (Hadoop's mapred.max.tracker.failures). The
	// last usable node is never blacklisted.
	BlacklistAfter int
}

// DefaultRetryPolicy mirrors a stock Hadoop configuration.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts:    4,
	Backoff:        3 * time.Second,
	BackoffFactor:  2,
	MaxBackoff:     60 * time.Second,
	BlacklistAfter: 3,
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = DefaultRetryPolicy.Backoff
	}
	if p.BackoffFactor < 1 {
		p.BackoffFactor = DefaultRetryPolicy.BackoffFactor
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultRetryPolicy.MaxBackoff
	}
	if p.BlacklistAfter <= 0 {
		p.BlacklistAfter = DefaultRetryPolicy.BlacklistAfter
	}
	return p
}

// BackoffFor returns the capped exponential delay before the retry that
// follows the n-th crashed attempt (n >= 1): Backoff*BackoffFactor^(n-1),
// never exceeding MaxBackoff (when set). Seeded jitter is layered on top
// by the fault simulator via faults.Backoff.
func (p RetryPolicy) BackoffFor(n int) time.Duration {
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

// Job specifies one MapReduce computation.
type Job struct {
	Name  string
	Input MemoryInput
	Map   MapFunc
	// Combine optionally pre-aggregates map output per task.
	Combine ReduceFunc
	// Reduce folds shuffled groups; nil makes the job map-only (map output
	// is the job output, no shuffle).
	Reduce ReduceFunc
	// NumReducers defaults to the cluster node count.
	NumReducers int
	// Partition defaults to DefaultPartition.
	Partition PartitionFunc
	// MapCostFactor/ReduceCostFactor scale the modelled per-record compute
	// cost of this job's tasks relative to the cost model baseline
	// (1.0 when zero). Heavy UDFs (e.g. all-pairs similarity rows) set >1.
	MapCostFactor    float64
	ReduceCostFactor float64
	// Detail annotates the job's trace span (Pig lists the statements
	// each phase runs).
	Detail string
}
