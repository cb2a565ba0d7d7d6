package mapreduce

import (
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
)

func TestBackoffForCapsAtMaxBackoff(t *testing.T) {
	p := retryPolicy{
		Backoff:       3 * time.Second,
		BackoffFactor: 2,
		MaxBackoff:    20 * time.Second,
	}
	want := []time.Duration{
		3 * time.Second,  // n=1
		6 * time.Second,  // n=2
		12 * time.Second, // n=3
		20 * time.Second, // n=4: 24s capped
		20 * time.Second, // n=5: stays at the ceiling
		20 * time.Second, // n=50: no overflow from the exponent
	}
	for i, n := range []int{1, 2, 3, 4, 5, 50} {
		if got := p.backoffFor(n); got != want[i] {
			t.Fatalf("backoffFor(%d) = %v, want %v", n, got, want[i])
		}
	}
}

func TestBackoffForUncappedWhenZero(t *testing.T) {
	p := retryPolicy{Backoff: time.Second, BackoffFactor: 2}
	if got := p.backoffFor(6); got != 32*time.Second {
		t.Fatalf("uncapped backoffFor(6) = %v, want 32s", got)
	}
}

func TestDefaultRetryPolicyHasSaneMaxBackoff(t *testing.T) {
	if defaultRetryPolicy.MaxBackoff <= 0 {
		t.Fatal("defaultRetryPolicy.MaxBackoff must be set")
	}
	p := retryPolicy{}.withDefaults()
	if p.MaxBackoff != defaultRetryPolicy.MaxBackoff {
		t.Fatalf("withDefaults MaxBackoff = %v, want %v", p.MaxBackoff, defaultRetryPolicy.MaxBackoff)
	}
	// The canned default must actually bound a long crash streak: after
	// 20 failures the delay equals the ceiling, not 3s*2^19.
	if got := p.backoffFor(20); got != p.MaxBackoff {
		t.Fatalf("backoffFor(20) = %v, want ceiling %v", got, p.MaxBackoff)
	}
}

// TestRetryBackoffJitterDeterministic pins that the simulator's retry
// delay (backoff + seeded jitter) is a pure function of the fault site:
// two identical faulted runs schedule retries at identical virtual
// times. The end-to-end bit-identity suites cover output equality; this
// covers the schedule itself via the attempt timeline.
func TestRetryBackoffJitterDeterministic(t *testing.T) {
	plan := faults.Plan{
		Seed:    42,
		Crashes: []faults.TaskCrash{{Phase: faults.PhaseMap, Task: 0, UpToAttempt: 2}},
	}
	lines := manyLines(6)
	a, err := runFaulted(t, plan, retryPolicy{}, lines)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runFaulted(t, plan, retryPolicy{}, lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Attempts) != len(b.Attempts) {
		t.Fatalf("attempt counts differ: %d vs %d", len(a.Attempts), len(b.Attempts))
	}
	for i := range a.Attempts {
		if a.Attempts[i] != b.Attempts[i] {
			t.Fatalf("attempt %d differs:\n%+v\n%+v", i, a.Attempts[i], b.Attempts[i])
		}
	}
}
