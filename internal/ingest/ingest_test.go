package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// synthSeq builds a deterministic DNA string distinct per index.
func synthSeq(i, length int) []byte {
	const bases = "ACGT"
	seq := make([]byte, length)
	state := uint64(i)*2654435761 + 1
	for j := range seq {
		state = state*6364136223846793005 + 1442695040888963407
		seq[j] = bases[(state>>33)%4]
	}
	return seq
}

// sliceSource serves a fixed record list, optionally failing Next at
// scripted call numbers (1-based).
type sliceSource struct {
	recs    []Record
	i       int
	call    int
	failOn  map[int]bool
	closed  bool
	failErr error
}

func (s *sliceSource) Next(ctx context.Context) (Record, error) {
	s.call++
	if s.failOn[s.call] {
		if s.failErr == nil {
			s.failErr = errors.New("scripted failure")
		}
		return Record{}, s.failErr
	}
	if s.i >= len(s.recs) {
		return Record{}, io.EOF
	}
	rec := s.recs[s.i]
	s.i++
	return rec, nil
}

func (s *sliceSource) Close() error { s.closed = true; return nil }

// collectSink accumulates committed batches.
type collectSink struct {
	mu      sync.Mutex
	batches [][]Sketched
}

func (c *collectSink) Commit(_ context.Context, batch []Sketched) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := make([]Sketched, len(batch))
	copy(cp, batch)
	c.batches = append(c.batches, cp)
	return nil
}

func (c *collectSink) all() []Sketched {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Sketched
	for _, b := range c.batches {
		out = append(out, b...)
	}
	return out
}

func testConfig() Config {
	return Config{
		K:         8,
		NumHashes: 32,
		Seed:      7,
		Canonical: true,
		Workers:   4,
		BatchSize: 8,
		Retry:     Retry{Base: time.Millisecond, Max: 5 * time.Millisecond},
	}
}

func makeRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{ID: fmt.Sprintf("read-%04d", i), Seq: synthSeq(i, 120)}
	}
	return recs
}

// TestRunOrderedAndCorrect pins the two core invariants: every record
// is committed exactly once IN SOURCE ORDER despite the parallel sketch
// stage, and each signature matches a direct single-threaded sketch.
func TestRunOrderedAndCorrect(t *testing.T) {
	recs := makeRecords(103) // deliberately not a batch multiple
	src := &sliceSource{recs: recs}
	sink := &collectSink{}
	ing, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Run(context.Background(), src, sink); err != nil {
		t.Fatal(err)
	}
	if !src.closed {
		t.Fatal("source not closed")
	}
	got := sink.all()
	if len(got) != len(recs) {
		t.Fatalf("committed %d records, want %d", len(got), len(recs))
	}
	cfg := testConfig()
	sk, err := minhash.NewSketcher(cfg.NumHashes, cfg.K, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ex := &kmer.Extractor{K: cfg.K, Canonical: cfg.Canonical}
	for i, s := range got {
		if s.ID != recs[i].ID {
			t.Fatalf("position %d: got %q, want %q (order broken)", i, s.ID, recs[i].ID)
		}
		want := sk.SketchInto(nil, ex.Slice(recs[i].Seq))
		if len(s.Sig) != len(want) {
			t.Fatalf("%s: signature length %d, want %d", s.ID, len(s.Sig), len(want))
		}
		for j := range want {
			if s.Sig[j] != want[j] {
				t.Fatalf("%s: signature word %d differs", s.ID, j)
			}
		}
	}
	st := ing.Stats()
	if st.Records != int64(len(recs)) {
		t.Fatalf("Stats.Records = %d, want %d", st.Records, len(recs))
	}
	if st.Batches != int64(len(sink.batches)) {
		t.Fatalf("Stats.Batches = %d, want %d", st.Batches, len(sink.batches))
	}
}

// TestRunRetriesTransientErrors: scripted failures below the budget are
// retried (with deterministic backoff) and the run still delivers all
// records in order.
func TestRunRetriesTransientErrors(t *testing.T) {
	recs := makeRecords(20)
	src := &sliceSource{recs: recs, failOn: map[int]bool{3: true, 7: true, 8: true}}
	sink := &collectSink{}
	ing, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Run(context.Background(), src, sink); err != nil {
		t.Fatal(err)
	}
	got := sink.all()
	if len(got) != len(recs) {
		t.Fatalf("committed %d, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].ID != recs[i].ID {
			t.Fatalf("order broken at %d", i)
		}
	}
	st := ing.Stats()
	if st.SourceErrors != 3 || st.Retries != 3 {
		t.Fatalf("stats = %+v, want 3 errors / 3 retries", st)
	}
}

// TestRunGivesUpAfterMaxAttempts: a persistent failure exhausts the
// consecutive-retry budget and surfaces the source error.
func TestRunGivesUpAfterMaxAttempts(t *testing.T) {
	persistent := errors.New("disk on fire")
	src := &sliceSource{
		recs:    makeRecords(4),
		failOn:  map[int]bool{2: true, 3: true, 4: true, 5: true, 6: true, 7: true},
		failErr: persistent,
	}
	cfg := testConfig()
	cfg.Retry.MaxAttempts = 3
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = ing.Run(context.Background(), src, &collectSink{})
	if !errors.Is(err, persistent) {
		t.Fatalf("err = %v, want wrapped %v", err, persistent)
	}
	if !src.closed {
		t.Fatal("source not closed on failure")
	}
}

// TestRunRetryBudgetIsConsecutive: the budget counts failures in a row,
// and a delivered record starts it over. Three streaks of two failures
// each, under a budget of three, add up to more failures than the
// budget yet never exhaust it: every record still commits in order.
func TestRunRetryBudgetIsConsecutive(t *testing.T) {
	recs := makeRecords(6)
	src := &sliceSource{recs: recs, failOn: map[int]bool{2: true, 3: true, 5: true, 6: true, 8: true, 9: true}}
	sink := &collectSink{}
	cfg := testConfig()
	cfg.Retry.MaxAttempts = 3
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Run(context.Background(), src, sink); err != nil {
		t.Fatalf("streaks shorter than the budget ended the run: %v", err)
	}
	got := sink.all()
	if len(got) != len(recs) {
		t.Fatalf("committed %d, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].ID != recs[i].ID {
			t.Fatalf("order broken at %d: %q", i, got[i].ID)
		}
	}
	if st := ing.Stats(); st.SourceErrors != 6 || st.Retries != 6 {
		t.Fatalf("stats = %+v, want 6 errors / 6 retries", st)
	}
}

// TestRunSinkErrorAborts: a sink failure cancels the pipeline promptly
// and is reported.
func TestRunSinkErrorAborts(t *testing.T) {
	boom := errors.New("sink full")
	var n int
	sink := SinkFunc(func(ctx context.Context, batch []Sketched) error {
		n++
		if n >= 2 {
			return boom
		}
		return nil
	})
	src := &sliceSource{recs: makeRecords(200)}
	ing, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ing.Run(context.Background(), src, sink) }()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after sink error")
	}
}

// TestRunContextCancel: cancelling mid-run unblocks every stage.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	slow := SinkFunc(func(ctx context.Context, batch []Sketched) error {
		cancel()
		<-ctx.Done()
		return ctx.Err()
	})
	src := &sliceSource{recs: makeRecords(500)}
	ing, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ing.Run(ctx, src, slow) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from a cancelled run")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after cancel")
	}
}

// TestRunOrderedUnderBackpressure: with queues of one batch, every
// batch waits on the sequencer, and the records still commit in order.
func TestRunOrderedUnderBackpressure(t *testing.T) {
	recs := makeRecords(64)
	s := &sliceSource{recs: recs}
	sink := &collectSink{}
	cfg := testConfig()
	cfg.QueueDepth = 1
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Run(context.Background(), s, sink); err != nil {
		t.Fatal(err)
	}
	got := sink.all()
	if len(got) != len(recs) {
		t.Fatalf("committed %d, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].ID != recs[i].ID {
			t.Fatalf("order broken at %d: %q", i, got[i].ID)
		}
	}
}
