// Package ingest streams sequence reads into the always-on clustering
// service. A pluggable Source (pdk-style: file or HTTP) feeds an
// Ingester that batches records, sketches them on a concurrent worker
// pool, and hands the batches — in arrival order — to a Sink (the
// serving state). Every queue between the stages is bounded, so a slow
// sink applies backpressure all the way to the source instead of growing
// memory without bound; source failures retry with capped exponential
// backoff and deterministic seeded jitter (faults.Backoff), and a streak
// of failures as long as the retry budget ends the run.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// Record is one sequence read entering the service.
type Record struct {
	ID  string
	Seq []byte
}

// Source is the pluggable intake seam. Next returns the next record or
// io.EOF when the source is drained; any other error is treated as
// transient and retried by the Ingester until its retry budget runs
// out. Implementations need not be safe for
// concurrent Next calls — the Ingester reads from a single goroutine.
type Source interface {
	Next(ctx context.Context) (Record, error)
	Close() error
}

// Sketched is a read with its minwise signature computed, the unit the
// Ingester commits. Sequences are not retained: the serving state stores
// signatures only.
type Sketched struct {
	ID  string
	Sig minhash.Signature
}

// Sink receives sketched batches in arrival order. Commit must be safe
// to call from the Ingester's sequencer goroutine; it is never called
// concurrently with itself. A Commit error aborts the ingest run.
type Sink interface {
	Commit(ctx context.Context, batch []Sketched) error
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(ctx context.Context, batch []Sketched) error

// Commit calls f.
func (f SinkFunc) Commit(ctx context.Context, batch []Sketched) error { return f(ctx, batch) }

// Retry governs transient-failure handling of Source.Next calls.
type Retry struct {
	// MaxAttempts is the consecutive-failure budget for one record
	// (including the first try; default 4). Exhausting it aborts the
	// ingest run.
	MaxAttempts int
	// Base is the first retry delay (default 50ms); each further retry
	// multiplies it by Factor (default 2) up to Max (default 5s).
	Base   time.Duration
	Factor float64
	Max    time.Duration
	// Seed drives the deterministic jitter added to every delay
	// (faults.Jitter), so chaos runs sleep reproducible intervals.
	Seed int64
}

func (r Retry) withDefaults() Retry {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 4
	}
	if r.Base <= 0 {
		r.Base = 50 * time.Millisecond
	}
	if r.Factor < 1 {
		r.Factor = 2
	}
	if r.Max <= 0 {
		r.Max = 5 * time.Second
	}
	return r
}

// Config sizes an Ingester.
type Config struct {
	// K and NumHashes fix the sketch geometry; Seed the hash family;
	// Canonical folds reverse-complement k-mers.
	K         int
	NumHashes int
	Seed      int64
	Canonical bool
	// Workers is the sketch worker-pool size (default GOMAXPROCS, capped
	// at 8 — sketching saturates memory bandwidth before that).
	Workers int
	// BatchSize is the records per committed batch (default 64).
	BatchSize int
	// QueueDepth bounds the raw and sketched batch queues (default 4
	// batches each). Total buffered records are therefore at most
	// 2*QueueDepth*BatchSize + Workers*BatchSize — the memory bound that
	// turns a slow sink into source backpressure.
	QueueDepth int
	// Retry is the transient source-failure policy.
	Retry Retry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// Stats counts one ingest run. Snapshot values; read after Run returns
// or via Ingester.Stats during the run.
type Stats struct {
	Records      int64 // records read from the source
	Batches      int64 // batches committed to the sink
	SourceErrors int64 // transient Next failures observed
	Retries      int64 // retried Next calls (after backoff)
}

// Ingester runs the source → sketch → commit pipeline.
type Ingester struct {
	cfg      Config
	sketcher *minhash.Sketcher

	records      atomic.Int64
	batches      atomic.Int64
	sourceErrors atomic.Int64
	retries      atomic.Int64
}

// New validates the sketch geometry and returns an Ingester.
func New(cfg Config) (*Ingester, error) {
	cfg = cfg.withDefaults()
	sk, err := minhash.NewSketcher(cfg.NumHashes, cfg.K, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return &Ingester{cfg: cfg, sketcher: sk}, nil
}

// Stats snapshots the run counters.
func (in *Ingester) Stats() Stats {
	return Stats{
		Records:      in.records.Load(),
		Batches:      in.batches.Load(),
		SourceErrors: in.sourceErrors.Load(),
		Retries:      in.retries.Load(),
	}
}

// numbered pairs a batch with its arrival sequence number so the
// sequencer can restore commit order after the parallel sketch stage.
type numbered struct {
	seq  int64
	recs []Record
	out  []Sketched
}

// Run drains src through the pipeline into sink. It returns when the
// source reports io.EOF and every read has been committed, or on the
// first non-recoverable error (context cancellation, retry budget
// exhausted, sink failure). The source is always closed.
func (in *Ingester) Run(ctx context.Context, src Source, sink Sink) error {
	defer src.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	cfg := in.cfg
	rawCh := make(chan numbered, cfg.QueueDepth)
	doneCh := make(chan numbered, cfg.QueueDepth)

	var (
		readErr error          // reader's terminal error
		sinkErr error          // sequencer's terminal error
		wg      sync.WaitGroup // sketch workers
	)

	// Reader: single goroutine pulling the source with retry, batching
	// records, applying backpressure via the bounded rawCh.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		defer close(rawCh)
		readErr = in.read(ctx, src, rawCh)
	}()

	// Sketch workers: parallel, order-oblivious.
	wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			defer wg.Done()
			ex := &kmer.Extractor{K: cfg.K, Canonical: cfg.Canonical}
			var kms []uint64
			for nb := range rawCh {
				nb.out = make([]Sketched, len(nb.recs))
				for i, rec := range nb.recs {
					kms = ex.SliceInto(kms[:0], rec.Seq)
					nb.out[i] = Sketched{ID: rec.ID, Sig: in.sketcher.SketchInto(nil, kms)}
				}
				nb.recs = nil
				select {
				case doneCh <- nb:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(doneCh)
	}()

	// Sequencer: restores arrival order and commits.
	pending := make(map[int64]numbered)
	var next int64
	for nb := range doneCh {
		pending[nb.seq] = nb
		for {
			b, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if err := sink.Commit(ctx, b.out); err != nil {
				sinkErr = err
				cancel() // unblocks reader and workers
				break
			}
			in.batches.Add(1)
		}
		if sinkErr != nil {
			break
		}
	}
	// Drain any straggler batches so the workers can exit.
	for range doneCh {
	}
	<-readDone
	wg.Wait()

	switch {
	case sinkErr != nil:
		return fmt.Errorf("ingest: sink: %w", sinkErr)
	case readErr != nil:
		return readErr
	case ctx.Err() != nil:
		return ctx.Err()
	}
	return nil
}

// read pulls records from src until EOF, batching into rawCh. Transient
// errors retry with capped exponential backoff + seeded jitter, until
// Retry.MaxAttempts consecutive failures end the run.
func (in *Ingester) read(ctx context.Context, src Source, rawCh chan<- numbered) error {
	cfg := in.cfg
	var (
		batch []Record
		seq   int64
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		nb := numbered{seq: seq, recs: batch}
		seq++
		batch = nil
		select {
		case rawCh <- nb: // backpressure: blocks while the queue is full
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	attempt := 0
	for {
		rec, err := src.Next(ctx)
		switch {
		case err == nil:
			attempt = 0
			in.records.Add(1)
			batch = append(batch, rec)
			if len(batch) >= cfg.BatchSize {
				if err := flush(); err != nil {
					return err
				}
			}
		case errors.Is(err, io.EOF):
			return flush()
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			in.sourceErrors.Add(1)
			attempt++
			if attempt >= cfg.Retry.MaxAttempts {
				return fmt.Errorf("ingest: source failed %d consecutive times: %w", attempt, err)
			}
			in.retries.Add(1)
			delay := faults.Backoff(cfg.Retry.Seed, "ingest/source", attempt,
				cfg.Retry.Base, cfg.Retry.Factor, cfg.Retry.Max)
			if err := sleepCtx(ctx, delay); err != nil {
				return err
			}
		}
	}
}

// sleepCtx sleeps for d or until the context is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
