// Command mrmcminhd is the always-on clustering daemon: it keeps the
// incremental MinHash clusterer resident, ingests reads from files,
// URLs, and an HTTP submit endpoint, and answers assignment/diversity
// queries while new reads stream in. Reads are acknowledged only after
// their WAL record is fsynced; a graceful shutdown (SIGTERM/SIGINT or
// -drain-after-ingest) drains the commit queue and writes a
// content-addressed snapshot, and a crashed daemon restarted with
// -resume recovers every acknowledged read with bit-identical
// assignments.
//
// Usage:
//
//	mrmcminhd -data-dir state/ [-addr :8642] [-k 12] [-hashes 64]
//	          [-theta 0.5] [-store-bbits 0] [-canonical] [-lsh]
//	          [-ingest reads.fa,more.fq] [-ingest-url http://host/reads.fa]
//	          [-drain-after-ingest] [-dump assignments.tsv] [-resume]
//	          [-faults service-crash:after=N] [-fault-seed 1]
//
// Endpoints: POST /v1/reads, GET /v1/reads/{id}, /v1/clusters[/{id}],
// /v1/diversity, /v1/stats, /v1/assignments, /healthz, /readyz,
// /debug/pprof/*.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/metagenomics/mrmcminh/internal/cli"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/ingest"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/serve"
)

func main() {
	if err := run(); err != nil {
		var sc *faults.ServiceCrashError
		if errors.As(err, &sc) {
			// The chaos harness distinguishes an injected crash (exit 3,
			// state recoverable via -resume) from config errors (exit 1).
			fmt.Fprintln(os.Stderr, "mrmcminhd:", err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "mrmcminhd:", err)
		os.Exit(1)
	}
}

func run() error {
	shared := cli.Register(flag.CommandLine)
	shared.Sketch(12, 64, 0.5)
	var (
		addr    = flag.String("addr", "127.0.0.1:8642", "HTTP listen address")
		dataDir = flag.String("data-dir", "", "durable state directory: WAL + snapshots (required)")
		// Not the batch CLIs' -resume: recovery replays acknowledged
		// reads, so there is no 'force' that would discard them.
		resume     = flag.Bool("resume", false, "recover existing state in -data-dir (snapshot + WAL replay)")
		workers    = flag.Int("ingest-workers", 0, "sketch worker pool size for pull ingest (0 = auto)")
		batchSize  = flag.Int("ingest-batch", 64, "reads per committed ingest batch")
		queueDepth = flag.Int("queue-depth", 16, "bounded commit queue depth (batches)")
		maxInFl    = flag.Int("max-inflight", 64, "max concurrently admitted submit requests before shedding")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "per-submit-request deadline")
		readTO     = flag.Duration("http-read-timeout", 30*time.Second, "HTTP read deadline (headers+body); bounds how long a slow client can hold a connection")
		ingestList = flag.String("ingest", "", "comma-separated FASTA/FASTQ files to ingest on startup")
		ingestURL  = flag.String("ingest-url", "", "HTTP(S) URL of a FASTA/FASTQ stream to ingest on startup")
		drainAfter = flag.Bool("drain-after-ingest", false, "drain, checkpoint, and exit once startup ingest completes")
		dumpPath   = flag.String("dump", "", "write the final read->cluster TSV here on graceful exit")
	)
	flag.Parse()
	if *dataDir == "" {
		flag.Usage()
		return fmt.Errorf("-data-dir is required")
	}
	opt, err := shared.Options()
	if err != nil {
		return err
	}

	params := serve.Params{
		K: opt.K, NumHashes: opt.NumHashes, Seed: opt.Seed, Canonical: opt.Canonical,
		Theta: opt.Theta, Bits: opt.StoreBits, Estimator: minhash.SetOverlap, UseLSH: opt.UseLSH,
	}
	st, err := serve.Open(*dataDir, params, *resume, opt.Faults)
	if err != nil {
		return err
	}
	defer st.Close()
	srv, err := serve.NewServer(st, serve.ServerConfig{
		MaxInFlight:    *maxInFl,
		QueueDepth:     *queueDepth,
		RequestTimeout: *reqTimeout,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// serve.NewHTTPServer sets read/idle deadlines so a slowloris client
	// cannot hold an intake slot forever.
	httpSrv := serve.NewHTTPServer(srv.Mux(), *readTO)
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "mrmcminhd: serving on %s (data dir %s, %d recovered reads)\n",
		ln.Addr(), *dataDir, st.Stats().Recovered)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	// Startup ingest runs in the background; the ingest error (including
	// an injected service crash surfaced through the sink) lands here.
	ingestDone := make(chan error, 1)
	go func() {
		ingestDone <- runStartupIngest(params, *workers, *batchSize, *queueDepth, *ingestList, *ingestURL, srv)
	}()

	var runErr error
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "mrmcminhd: %v: draining\n", sig)
	case err := <-ingestDone:
		ingestDone = nil
		if err != nil {
			runErr = err
		} else if *drainAfter {
			fmt.Fprintln(os.Stderr, "mrmcminhd: ingest complete: draining")
		} else {
			// Keep serving until a signal arrives.
			sig := <-sigCh
			fmt.Fprintf(os.Stderr, "mrmcminhd: %v: draining\n", sig)
		}
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	if ingestDone != nil {
		if err := <-ingestDone; runErr == nil && err != nil {
			runErr = err
		}
	}

	if runErr != nil {
		// Crash path (injected or real): NO checkpoint — the WAL alone
		// must carry every acknowledged read into the next -resume.
		return runErr
	}
	if err := srv.Drain(); err != nil {
		return err
	}
	stats := st.Stats()
	fmt.Fprintf(os.Stderr, "mrmcminhd: drained: %d reads in %d clusters checkpointed\n",
		stats.Reads, stats.Clusters)
	if *dumpPath != "" {
		f, err := os.Create(*dumpPath)
		if err != nil {
			return err
		}
		if err := st.DumpTSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runStartupIngest streams the -ingest files and -ingest-url (in that
// order) through the batching Ingester into the server's commit sink.
func runStartupIngest(p serve.Params, workers, batchSize, queueDepth int, files, url string, srv *serve.Server) error {
	var sources []func() (ingest.Source, string, error)
	if files != "" {
		for _, path := range strings.Split(files, ",") {
			path := strings.TrimSpace(path)
			if path == "" {
				continue
			}
			sources = append(sources, func() (ingest.Source, string, error) {
				src, err := ingest.OpenFile(path)
				return src, path, err
			})
		}
	}
	if url != "" {
		sources = append(sources, func() (ingest.Source, string, error) {
			return ingest.OpenHTTP(url, nil), url, nil
		})
	}
	for _, open := range sources {
		src, name, err := open()
		if err != nil {
			return err
		}
		ing, err := ingest.New(ingest.Config{
			K: p.K, NumHashes: p.NumHashes, Seed: p.Seed, Canonical: p.Canonical,
			Workers: workers, BatchSize: batchSize, QueueDepth: queueDepth,
			Retry: ingest.Retry{Seed: p.Seed},
		})
		if err != nil {
			src.Close()
			return err
		}
		if err := ing.Run(context.Background(), src, srv.Sink()); err != nil {
			return fmt.Errorf("ingest %s: %w", name, err)
		}
		stats := ing.Stats()
		fmt.Fprintf(os.Stderr, "mrmcminhd: ingested %s: %d reads in %d batches (%d retries)\n",
			name, stats.Records, stats.Batches, stats.Retries)
	}
	return nil
}
