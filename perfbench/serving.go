package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/ingest"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/serve"
)

// serveParams is the daemon geometry of the serving workload (the
// repository's serving benchmark configuration).
var serveParams = serve.Params{
	K: 12, NumHashes: 64, Seed: 3, Canonical: true,
	Theta: 0.4, Estimator: minhash.SetOverlap, UseLSH: true,
}

// servingSpec is the serving corpus: 200-bp reads in planted groups of 10.
var servingSpec = corpusSpec{members: 10, length: 200, mutRate: 0.01}

const (
	batchSize = 32
	// failedLatency is charged to a failed request: the daemon's default
	// request timeout, so a failure misses every latency percentile.
	failedLatency = 10 * time.Second
)

// submitRead and submitRequest mirror the body of POST /v1/reads.
type submitRead struct {
	ID  string `json:"id"`
	Seq string `json:"seq"`
}

type submitRequest struct {
	Reads []submitRead `json:"reads"`
}

type submitResponse struct {
	Results []serve.Ack `json:"results"`
}

// encodeBatches renders the reads as batchSize-read submit bodies.
func encodeBatches(reads []fasta.Record) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(reads); lo += batchSize {
		hi := min(lo+batchSize, len(reads))
		req := submitRequest{Reads: make([]submitRead, 0, hi-lo)}
		for _, r := range reads[lo:hi] {
			req.Reads = append(req.Reads, submitRead{ID: r.ID, Seq: string(r.Seq)})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out = append(out, body)
	}
	return out, nil
}

// daemon is one in-process serve.Server on a loopback listener.
type daemon struct {
	st      *serve.State
	srv     *serve.Server
	hs      *http.Server
	addr    string
	done    chan error
	stopped bool
}

func startDaemon(dir string) (*daemon, error) {
	st, err := serve.Open(dir, serveParams, false, nil)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(st, serve.ServerConfig{})
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		st.Close()
		return nil, err
	}
	d := &daemon{st: st, srv: srv, hs: serve.NewHTTPServer(srv.Mux(), 0), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener and every connection, then drains the server
// (flush and checkpoint). It returns the drain time; the state stays
// readable until close.
func (d *daemon) stop() (time.Duration, error) {
	d.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	t0 := time.Now()
	if derr := d.srv.Drain(); derr != nil {
		err = errors.Join(err, derr)
	}
	return time.Since(t0), err
}

// close stops the daemon if it still runs and closes its state.
func (d *daemon) close() error {
	var err error
	if !d.stopped {
		_, err = d.stop()
	}
	return errors.Join(err, d.st.Close())
}

// client is a minimal keep-alive HTTP/1.1 client: the load generator
// shares the two cores with the daemon, and net/http's transport costs
// more CPU than the request paths being measured.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// do sends one request and reads the whole reply.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	c.req = fmt.Appendf(c.req[:0], "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if body != nil {
		c.req = fmt.Appendf(c.req, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.req = append(append(c.req, "\r\n"...), body...)
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, err
}

func (c *client) close() { c.conn.Close() }

// conn is a client that redials after a transport error.
type conn struct {
	addr string
	c    *client
}

func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	if c.c == nil {
		cl, err := dial(c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.c = cl
	}
	status, out, err := c.c.do(method, path, body)
	if err != nil {
		c.close()
	}
	return status, out, err
}

func (c *conn) close() {
	if c.c != nil {
		c.c.close()
		c.c = nil
	}
}

// submission is one POST /v1/reads outcome.
type submission struct {
	ok    bool
	reply []byte
}

// checkAcks verifies one reply acknowledges exactly the submitted reads,
// in order, as fresh reads with a cluster label. It returns the count.
func checkAcks(body []byte, reply []byte) (int, bool) {
	var req submitRequest
	var resp submitResponse
	if json.Unmarshal(body, &req) != nil || json.Unmarshal(reply, &resp) != nil || len(resp.Results) != len(req.Reads) {
		return 0, false
	}
	for i, a := range resp.Results {
		if a.ID != req.Reads[i].ID || a.Duplicate || a.Cluster < 0 {
			return 0, false
		}
	}
	return len(resp.Results), true
}

// servedAccuracy dumps the state and scores it against the planted
// groups encoded in the read IDs. It returns the dumped row count.
func servedAccuracy(st *serve.State) (int, float64, error) {
	var buf bytes.Buffer
	if err := st.DumpTSV(&buf); err != nil {
		return 0, 0, err
	}
	var labels metrics.Clustering
	var truth []string
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		id, label, ok := strings.Cut(line, "\t")
		l, err := strconv.Atoi(label)
		if !ok || err != nil {
			return 0, 0, fmt.Errorf("malformed dump row %q", line)
		}
		labels = append(labels, l)
		truth = append(truth, strings.Split(id, "_")[1])
	}
	wacc, err := metrics.WeightedAccuracy(labels, truth)
	return len(labels), wacc, err
}

// serveCounters accumulates the daemon counters across daemons.
type serveCounters struct {
	shed, deadline, writeErrors, duplicates, sigBytes int64
	drains                                            []float64
}

func (c *serveCounters) add(s serve.ServerStats, drain time.Duration) {
	c.shed += s.Shed
	c.deadline += s.DeadlineExceeded
	c.writeErrors += s.WriteErrors
	c.duplicates += s.Duplicates
	c.sigBytes = s.SigBytes
	c.drains = append(c.drains, drain.Seconds())
}

func (c *serveCounters) report(m metricSet, reads int) {
	m.set("serve.shed", float64(c.shed), "count")
	m.set("serve.deadline_exceeded", float64(c.deadline), "count")
	m.set("serve.write_errors", float64(c.writeErrors), "count")
	m.set("serve.duplicates", float64(c.duplicates), "count")
	m.set("serve.sig_bytes", float64(c.sigBytes), "bytes")
	m.set("serve.drain_s", median(c.drains), "s")
	m.set("serve.rss_bytes_per_read", peakRSSBytes()/float64(max(reads, 1)), "bytes")
}

// ---- serve-ingest ----

// ingestConns is the closed-loop connection count: one per core of the
// 2-core reference machine.
const ingestConns = 2

// ingestBench submits the whole corpus to a fresh daemon per iteration
// over ingestConns keep-alive connections in a closed loop.
type ingestBench struct {
	cfg    runConfig
	spec   corpusSpec
	in     corpus
	bodies [][]byte
	n      int // daemons started

	attempted, failed, bad int64
	wacc                   float64
	ctr                    serveCounters
	sessions               []sessionTimes // timed sessions, in order
}

// sessionTimes is what one timed session measured.
type sessionTimes struct {
	wall  float64   // s, first submit to last ack
	acked int64     // reads durably acknowledged
	lat   []float64 // ms, per submit
}

func newIngestBench(cfg runConfig) bench {
	spec := servingSpec
	spec.groups = 3277 // 32,770 reads
	if cfg.tiny {
		spec.groups = 26
	}
	return &ingestBench{cfg: cfg, spec: spec}
}

func (b *ingestBench) setup() error {
	b.in = b.spec.generate(b.cfg.seed)
	var err error
	if b.bodies, err = encodeBatches(b.in.reads); err != nil {
		return err
	}
	_, err = b.session(true)
	return err
}

func (b *ingestBench) iteration(bool) (time.Duration, error) {
	return b.session(false)
}

// session ingests the whole corpus into a fresh daemon and checks it.
func (b *ingestBench) session(warmup bool) (time.Duration, error) {
	b.n++
	dir := filepath.Join(b.cfg.workdir, fmt.Sprintf("ingest-%d", b.n))
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir)
	if err != nil {
		return 0, err
	}
	lat := make([]time.Duration, len(b.bodies))
	subs := make([]submission, len(b.bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < ingestConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &conn{addr: d.addr}
			defer c.close()
			for i := int(next.Add(1) - 1); i < len(b.bodies); i = int(next.Add(1) - 1) {
				start := time.Now()
				status, reply, err := c.do("POST", "/v1/reads", b.bodies[i])
				lat[i] = time.Since(start)
				if err != nil || status != http.StatusOK {
					lat[i] = failedLatency
					continue
				}
				subs[i] = submission{ok: true, reply: reply}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	drain, err := d.stop()
	if err != nil {
		d.close()
		return 0, err
	}
	var acked int64
	var failed int64
	for i, s := range subs {
		if !s.ok {
			failed++
			continue
		}
		n, ok := checkAcks(b.bodies[i], s.reply)
		if !ok {
			b.bad++
		}
		acked += int64(n)
	}
	stats := d.srv.ServerStatsSnapshot()
	rows, wacc, err := servedAccuracy(d.st)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if stats.Accepted != acked || stats.Acked != acked || int64(stats.Reads) != acked || rows != stats.Reads {
		b.bad++
	}
	b.wacc = wacc
	if wacc < minWAcc {
		b.bad++
	}
	b.ctr.add(stats, drain)
	if warmup {
		return wall, nil
	}
	b.attempted += int64(len(b.bodies))
	b.failed += failed
	b.sessions = append(b.sessions, sessionTimes{wall: wall.Seconds(), acked: acked, lat: durations(lat, time.Millisecond)})
	return wall, nil
}

// traceable is false: the serving path has no span recorder, so a traced
// session would only repeat an untraced one.
func (b *ingestBench) traceable() bool { return false }

func (b *ingestBench) ops() (int64, int64) { return b.attempted, b.failed }

func (b *ingestBench) wrong() int64 { return b.bad }

// endToEnd reports durable acks per second and submit → durable-ack
// latency, medians over the sessions at the reference machine's speed.
// The serving path has no cluster cost model; its virtual_s is the time
// one session takes to cluster the corpus, first submit to last ack.
func (b *ingestBench) endToEnd(m metricSet, slow []float64) {
	var rates, walls, lat []float64
	for i, s := range b.sessions {
		wall := s.wall / slow[i]
		rates = append(rates, float64(s.acked)/wall)
		walls = append(walls, wall)
		for _, l := range s.lat {
			lat = append(lat, l/slow[i])
		}
	}
	m.set("throughput_per_s", median(rates), "1/s")
	m.set("latency_p50_ms", median(lat), "ms")
	m.set("w_acc", b.wacc, "%")
	m.set("virtual_s", median(walls), "s")
}

func (b *ingestBench) layers(m metricSet) error {
	var lat []float64
	for _, s := range b.sessions {
		lat = append(lat, s.lat...)
	}
	m.set("serve.submit_p99_ms", quantile(lat, 0.99), "ms")
	if err := servingKernelLayers(m, b.in); err != nil {
		return err
	}
	if err := writePathLayers(m, b.cfg.workdir, b.bodies, median(lat)); err != nil {
		return err
	}
	b.ctr.report(m, len(b.in.reads))
	return nil
}

// ---- serving layers ----

// servingKernelLayers times the sketch, store and similarity kernels on
// the serving corpus.
func servingKernelLayers(m metricSet, in corpus) error {
	p := sketchParams{k: serveParams.K, n: serveParams.NumHashes, canonical: serveParams.Canonical, seed: serveParams.Seed, est: serveParams.Estimator}
	sigs, err := sketchLayer(m, in.reads, p)
	if err != nil {
		return err
	}
	if err := sigstoreLayer(m, in.ids(), sigs); err != nil {
		return err
	}
	similarityLayer(m, sigs, p.est)
	return nil
}

// writePathLayers replays the submitted batches, in submission order, on
// a second State on the same file system: per batch it times the JSON
// decode, the inline sketch and State.CommitBatch, then WAL Append and
// Sync on a separate log, and finally the read path directly on the
// replayed state. submitP50 is the measured HTTP submit median in ms.
func writePathLayers(m metricSet, workdir string, bodies [][]byte, submitP50 float64) error {
	dir := filepath.Join(workdir, "replay")
	defer os.RemoveAll(dir)
	sk := minhash.MustSketcher(serveParams.NumHashes, serveParams.K, serveParams.Seed)
	ex := &kmer.Extractor{K: serveParams.K, Canonical: serveParams.Canonical}
	var decode, sketch, commit, appendT, syncT []float64
	batches := make([][]ingest.Sketched, len(bodies))
	var kms []uint64
	for i, body := range bodies {
		t0 := time.Now()
		var req submitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		t1 := time.Now()
		batch := make([]ingest.Sketched, len(req.Reads))
		for j, rd := range req.Reads {
			kms = ex.SliceInto(kms[:0], []byte(rd.Seq))
			batch[j] = ingest.Sketched{ID: rd.ID, Sig: sk.SketchInto(nil, kms)}
		}
		decode = append(decode, float64(t1.Sub(t0))/float64(time.Microsecond))
		sketch = append(sketch, float64(time.Since(t1))/float64(time.Microsecond))
		batches[i] = batch
	}

	st, err := serve.Open(filepath.Join(dir, "state"), serveParams, false, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	for _, batch := range batches {
		t0 := time.Now()
		if _, err := st.CommitBatch(batch); err != nil {
			return err
		}
		commit = append(commit, float64(time.Since(t0))/float64(time.Millisecond))
	}

	wal, err := serve.OpenWAL(filepath.Join(dir, "wal.log"), 0)
	if err != nil {
		return err
	}
	defer wal.Close()
	for _, batch := range batches {
		t0 := time.Now()
		for _, s := range batch {
			if err := wal.Append(s.ID, s.Sig); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if err := wal.Sync(); err != nil {
			return err
		}
		appendT = append(appendT, float64(t1.Sub(t0))/float64(time.Microsecond))
		syncT = append(syncT, float64(time.Since(t1))/float64(time.Microsecond))
	}

	dec, sk50, com := median(decode), median(sketch), median(commit)
	m.set("serve.decode_us", dec, "us")
	m.set("serve.sketch_us", sk50, "us")
	m.set("serve.commit_ms", com, "ms")
	m.set("serve.wal_append_us", median(appendT), "us")
	m.set("serve.wal_sync_us", median(syncT), "us")
	m.set("serve.apply_publish_ms", com-(median(appendT)+median(syncT))/1e3, "ms")
	m.set("serve.queue_http_ms", submitP50-(dec+sk50)/1e3-com, "ms")

	return readPathLayers(m, st, batches)
}

// readPathLayers times the query methods directly on a state.
func readPathLayers(m metricSet, st *serve.State, batches [][]ingest.Sketched) error {
	var ids []string
	for _, b := range batches {
		for _, s := range b {
			ids = append(ids, s.ID)
		}
	}
	const lookups = 200_000
	var passes []float64
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for i := 0; i < lookups; i++ {
			if _, ok := st.Assignment(ids[i%len(ids)]); !ok {
				return fmt.Errorf("replayed read %s not found", ids[i%len(ids)])
			}
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/lookups)
	}
	m.set("serve.point_lookup_ns", median(passes), "ns")

	const summaries = 2000
	var clusters, diversity []float64
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for i := 0; i < summaries; i++ {
			if len(st.Clusters()) == 0 {
				return errors.New("replayed state has no clusters")
			}
		}
		t1 := time.Now()
		for i := 0; i < summaries; i++ {
			if st.Diversity().Reads < len(ids) {
				return errors.New("replayed state lost reads")
			}
		}
		clusters = append(clusters, float64(t1.Sub(t0))/float64(time.Microsecond)/summaries)
		diversity = append(diversity, float64(time.Since(t1))/float64(time.Microsecond)/summaries)
	}
	m.set("serve.clusters_us", median(clusters), "us")
	m.set("serve.diversity_us", median(diversity), "us")
	return nil
}
