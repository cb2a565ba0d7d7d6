package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/ingest"
)

func newTestServer(t *testing.T, p Params, cfg ServerConfig, inj *faults.Injector) (*Server, *httptest.Server) {
	t.Helper()
	st, err := Open(t.TempDir(), p, false, inj)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Mux())
	t.Cleanup(func() {
		hts.Close()
		st.Close()
	})
	return srv, hts
}

func postReads(t *testing.T, url string, reads []submitRead) (*http.Response, submitResponse) {
	t.Helper()
	body, _ := json.Marshal(submitRequest{Reads: reads})
	resp, err := http.Post(url+"/v1/reads", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResponse
	raw, _ := io.ReadAll(resp.Body)
	json.Unmarshal(raw, &out)
	return resp, out
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHTTPSubmitAndQuery(t *testing.T) {
	srv, hts := newTestServer(t, testParams(), ServerConfig{}, nil)
	reads := []submitRead{
		{ID: "a", Seq: "ACGTACGTACGTACGTACGTACGTACGT"},
		{ID: "b", Seq: "ACGTACGTACGTACGTACGTACGTACGT"}, // identical -> same cluster
		{ID: "c", Seq: "TTTTTTTTGGGGGGGGCCCCAAAATTGG"},
	}
	resp, out := postReads(t, hts.URL, reads)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %+v", out.Results)
	}
	if out.Results[0].Cluster != out.Results[1].Cluster {
		t.Fatal("identical sequences split across clusters")
	}
	if out.Results[2].Cluster == out.Results[0].Cluster {
		t.Fatal("dissimilar sequence joined the cluster")
	}

	// Re-submitting is idempotent.
	_, again := postReads(t, hts.URL, reads[:1])
	if !again.Results[0].Duplicate || again.Results[0].Cluster != out.Results[0].Cluster {
		t.Fatalf("duplicate resubmit = %+v", again.Results[0])
	}

	var info ReadInfo
	if code := getJSON(t, hts.URL+"/v1/reads/a", &info); code != http.StatusOK {
		t.Fatalf("read lookup status %d", code)
	}
	if info.Cluster != out.Results[0].Cluster {
		t.Fatalf("lookup cluster %d != submit cluster %d", info.Cluster, out.Results[0].Cluster)
	}
	if code := getJSON(t, hts.URL+"/v1/reads/zzz", nil); code != http.StatusNotFound {
		t.Fatalf("missing read status %d", code)
	}

	var div Diversity
	if code := getJSON(t, hts.URL+"/v1/diversity", &div); code != http.StatusOK || div.Reads != 3 {
		t.Fatalf("diversity %+v code %d", div, code)
	}
	var ci ClusterInfo
	if code := getJSON(t, hts.URL+fmt.Sprintf("/v1/clusters/%d", info.Cluster), &ci); code != http.StatusOK {
		t.Fatalf("cluster lookup status %d", code)
	}
	if ci.Size != 2 {
		t.Fatalf("cluster size %d, want 2", ci.Size)
	}

	resp2, err := http.Get(hts.URL + "/v1/assignments")
	if err != nil {
		t.Fatal(err)
	}
	tsv, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if lines := strings.Count(string(tsv), "\n"); lines != 3 {
		t.Fatalf("assignments dump has %d lines:\n%s", lines, tsv)
	}

	if code := getJSON(t, hts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz %d", code)
	}
	if code := getJSON(t, hts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz %d", code)
	}
	if srv.Latency.Count() < 2 {
		t.Fatalf("latency histogram saw %d samples", srv.Latency.Count())
	}
	if code := getJSON(t, hts.URL+"/debug/pprof/cmdline", nil); code != http.StatusOK {
		t.Fatalf("pprof %d", code)
	}
}

func TestHTTPRejectsBadInput(t *testing.T) {
	_, hts := newTestServer(t, testParams(), ServerConfig{MaxBatch: 4}, nil)
	if resp, _ := postReads(t, hts.URL, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}
	if resp, _ := postReads(t, hts.URL, []submitRead{{ID: "", Seq: "ACGT"}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty id status %d", resp.StatusCode)
	}
	big := make([]submitRead, 5)
	for i := range big {
		big[i] = submitRead{ID: fmt.Sprintf("r%d", i), Seq: "ACGTACGT"}
	}
	if resp, _ := postReads(t, hts.URL, big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d", resp.StatusCode)
	}
	resp, err := http.Post(hts.URL+"/v1/reads", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", resp.StatusCode)
	}
}

// TestLoadSheddingQueueFull stalls the committer (a commit whose result
// channel nobody drains blocks the committer's send), fills the bounded
// queue, and checks the next submit is shed with 503 + Retry-After
// instead of queueing unboundedly.
func TestLoadSheddingQueueFull(t *testing.T) {
	srv, hts := newTestServer(t, testParams(), ServerConfig{QueueDepth: 2, MaxInFlight: 100}, nil)

	// Stall: the committer processes this request but blocks sending the
	// result into an unbuffered done channel nobody reads yet.
	stall := &commitReq{
		batch: []ingest.Sketched{},
		done:  make(chan commitResult), // unbuffered on purpose
	}
	srv.commitCh <- stall
	// Fill the queue behind it.
	fillers := make([]*commitReq, 2)
	for i := range fillers {
		fillers[i] = &commitReq{batch: []ingest.Sketched{}, done: make(chan commitResult, 1)}
		srv.commitCh <- fillers[i]
	}

	resp, _ := postReads(t, hts.URL, []submitRead{{ID: "x", Seq: "ACGTACGTACGTACGT"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if srv.shed.Load() != 1 {
		t.Fatalf("shed counter = %d", srv.shed.Load())
	}

	// Unstall and verify the server recovers.
	<-stall.done
	for _, f := range fillers {
		<-f.done
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postReads(t, hts.URL, []submitRead{{ID: "x", Seq: "ACGTACGTACGTACGT"}})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not recover after unstalling")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionControlInFlight: beyond MaxInFlight concurrent submits,
// requests shed before doing any work.
func TestAdmissionControlInFlight(t *testing.T) {
	srv, hts := newTestServer(t, testParams(), ServerConfig{MaxInFlight: 1}, nil)
	srv.inFlight.Add(1) // simulate one stuck in-flight request
	resp, _ := postReads(t, hts.URL, []submitRead{{ID: "x", Seq: "ACGTACGT"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit submit status %d", resp.StatusCode)
	}
	if srv.shed.Load() != 1 {
		t.Fatalf("shed = %d", srv.shed.Load())
	}
	srv.inFlight.Add(-1)
	resp, _ = postReads(t, hts.URL, []submitRead{{ID: "x", Seq: "ACGTACGTACGTACGT"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status %d", resp.StatusCode)
	}
}

// TestServerCrashLatches: an injected service crash still acks the
// triggering batch (it was durable first), then latches the server
// unhealthy, and Drain surfaces the crash error.
func TestServerCrashLatches(t *testing.T) {
	plan, err := faults.ParsePlan("service-crash:after=2", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, hts := newTestServer(t, testParams(), ServerConfig{}, faults.MustNew(plan))
	resp, out := postReads(t, hts.URL, []submitRead{
		{ID: "a", Seq: "ACGTACGTACGTACGT"},
		{ID: "b", Seq: "TTTTGGGGCCCCAAAA"},
	})
	if resp.StatusCode != http.StatusOK || len(out.Results) != 2 {
		t.Fatalf("triggering batch: status %d results %+v", resp.StatusCode, out.Results)
	}
	if srv.Fatal() == nil {
		t.Fatal("crash not latched")
	}
	if code := getJSON(t, hts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after crash = %d", code)
	}
	resp2, _ := postReads(t, hts.URL, []submitRead{{ID: "c", Seq: "ACGT"}})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-crash submit = %d", resp2.StatusCode)
	}
	err = srv.Drain()
	var sc *faults.ServiceCrashError
	if !asServiceCrash(err, &sc) {
		t.Fatalf("Drain err = %v, want service crash", err)
	}
}

// TestDrainStopsIntakeAndCheckpoints: after Drain, readyz flips, new
// submits are refused, and the directory reopens with everything acked.
func TestDrainStopsIntakeAndCheckpoints(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	st, err := Open(dir, p, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(st, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Mux())
	defer hts.Close()

	resp, _ := postReads(t, hts.URL, []submitRead{{ID: "a", Seq: "ACGTACGTACGTACGT"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit %d", resp.StatusCode)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, hts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while drained = %d", code)
	}
	resp, _ = postReads(t, hts.URL, []submitRead{{ID: "b", Seq: "ACGT"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d", resp.StatusCode)
	}
	st.Close()

	st2, err := Open(dir, p, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := st2.Assignment("a"); !ok {
		t.Fatal("acked read lost across drain")
	}
}

// TestStatsAcceptedMatchesAcked: accepted counts only non-duplicate
// HTTP acks, so for HTTP-only intake accepted == acked and
// accepted + duplicates == total submitted reads.
func TestStatsAcceptedMatchesAcked(t *testing.T) {
	srv, hts := newTestServer(t, testParams(), ServerConfig{}, nil)
	reads := []submitRead{
		{ID: "a", Seq: "ACGTACGTACGTACGTACGTACGTACGT"},
		{ID: "b", Seq: "TTTTTTTTGGGGGGGGCCCCAAAATTGG"},
		{ID: "c", Seq: "ACGTACGTACGTACGTACGTACGTACGT"},
	}
	if resp, _ := postReads(t, hts.URL, reads); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit %d", resp.StatusCode)
	}
	// Resubmit two (both duplicates) and a batch with an in-batch repeat
	// (one fresh, one duplicate).
	if resp, _ := postReads(t, hts.URL, reads[:2]); resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit %d", resp.StatusCode)
	}
	dup := []submitRead{
		{ID: "d", Seq: "GGGGCCCCAAAATTTTGGGGCCCCAAAA"},
		{ID: "d", Seq: "GGGGCCCCAAAATTTTGGGGCCCCAAAA"},
	}
	if resp, _ := postReads(t, hts.URL, dup); resp.StatusCode != http.StatusOK {
		t.Fatalf("dup batch %d", resp.StatusCode)
	}

	stats := srv.ServerStatsSnapshot()
	if stats.Accepted != 4 {
		t.Fatalf("accepted = %d, want 4 (a, b, c, d)", stats.Accepted)
	}
	if stats.Accepted != stats.Acked {
		t.Fatalf("invariant violated: accepted %d != acked %d", stats.Accepted, stats.Acked)
	}
	if stats.Duplicates != 3 {
		t.Fatalf("duplicates = %d, want 3", stats.Duplicates)
	}
	if submitted := int64(7); stats.Accepted+stats.Duplicates != submitted {
		t.Fatalf("accepted %d + duplicates %d != submitted %d",
			stats.Accepted, stats.Duplicates, submitted)
	}
}

// TestHTTPServerDropsSlowloris: a client that sends a partial request
// and stalls must be disconnected by the server's read deadline instead
// of holding its connection (and, once admitted, an intake slot)
// forever — and the server keeps serving well-behaved clients.
func TestHTTPServerDropsSlowloris(t *testing.T) {
	def := NewHTTPServer(nil, 0)
	if def.ReadTimeout != 30*time.Second || def.ReadHeaderTimeout != 30*time.Second || def.IdleTimeout == 0 {
		t.Fatalf("defaults: read=%v header=%v idle=%v",
			def.ReadTimeout, def.ReadHeaderTimeout, def.IdleTimeout)
	}

	st, err := Open(t.TempDir(), testParams(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(st, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(srv.Mux(), 200*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	t.Cleanup(func() {
		hs.Close()
		st.Close()
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request, then silence: headers incomplete, body never sent.
	if _, err := conn.Write([]byte("POST /v1/reads HTTP/1.1\r\nHost: slow\r\nContent-Length: 1000\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("server kept the slowloris connection open past its read timeout")
			}
			break // EOF / reset: server dropped the stalled client
		}
	}

	// The stalled client must not have wedged intake for anyone else.
	resp, out := postReads(t, "http://"+ln.Addr().String(), []submitRead{{ID: "x", Seq: "ACGTACGTACGTACGT"}})
	if resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
		t.Fatalf("healthy client after slowloris: status %d results %+v", resp.StatusCode, out.Results)
	}
}

// TestIngesterThroughServerSink runs the pull-ingest path end to end:
// a FASTA file source through the Ingester into the server's sink,
// verifying backpressure-style blocking commits work alongside HTTP
// queries.
func TestIngesterThroughServerSink(t *testing.T) {
	p := testParams()
	srv, hts := newTestServer(t, p, ServerConfig{QueueDepth: 2}, nil)

	var fa strings.Builder
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&fa, ">bulk-%03d\nACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n", i)
	}
	path := filepath.Join(t.TempDir(), "bulk.fa")
	if err := os.WriteFile(path, []byte(fa.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := ingest.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := ingest.New(ingest.Config{
		K: p.K, NumHashes: p.NumHashes, Seed: p.Seed, Canonical: p.Canonical,
		BatchSize: 16, QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Run(context.Background(), src, srv.Sink()); err != nil {
		t.Fatal(err)
	}
	var div Diversity
	if code := getJSON(t, hts.URL+"/v1/diversity", &div); code != http.StatusOK {
		t.Fatalf("diversity %d", code)
	}
	if div.Reads != 150 {
		t.Fatalf("reads = %d, want 150", div.Reads)
	}
	if div.Clusters != 1 {
		t.Fatalf("identical reads formed %d clusters", div.Clusters)
	}
}
