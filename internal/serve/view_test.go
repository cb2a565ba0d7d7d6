package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestChunkedViewsFrozen: a published chunkSlice never sees later
// appends, even when they land in the chunk the view's tail shares with
// the builder (entries past n are invisible by construction).
func TestChunkedViewsFrozen(t *testing.T) {
	var a appendChunks[int32]
	const total = 3*viewChunkLen + 17 // cross several chunk boundaries
	views := make([]chunkSlice[int32], 0, 8)
	for i := 0; i < total; i++ {
		a.append(int32(i))
		if i == 5 || i == viewChunkLen-1 || i == viewChunkLen || i == 2*viewChunkLen+3 {
			views = append(views, a.view())
		}
	}
	views = append(views, a.view())
	for _, v := range views {
		for i := 0; i < v.len(); i++ {
			if v.at(i) != int32(i) {
				t.Fatalf("view(n=%d)[%d] = %d, want %d", v.len(), i, v.at(i), i)
			}
		}
	}
	if views[len(views)-1].len() != total {
		t.Fatalf("final view len = %d, want %d", views[len(views)-1].len(), total)
	}
}

// TestCowChunksCopyOnWrite: in-place increments after a publish must not
// leak into the published view — the first write into a shared chunk
// copies it.
func TestCowChunksCopyOnWrite(t *testing.T) {
	var c cowChunks
	const labels = viewChunkLen + 10 // spans two chunks
	for i := 0; i < labels; i++ {
		c.append(1)
	}
	v1 := c.view()
	// Mutate one label per chunk, and append a brand-new label.
	c.inc(3)
	c.inc(viewChunkLen + 2)
	c.append(7)
	v2 := c.view()

	if v1.len() != labels || v1.at(3) != 1 || v1.at(viewChunkLen+2) != 1 {
		t.Fatalf("published view mutated: len=%d at(3)=%d at(%d)=%d",
			v1.len(), v1.at(3), viewChunkLen+2, v1.at(viewChunkLen+2))
	}
	if v2.at(3) != 2 || v2.at(viewChunkLen+2) != 2 || v2.at(labels) != 7 || v2.len() != labels+1 {
		t.Fatalf("second view wrong: at(3)=%d at(%d)=%d at(%d)=%d",
			v2.at(3), viewChunkLen+2, v2.at(viewChunkLen+2), labels, v2.at(labels))
	}
	// A third round of mutation must not disturb v2 either (chunks were
	// re-marked shared by view()).
	c.inc(3)
	if v2.at(3) != 2 {
		t.Fatal("view() did not re-mark chunks shared")
	}
}

// failAfterWriter accepts limit bytes, then fails every further write
// (taking the partial prefix first, like a dying socket).
type failAfterWriter struct {
	limit int
	buf   bytes.Buffer
}

var errInjectedWrite = errors.New("injected write failure")

func (f *failAfterWriter) Write(p []byte) (int, error) {
	room := f.limit - f.buf.Len()
	if len(p) <= room {
		return f.buf.Write(p)
	}
	if room > 0 {
		f.buf.Write(p[:room])
	}
	return room, errInjectedWrite
}

// TestDumpTSVCleanPrefixOnWriteFailure: a mid-dump write failure must
// surface as an error while the bytes already written stay a clean
// prefix of the full dump — no error text, no torn row semantics beyond
// the cut point.
func TestDumpTSVCleanPrefixOnWriteFailure(t *testing.T) {
	p := testParams()
	st, err := Open(t.TempDir(), p, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	commitAll(t, st, makeReads(t, p, 500), 50) // ~9 KB of TSV, several bufio flushes

	full := dump(t, st)
	fw := &failAfterWriter{limit: 2000}
	if err := st.DumpTSV(fw); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("DumpTSV error = %v, want injected failure", err)
	}
	got := fw.buf.String()
	if !strings.HasPrefix(full, got) {
		t.Fatalf("failed dump is not a prefix of the full dump:\n%q", got)
	}
	if strings.Contains(got, "injected") || strings.Contains(got, "failure") {
		t.Fatalf("error text leaked into the dump:\n%q", got)
	}
}

// failingResponseWriter simulates a client connection dying after limit
// body bytes.
type failingResponseWriter struct {
	*httptest.ResponseRecorder
	limit int
	wrote int
}

func (f *failingResponseWriter) Write(p []byte) (int, error) {
	room := f.limit - f.wrote
	if len(p) <= room {
		f.wrote += len(p)
		return f.ResponseRecorder.Write(p)
	}
	if room > 0 {
		f.ResponseRecorder.Write(p[:room])
		f.wrote = f.limit
	}
	return room, errInjectedWrite
}

// TestAssignmentsHandlerNeverAppendsErrorText: the /v1/assignments
// handler must not append error text to a body that already started
// streaming (the old http.Error call corrupted the chaos harness's
// artifact). The truncated body stays a clean prefix and the failure is
// counted in write_errors.
func TestAssignmentsHandlerNeverAppendsErrorText(t *testing.T) {
	p := testParams()
	st, err := Open(t.TempDir(), p, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	commitAll(t, st, makeReads(t, p, 500), 50)
	srv, err := NewServer(st, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()

	full := dump(t, st)
	rw := &failingResponseWriter{ResponseRecorder: httptest.NewRecorder(), limit: 2000}
	req := httptest.NewRequest(http.MethodGet, "/v1/assignments", nil)
	srv.Mux().ServeHTTP(rw, req)

	if rw.Code != http.StatusOK {
		t.Fatalf("status = %d", rw.Code)
	}
	got := rw.Body.String()
	if !strings.HasPrefix(full, got) {
		t.Fatalf("truncated body is not a prefix of the dump:\n%q", got)
	}
	if strings.Contains(got, "injected") || strings.Contains(got, "error") {
		t.Fatalf("error text appended to streamed body:\n%q", got)
	}
	if srv.writeErrors.Load() != 1 {
		t.Fatalf("writeErrors = %d, want 1", srv.writeErrors.Load())
	}
	if srv.ServerStatsSnapshot().WriteErrors != 1 {
		t.Fatal("write_errors not surfaced in stats")
	}
}

// checkViewInvariants asserts one loaded view is internally consistent
// — the direct form of "a view is never half-published".
func checkViewInvariants(t *testing.T, v *readView) {
	t.Helper()
	if v.assign.len() != v.reads || v.ids.len() != v.reads {
		t.Errorf("half-published view: reads=%d assign=%d ids=%d", v.reads, v.assign.len(), v.ids.len())
		return
	}
	if v.sizes.len() != v.labels || v.repDense.len() != v.labels || v.repID.len() != v.labels {
		t.Errorf("half-published view: labels=%d sizes=%d repDense=%d repID=%d",
			v.labels, v.sizes.len(), v.repDense.len(), v.repID.len())
		return
	}
	sum := 0
	for l := 0; l < v.labels; l++ {
		s := v.sizes.at(l)
		if s < 1 {
			t.Errorf("label %d has size %d", l, s)
			return
		}
		sum += int(s)
		rep := int(v.repDense.at(l))
		if rep >= v.reads {
			t.Errorf("label %d representative dense %d >= reads %d", l, rep, v.reads)
			return
		}
		if v.ids.at(rep) != v.repID.at(l) {
			t.Errorf("label %d repID %q != ids[%d] %q", l, v.repID.at(l), rep, v.ids.at(rep))
			return
		}
		if int(v.assign.at(rep)) != l {
			t.Errorf("label %d representative assigned to %d", l, v.assign.at(rep))
			return
		}
	}
	if sum != v.reads {
		t.Errorf("sum(sizes)=%d != reads=%d", sum, v.reads)
	}
}

// TestQueryConsistencyUnderCommitsAndDrain hammers all five query
// endpoints from concurrent readers while a writer commits batches
// through the sink and then drains the server. Every response must be
// internally consistent and reads must be monotonic per reader — under
// -race this also proves the query path touches no unsynchronized
// state.
func TestQueryConsistencyUnderCommitsAndDrain(t *testing.T) {
	p := testParams()
	st, err := Open(t.TempDir(), p, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(st, ServerConfig{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Mux())
	t.Cleanup(func() {
		hts.Close()
		st.Close()
	})

	const total, batch = 400, 20
	reads := makeReads(t, p, total)
	var committed atomic.Int64 // reads acked so far; acked => visible
	done := make(chan struct{})

	var wg sync.WaitGroup
	type statsBody struct {
		Stats ServerStats `json:"stats"`
	}
	client := hts.Client()
	get := func(path string, out any) int {
		resp, err := client.Get(hts.URL + path)
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		code := resp.StatusCode
		if out != nil && code == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Errorf("decoding %s: %v", path, err)
			}
		}
		return code
	}

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			lastReads := 0
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 5 {
				case 0: // point lookup of a read guaranteed visible
					n := committed.Load()
					if n == 0 {
						continue
					}
					idx := (int64(worker)*7919 + int64(i)) % n
					var info ReadInfo
					id := fmt.Sprintf("read-%05d", idx)
					if code := get("/v1/reads/"+id, &info); code != http.StatusOK {
						t.Errorf("acked read %s not visible: %d", id, code)
						return
					}
					if info.ID != id || info.Cluster < 0 || info.Representative == "" {
						t.Errorf("inconsistent lookup: %+v", info)
						return
					}
				case 1:
					var body struct {
						Clusters []ClusterInfo `json:"clusters"`
					}
					if get("/v1/clusters", &body) != http.StatusOK {
						return
					}
					sum := 0
					for j, c := range body.Clusters {
						if c.Size < 1 || c.Representative == "" {
							t.Errorf("bad cluster entry %+v", c)
							return
						}
						if j > 0 && body.Clusters[j-1].Size < c.Size {
							t.Error("clusters not sorted by size")
							return
						}
						sum += c.Size
					}
					if sum < lastReads {
						t.Errorf("clusters view went back in time: %d < %d", sum, lastReads)
						return
					}
					lastReads = sum
				case 2: // single-cluster lookup: label 0 exists once anything committed
					if committed.Load() == 0 {
						continue
					}
					var ci ClusterInfo
					if code := get("/v1/clusters/0", &ci); code != http.StatusOK {
						t.Errorf("cluster 0 lookup: %d", code)
						return
					}
					if ci.Size < 1 || ci.Representative == "" {
						t.Errorf("inconsistent cluster: %+v", ci)
						return
					}
				case 3:
					var d Diversity
					if get("/v1/diversity", &d) != http.StatusOK {
						return
					}
					if d.Reads < lastReads || d.Clusters > d.Reads || d.Singletons > d.Clusters ||
						d.Largest > d.Reads || (d.Reads > 0 && d.Largest < 1) {
						t.Errorf("inconsistent diversity: %+v (lastReads %d)", d, lastReads)
						return
					}
					lastReads = d.Reads
				case 4:
					var sb statsBody
					if get("/v1/stats", &sb) != http.StatusOK {
						return
					}
					if sb.Stats.Reads < lastReads || sb.Stats.Clusters > sb.Stats.Reads {
						t.Errorf("inconsistent stats: %+v (lastReads %d)", sb.Stats, lastReads)
						return
					}
					lastReads = sb.Stats.Reads
				}
			}
		}(r)
	}
	// A direct-view checker: the strongest half-published detector, no
	// HTTP in the way.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			checkViewInvariants(t, st.loadView())
		}
	}()

	sink := srv.Sink()
	for i := 0; i < total; i += batch {
		if err := sink.Commit(context.Background(), reads[i:i+batch]); err != nil {
			t.Errorf("commit: %v", err)
			break
		}
		committed.Store(int64(i + batch))
	}
	if err := srv.Drain(); err != nil {
		t.Errorf("drain: %v", err)
	}
	close(done)
	wg.Wait()

	// After the drain the final view must carry the whole corpus.
	v := st.loadView()
	if v.reads != total {
		t.Fatalf("final view has %d reads, want %d", v.reads, total)
	}
	checkViewInvariants(t, v)
}
