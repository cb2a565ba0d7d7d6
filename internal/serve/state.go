// Package serve is the always-on clustering service state: an
// incrementally clustered corpus of minwise signatures that survives
// crashes. Reads are acknowledged only after their WAL record is
// fsynced; assignments are a pure function of commit order (the online
// Algorithm 1 over the signature store), so recovery — restore the last
// content-addressed snapshot, replay the WAL tail, re-run the
// incremental clusterer over dense IDs 0..n-1 — reproduces every
// acknowledged assignment bit-identically.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/ingest"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/sigstore"
)

// Params fixes the sketch and clustering geometry of a service. Every
// parameter changes assignments, so the manifest records all of them
// and Open refuses to resume a data directory written under different
// params — silently different clusters would be worse than an error.
type Params struct {
	K         int               `json:"k"`
	NumHashes int               `json:"num_hashes"`
	Seed      int64             `json:"seed"`
	Canonical bool              `json:"canonical"`
	Theta     float64           `json:"theta"`
	Bits      int               `json:"bits"`
	Estimator minhash.Estimator `json:"estimator"`
	UseLSH    bool              `json:"use_lsh"`
}

// Validate rejects unusable geometry before any state is created.
func (p Params) Validate() error {
	if p.K < 1 || p.K > minhash.MaxK {
		return fmt.Errorf("serve: k must be in [1,%d], got %d", minhash.MaxK, p.K)
	}
	if p.NumHashes < 1 {
		return fmt.Errorf("serve: num hashes must be >= 1, got %d", p.NumHashes)
	}
	if p.Theta < 0 || p.Theta > 1 {
		return fmt.Errorf("serve: theta must be in [0,1], got %v", p.Theta)
	}
	if p.Bits < 0 || p.Bits > 16 {
		return fmt.Errorf("serve: bits must be in [0,16], got %d", p.Bits)
	}
	return nil
}

const (
	manifestFile = "MANIFEST.json"
	walFile      = "wal.log"
	stagingFile  = ".staging" // where Checkpoint writes a file before renaming it into place
)

// manifest is the checkpoint directory's metadata: which snapshot blob
// is current, its content hash, and the params that produced it.
type manifest struct {
	Params   Params `json:"params"`
	Snapshot string `json:"snapshot"` // file name, content-addressed
	SHA256   string `json:"sha256"`   // hex of the snapshot blob
	Reads    int    `json:"reads"`
}

// Ack is the commit result for one submitted read.
type Ack struct {
	ID        string `json:"id"`
	Read      int    `json:"read"`    // dense ID
	Cluster   int    `json:"cluster"` // assigned label
	Duplicate bool   `json:"duplicate,omitempty"`
}

// State is the clustered corpus plus its durability machinery. Commit
// methods must be called from a single goroutine (the server's
// committer); query methods are safe from any goroutine and take no
// locks — they load the latest published readView (one atomic pointer
// load) and walk its immutable arrays.
type State struct {
	params Params
	dir    string
	files  *checkpoint.DirStore // durable writes into dir
	store  *sigstore.Store
	src    *sigstore.View // the clusterer's source; grown by the committer
	inc    *cluster.Incremental
	wal    *WAL
	inj    *faults.Injector

	// Committer-owned builders: chunked columns the published views
	// window into. Only the single committer goroutine touches them.
	assignB   appendChunks[int32]  // dense id -> cluster label
	idsB      appendChunks[string] // dense id -> external read ID
	sizesB    cowChunks            // label -> cluster size
	repDenseB appendChunks[uint32] // label -> dense id of the representative
	repIDB    appendChunks[string] // label -> external ID of the representative

	view atomic.Pointer[readView] // the epoch every query reads

	acked      atomic.Int64 // reads durably acknowledged (excludes duplicates)
	duplicates atomic.Int64
	recovered  int64 // reads present at Open (snapshot + WAL tail)
}

// Open builds (or recovers) service state in dir. A directory that
// already holds a manifest or WAL refuses to open without resume —
// silently restarting fresh over durable data would discard
// acknowledged reads. inj may be nil (no fault injection).
func Open(dir string, p Params, resume bool, inj *faults.Injector) (*State, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	files, err := checkpoint.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	manifestPath := filepath.Join(dir, manifestFile)
	walPath := filepath.Join(dir, walFile)
	hasManifest := fileExists(manifestPath)
	walInfo, walErr := os.Stat(walPath)
	hasWAL := walErr == nil && walInfo.Size() > 0
	if (hasManifest || hasWAL) && !resume {
		return nil, fmt.Errorf("serve: data dir %s holds previous state; pass resume to recover it", dir)
	}

	st := &State{params: p, dir: dir, files: files, inj: inj}
	if hasManifest {
		m, store, err := loadCheckpoint(dir, manifestPath)
		if err != nil {
			return nil, err
		}
		if m.Params != p {
			return nil, fmt.Errorf("serve: data dir params %+v differ from requested %+v", m.Params, p)
		}
		st.store = store
	} else {
		store, err := sigstore.New(sigstore.Config{NumHashes: p.NumHashes, Bits: p.Bits})
		if err != nil {
			return nil, err
		}
		st.store = store
	}

	st.src = st.store.View(p.Estimator)
	var geom *cluster.LSHOptions
	if p.UseLSH {
		g := cluster.GeometryFor(p.NumHashes, p.Theta)
		geom = &g
	}
	inc, err := cluster.NewIncremental(st.src, p.Theta, geom)
	if err != nil {
		return nil, err
	}
	st.inc = inc

	// Replay the snapshot corpus: assignments are a pure function of
	// dense order, so re-running the incremental clusterer over
	// 0..Len-1 reproduces every label the pre-crash process handed out.
	for dense := 0; dense < st.store.Len(); dense++ {
		if err := st.applyDense(uint32(dense)); err != nil {
			return nil, fmt.Errorf("serve: replaying snapshot read %d: %w", dense, err)
		}
	}

	// Replay the WAL tail: reads acked after the snapshot. Replay is
	// idempotent — a record whose ID the snapshot already holds (the
	// crash window between WAL sync and snapshot write) is skipped.
	durable, _, err := ReplayWAL(walPath, func(id string, sig minhash.Signature) error {
		if _, ok := st.store.Translator().Lookup(id); ok {
			return nil
		}
		_, _, err := st.applyRead(id, sig)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("serve: WAL replay: %w", err)
	}
	st.recovered = int64(st.store.Len())
	st.publish()

	wal, err := OpenWAL(walPath, durable)
	if err != nil {
		return nil, err
	}
	st.wal = wal

	// Fold the replayed WAL tail into a fresh snapshot so the next
	// crash replays a short log, and so a recovered directory is
	// immediately re-crash-safe.
	if hasWAL || hasManifest {
		if err := st.Checkpoint(); err != nil {
			st.wal.Close()
			return nil, err
		}
	}
	return st, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// loadCheckpoint reads the manifest and its snapshot, verifying the
// content hash before restoring.
func loadCheckpoint(dir, manifestPath string) (*manifest, *sigstore.Store, error) {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, nil, fmt.Errorf("serve: manifest: %w", err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, m.Snapshot))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: snapshot: %w", err)
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != m.SHA256 {
		return nil, nil, fmt.Errorf("serve: snapshot %s does not match manifest hash", m.Snapshot)
	}
	store, err := sigstore.Restore(blob)
	if err != nil {
		return nil, nil, err
	}
	if store.Len() != m.Reads {
		return nil, nil, fmt.Errorf("serve: snapshot holds %d reads, manifest says %d", store.Len(), m.Reads)
	}
	return &m, store, nil
}

// applyRead translates, stores, and clusters one new read, returning its
// dense ID and label. Callers must have established the ID is not yet
// stored.
func (st *State) applyRead(id string, sig minhash.Signature) (uint32, int, error) {
	dense := st.store.Translator().Translate(id)
	if int(dense) != st.src.Len() {
		return 0, 0, fmt.Errorf("serve: dense ID %d out of commit order (have %d rows)", dense, st.src.Len())
	}
	if err := st.store.Put(dense, sig); err != nil {
		return 0, 0, err
	}
	if err := st.src.Grow(st.store); err != nil {
		return 0, 0, err
	}
	label, err := st.applyDenseClustered(dense, id)
	return dense, label, err
}

// applyDense clusters an already-stored read (recovery replay), fetching
// its external ID from the restored translator.
func (st *State) applyDense(dense uint32) error {
	id, ok := st.store.Translator().Key(dense)
	if !ok {
		return fmt.Errorf("serve: dense ID %d has no key", dense)
	}
	_, err := st.applyDenseClustered(dense, id)
	return err
}

func (st *State) applyDenseClustered(dense uint32, id string) (int, error) {
	label, err := st.inc.Add(int(dense))
	if err != nil {
		return 0, err
	}
	st.assignB.append(int32(label))
	st.idsB.append(id)
	if label == st.sizesB.n {
		st.sizesB.append(0)
		st.repDenseB.append(dense)
		st.repIDB.append(id)
	}
	st.sizesB.inc(label)
	return label, nil
}

// publish freezes the builders into a new readView and swaps it in for
// every subsequent query. Called by the committer after each batch (and
// once at Open): O(reads in batch + labels touched), never O(corpus).
func (st *State) publish() {
	v := &readView{
		assign:   st.assignB.view(),
		ids:      st.idsB.view(),
		sizes:    st.sizesB.view(),
		repDense: st.repDenseB.view(),
		repID:    st.repIDB.view(),
		sigBytes: st.store.ResidentBytes(),
	}
	v.reads = v.assign.len()
	v.labels = v.sizes.len()
	st.view.Store(v)
}

// loadView pins the current epoch for a query.
func (st *State) loadView() *readView { return st.view.Load() }

// CommitBatch durably commits a batch: WAL-append every new read, one
// group fsync, then apply to the store and clusterer. Acks are returned
// in input order; duplicates (by read ID) resolve to the existing
// assignment without re-logging. After the batch is acknowledged the
// fault injector may demand a service crash — the chaos harness's kill
// point — returned as *faults.ServiceCrashError.
func (st *State) CommitBatch(batch []ingest.Sketched) ([]Ack, error) {
	trans := st.store.Translator()
	inBatch := make(map[string]bool, len(batch))
	var fresh int64
	for _, s := range batch {
		if _, ok := trans.Lookup(s.ID); ok || inBatch[s.ID] {
			continue
		}
		inBatch[s.ID] = true
		if err := st.wal.Append(s.ID, s.Sig); err != nil {
			return nil, err
		}
	}
	if err := st.wal.Sync(); err != nil {
		return nil, fmt.Errorf("serve: WAL sync: %w", err)
	}
	// Everything below the sync barrier is recoverable: if we crash
	// mid-apply, Open replays these records idempotently.
	acks := make([]Ack, len(batch))
	for i, s := range batch {
		if dense, ok := trans.Lookup(s.ID); ok {
			st.duplicates.Add(1)
			acks[i] = Ack{ID: s.ID, Read: int(dense), Cluster: int(st.assignB.at(int(dense))), Duplicate: true}
			continue
		}
		dense, label, err := st.applyRead(s.ID, s.Sig)
		if err != nil {
			return nil, err
		}
		acks[i] = Ack{ID: s.ID, Read: int(dense), Cluster: label}
		fresh++
	}
	st.publish()
	total := st.acked.Add(fresh)
	if st.inj.ServiceCrashNow(total + st.recovered) {
		return acks, &faults.ServiceCrashError{Acked: total + st.recovered}
	}
	return acks, nil
}

// Checkpoint writes a content-addressed snapshot plus manifest and
// truncates the WAL the snapshot absorbed. Each file is staged, fsynced
// and renamed into place with its directory fsynced (checkpoint.DirStore),
// so the manifest the WAL truncation trusts survives a power cut. The
// store must be quiescent — the committer calls this, never a request
// goroutine.
func (st *State) Checkpoint() error {
	blob := st.store.Snapshot()
	sum := sha256.Sum256(blob)
	name := fmt.Sprintf("snapshot-%s.bin", hex.EncodeToString(sum[:8]))
	if err := st.files.WriteFile(stagingFile, blob); err != nil {
		return err
	}
	if err := st.files.Replace(stagingFile, name); err != nil {
		return err
	}
	m := manifest{Params: st.params, Snapshot: name, SHA256: hex.EncodeToString(sum[:]), Reads: st.store.Len()}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := st.files.WriteFile(stagingFile, raw); err != nil {
		return err
	}
	if err := st.files.Replace(stagingFile, manifestFile); err != nil {
		return err
	}
	if err := st.wal.Truncate(); err != nil {
		return err
	}
	// Old snapshots are unreferenced once the manifest points elsewhere.
	for _, old := range st.files.List("/snapshot-") {
		if strings.HasSuffix(old, ".bin") && old != "/"+name {
			st.files.Remove(old) // best effort: an orphaned snapshot costs only disk space
		}
	}
	return nil
}

// Close flushes and closes the WAL. It does NOT checkpoint — callers
// decide whether this shutdown is graceful (Checkpoint first) or a
// simulated crash (don't).
func (st *State) Close() error { return st.wal.Close() }

// ---- queries (safe from any goroutine; zero locks) ----
//
// Every query loads the latest readView once and answers from it and the
// translator's lock-free Lookup: no mutex, no per-request copies, and a
// consistent epoch even while the committer keeps publishing.

// ReadInfo answers "where did my read go".
type ReadInfo struct {
	ID             string `json:"id"`
	Read           int    `json:"read"`
	Cluster        int    `json:"cluster"`
	Representative string `json:"representative"`
}

// Assignment looks a read up by external ID.
func (st *State) Assignment(id string) (ReadInfo, bool) {
	v := st.loadView()
	dense, ok := st.store.Translator().Lookup(id)
	if !ok || int(dense) >= v.reads {
		// Unknown, or translated mid-commit but not yet published: a
		// read becomes visible only once its batch's view is up.
		return ReadInfo{}, false
	}
	label := v.assign.at(int(dense))
	return ReadInfo{ID: id, Read: int(dense), Cluster: int(label), Representative: v.repID.at(int(label))}, true
}

// ClusterInfo summarizes one cluster.
type ClusterInfo struct {
	Cluster        int    `json:"cluster"`
	Size           int    `json:"size"`
	Representative string `json:"representative"`
}

// Cluster returns one cluster's summary.
func (st *State) Cluster(label int) (ClusterInfo, bool) {
	v := st.loadView()
	if label < 0 || label >= v.labels {
		return ClusterInfo{}, false
	}
	return ClusterInfo{Cluster: label, Size: int(v.sizes.at(label)), Representative: v.repID.at(label)}, true
}

// Clusters lists every cluster, largest first (ties by label). The
// slice is the view's memoized summary, shared across callers — treat
// it as read-only.
func (st *State) Clusters() []ClusterInfo {
	return st.loadView().clustersList()
}

// Diversity summarizes the community structure the paper's pipeline
// reports: cluster count as species richness plus Shannon and Simpson
// indices over cluster sizes.
type Diversity struct {
	Reads      int     `json:"reads"`
	Clusters   int     `json:"clusters"`
	Singletons int     `json:"singletons"`
	Largest    int     `json:"largest"`
	Shannon    float64 `json:"shannon"`
	Simpson    float64 `json:"simpson"`
}

// Diversity returns the current epoch's memoized summary.
func (st *State) Diversity() Diversity {
	return st.loadView().diversitySummary()
}

// Stats is the service-level counter snapshot.
type Stats struct {
	Reads      int   `json:"reads"`
	Clusters   int   `json:"clusters"`
	Acked      int64 `json:"acked"`
	Recovered  int64 `json:"recovered"`
	Duplicates int64 `json:"duplicates"`
	SigBytes   int64 `json:"sig_bytes"`
}

// Stats snapshots the counters.
func (st *State) Stats() Stats {
	v := st.loadView()
	return Stats{
		Reads:      v.reads,
		Clusters:   v.labels,
		Acked:      st.acked.Load(),
		Recovered:  st.recovered,
		Duplicates: st.duplicates.Load(),
		SigBytes:   v.sigBytes,
	}
}

// DumpTSV writes "read_id<TAB>cluster" rows in dense (commit) order —
// the artifact the chaos harness compares across crash and recovery.
// It streams straight from the pinned view: no full-corpus copy, and
// row resolution cannot fail mid-stream.
func (st *State) DumpTSV(w io.Writer) error {
	return st.loadView().dumpTSV(w)
}
