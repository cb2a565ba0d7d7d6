package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/dfs"
)

// The simulated DFS must satisfy Store structurally, so pipelines can
// checkpoint straight into the cluster's file system.
var _ Store = (*dfs.FileSystem)(nil)

func tempJournal(t *testing.T) (*Journal, *DirStore) {
	t.Helper()
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(store, "/")
	if err != nil {
		t.Fatal(err)
	}
	return j, store
}

func TestOpenValidation(t *testing.T) {
	store, _ := NewDirStore(t.TempDir())
	if _, err := Open(store, "relative"); err == nil {
		t.Fatal("relative dir accepted")
	}
	j, err := Open(store, "/runs/a/")
	if err != nil {
		t.Fatal(err)
	}
	if j.Dir() != "/runs/a" {
		t.Fatalf("trailing slash kept: %q", j.Dir())
	}
	if !j.Empty() || j.Len() != 0 {
		t.Fatal("fresh journal not empty")
	}
}

func TestCommitValidateLoadRoundTrip(t *testing.T) {
	j, store := tempJournal(t)
	params := map[string]string{"k": "5", "theta": "0.9"}
	out := []byte("stage one output")
	e, err := j.Commit("sketch", HashBytes([]byte("reads")), params, out)
	if err != nil {
		t.Fatal(err)
	}
	if e.OutputHash != HashBytes(out) || e.Output != "/sketch."+e.OutputHash[:16] {
		t.Fatalf("entry wrong: %+v", e)
	}

	// A fresh Journal over the same store (a new driver process) must see
	// the committed entry and validate it.
	j2, err := Open(store, "/")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 1 || j2.Stages()[0] != "sketch" {
		t.Fatalf("reopened journal lost the entry: %v", j2.Stages())
	}
	data, skip, err := j2.Validate("sketch", HashBytes([]byte("reads")), params)
	if err != nil || !skip || string(data) != string(out) {
		t.Fatalf("validate: %q skip=%v err=%v", data, skip, err)
	}

	// A stage with no entry is (false, nil): it simply has not run.
	if _, skip, err := j2.Validate("cluster", "x", nil); skip || err != nil {
		t.Fatalf("unknown stage: skip=%v err=%v", skip, err)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	j, _ := tempJournal(t)
	params := map[string]string{"theta": "0.4", "linkage": "average"}
	e, err := j.Commit("cluster", "in-hash", params, []byte("labels"))
	if err != nil {
		t.Fatal(err)
	}

	// Changed input data.
	_, _, err = j.Validate("cluster", "other-hash", params)
	var im *InputMismatchError
	if !errors.As(err, &im) || im.Stage != "cluster" {
		t.Fatalf("want InputMismatchError, got %v", err)
	}

	// Changed parameter: the error names the differing key and both values.
	_, _, err = j.Validate("cluster", "in-hash", map[string]string{"theta": "0.6", "linkage": "average"})
	var pm *ParamMismatchError
	if !errors.As(err, &pm) {
		t.Fatalf("want ParamMismatchError, got %v", err)
	}
	if pm.Param != "theta" || pm.Got != "0.6" || pm.Recorded != "0.4" {
		t.Fatalf("mismatch detail wrong: %+v", pm)
	}
	if !strings.Contains(pm.Error(), "theta=0.6") || !strings.Contains(pm.Error(), "--resume=force") {
		t.Fatalf("message unhelpful: %s", pm.Error())
	}

	// Tampered committed output.
	if err := j.store.WriteFile(e.Output, []byte("rotted")); err != nil {
		t.Fatal(err)
	}
	_, _, err = j.Validate("cluster", "in-hash", params)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Stage != "cluster" {
		t.Fatalf("want CorruptError, got %v", err)
	}

	// Deleted committed output.
	if err := j.store.Remove(e.Output); err != nil {
		t.Fatal(err)
	}
	if _, _, err = j.Validate("cluster", "in-hash", params); !errors.As(err, &ce) {
		t.Fatalf("want CorruptError for missing output, got %v", err)
	}
}

// validateMismatch commits a "sketch" entry with recorded, validates it
// with got and returns the parameter mismatch it must raise.
func validateMismatch(t *testing.T, recorded, got map[string]string) *ParamMismatchError {
	t.Helper()
	j, _ := tempJournal(t)
	if _, err := j.Commit("sketch", "in", recorded, []byte("sigs")); err != nil {
		t.Fatal(err)
	}
	_, _, err := j.Validate("sketch", "in", got)
	var pm *ParamMismatchError
	if !errors.As(err, &pm) {
		t.Fatalf("want ParamMismatchError, got %v", err)
	}
	return pm
}

// TestParamMismatchUnrecordedInCheckpoint: a parameter an older entry
// never recorded reads "not recorded", not as an empty value.
func TestParamMismatchUnrecordedInCheckpoint(t *testing.T) {
	pm := validateMismatch(t, map[string]string{"k": "8"}, map[string]string{"k": "8", "store_bits": "0"})
	if pm.Param != "store_bits" || pm.Got != "0" || pm.Recorded != "" {
		t.Fatalf("mismatch detail wrong: %+v", pm)
	}
	want := "parameter store_bits=0 differs from checkpointed store_bits (not recorded)"
	if msg := pm.Error(); !strings.Contains(msg, want) {
		t.Fatalf("message %q, want it to contain %q", msg, want)
	}
}

// TestParamMismatchUnrecordedInRun: a recorded parameter the current run
// does not pass reads "not recorded" on the run's side.
func TestParamMismatchUnrecordedInRun(t *testing.T) {
	pm := validateMismatch(t, map[string]string{"k": "8", "mode": ""}, map[string]string{"k": "8"})
	if pm.Param != "mode" || pm.Got != "" || pm.Recorded != "" {
		t.Fatalf("mismatch detail wrong: %+v", pm)
	}
	want := "parameter mode (not recorded) differs from checkpointed mode="
	if msg := pm.Error(); !strings.Contains(msg, want) || strings.Count(msg, "not recorded") != 1 {
		t.Fatalf("message %q, want it to contain %q once", msg, want)
	}
}

func TestCommitReplacesEntry(t *testing.T) {
	j, _ := tempJournal(t)
	if _, err := j.Commit("sketch", "a", nil, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit("greedy", "b", nil, []byte("g")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit("sketch", "a2", nil, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("recommit duplicated the entry: %v", j.Stages())
	}
	data, skip, err := j.Validate("sketch", "a2", nil)
	if err != nil || !skip {
		t.Fatalf("recommitted entry invalid: %v", err)
	}
	if string(data) != "v2" {
		t.Fatalf("old bytes survived: %q", data)
	}
}

// failingManifest is a Store whose Replace onto the manifest fails once
// armed: a crash between a commit's output rename and its manifest
// rename.
type failingManifest struct {
	*DirStore
	armed bool
}

func (f *failingManifest) Replace(from, to string) error {
	if f.armed && strings.HasSuffix(to, "/MANIFEST") {
		return errors.New("injected: manifest rename lost")
	}
	return f.DirStore.Replace(from, to)
}

// TestInterruptedRecommitKeepsOutput: a re-commit that dies before its
// manifest is durable must not touch the output the durable manifest
// names, so the journal, and a reopened one, still validate the first
// output. The next clean commit then leaves exactly one output file for
// the stage.
func TestInterruptedRecommitKeepsOutput(t *testing.T) {
	_, dir := tempJournal(t)
	store := &failingManifest{DirStore: dir}
	j, err := Open(store, "/")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]string{"k": "5"}
	if _, err := j.Commit("sketch", "in", params, []byte("first")); err != nil {
		t.Fatal(err)
	}
	store.armed = true
	if _, err := j.Commit("sketch", "in", params, []byte("second")); err == nil {
		t.Fatal("re-commit succeeded despite the lost manifest rename")
	}
	store.armed = false

	j2, err := Open(store, "/")
	if err != nil {
		t.Fatal(err)
	}
	for name, jj := range map[string]*Journal{"same": j, "reopened": j2} {
		data, skip, err := jj.Validate("sketch", "in", params)
		if err != nil || !skip || string(data) != "first" {
			t.Fatalf("%s journal after the interrupted re-commit: %q skip=%v err=%v, want the first output", name, data, skip, err)
		}
	}
	e, err := j2.Commit("sketch", "in", params, []byte("third"))
	if err != nil {
		t.Fatal(err)
	}
	if files := store.List("/sketch."); len(files) != 1 || files[0] != e.Output {
		t.Fatalf("sketch outputs after a clean commit = %v, want only %s", files, e.Output)
	}
}

func TestDiscard(t *testing.T) {
	j, store := tempJournal(t)
	if _, err := j.Commit("sketch", "a", nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := j.Discard(); err != nil {
		t.Fatal(err)
	}
	if !j.Empty() {
		t.Fatal("discard left entries")
	}
	if got := store.List("/"); len(got) != 0 {
		t.Fatalf("discard left files: %v", got)
	}
	// The journal stays usable after a discard.
	if _, err := j.Commit("sketch", "a", nil, []byte("y")); err != nil {
		t.Fatal(err)
	}
}

func TestHashParamsCanonical(t *testing.T) {
	a := HashParams(map[string]string{"k": "5", "theta": "0.9"})
	b := HashParams(map[string]string{"theta": "0.9", "k": "5"})
	if a != b {
		t.Fatal("hash depends on map order")
	}
	if a == HashParams(map[string]string{"k": "5", "theta": "0.8"}) {
		t.Fatal("different params hash equal")
	}
	if HashParams(nil) != HashParams(map[string]string{}) {
		t.Fatal("nil and empty params differ")
	}
}

func TestSlugify(t *testing.T) {
	if got := slugify("store:/out/clusters"); got != "store--out-clusters" {
		t.Fatalf("slugify = %q", got)
	}
	if got := slugify("sketch"); got != "sketch" {
		t.Fatalf("slugify mangled a clean name: %q", got)
	}
}

func TestMissingErrorMessage(t *testing.T) {
	err := &MissingError{Dir: "/tmp/ck"}
	if !strings.Contains(err.Error(), "/tmp/ck") || !strings.Contains(err.Error(), "nothing to resume") {
		t.Fatalf("message unhelpful: %s", err.Error())
	}
	if root := (&MissingError{}).Error(); !strings.Contains(root, "in the checkpoint directory") {
		t.Fatalf("root journal message unhelpful: %s", root)
	}
}

// TestDirStoreReplaceOverwrites pins the durable write path: a Replace
// over an existing file leaves the new bytes and no staging file. (The
// directory fsync after the rename is not observable from a test.)
func TestDirStoreReplaceOverwrites(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFile("/MANIFEST", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFile("/_temporary/MANIFEST", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := store.Replace("/_temporary/MANIFEST", "/MANIFEST"); err != nil {
		t.Fatal(err)
	}
	got, err := store.ReadFile("/MANIFEST")
	if err != nil || string(got) != "new" {
		t.Fatalf("after Replace: %q, %v", got, err)
	}
	if files := store.List("/"); len(files) != 1 || files[0] != "/MANIFEST" {
		t.Fatalf("files after Replace = %v, want only /MANIFEST", files)
	}
}

// TestJournalSub checks that a sub-journal lives in its own directory of
// the parent's store, invisible to the parent's manifest.
func TestJournalSub(t *testing.T) {
	root, store := tempJournal(t)
	sub, err := root.Sub("run-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Commit("sketch", "h", nil, []byte("sigs")); err != nil {
		t.Fatal(err)
	}
	again, err := Open(store, "/run-1")
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != 1 || sub.Dir() != "/run-1" {
		t.Fatalf("sub journal at %q reopened with %d entries", sub.Dir(), again.Len())
	}
	if root.Len() != 0 {
		t.Fatalf("parent journal sees %d entries", root.Len())
	}
}

func TestDirStorePathMapping(t *testing.T) {
	root := t.TempDir()
	store, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if !filepath.IsAbs(store.Root()) {
		t.Fatalf("root not absolute: %q", store.Root())
	}
	if err := store.WriteFile("/a/b/data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !store.Exists("/a/b/data") || store.Exists("/a/b") {
		t.Fatal("Exists wrong: directories must not count as files")
	}
	// Escapes are confined to the root.
	if err := store.WriteFile("/../escape", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "escape")); err != nil {
		t.Fatal("traversal escaped the root")
	}
	if err := store.WriteFile("/", nil); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := store.Replace("/a/b/data", "/a/final"); err != nil {
		t.Fatal(err)
	}
	if store.Exists("/a/b/data") || !store.Exists("/a/final") {
		t.Fatal("Replace did not move the file")
	}
	got := store.List("/a/")
	if len(got) != 1 || got[0] != "/a/final" {
		t.Fatalf("List = %v", got)
	}
	if err := store.Remove("/a/final"); err != nil {
		t.Fatal(err)
	}
	if store.Exists("/a/final") {
		t.Fatal("Remove left the file")
	}
}

func TestJournalOnSimulatedDFS(t *testing.T) {
	fs, err := dfs.New(dfs.Config{NumDataNodes: 3, BlockSize: 64, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(fs, "/ck")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit("sketch", "h", map[string]string{"k": "5"}, []byte("sigs")); err != nil {
		t.Fatal(err)
	}
	if _, skip, err := j.Validate("sketch", "h", map[string]string{"k": "5"}); !skip || err != nil {
		t.Fatalf("DFS-backed validate failed: skip=%v err=%v", skip, err)
	}
}
