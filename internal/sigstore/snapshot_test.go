package sigstore

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
)

// snapshotGoldenCases are the stores testdata/snapshot.golden pins: 300
// keyed reads each (every 11th signature empty), full-width and packed.
var snapshotGoldenCases = []struct {
	name string
	cfg  Config
}{
	{"full-n24", Config{NumHashes: 24}},
	{"packed-n24-b4", Config{NumHashes: 24, Bits: 4}},
}

// TestSnapshotGolden pins the SIGSNAP2 byte layout: a change to the
// format, or to what a store holds, moves a digest.
func TestSnapshotGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			want[name] = line
		}
	}
	if len(want) != len(snapshotGoldenCases) {
		t.Errorf("testdata/snapshot.golden has %d lines, the cases produce %d", len(want), len(snapshotGoldenCases))
	}
	for _, c := range snapshotGoldenCases {
		sum := sha256.Sum256(keyedStore(t, c.cfg, 300, 11, 10).Snapshot())
		if got := c.name + " " + hex.EncodeToString(sum[:]); got != want[c.name] {
			t.Errorf("%s: line differs from testdata/snapshot.golden (recorded: %q); actual line:\n%s", c.name, want[c.name], got)
		}
	}
}

// seal returns body followed by its SHA-256: a self-consistent blob.
func seal(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// craftSnapshot hand-writes a sealed SIGSNAP2 blob with the given header,
// keys and row count, all-zero empty flags and no arena words.
func craftSnapshot(numHashes, bits uint64, keys []string, rows uint64) []byte {
	blob := []byte(snapshotMagic)
	blob = appendU64(appendU64(blob, numHashes), bits)
	blob = appendU64(blob, uint64(len(keys)))
	for _, k := range keys {
		blob = append(appendU64(blob, uint64(len(k))), k...)
	}
	blob = appendU64(blob, rows)
	return seal(append(blob, make([]byte, (rows+7)/8)...))
}

// TestRestoreRejectsDuplicateKeys: two rows cannot share a read ID.
func TestRestoreRejectsDuplicateKeys(t *testing.T) {
	if _, err := Restore(craftSnapshot(1, 0, []string{"a", "b", "a"}, 0)); err == nil {
		t.Fatal("Restore accepted a snapshot with a duplicate key")
	}
	if _, err := Restore(craftSnapshot(1, 0, []string{"a", "b"}, 0)); err != nil {
		t.Fatalf("Restore of distinct keys: %v", err)
	}
}

// TestRestoreRefusesOtherMagic: a blob an older build wrote (magic
// SIGSNAP1), intact by its own hash, is refused by name.
func TestRestoreRefusesOtherMagic(t *testing.T) {
	snap := keyedStore(t, Config{NumHashes: 8}, 5, 0, 3).Snapshot()
	old := seal(append([]byte("SIGSNAP1"), snap[len(snapshotMagic):len(snap)-sha256.Size]...))
	_, err := Restore(old)
	if err == nil || !strings.Contains(err.Error(), "SIGSNAP1") {
		t.Fatalf("Restore of a SIGSNAP1 blob: %v, want an error naming SIGSNAP1", err)
	}
}

// TestRestoreChecksGeometryBeforeAllocating feeds Restore self-consistent
// blobs whose headers claim a huge stride. None may panic or allocate
// for the claimed geometry (2^40 hashes is 8 TiB a row), and any claimed
// rows must fail against the arena actually present.
func TestRestoreChecksGeometryBeforeAllocating(t *testing.T) {
	for _, c := range []struct {
		name                  string
		numHashes, bits, rows uint64
	}{
		{"2^40 hashes, 0 rows", 1 << 40, 0, 0},
		{"2^61 hashes, 8 rows", 1 << 61, 0, 8},
		{"2^40 hashes, 16 rows", 1 << 40, 0, 16},
		{"2^61 hashes at b=16, 8 rows", 1 << 61, 16, 8},
	} {
		blob := craftSnapshot(c.numHashes, c.bits, nil, c.rows)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Restore(blob)
		runtime.ReadMemStats(&after)
		// A fixed allowance covers the empty store itself (its translator
		// table is 8 KiB); anything sized by the header blows past it.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(blob))+16<<10 {
			t.Errorf("%s: Restore allocated %d bytes for a %d-byte blob", c.name, grew, len(blob))
		}
		if c.rows > 0 && err == nil {
			t.Errorf("%s: Restore accepted %d rows with no arena", c.name, c.rows)
		}
		if c.rows == 0 && (err != nil || s.Len() != 0) {
			t.Errorf("%s: Restore of an empty store: %v", c.name, err)
		}
	}
}
