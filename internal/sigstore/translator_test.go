package sigstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestTranslatorKeys(t *testing.T) {
	tr := NewTranslator()
	keys := keysFor(100)
	for i, k := range keys {
		if id := tr.Translate(k); id != uint32(i) {
			t.Fatalf("Translate(%q) = %d, want %d (call order)", k, id, i)
		}
	}
	for i, k := range keys {
		if id := tr.Translate(k); id != uint32(i) {
			t.Fatalf("re-Translate(%q) = %d, want %d", k, id, i)
		}
		if back, ok := tr.Key(uint32(i)); !ok || back != k {
			t.Fatalf("Key(%d) = %q, %v; want %q", i, back, ok, k)
		}
		if id, ok := tr.Lookup(k); !ok || id != uint32(i) {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", k, id, ok, i)
		}
	}
	if _, ok := tr.Lookup("never_seen"); ok {
		t.Fatal("Lookup of an unknown key succeeded")
	}
	if _, ok := tr.Key(9999); ok {
		t.Fatal("Key of an unallocated id succeeded")
	}
}

// TestTranslatorGrowth translates enough keys to force several table
// growths and checks every key still resolves, misses stay misses, and
// a reader holding a pre-growth table keeps resolving old keys.
func TestTranslatorGrowth(t *testing.T) {
	tr := NewTranslator() // 1024 slots -> grows at 768
	old := tr.table.Load()
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Translate(fmt.Sprintf("key-%05d", i))
	}
	if tr.table.Load() == old {
		t.Fatal("table never grew")
	}
	for i := 0; i < n; i++ {
		dense, ok := tr.Lookup(fmt.Sprintf("key-%05d", i))
		if !ok || dense != uint32(i) {
			t.Fatalf("Lookup key-%05d = (%d, %v)", i, dense, ok)
		}
	}
	if _, ok := tr.Lookup("absent"); ok {
		t.Fatal("Lookup invented a key")
	}
	// The stale pre-growth table still answers for its own era.
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%05d", i)
		found := false
		for j := fnv1a64(key) & old.mask; ; j = (j + 1) & old.mask {
			e := old.slots[j].Load()
			if e == nil {
				break
			}
			if e.key == key {
				found = e.dense == uint32(i)
				break
			}
		}
		if !found {
			t.Fatalf("pre-growth table lost %s", key)
		}
	}
}

// TestTranslatorLookupRacesWriter is the daemon's one concurrent access:
// query goroutines look reads up while the committer translates new ones
// through several table growths. A key translated before a lookup
// started must resolve to its ID; the key being translated may resolve
// or miss, never to a wrong ID. Run under -race in CI.
func TestTranslatorLookupRacesWriter(t *testing.T) {
	tr := NewTranslator()
	keys := keysFor(5000)
	var done atomic.Int64 // keys[:done] are translated
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i += 7 {
				n := int(done.Load())
				if n == len(keys) {
					return
				}
				k := i % (n + 1) // n is the key in flight
				id, ok := tr.Lookup(keys[k])
				if (k < n && !ok) || (ok && id != uint32(k)) {
					t.Errorf("Lookup(%s) = (%d, %v) with %d keys translated", keys[k], id, ok, n)
					return
				}
				if _, ok := tr.Lookup("absent"); ok {
					t.Error("Lookup invented a key")
					return
				}
			}
		}(r)
	}
	for i, k := range keys {
		if id := tr.Translate(k); id != uint32(i) {
			t.Errorf("Translate(%s) = %d, want %d", k, id, i)
		}
		done.Store(int64(i + 1))
	}
	wg.Wait()
}
