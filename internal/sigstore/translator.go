// Package sigstore holds a corpus of minwise signatures resident in
// memory: a dense single-writer store keeping either full 64-bit
// signatures or b-bit packed sketches (Li & König) in one contiguous
// arena that the clustering kernels borrow from without copying. A
// Translator maps external string read IDs onto the dense uint32 IDs
// that index the arena, and the whole store snapshots to a
// content-addressed byte blob that rides through internal/checkpoint for
// bit-identical --resume. This is the storage layer that lets a single
// process keep millions of reads sketchable in RAM (paper §II's
// terabyte-scale collections): at n=100 hashes a full signature is 800
// bytes per read, while b=4 packing stores the same corpus at 56 bytes
// per read.
package sigstore

import "sync/atomic"

// Translator maps external string read IDs to dense uint32 IDs and back —
// the key-translation idiom of columnar ingest frameworks (cf. pdk's
// Translator): dense IDs index arenas and bitmaps directly, so nothing
// downstream of ingest ever touches the string key space. Dense IDs are
// allocated in call order, so they stay compact (0..n-1).
//
// Translate and Key belong to the store's single writer. Lookup is safe
// from any goroutine, concurrently with the writer, and takes no lock:
// the key → ID table is insert-only open addressing whose entries and
// table pointer are published with atomics. The writer needs no CAS;
// a reader probes whatever table it loaded — an old table is still
// correct for every key inserted before it was replaced — and a key
// translated concurrently with a lookup may legitimately miss.
type Translator struct {
	keys  []string // dense id -> key, in allocation order
	table atomic.Pointer[idTable]
}

type idTable struct {
	mask  uint64
	slots []atomic.Pointer[idEntry]
}

type idEntry struct {
	key   string
	dense uint32
}

func newIDTable(size int) *idTable {
	return &idTable{mask: uint64(size - 1), slots: make([]atomic.Pointer[idEntry], size)}
}

// NewTranslator returns an empty translator.
func NewTranslator() *Translator {
	t := &Translator{}
	t.table.Store(newIDTable(1024))
	return t
}

func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Translate returns the dense ID for key, allocating the next free ID on
// first sight.
func (t *Translator) Translate(key string) uint32 {
	if id, ok := t.Lookup(key); ok {
		return id
	}
	id := uint32(len(t.keys))
	t.keys = append(t.keys, key)
	tab := t.table.Load()
	if uint64(len(t.keys))*4 > (tab.mask+1)*3 { // grow at 75% load
		tab = t.grow(tab)
	}
	tab.put(&idEntry{key: key, dense: id})
	return id
}

// Lookup returns the dense ID for key without allocating one.
func (t *Translator) Lookup(key string) (uint32, bool) {
	tab := t.table.Load()
	for i := fnv1a64(key) & tab.mask; ; i = (i + 1) & tab.mask {
		e := tab.slots[i].Load()
		if e == nil {
			return 0, false
		}
		if e.key == key {
			return e.dense, true
		}
	}
}

// Key returns the external key for a dense ID.
func (t *Translator) Key(id uint32) (string, bool) {
	if int(id) >= len(t.keys) {
		return "", false
	}
	return t.keys[id], true
}

func (tab *idTable) put(e *idEntry) {
	for i := fnv1a64(e.key) & tab.mask; ; i = (i + 1) & tab.mask {
		if tab.slots[i].Load() == nil {
			tab.slots[i].Store(e)
			return
		}
	}
}

// grow re-inserts every entry into a table twice the size and publishes
// it. Readers holding the old table keep resolving everything inserted
// before the growth.
func (t *Translator) grow(old *idTable) *idTable {
	next := newIDTable(int(old.mask+1) * 2)
	for i := range old.slots {
		if e := old.slots[i].Load(); e != nil {
			next.put(e)
		}
	}
	t.table.Store(next)
	return next
}
