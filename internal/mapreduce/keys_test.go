package mapreduce

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// key64Bytes and key128Bytes are the big-endian encodings numeric keys
// shuffle as.
func key64Bytes(k Key64) []byte { return binary.BigEndian.AppendUint64(nil, uint64(k)) }

func key128Bytes(k Key128) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, k.Hi), k.Lo)
}

// TestNumericKeysShuffleAsTheirBytes holds Key64 and Key128 keys to the
// byte strings they stand for. For 1–16 reducers each key goes to the
// partition that FNV-1a over its big-endian bytes picks
// (DefaultPartition of those bytes), a reducer's sort orders keys as
// bytes.Compare orders their bytes and keeps equal keys in arrival
// order, and each key counts its 8 or 16 bytes.
func TestNumericKeysShuffleAsTheirBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	edges := []uint64{0, 1, 255, 256, 1 << 32, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	part64, part128 := partitioner[Key64](), partitioner[Key128]()
	for trial := 0; trial < 300; trial++ {
		// Narrow fields make many keys tie; wide ones use all 64 bits.
		bits := 1 + rng.Intn(64)
		field := func() uint64 {
			if rng.Intn(8) == 0 {
				return edges[rng.Intn(len(edges))]
			}
			return rng.Uint64() >> (64 - bits)
		}
		n := rng.Intn(400)
		k64, k128 := make([]Key64, n), make([]Key128, n)
		for i := range k64 {
			k64[i], k128[i] = Key64(field()), Key128{field(), field()}
		}
		reducers := 1 + rng.Intn(16)
		for i := range k64 {
			if got, want := part64(k64[i], reducers), DefaultPartition(string(key64Bytes(k64[i])), reducers); got != want {
				t.Fatalf("Key64 %d goes to partition %d of %d, its bytes to %d", k64[i], got, reducers, want)
			}
			if got, want := part128(k128[i], reducers), DefaultPartition(string(key128Bytes(k128[i])), reducers); got != want {
				t.Fatalf("Key128 %v goes to partition %d of %d, its bytes to %d", k128[i], got, reducers, want)
			}
		}
		checkGroups(t, k64, key64Bytes)
		checkGroups(t, k128, key128Bytes)
	}
	if got := sizer[Key64]()(Key64(math.MaxUint64)); got != 8 {
		t.Errorf("a Key64 counts %d shuffle bytes, want 8", got)
	}
	if got := sizer[Key128]()(Key128{}); got != 16 {
		t.Errorf("a Key128 counts %d shuffle bytes, want 16", got)
	}
	// The values the numeric jobs shuffle count what they did boxed: an
	// int 8 bytes, as a boxed int, and struct{} 0, as nil.
	if got, want := sizer[int]()(-1), approxValueBytes(-1); got != want {
		t.Errorf("an int counts %d bytes, a boxed one %d", got, want)
	}
	if got, want := sizer[struct{}]()(struct{}{}), approxValueBytes(nil); got != want {
		t.Errorf("struct{} counts %d bytes, nil %d", got, want)
	}
}

// TestTypedShuffleAllocatesPerJob guards the allocations of a job that
// shuffles Key128 keys with int values, as the LSH and
// connected-components jobs do; unlike its time, that count does not
// depend on the host. From 4,096 to 65,536 input records it must grow by
// less than one allocation per 10 added records: the shuffle allocates
// per chunk of records, never per record.
func TestTypedShuffleAllocatesPerJob(t *testing.T) {
	e := MustEngine(DefaultCluster)
	mallocs := func(n int) uint64 {
		t.Helper()
		input := make([]int, n)
		for i := range input {
			input[i] = i
		}
		job := &Job[int, Key128, int]{
			Name:  "pairs",
			Input: input,
			Map: func(i int, emit func(Key128, int)) error {
				emit(Key128{uint64(i % 1024), uint64(i)}, i)
				return nil
			},
			Reduce: func(k Key128, values []int, emit func(Key128, int)) error {
				emit(k, len(values))
				return nil
			},
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, _, err := Run(e, job)
		runtime.ReadMemStats(&after)
		if err != nil || len(out) != n {
			t.Fatalf("%d records: %d out, error %v", n, len(out), err)
		}
		return after.Mallocs - before.Mallocs
	}
	small, large := mallocs(4096), mallocs(65536)
	t.Logf("%d allocations at 4,096 records, %d at 65,536", small, large)
	if per := (float64(large) - float64(small)) / (65536 - 4096); per >= 0.1 {
		t.Fatalf("allocations grow by %.4f per added record (%d at 4,096 records, %d at 65,536), want under 0.1", per, small, large)
	}
}

// TestNumericKeysReduceInOrder runs Key64 and Key128 jobs end to end over
// keys whose words use all 64 bits and often repeat. Each reducer must see
// its keys in numeric order (a Key128 by Hi, then Lo), each key once, with
// the values of all its records in input order.
func TestNumericKeysReduceInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	words := []uint64{0, 1, 255, 256, 1 << 32, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	for len(words) < 40 {
		words = append(words, rng.Uint64())
	}
	k64, k128 := make([]Key64, 5000), make([]Key128, 5000)
	for i := range k64 {
		// Few distinct Hi words, so that many Key128 keys tie on Hi.
		k64[i] = Key64(words[rng.Intn(len(words))])
		k128[i] = Key128{words[rng.Intn(8)], words[rng.Intn(len(words))]}
	}
	checkReduceOrder(t, k64, func(a, b Key64) int { return cmp.Compare(a, b) })
	checkReduceOrder(t, k128, func(a, b Key128) int {
		return cmp.Or(cmp.Compare(a.Hi, b.Hi), cmp.Compare(a.Lo, b.Lo))
	})
}

// checkReduceOrder runs a job that emits (keys[i], i) for each i and
// checks each reducer's groups against compare and the input.
func checkReduceOrder[K Key](t *testing.T, keys []K, compare func(a, b K) int) {
	t.Helper()
	const reducers = 5
	type group struct {
		key    K
		values []int
	}
	part := partitioner[K]()
	var mu sync.Mutex
	seen := make([][]group, reducers) // each reducer's groups, in call order
	input := make([]int, len(keys))
	for i := range input {
		input[i] = i
	}
	if _, _, err := Run(MustEngine(DefaultCluster), &Job[int, K, int]{
		Name:      "numeric-order",
		Input:     input,
		splitSize: 97,
		Map: func(i int, emit func(K, int)) error {
			emit(keys[i], i)
			return nil
		},
		Reduce: func(key K, values []int, emit func(K, int)) error {
			mu.Lock()
			defer mu.Unlock()
			p := part(key, reducers)
			seen[p] = append(seen[p], group{key, slices.Clone(values)})
			return nil
		},
		NumReducers: reducers,
	}); err != nil {
		t.Fatal(err)
	}
	want := make(map[K][]int)
	for i, k := range keys {
		want[k] = append(want[k], i)
	}
	groups := 0
	for p, gs := range seen {
		for g := range gs {
			if g > 0 && compare(gs[g-1].key, gs[g].key) >= 0 {
				t.Fatalf("reducer %d reduced key %v after %v", p, gs[g].key, gs[g-1].key)
			}
			if !slices.Equal(gs[g].values, want[gs[g].key]) {
				t.Fatalf("key %v reduced values %v, want %v", gs[g].key, gs[g].values, want[gs[g].key])
			}
		}
		groups += len(gs)
	}
	if groups != len(want) {
		t.Fatalf("reduced %d groups, want %d", groups, len(want))
	}
}

// TestNumericRecordCostsAllocateNothing checks that partitioning and
// sizing a numeric job's record, which the shuffle does for every record
// a map emits, allocates nothing: no key string is built and no value is
// boxed.
func TestNumericRecordCostsAllocateNothing(t *testing.T) {
	part64, part128 := partitioner[Key64](), partitioner[Key128]()
	size64, size128, sizeInt := sizer[Key64](), sizer[Key128](), sizer[int]()
	k, v := Key128{math.MaxUint64, 1 << 40}, 0
	sink := 0
	if allocs := testing.AllocsPerRun(100, func() {
		v++
		sink += part64(Key64(k.Hi), 7) + part128(k, 7) + size64(Key64(k.Lo)) + size128(k) + sizeInt(v)
	}); allocs != 0 {
		t.Fatalf("partitioning and sizing a numeric record allocates %v times, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("counted nothing")
	}
}

// TestSizerMatchesApproxValueBytes holds each type's sizer to what
// approxValueBytes gives the same value boxed, the estimate that shuffle
// and split bytes were counted with before records were typed. Fixed-size
// types are sized once per job, every other type value by value.
func TestSizerMatchesApproxValueBytes(t *testing.T) {
	type fixed struct {
		A int32
		B [3]uint16
		C bool
		D Key128
	}
	type varying struct {
		ID   int64
		Sig  []uint64
		Name string
	}
	rng := rand.New(rand.NewSource(29))
	for range 200 {
		s := strings.Repeat("x", rng.Intn(40))
		sig := make([]uint64, rng.Intn(50))
		checkSizer(t, s)
		checkSizer(t, rng.Int())
		checkSizer(t, Key64(rng.Uint64()))
		checkSizer(t, Key128{rng.Uint64(), rng.Uint64()})
		checkSizer(t, struct{}{})
		checkSizer(t, fixed{A: rng.Int31(), C: true})
		checkSizer(t, varying{ID: rng.Int63(), Sig: sig, Name: s})
		checkSizer(t, sig)
		checkSizer(t, []string{s, s})
		checkSizer[any](t, sig)
		checkSizer(t, KeyValue[string, any]{Key: s, Value: sig})
	}
	// Pig's records count their key's length plus their value's estimate.
	kv := KeyValue[string, any]{Key: "read-17", Value: []uint64{1, 2, 3}}
	if got := sizer[KeyValue[string, any]]()(kv); got != 7+24 {
		t.Errorf("a Pig record counts %d bytes, want %d", got, 7+24)
	}
}

func checkSizer[T any](t *testing.T, v T) {
	t.Helper()
	if got, want := sizer[T]()(v), approxValueBytes(v); got != want {
		t.Fatalf("sizer[%T] counts %d bytes, approxValueBytes %d", v, got, want)
	}
}
