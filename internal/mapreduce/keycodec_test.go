package mapreduce

import (
	"cmp"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// keyCodecValues spans the full uint64 range: band hashes use all 64 bits.
func keyCodecValues(rng *rand.Rand) []uint64 {
	vals := []uint64{0, 1, 255, 256, 1 << 32, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Uint64(), uint64(rng.Intn(1000)))
	}
	return vals
}

func TestKeyCodecRoundTrip(t *testing.T) {
	vals := keyCodecValues(rand.New(rand.NewSource(1)))
	for i, a := range vals {
		k := Uint64Key(a)
		if len(k) != 8 {
			t.Fatalf("Uint64Key(%d) is %d bytes, want 8", a, len(k))
		}
		if got := KeyField(k, 0); got != a {
			t.Fatalf("KeyField(Uint64Key(%d), 0) = %d", a, got)
		}
		b := vals[(i*7+3)%len(vals)]
		p := PairKey(a, b)
		if len(p) != 16 {
			t.Fatalf("PairKey(%d, %d) is %d bytes, want 16", a, b, len(p))
		}
		if got0, got1 := KeyField(p, 0), KeyField(p, 1); got0 != a || got1 != b {
			t.Fatalf("PairKey(%d, %d) decodes to (%d, %d)", a, b, got0, got1)
		}
	}
}

// TestKeyCodecOrder checks that bytewise key order is numeric order, and
// (a, b) lexicographic order for pair keys — the property that lets the
// engine sort and partition binary keys as plain strings.
func TestKeyCodecOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := keyCodecValues(rng)
	pick := func() uint64 { return vals[rng.Intn(len(vals))] }
	for n := 0; n < 20000; n++ {
		a, b := pick(), pick()
		if got, want := strings.Compare(Uint64Key(a), Uint64Key(b)), cmp.Compare(a, b); got != want {
			t.Fatalf("Uint64Key order of (%d, %d) = %d, want %d", a, b, got, want)
		}
		// Share the first field half of the time so the second decides.
		a2, b2 := pick(), pick()
		if n%2 == 0 {
			a2 = a
		}
		want := cmp.Compare(a, a2)
		if want == 0 {
			want = cmp.Compare(b, b2)
		}
		if got := strings.Compare(PairKey(a, b), PairKey(a2, b2)); got != want {
			t.Fatalf("PairKey order of (%d, %d) vs (%d, %d) = %d, want %d", a, b, a2, b2, got, want)
		}
	}
}

func TestKeyFieldAllocatesNothing(t *testing.T) {
	k := PairKey(math.MaxUint64, 1<<40)
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() { sink += KeyField(k, 0) + KeyField(k, 1) }); allocs != 0 {
		t.Fatalf("KeyField allocates %v times per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("decoded nothing")
	}
}
