package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func perfectCase() (Clustering, []string) {
	return Clustering{0, 0, 1, 1, 2, 2}, []string{"a", "a", "b", "b", "c", "c"}
}

func TestNMIPerfect(t *testing.T) {
	c, truth := perfectCase()
	v, err := NMI(c, truth)
	if err != nil || math.Abs(v-1) > 1e-12 {
		t.Fatalf("NMI=%v err=%v", v, err)
	}
}

func TestNMIPermutedLabelsStillPerfect(t *testing.T) {
	// Cluster ids renamed arbitrarily: NMI is label-invariant.
	c := Clustering{7, 7, 3, 3, 9, 9}
	_, truth := perfectCase()
	v, err := NMI(c, truth)
	if err != nil || math.Abs(v-1) > 1e-12 {
		t.Fatalf("NMI=%v err=%v", v, err)
	}
}

func TestNMIDegenerate(t *testing.T) {
	// One cluster, several classes -> 0.
	v, err := NMI(Clustering{0, 0, 0, 0}, []string{"a", "a", "b", "b"})
	if err != nil || v != 0 {
		t.Fatalf("NMI=%v err=%v", v, err)
	}
	// One cluster, one class -> 1.
	v, err = NMI(Clustering{0, 0}, []string{"a", "a"})
	if err != nil || v != 1 {
		t.Fatalf("NMI=%v err=%v", v, err)
	}
	// Empty clustering.
	v, err = NMI(Clustering{-1, -1}, []string{"a", "b"})
	if err != nil || v != 0 {
		t.Fatalf("NMI=%v err=%v", v, err)
	}
}

func TestNMISplitBelowPerfect(t *testing.T) {
	// Truth classes split across clusters: strictly between 0 and 1.
	c := Clustering{0, 1, 2, 3}
	truth := []string{"a", "a", "b", "b"}
	v, err := NMI(c, truth)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v >= 1 {
		t.Fatalf("NMI=%v want in (0,1)", v)
	}
}

func TestARIPerfectAndRandom(t *testing.T) {
	c, truth := perfectCase()
	v, err := ARI(c, truth)
	if err != nil || math.Abs(v-1) > 1e-12 {
		t.Fatalf("ARI=%v err=%v", v, err)
	}
	// All singletons vs two classes: ARI 0 (no pair agreements possible
	// beyond chance).
	v, err = ARI(Clustering{0, 1, 2, 3}, []string{"a", "a", "b", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("singleton ARI=%v", v)
	}
}

func TestARIWorseThanChanceCanBeNegative(t *testing.T) {
	// Anti-correlated partition.
	c := Clustering{0, 1, 0, 1}
	truth := []string{"a", "a", "b", "b"}
	v, err := ARI(c, truth)
	if err != nil {
		t.Fatal(err)
	}
	if v > 0 {
		t.Fatalf("anti-correlated ARI=%v, want <= 0", v)
	}
}

func TestARIDegenerateIdentical(t *testing.T) {
	// Both all-singletons.
	v, err := ARI(Clustering{0, 1, 2}, []string{"x", "y", "z"})
	if err != nil || v != 1 {
		t.Fatalf("ARI=%v err=%v", v, err)
	}
	// Too few points.
	v, err = ARI(Clustering{0}, []string{"a"})
	if err != nil || v != 0 {
		t.Fatalf("ARI=%v err=%v", v, err)
	}
}

func TestExternalMetricsLengthMismatch(t *testing.T) {
	if _, err := NMI(Clustering{0}, []string{"a", "b"}); err == nil {
		t.Error("NMI mismatch accepted")
	}
	if _, err := ARI(Clustering{0}, []string{"a", "b"}); err == nil {
		t.Error("ARI mismatch accepted")
	}
	if _, err := WeightedAccuracy(Clustering{0}, []string{"a", "b"}); err == nil {
		t.Error("W.Acc mismatch accepted")
	}
}

func TestExternalMetricsBoundsProperty(t *testing.T) {
	f := func(assign, labels []uint8) bool {
		n := len(assign)
		if len(labels) < n {
			n = len(labels)
		}
		if n == 0 {
			return true
		}
		c := make(Clustering, n)
		truth := make([]string, n)
		for i := 0; i < n; i++ {
			c[i] = int(assign[i] % 6)
			truth[i] = string(rune('a' + labels[i]%4))
		}
		nmi, err1 := NMI(c, truth)
		ari, err2 := ARI(c, truth)
		acc, err3 := WeightedAccuracy(c, truth)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		if nmi < -1e-9 || nmi > 1+1e-9 {
			return false
		}
		if ari < -1-1e-9 || ari > 1+1e-9 {
			return false
		}
		return acc >= 0 && acc <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
