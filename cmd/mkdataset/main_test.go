package main

import (
	"math"
	"testing"
)

func TestBuildRefusesErrorRateOutsideUnitInterval(t *testing.T) {
	for name, rate := range map[string]float64{"NaN": math.NaN(), "negative": -0.1, "above one": 1.5} {
		t.Run(name, func(t *testing.T) {
			if reads, _, err := build("S9", 0.001, rate, 1); err == nil {
				t.Fatalf("error rate %v accepted: %d reads", rate, len(reads))
			}
		})
	}
	reads, labels, err := build("S9", 0.001, 0.005, 1)
	if err != nil || len(reads) == 0 || len(labels) != len(reads) {
		t.Fatalf("valid rate: %d reads, %d labels, err %v", len(reads), len(labels), err)
	}
}
