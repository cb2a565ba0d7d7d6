package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The benchmark shares its host with other tenants, and how fast the
// host runs a fixed piece of code drifts by tens of percent from one
// minute to the next. So every timed region is bracketed by a fixed
// calibration kernel, and its times are reported at the speed of the
// reference machine: multiplied by refCalibration over the mean of the
// two calibrations around it. A change to the program moves the region
// and not the kernel; a change in the host's load moves both.

// refCalibration is calibrate's typical reading on the reference machine
// (2-vCPU Xeon, Go 1.24, idle).
const refCalibration = 25 * time.Millisecond

const (
	// calibWords is each goroutine's array: 2 MiB of uint64, larger than
	// a core's L2 and smaller than a shared L3.
	calibWords = 1 << 18
	// calibPasses is how many kernel passes one calibration times.
	calibPasses = 3
)

// calibBufs are allocated once, so a calibration never page-faults.
var calibBufs [][]uint64

// calibrate returns the fastest of calibPasses passes of a fixed CPU and
// memory kernel — fill an array from a SplitMix64 stream, sort it, fold
// it — run on GOMAXPROCS goroutines at once, so that it feels the same
// contention as the workload beside it. The fastest pass, not the median,
// because a pass can only be slowed by a burst that the workload's much
// longer region averages out.
func calibrate() time.Duration {
	procs := runtime.GOMAXPROCS(0)
	for len(calibBufs) < procs {
		calibBufs = append(calibBufs, make([]uint64, calibWords))
	}
	sinks := make([]uint64, procs)
	fastest := time.Duration(math.MaxInt64)
	for pass := 0; pass < calibPasses; pass++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(xs []uint64, p int) {
				defer wg.Done()
				x := uint64(p + 1)
				for i := range xs {
					x += 0x9e3779b97f4a7c15
					z := x
					z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
					z = (z ^ z>>27) * 0x94d049bb133111eb
					xs[i] = z ^ z>>31
				}
				slices.Sort(xs)
				var h uint64
				for _, v := range xs {
					h = h*31 + v
				}
				sinks[p] += h
			}(calibBufs[p], p)
		}
		wg.Wait()
		fastest = min(fastest, time.Since(t0))
	}
	for _, s := range sinks {
		if s == 0 {
			panic("calibration folded to zero") // keeps the kernel live
		}
	}
	return fastest
}

// slowdown is how much slower than the reference machine the host ran a
// region bracketed by calibrations before and after.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refCalibration)
}

// normalized divides each time by the slowdown the host ran it at.
func normalized(times, slow []float64) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		out[i] = t / slow[i]
	}
	return out
}
