package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// median returns the middle value of xs, or the mean of the two middle
// values (0 for an empty sample). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank rule (0 for
// an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(len(s)-1, int(math.Ceil(q*float64(len(s))))-1)]
}

// durations converts a duration sample to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// labelChecksum hashes label vectors in order: the batch pipelines are
// deterministic, so every iteration of a run must reproduce the checksum
// the warm-up recorded.
func labelChecksum(cs ...metrics.Clustering) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range cs {
		for _, l := range c {
			binary.LittleEndian.PutUint32(b[:], uint32(int32(l)))
			h.Write(b[:])
		}
		h.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}
	return h.Sum64()
}

// procSample is a point-in-time reading of the Go runtime and rusage.
type procSample struct {
	alloc, mallocs uint64
	gcs            uint32
	pause          uint64 // ns
	cpu            time.Duration
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC, pause: ms.PauseTotalNs, cpu: cpuTime()}
}

// procTotals accumulates runtime deltas over the timed iterations.
type procTotals struct {
	iters                 int
	alloc, mallocs, pause uint64
	gcs                   uint32
	cpu, wall             time.Duration
}

func (t *procTotals) add(before, after procSample, wall time.Duration) {
	t.iters++
	t.alloc += after.alloc - before.alloc
	t.mallocs += after.mallocs - before.mallocs
	t.gcs += after.gcs - before.gcs
	t.pause += after.pause - before.pause
	t.cpu += after.cpu - before.cpu
	t.wall += wall
}

// report sets the runtime.* metrics, per timed iteration.
func (t *procTotals) report(m metricSet, nproc int) {
	n := float64(max(t.iters, 1))
	m.set("runtime.alloc_mb", float64(t.alloc)/(1<<20)/n, "MB")
	m.set("runtime.mallocs", float64(t.mallocs)/n, "count")
	m.set("runtime.gc_cycles", float64(t.gcs)/n, "count")
	m.set("runtime.gc_pause_ms", float64(t.pause)/1e6/n, "ms")
	m.set("runtime.cpu_s", t.cpu.Seconds()/n, "s")
	util := 0.0
	if t.wall > 0 {
		util = t.cpu.Seconds() / (t.wall.Seconds() * float64(nproc))
	}
	m.set("runtime.cpu_util", util, "ratio")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's resident-set high-water mark.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// fsType names the file system holding dir, for the environment record.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}

// cpuModel reads the CPU model name for the environment record.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
