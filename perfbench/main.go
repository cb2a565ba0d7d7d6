// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload on the batch path (the paper's Algorithm 3 Pig script,
// or the LSH + connected-components pipeline, over the simulated
// MapReduce cluster) or on the serving path (an in-process clustering
// daemon ingesting over a loopback listener), checks the outputs, and
// prints one JSON result line as the last line of standard output:
//
//	go run . -workload lsh-cc-65k -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1 it
// holds the per-layer breakdown, measured from outside each package: the
// benchmark times calls into their public functions, reads their public
// counters, and folds the spans of the program's own trace recorder.
//
// A run is bounded by work, never by elapsed time: -seconds fixes how
// many iterations of the workload's fixed unit of work run (seconds over
// the iteration's nominal time on a 2-core reference machine), so state
// size and memory depend on the arguments, not on speed. Set-up —
// corpus generation, staging or preload, and one untimed warm-up
// iteration — runs setupRepeats times and setup_s reports the median.
// Every set-up and timed iteration sits between two calibrations (see
// calib.go), and the end-to-end times are reported at the reference
// machine's speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets up its workload; setup_s is
// their median, and the timed iterations run on the last one.
const setupRepeats = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// samples are the raw set-up and iteration times behind the medians,
	// printed on the line before the result.
	samples map[string][]float64
}

// runConfig is what a workload instance is built from.
type runConfig struct {
	seed    int64
	iters   int // timed iterations
	workdir string
	trace   bool // traced iterations follow each untraced one
	tiny    bool // self-test sizes
}

// bench is one workload's live instance.
type bench interface {
	// setup generates the inputs, stages or preloads them, and runs one
	// untimed warm-up iteration.
	setup() error
	// iteration runs one fixed unit of timed work and returns how long
	// its timed region took. traced attaches the program's span recorder;
	// traced iterations are kept out of the end-to-end metrics.
	iteration(traced bool) (time.Duration, error)
	// traceable reports whether the workload's path has a span recorder
	// for traced iterations to attach.
	traceable() bool
	// ops counts operations attempted and failed in timed iterations.
	ops() (attempted, failed int64)
	// wrong counts wrong answers; any makes the run incorrect.
	wrong() int64
	// endToEnd sets the end-to-end metrics except setup_s and peak_rss_mb.
	// slow[i] is the host's slowdown over the i-th untraced iteration.
	endToEnd(m metricSet, slow []float64)
	// layers sets the per-layer metrics; it may time standalone calls.
	layers(m metricSet) error
}

// workload names one benchmark workload.
type workload struct {
	name string
	// nominal is one timed iteration on the 2-core reference machine; it
	// turns -seconds into a fixed iteration count.
	nominal time.Duration
	build   func(cfg runConfig) bench
}

var workloads = []workload{
	{"alg3-pig-exact", time.Second, newAlg3Bench},
	{"lsh-cc-65k", 4 * time.Second, newLSHBench},
	{"serve-ingest", 2200 * time.Millisecond, newIngestBench},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minIterations keeps the median of a slow workload's iterations from
// resting on one or two samples.
const minIterations = 5

// iterationsFor turns the run length into a fixed iteration count.
func iterationsFor(seconds int, nominal time.Duration) int {
	return max(minIterations, int(math.Round(float64(seconds)*float64(time.Second)/float64(nominal))))
}

// environment records where a run happened.
func environment(w workload, cfg runConfig) map[string]any {
	return map[string]any{
		"workload":          w.name,
		"seed":              cfg.seed,
		"trace":             cfg.trace,
		"iterations":        cfg.iters,
		"setup_repeats":     setupRepeats,
		"ref_calibration_s": refCalibration.Seconds(),
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"cpu":               cpuModel(),
		"wal_fs":            fsType(cfg.workdir),
		"wal_dir":           cfg.workdir,
	}
}

// run executes one workload run and returns its result.
func run(w workload, cfg runConfig) (result, error) {
	var b bench
	// cal is the latest calibration: the one after a region is the one
	// before the next.
	cal := calibrate()
	recalibrate := func() float64 {
		runtime.GC()
		next := calibrate()
		slow := slowdown(cal, next)
		cal = next
		return slow
	}
	var setups, setupSlow []float64
	for i := 0; i < setupRepeats; i++ {
		b = nil // the previous set-up's state is garbage before the GC
		runtime.GC()
		b = w.build(cfg)
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return result{}, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupSlow = append(setupSlow, recalibrate())
	}

	var proc procTotals
	var plain, slow, traced []float64
	for i := 0; i < cfg.iters; i++ {
		runtime.GC()
		before := sampleProc()
		d, err := b.iteration(false)
		if err != nil {
			return result{}, fmt.Errorf("%s: iteration %d: %w", w.name, i, err)
		}
		proc.add(before, sampleProc(), d)
		plain = append(plain, d.Seconds())
		slow = append(slow, recalibrate())
		if cfg.trace && b.traceable() {
			runtime.GC()
			d, err := b.iteration(true)
			if err != nil {
				return result{}, fmt.Errorf("%s: traced iteration %d: %w", w.name, i, err)
			}
			traced = append(traced, d.Seconds())
		}
	}

	m := metricSet{}
	res := result{Metrics: m, samples: map[string][]float64{
		"setup_s": setups, "setup_slowdown": setupSlow,
		"iteration_s": plain, "iteration_slowdown": slow,
	}}
	if len(traced) > 0 {
		res.samples["traced_iteration_s"] = traced
	}
	res.Attempted, res.Failed = b.ops()
	res.Correct = b.wrong() == 0 && res.Attempted > 0
	if !cfg.trace {
		m.set("setup_s", median(normalized(setups, setupSlow)), "s")
		m.set("peak_rss_mb", peakRSSBytes()/(1<<20), "MB")
		b.endToEnd(m, slow)
		return res, nil
	}
	proc.report(m, runtime.NumCPU())
	if len(traced) > 0 {
		m.set("trace.overhead_ratio", median(traced)/median(plain), "ratio")
	}
	if err := b.layers(m); err != nil {
		return result{}, fmt.Errorf("%s: layers: %w", w.name, err)
	}
	return res, completeLayers(m)
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal length of the timed region, in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for WAL and state files")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: *seed, iters: iterationsFor(*seconds, w.nominal), workdir: dir, trace: *traceFlag == 1}

	env := environment(w, cfg)
	res, err := run(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"env": env, "samples": res.samples}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs failed their checks")
		os.RemoveAll(dir)
		os.Exit(1)
	}
}
