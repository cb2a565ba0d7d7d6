package core

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/metagenomics/mrmcminh/internal/checkpoint"
	"github.com/metagenomics/mrmcminh/internal/cluster"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/mapreduce"
	"github.com/metagenomics/mrmcminh/internal/metrics"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/pig"
	"github.com/metagenomics/mrmcminh/internal/sigstore"
)

// sliceGoldens holds testdata/slice_path.golden: the assignments the
// per-run signature-slice path (StoreBits == -1, since deleted) produced,
// keyed by case name.
func sliceGoldens(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/slice_path.golden")
	if err != nil {
		t.Fatal(err)
	}
	goldens := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if name, labels, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			goldens[name] = labels
		}
	}
	return goldens
}

// checkGolden compares labels with the golden line of case name. On a
// mismatch it prints the actual line, ready to paste into the file when
// the change is intended.
func checkGolden(t *testing.T, goldens map[string]string, name string, labels metrics.Clustering) {
	t.Helper()
	got := strings.Trim(fmt.Sprint([]int(labels)), "[]")
	if want, ok := goldens[name]; !ok || got != want {
		t.Fatalf("%s: clustering differs from testdata/slice_path.golden (recorded: %t); actual line:\n%s %s", name, ok, name, got)
	}
}

// storeCases are the option variants the slice-path goldens cover: both
// modes, the LSH greedy accelerator and both candidate generators.
var storeCases = []struct {
	name string
	mut  func(*Options)
}{
	{"greedy", func(o *Options) { o.Mode = GreedyMode }},
	{"greedy-lsh", func(o *Options) { o.Mode = GreedyMode; o.UseLSH = true }},
	{"hierarchical", func(o *Options) { o.Mode = HierarchicalMode }},
	{"greedy-candlsh", func(o *Options) { o.Mode = GreedyMode; o.Candidate = CandidateLSH }},
	{"hierarchical-candlsh", func(o *Options) { o.Mode = HierarchicalMode; o.Candidate = CandidateLSH }},
}

// TestStoreBackedBitIdenticalToSlices pins the store-backed pipeline to
// the assignments the signature-slice path recorded, for every chaos
// seed, and on a borderline corpus whose clusterings split differently
// under each variant.
func TestStoreBackedBitIdenticalToSlices(t *testing.T) {
	goldens := sliceGoldens(t)
	run := func(t *testing.T, name string, reads []fasta.Record, seed int64, mut func(*Options)) {
		opt := Options{
			K: 8, NumHashes: 40, Theta: 0.4,
			Seed: seed, Cluster: smallCluster(),
		}
		mut(&opt)
		got, err := Run(reads, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, goldens, name, got.Assignments)
		if got.Counters["sigstore.resident_bytes"] != int64(len(reads)*opt.NumHashes*8) {
			t.Fatalf("sigstore.resident_bytes = %d, want %d",
				got.Counters["sigstore.resident_bytes"], len(reads)*opt.NumHashes*8)
		}
		if got.Counters["sigstore.reads"] != int64(len(reads)) {
			t.Fatalf("sigstore.reads = %d", got.Counters["sigstore.reads"])
		}
	}
	for _, seed := range resumeSeeds(t) {
		reads, _ := makeReads(4, 6, 200, 0.01, seed)
		for _, tc := range storeCases {
			name := fmt.Sprintf("seed=%d/%s", seed, tc.name)
			t.Run(name, func(t *testing.T) { run(t, name, reads, seed, tc.mut) })
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		reads, _ := makeReads(4, 6, 200, 0.04, seed)
		for _, tc := range storeCases {
			name := fmt.Sprintf("mut=0.04/seed=%d/%s", seed, tc.name)
			t.Run(name, func(t *testing.T) { run(t, name, reads, seed, tc.mut) })
		}
	}
}

// TestStoreBackedBitIdenticalUnderChaosAndSpill drives the store-backed
// default through fault injection and the external spill shuffle at once
// and requires the clean slice-path assignments.
func TestStoreBackedBitIdenticalUnderChaosAndSpill(t *testing.T) {
	goldens := sliceGoldens(t)
	reads, _ := makeReads(4, 6, 200, 0.01, 7)
	for _, mode := range []Mode{GreedyMode, HierarchicalMode} {
		t.Run(mode.String(), func(t *testing.T) {
			chaos := Options{
				K: 8, NumHashes: 40, Theta: 0.4, Mode: mode,
				Seed: 7, Cluster: smallCluster(),
			}
			chaos.ShuffleBufferBytes = 256 // force record-at-a-time spills
			plan := faults.ChaosPlan(11)
			plan.NodeDeaths = []faults.NodeDeath{{Node: 1, At: 20 * time.Second}}
			chaos.Faults = faults.MustNew(plan)
			got, err := Run(reads, chaos)
			if err != nil {
				t.Fatal(err)
			}
			name := "seed=7/greedy"
			if mode == HierarchicalMode {
				name = "seed=7/hierarchical"
			}
			checkGolden(t, goldens, name, got.Assignments)
			if chaos.Faults.Injected() == 0 {
				t.Fatal("the chaos plan injected nothing")
			}
			// Only the greedy job shuffles signature records through a
			// reducer; the hierarchical path is map-only and never spills.
			if mode == GreedyMode && got.Counters[mapreduce.CounterShuffleSpills] == 0 {
				t.Fatal("expected external shuffle spills at a 256-byte buffer")
			}
		})
	}
}

// TestPackedStoreResume checks the packed sketch checkpoint (a store
// snapshot): a packed run resumes bit-identically from its own journal,
// and mixing packed and unpacked journals is a typed parameter mismatch.
func TestPackedStoreResume(t *testing.T) {
	reads, _ := makeReads(3, 5, 180, 0.01, 4)
	packed := Options{
		K: 8, NumHashes: 40, Theta: 0.4, Mode: GreedyMode,
		Seed: 4, Cluster: smallCluster(), StoreBits: 4,
	}
	want, err := Run(reads, packed)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := packed
	first.Checkpoint = openJournal(t, dir)
	first.Faults = faults.MustNew(faults.Plan{
		DriverCrashes: []faults.DriverCrash{{AfterStage: StageSketch}},
	})
	if _, err := Run(reads, first); err == nil {
		t.Fatal("expected driver crash")
	}

	resumed := packed
	resumed.Checkpoint = openJournal(t, dir)
	resumed.Resume = ResumeOn
	res, err := Run(reads, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Assignments, want.Assignments) {
		t.Fatal("packed resume changed the clustering")
	}
	if !reflect.DeepEqual(res.SkippedStages, []string{StageSketch}) {
		t.Fatalf("skipped %v", res.SkippedStages)
	}

	// A full-width run against the packed journal must fail typed, naming
	// the packing, not restore a store of the wrong width.
	mixed := packed
	mixed.StoreBits = 0
	mixed.Checkpoint = openJournal(t, dir)
	mixed.Resume = ResumeOn
	var pme *checkpoint.ParamMismatchError
	if _, err := Run(reads, mixed); !errors.As(err, &pme) || pme.Param != "store_bits" {
		t.Fatalf("expected ParamMismatchError naming store_bits, got %v", err)
	}
}

// TestOlderFullWidthJournalNamesStoreBits: older builds journaled a
// full-width sketch stage in a signature codec of their own and recorded
// no store_bits. Resuming such a journal must fail as a parameter
// mismatch naming store_bits, never as a misparse of its bytes.
func TestOlderFullWidthJournalNamesStoreBits(t *testing.T) {
	reads, _ := makeReads(3, 5, 180, 0.01, 4)
	opt := resumeOptions(GreedyMode, 4)
	dir := t.TempDir()
	older := map[string]string{"k": "8", "num_hashes": "40", "canonical": "false", "seed": "4"}
	if _, err := openJournal(t, dir).Commit(StageSketch, HashReads(reads), older, []byte("older signature codec")); err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = openJournal(t, dir)
	opt.Resume = ResumeOn
	var pme *checkpoint.ParamMismatchError
	if _, err := Run(reads, opt); !errors.As(err, &pme) || pme.Param != "store_bits" || pme.Got != "0" || pme.Recorded != "" {
		t.Fatalf("resume of an older full-width journal: %v, want ParamMismatchError naming store_bits", err)
	}
}

// TestPackedPipelineRecoversGroups is the packed-mode sanity check: b=4
// estimation is lossy, but on well-separated read groups it must recover
// the same partition as the exact full-width run.
func TestPackedPipelineRecoversGroups(t *testing.T) {
	reads, truth := makeReads(4, 6, 200, 0.01, 6)
	for _, bits := range []int{1, 4} {
		t.Run(fmt.Sprintf("b=%d", bits), func(t *testing.T) {
			opt := Options{
				K: 8, NumHashes: 64, Theta: 0.4, Mode: GreedyMode,
				Seed: 6, Cluster: smallCluster(), StoreBits: bits,
			}
			res, err := Run(reads, opt)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := metrics.WeightedAccuracy(res.Assignments, truth)
			if err != nil {
				t.Fatal(err)
			}
			if acc < 99.9 {
				t.Fatalf("b=%d packed clustering accuracy %.2f%%", bits, acc)
			}
			if res.NumClusters() != 4 {
				t.Fatalf("b=%d: %d clusters, want 4", bits, res.NumClusters())
			}
			// Packed mode reports the compressed footprint.
			fullBytes := int64(len(reads) * opt.NumHashes * 8)
			if got := res.Counters["sigstore.resident_bytes"]; got*8 > fullBytes {
				t.Fatalf("packed resident bytes %d not ≥8x below full %d", got, fullBytes)
			}
		})
	}
}

// TestScriptGreedyClusteringUsesStore checks that the exact script's
// GreedyClustering UDF clusters on the configured store backing: with
// StoreBits 1 its labels are greedy over a b=1 store of the grouped
// signatures, which differ from the full-width labels.
func TestScriptGreedyClusteringUsesStore(t *testing.T) {
	// A borderline corpus: b=1 estimation noise moves reads whose
	// similarity sits near the cutoff.
	reads, _ := makeReads(4, 6, 200, 0.04, 5)
	const seed = 5
	p := ScriptParams{
		Input: "/in/reads.fa", Output1: "/out/hier", Output2: "/out/greedy",
		K: 8, NumHash: 48, Link: "average", Cutoff: 0.4,
	}
	stage := func() *dfs.FileSystem {
		fs := dfs.MustNew(dfs.Config{NumDataNodes: 4, BlockSize: 4096, Replication: 2})
		var sb strings.Builder
		for _, r := range reads {
			fmt.Fprintf(&sb, ">%s\n%s\n", r.ID, r.Seq)
		}
		if err := fs.WriteFile(p.Input, []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	greedy := map[int]map[string]int{}
	for _, bits := range []int{0, 1} {
		res, err := RunScript(stage(), p, Options{Cluster: smallCluster(), Seed: seed, StoreBits: bits})
		if err != nil {
			t.Fatal(err)
		}
		greedy[bits] = res.Greedy
	}
	if reflect.DeepEqual(greedy[0], greedy[1]) {
		t.Fatal("StoreBits 1 left the script's greedy labels unchanged")
	}

	// The reference: the grouped bag the UDF receives (relation I of the
	// same script), clustered greedily over a b=1 store.
	script, err := pig.Compile(Algorithm3Script)
	if err != nil {
		t.Fatal(err)
	}
	run, err := script.Run(&pig.Context{
		FS: stage(), Engine: mapreduce.MustEngine(smallCluster()), Registry: NewRegistry(), Seed: seed,
		Params: map[string]string{
			"INPUT": p.Input, "OUTPUT1": p.Output1, "OUTPUT2": p.Output2, "KMER": "8", "NUMHASH": "48",
			"DIV": fmt.Sprint(nextPrimeAbove(1 << 16)), "LINK": p.Link, "CUTOFF": "0.4",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bag, ok := run.Aliases["I"].Tuples[0].Fields[1].(pig.Bag)
	if !ok {
		t.Fatalf("relation I holds %T, want the grouped bag", run.Aliases["I"].Tuples[0].Fields[1])
	}
	sigs, ids, err := bagSignatures("test", bag)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sigstore.New(sigstore.Config{NumHashes: p.NumHash, Bits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutBatch(0, sigs); err != nil {
		t.Fatal(err)
	}
	labels, err := cluster.Greedy(st.View(minhash.SetOverlap), p.Cutoff)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int, len(ids))
	for i, id := range ids {
		want[id] = labels[i]
	}
	if !reflect.DeepEqual(greedy[1], want) {
		t.Fatalf("StoreBits 1 greedy labels %v, want greedy over the b=1 store %v", greedy[1], want)
	}
}
