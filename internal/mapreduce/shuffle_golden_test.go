package mapreduce

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/faults"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

// shuffleGoldenCounters are the counters each testdata/shuffle.golden
// line pins, in line order.
var shuffleGoldenCounters = []string{
	CounterShuffleBytes,
	CounterShuffleSpills,
	CounterShuffleSpilledBytes,
	CounterShuffleMergePasses,
	CounterCombineInput,
	CounterCombineOutput,
	CounterReduceInputGroups,
	CounterReduceInputRecords,
	CounterReduceOutput,
}

// shuffleGoldenSpans are the span kinds whose counts each line pins.
var shuffleGoldenSpans = []trace.Kind{
	trace.KindMap, trace.KindCombine, trace.KindShuffle, trace.KindSort,
	trace.KindReduce, trace.KindSpill, trace.KindMerge,
}

// TestShuffleGolden holds the shuffle to testdata/shuffle.golden,
// recorded while the engine still ran a separate in-memory shuffle for
// an unbounded buffer: the 40-line wordcount on chaosCluster, with and
// without its combiner, unbounded, through a 24-byte buffer and through
// a 24-byte buffer merged two segments at a time, plus one 24-byte run
// under faults.ChaosPlan(1). Each line pins a SHA-256 of the output
// records, the virtual time, the shuffle, combine and reduce counters,
// and the traced span count per kind. A mismatch prints the actual line.
func TestShuffleGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/shuffle.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	type shuffleCase struct {
		combiner      bool
		buffer, fanIn int
		chaosSeed     int64
	}
	var cases []shuffleCase
	for _, combiner := range []bool{false, true} {
		for _, c := range []shuffleCase{{buffer: 0}, {buffer: 24}, {buffer: 24, fanIn: 2}} {
			c.combiner = combiner
			cases = append(cases, c)
		}
	}
	cases = append(cases, shuffleCase{buffer: 24, chaosSeed: 1})
	lines := manyLines(40)
	for _, c := range cases {
		name := fmt.Sprintf("combiner=%t,buffer=%d,fanin=%d,chaos=%d", c.combiner, c.buffer, c.fanIn, c.chaosSeed)
		rec := trace.New()
		e := MustEngine(chaosCluster)
		e.ShuffleBufferBytes, e.mergeFanIn, e.Trace = c.buffer, c.fanIn, rec
		if c.chaosSeed != 0 {
			e.Faults = faults.MustNew(faults.ChaosPlan(c.chaosSeed))
		}
		res, err := run(e, wordCountJob(lines, c.combiner))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		for _, kv := range res.Output {
			fmt.Fprintf(h, "%s\t%v\n", kv.Key, kv.Value)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s output=%x virtual=%d", name, h.Sum(nil), int64(res.Virtual))
		for _, counter := range shuffleGoldenCounters {
			fmt.Fprintf(&b, " %s=%d", counter, res.Counters.Get(counter))
		}
		spans := map[trace.Kind]int{}
		for _, s := range rec.Spans() {
			spans[s.Kind]++
		}
		b.WriteString(" spans")
		for _, k := range shuffleGoldenSpans {
			fmt.Fprintf(&b, " %s=%d", k, spans[k])
		}
		if got := b.String(); got != want[name] {
			t.Errorf("%s differs from testdata/shuffle.golden (recorded: %q); actual line:\n%s", name, want[name], got)
		}
	}
}
