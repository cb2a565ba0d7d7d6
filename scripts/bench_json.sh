#!/usr/bin/env bash
# Benchmark recorder: runs the kernel benchmarks of internal/minhash,
# internal/cluster (similarity / sketch / matrix build) and internal/core
# (one row of the Pig similarity UDF over a prepared bag) plus the shuffle
# benchmarks of internal/mapreduce (an unbounded vs a spilling map-side
# buffer, the reducer's radix partition sort) with allocation
# stats, and
# writes them as BENCH_kernels.json and BENCH_shuffle.json; the
# end-to-end scaling comparison of the exact all-pairs pipeline vs the
# LSH+connected-components pipeline (internal/core) as BENCH_lsh.json;
# and the signature-store benchmarks (put throughput, borrowed
# similarity/band-hash latency, snapshot cost, full vs b-bit packed) as
# BENCH_sigstore.json; and the serving benchmarks of internal/serve —
# sustained concurrent HTTP submit load through the full WAL-acked
# commit path, plus a multi-worker connection-multiplexed query mix
# (point lookups + cluster listings + diversity) against the lock-free
# epoch-published read view — as BENCH_serving.json.
# Custom metrics reported via b.ReportMetric — e.g. the store's resident
# "sig-bytes/read" or the server's "p99-ns/req" tail latency — land in
# each benchmark's "extra" object. scripts/bench_gate.sh replays this
# script and fails CI when the hot paths regress vs the committed
# baselines; run locally with:
#
#   ./scripts/bench_json.sh [kernels.json [shuffle.json [lsh.json [sigstore.json [serving.json]]]]]
#
# BENCHTIME overrides the per-benchmark budget (default 0.5s). The LSH
# scaling runs are whole-pipeline macro-benchmarks and always run once
# each (-benchtime 1x): quadrupling N should ~16x the exact path but
# stay well under 8x for the LSH path. BENCH_ONLY restricts which suites
# run (comma list of kernels,shuffle,lsh,sigstore,serving; default all)
# — suites not listed keep their positional slot but are skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

only="${BENCH_ONLY:-kernels,shuffle,lsh,sigstore,serving}"
wants() { case ",$only," in *",$1,"*) return 0 ;; *) return 1 ;; esac }

kernels_out="${1:-BENCH_kernels.json}"
shuffle_out="${2:-BENCH_shuffle.json}"
lsh_out="${3:-BENCH_lsh.json}"
sigstore_out="${4:-BENCH_sigstore.json}"
serving_out="${5:-BENCH_serving.json}"
benchtime="${BENCHTIME:-0.5s}"

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# to_json converts `go test -bench` output on stdin into the benchmark
# JSON schema shared by all output files. The standard columns become
# ns_per_op / bytes_per_op / allocs_per_op (null when the run did not
# report them); any other `value unit` pair — custom b.ReportMetric
# units like "sig-bytes/read" — is collected into an "extra" object.
to_json() {
  awk -v commit="$commit" -v stamp="$stamp" '
BEGIN {
  printf "{\n  \"commit\": \"%s\",\n  \"date\": \"%s\",\n  \"benchmarks\": [\n", commit, stamp
  first = 1
}
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix (absent at 1)
  sub(/^Benchmark/, "", name)
  iters = $2
  ns = ""; bytes = "null"; allocs = "null"; extra = ""
  for (i = 3; i < NF; i++) {
    unit = $(i+1)
    if (unit == "ns/op")          { ns = $i; i++ }
    else if (unit == "B/op")      { bytes = $i; i++ }
    else if (unit == "allocs/op") { allocs = $i; i++ }
    else if (unit ~ /\//) {       # custom ReportMetric unit, e.g. sig-bytes/read
      if (extra != "") extra = extra ", "
      extra = extra sprintf("\"%s\": %s", unit, $i)
      i++
    }
  }
  if (ns == "") next
  if (!first) printf ",\n"
  first = 0
  printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
    name, iters, ns, bytes, allocs
  if (extra != "") printf ", \"extra\": {%s}", extra
  printf "}"
}
END { print "\n  ]\n}" }
'
}

if wants kernels; then
  go test -run '^$' -bench 'Similarity|Sketch|BuildMatrix|Greedy1000|Hierarchical500' \
    -benchmem -benchtime "$benchtime" ./internal/minhash/ ./internal/cluster/ ./internal/core/ |
    to_json > "$kernels_out"
  echo "wrote $kernels_out"
fi

if wants shuffle; then
  go test -run '^$' -bench 'Shuffle|PartitionSort' \
    -benchmem -benchtime "$benchtime" ./internal/mapreduce/ |
    to_json > "$shuffle_out"
  echo "wrote $shuffle_out"
fi

if wants lsh; then
  go test -run '^$' -bench 'ClusterExactScale|ClusterLSHCCScale' \
    -benchtime 1x -timeout 30m ./internal/core/ |
    to_json > "$lsh_out"
  echo "wrote $lsh_out"
fi

if wants sigstore; then
  go test -run '^$' -bench 'SigStore' \
    -benchmem -benchtime "$benchtime" ./internal/sigstore/ |
    to_json > "$sigstore_out"
  echo "wrote $sigstore_out"
fi

if wants serving; then
  go test -run '^$' -bench 'Serving' \
    -benchmem -benchtime "$benchtime" ./internal/serve/ |
    to_json > "$serving_out"
  echo "wrote $serving_out"
fi
