#!/usr/bin/env bash
# Coverage gate for the fault-tolerance core: the MapReduce engine (task
# scheduling, recovery, re-execution, output commit), the fault injector,
# the stage-checkpoint journal, the clustering kernels (greedy/LSH/
# connected components — the stages the LSH pipeline re-executes under
# faults), the signature store and its snapshots, and the serving layer
# (WAL, crash-safe drain/recovery, backpressured ingest) must stay above
# the floor, so regressions in the chaos and resume paths show up as
# uncovered lines before they show up as lost jobs. Wired as a blocking
# CI step; run locally with:
#
#   ./scripts/coverage_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

FLOOR="${COVERAGE_FLOOR:-75}"
PKGS="./internal/mapreduce/... ./internal/faults/... ./internal/checkpoint/... ./internal/cluster/... ./internal/sigstore/... ./internal/ingest/... ./internal/serve/..."

# shellcheck disable=SC2086
go test -count=1 -coverprofile=coverage.out -covermode=atomic $PKGS

total=$(go tool cover -func=coverage.out | awk '/^total:/ {gsub(/%/, "", $3); print $3}')
echo "total coverage: ${total}% (floor ${FLOOR}%)"

awk -v t="$total" -v f="$FLOOR" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
    echo "FAIL: coverage ${total}% is below the ${FLOOR}% floor" >&2
    echo "run 'go tool cover -html=coverage.out' to see uncovered lines" >&2
    exit 1
}
echo "coverage gate passed"
