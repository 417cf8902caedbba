#!/usr/bin/env bash
# Tier-2 verification gate: static analysis plus race-detector runs on the
# concurrent packages. Tier-1 (go build && go test ./...) checks behavior;
# this script checks the invariants behavior tests can miss — float equality
# on controller state, wall-clock leaks into simulated kernels (direct or
# transitive through the call graph), layering violations, unguarded captures
# in Pool callbacks, discarded errors (including deferred calls),
# nondeterminism in flight-replayed code, atomic/plain access mixes, unbounded
# goroutine spawns, and allocation growth on hot paths — then hammers the
# concurrent hot paths under -race.
#
# Usage: scripts/check.sh            (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/lint ./..."
go run ./cmd/lint ./...

echo "==> lint self-check: rule filtering and JSON output on internal/analysis"
# The linter's own package must stay clean under its full rule set, and the
# -rule / -json plumbing must keep producing exit 0 + a JSON array — these
# are the interfaces CI annotations consume.
go run ./cmd/lint -rule determinism,atomicmix,leakspawn,hotescape ./internal/analysis/...
lint_json="$(go run ./cmd/lint -json ./internal/analysis/...)"
[[ "$lint_json" == "["* ]] || { echo "lint -json did not emit a JSON array" >&2; exit 1; }

echo "==> go test -race (concurrent packages)"
go test -race ./internal/parallel/... ./internal/frontier/... ./internal/sssp/... \
    ./internal/obs/... ./internal/flight/... ./internal/core/... \
    ./internal/perf/...

echo "==> go test (solver packages) at GOMAXPROCS=1 and GOMAXPROCS=4"
# The suite must pass whether the runtime gives the pools one thread or
# several: one thread serializes every worker, four let the parallel
# advances race for real.
GOMAXPROCS=1 go test -count=1 ./internal/sssp/ ./internal/core/
GOMAXPROCS=4 go test -count=1 ./internal/sssp/ ./internal/core/

echo "==> go test -race: concurrent solves on one shared observer (API level)"
# Two racing solves must stay bit-identical to their sequential runs while
# recording disjoint span trees and exact fleet-equals-sum-of-scopes metrics.
go test -race -run 'TestConcurrentSolvesIsolated' -count=1 .

echo "==> zero-allocation steady-state gates (obs off, obs on, spans on, flight on, lazy far queue, tsdb sampler, profiler labels)"
go test -run 'TestAdvanceSteadyStateAllocs|TestObsSteadyStateAllocs|TestSpanSteadyStateAllocs|TestLazyFarSteadyStateAllocs' -count=1 ./internal/sssp/
go test -run 'TestTracerSteadyStateAllocs|TestEnergyMeterSteadyStateAllocs|TestTSDBSampleSteadyStateAllocs|TestApplyPhaseLabelAllocs' -count=1 ./internal/obs/
go test -run 'TestFlightSteadyStateAllocs' -count=1 ./internal/core/

echo "==> flight-recorder gates: record/replay determinism + same-seed diff"
flightbin="$(mktemp -d)"
trap 'rm -rf "$flightbin"' EXIT
go build -o "$flightbin/flight" ./cmd/flight

# Replay determinism on both advance paths: a recorded log must re-execute
# the controller trajectory bit-identically.
"$flightbin/flight" record -dataset cal -scale 0.01 -seed 42 -P 500 -device TK1 \
    -advance vertex -o "$flightbin/vertex.jsonl" 2>/dev/null
"$flightbin/flight" replay -q "$flightbin/vertex.jsonl"
"$flightbin/flight" record -dataset wiki -scale 0.01 -seed 7 -P 500 -workers 4 \
    -advance edge -o "$flightbin/edge.jsonl" 2>/dev/null
"$flightbin/flight" replay -q "$flightbin/edge.jsonl"

# Same-seed diff: two runs of one configuration must produce bit-identical
# logs, at -workers 1 and at -workers 4. Every advance of this configuration
# falls below the auto chooser's sequential cutoff, so it runs inline on the
# plain kernel at any pool size. Iterations above the cutoff run the parallel
# atomic-min kernels, whose X2 still depends on how the races resolve
# (ROADMAP open item 1), so a configuration with such iterations may differ
# between runs whenever the pool has more than one worker.
for w in 1 4; do
  "$flightbin/flight" record -dataset cal -scale 0.01 -seed 42 -P 500 -device TK1 \
      -workers "$w" -o "$flightbin/run-a$w.jsonl" 2>/dev/null
  "$flightbin/flight" record -dataset cal -scale 0.01 -seed 42 -P 500 -device TK1 \
      -workers "$w" -o "$flightbin/run-b$w.jsonl" 2>/dev/null
  "$flightbin/flight" diff "$flightbin/run-a$w.jsonl" "$flightbin/run-b$w.jsonl" >/dev/null
done

echo "==> bench module: vet + quick smoke"
# bench/ is a nested module, so the root go vet/build/test never see it,
# yet it compiles against internal/obs, internal/parallel and internal/sssp.
go -C bench vet ./...
go -C bench test ./...

echo "==> perfgate: committed trajectory parses and judges clean"
# Always-on smoke: the committed snapshots + trajectory must load and the
# latest entry must classify without regressions (compare never fails a
# young or machine-mismatched history, only a broken one).
go run ./cmd/perfgate compare

if [[ "${PERF_GATE:-0}" == "1" ]]; then
  echo "==> perfgate: statistical regression gate (PERF_GATE=1)"
  # Opt-in because it is only meaningful right after a scripts/bench.sh run
  # on the same machine the history was recorded on.
  go run ./cmd/perfgate gate -v
fi

echo "==> check.sh: all gates green"
