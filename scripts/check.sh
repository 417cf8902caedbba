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

echo "==> gofmt -l ."
# Every Go file must be gofmt-formatted; any listed file fails the gate.
unformatted="$(gofmt -l .)"
[[ -z "$unformatted" ]] || { echo "gofmt -l lists:" >&2; echo "$unformatted" >&2; exit 1; }

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
    ./internal/obs/... ./internal/flight/... ./internal/core/...

echo "==> go test (solver, harness and API packages) at GOMAXPROCS=1 and GOMAXPROCS=4"
# The suite must pass whether the runtime gives the pools one thread or
# several: one thread serializes every worker, four let the parallel
# advances race for real.
GOMAXPROCS=1 go test -count=1 ./internal/sssp/ ./internal/core/ ./internal/harness/ .
GOMAXPROCS=4 go test -count=1 ./internal/sssp/ ./internal/core/ ./internal/harness/ .

echo "==> go test -race: concurrent solves on one shared observer, parallel δ* sweep (API level)"
# Two racing solves must stay bit-identical to their sequential runs while
# recording disjoint span trees, and the observer's advance spans and joules
# must equal the sums over both runs. TuneDelta's sweep points run side by
# side and must give the one-at-a-time sweep's δ* at every worker count.
go test -race -run 'TestConcurrentSolvesIsolated|TestTuneDeltaWorkerIndependent' -count=1 .

echo "==> zero-allocation steady-state gates (obs off, obs on, spans on, flight on, lazy far queue, partitioned far queue)"
go test -run 'TestAdvanceSteadyStateAllocs|TestObsSteadyStateAllocs|TestSpanSteadyStateAllocs|TestLazyFarSteadyStateAllocs' -count=1 ./internal/sssp/
go test -run 'TestPartitionedSteadyStateAllocs' -count=1 ./internal/frontier/
go test -run 'TestTracerSteadyStateAllocs|TestEnergyMeterSteadyStateAllocs' -count=1 ./internal/obs/
go test -run 'TestFlightSteadyStateAllocs' -count=1 ./internal/core/

echo "==> flight-recorder gates: record/replay determinism + same-seed diff"
flightbin="$(mktemp -d)"
trap 'rm -rf "$flightbin"' EXIT
go build -o "$flightbin/flight" ./cmd/flight
go build -o "$flightbin/sssp" ./cmd/sssp

# Logs are recorded with `sssp -flight-out`; sssp defaults to all CPUs, so
# every sequential configuration passes -workers 1.
#
# Replay determinism on both advance paths: a recorded log must re-execute
# the controller trajectory bit-identically. The cal run advances every
# frontier on the sequential kernel; most of the wiki run's frontiers are
# above the sequential cutoff and run on the 4-worker pool.
"$flightbin/sssp" -dataset cal -scale 0.01 -seed 42 -P 500 -device TK1 -workers 1 \
    -flight-out "$flightbin/cal.jsonl" >/dev/null
"$flightbin/flight" replay -q "$flightbin/cal.jsonl"
"$flightbin/sssp" -dataset wiki -scale 0.05 -seed 7 -P 20000 -workers 4 \
    -flight-out "$flightbin/wiki.jsonl" >/dev/null
"$flightbin/flight" replay -q "$flightbin/wiki.jsonl"

# The near-far schedule (rho far queue) runs through the same loop with its
# own stage 4; its log must replay too.
"$flightbin/sssp" -algo nearfar -dataset cal -scale 0.01 -seed 42 -device TK1 -workers 1 \
    -flight-out "$flightbin/nearfar.jsonl" >/dev/null
"$flightbin/flight" replay -q "$flightbin/nearfar.jsonl"

# Same-seed diff: two runs of one configuration must produce bit-identical
# logs, at -workers 1 and at -workers 4, for the self-tuning and the near-far
# schedule. Every advance of these configurations falls below the advance's
# sequential cutoff (near-far's largest frontier is 245 vertices, the cutoff
# about 6.7k), so it runs inline on the plain kernel at any pool size.
# Iterations above the cutoff run the parallel atomic-min kernel over the
# frontier in ascending vertex order. The chunk contents are fixed, but
# which worker claims each chunk and how the races resolve are not, and X2
# depends on them (ROADMAP: deterministic advance), so a configuration with
# such iterations (the wiki run above) may differ between runs whenever the
# pool has more than one worker.
for w in 1 4; do
  for algo in selftuning nearfar; do
    "$flightbin/sssp" -algo "$algo" -dataset cal -scale 0.01 -seed 42 -P 500 -device TK1 \
        -workers "$w" -flight-out "$flightbin/run-a$w.jsonl" >/dev/null
    "$flightbin/sssp" -algo "$algo" -dataset cal -scale 0.01 -seed 42 -P 500 -device TK1 \
        -workers "$w" -flight-out "$flightbin/run-b$w.jsonl" >/dev/null
    "$flightbin/flight" diff "$flightbin/run-a$w.jsonl" "$flightbin/run-b$w.jsonl" >/dev/null
  done
done

# Reference diff: a fresh record of the committed log's configuration must
# match results/flight_cal_tk1.jsonl bit for bit, so a change to how the
# kernels run on the host cannot move one charged count or simulated figure.
"$flightbin/sssp" -dataset cal -scale 0.005 -seed 42 -P 500 -device TK1 -workers 1 \
    -flight-out "$flightbin/ref.jsonl" >/dev/null
"$flightbin/flight" diff results/flight_cal_tk1.jsonl "$flightbin/ref.jsonl" >/dev/null

echo "==> cmd/experiments: a selection runs, an unknown name fails"
expbin="$(mktemp -d)"
trap 'rm -rf "$flightbin" "$expbin"' EXIT
go build -o "$expbin/experiments" ./cmd/experiments
"$expbin/experiments" -fig 5,overhead -scale 0.005 -quiet >/dev/null
if "$expbin/experiments" -fig nope >/dev/null 2>&1; then
  echo "experiments -fig nope exited 0" >&2; exit 1
fi

echo "==> cmd/sssp: -energy-out without -device fails before solving"
if "$flightbin/sssp" -scale 0.001 -energy-out "$expbin/energy.json" >/dev/null 2>&1; then
  echo "sssp -energy-out without -device exited 0" >&2; exit 1
fi

echo "==> fuzz the flight-log reader and everything that consumes its output"
# Flight logs are untrusted input to replay, the dashboard, the detector and
# run-diff; none of them may panic on any byte sequence the reader accepts.
go test -run '^$' -fuzz '^FuzzFlightLog$' -fuzztime 30s ./internal/core/

echo "==> fuzz Run's configuration surface"
# RunConfig is caller input: every Algorithm value, Delta, SetPoint (NaN,
# ±Inf, 0, negative), Workers in [-1, 4], and arbitrary FarQueue, Device
# and Freq strings must yield an error or Dijkstra's distances on
# small random graphs, never a panic.
go test -run '^$' -fuzz '^FuzzRunConfig$' -fuzztime 30s .

echo "==> bench module: vet + quick smoke"
# bench/ is a nested module, so the root go vet/build/test never see it,
# yet it compiles against internal/obs, internal/parallel and internal/sssp.
go -C bench vet ./...
go -C bench test ./...

echo "==> committed bench/ results: correct, at full CPU count, within BENCHMARK.json bounds"
# Every results/bench/ entry must be a clean --trace 0 run at GOMAXPROCS =
# nproc, and the newest entry may be no worse than the previous entry from
# the same machine by more than any end-to-end metric's bound.
go test -run 'TestCommittedBenchResults' -count=1 .

echo "==> check.sh: all gates green"
