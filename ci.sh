#!/usr/bin/env bash
# ci.sh — the checks every PR must pass, in increasing order of cost:
# gofmt, vet, the determinism linter (ddbmlint statically enforces the
# invariants the golden tests can only probe dynamically), build, full
# test suite, a race pass over the whole module (runGrid fans simulations
# out across host goroutines — real race territory; -short skips only the
# marathon paper-shape reproductions, which the Tiny studies cover and
# which would push the race pass past the go test timeout), kernel and
# lock-manager benchmark smokes so a catastrophic performance regression
# fails loudly even without reading numbers, and a smoke of the benchmark
# of record whose result checks catch a result drift at its recorded seed.
#
# For the performance numbers themselves, run the benchmark of record:
#   bash _perfbench/run.sh --workload baseline --seed 7 --seconds 35 --trace 1
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== ddbmlint (determinism invariants)"
# The full check suite over the whole module, four per-file checks:
# no-wall-clock, no-global-rand, map-order and no-naked-goroutine.
go run ./cmd/ddbmlint ./...

echo "== ddbmlint fixture harness"
# The // want-comment fixtures under testdata/lint pin the exact finding
# set of all four checks, plus the output-determinism guarantee and the
# CLI's -json round-trip. The premise test pins that every package exempt
# from no-wall-clock or no-global-rand (cmd/...) is a main package, so no
# simulation code can import a helper that escapes those checks.
go test -run 'TestFixtures|TestExemptPackagesAreMain|TestLintDeterminism|TestLoaderFailures' ./internal/lint/
go test -run 'TestRunJSONRoundTrip|TestRunExitCodes' ./cmd/ddbmlint/

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== kernel benchmark smoke"
# Raw events and the continuation handle every simulation process runs on:
# a process hold and a mailbox round trip, one event per resumption, and
# the move of a timer's pending firing (the CPU's next completion).
go test -run '^$' -bench 'BenchmarkEventThroughput|BenchmarkContDelay|BenchmarkContMailbox|BenchmarkTimerSet' \
  -benchtime 0.1s -benchmem ./internal/sim/

echo "== lock-manager benchmark smoke"
# The contention hot path must stay allocation-free: TestSteadyStateAllocFree
# pins acquire/release, block/promote, waits-for extraction, withdrawal and
# victim selection at 0 allocs/op; the benchmarks catch gross slowdowns.
go test -run 'TestSteadyStateAllocFree' \
  -bench 'BenchmarkWaitsForEdges|BenchmarkReleaseAll|BenchmarkFindVictims' \
  -benchtime 0.1s -benchmem ./internal/cc/

echo "== transaction-path allocation pin"
# The end-to-end transaction path (terminals, plans, attempts, envelopes,
# commit fan-out, locks, CPU/disk queues, metrics) must stay allocation-free
# in steady state across every commit-protocol variant, on the placements
# with several partitions or replica copies per node, and in three 2PL
# branches the others never reach: sequential cohort execution, message
# loss and duplication with retransmission, and the lock-wait timeout
# scheme. These run-time pins are the one guard of allocation freedom; no
# static check shadows them. The pools the path runs on are sized from
# the placement, so three more tests guard those sizes: the footprint pin
# (building the Table 4 machine stays within 8 MB and 10,000 objects,
# catching a return to worst-case sizing or to one object per pooled
# record), the bound property (no planned cohort exceeds
# MaxAccessesPerCohort on any placement, and Table 4 reaches it), and
# FindVictims' order independence (victims do not depend on edge order or
# repetition, which the Snoop's gather in request-arrival order relies on).
go test -run 'TestTxnPathAllocFree|TestNewMachineFootprint' -count=1 ./internal/core/
go test -run 'TestMaxAccessesPerCohortBoundsPlans' -count=1 ./internal/workload/
go test -run 'TestFindVictimsOrderIndependent' -count=1 ./internal/cc/

echo "== commit-protocol sweep smoke"
# All three 2PC variants end to end at a tiny time scale. This catches a
# protocol path that panics or a configuration the sweep can no longer
# build. It does not catch a wedged protocol (a lost vote, a missing ack):
# a wedged attempt only parks its terminal while the run goes on, so the
# sweep still exits 0 with lower throughput. The progress watchdog on the
# ROADMAP is what will make a wedge fail here.
go run ./cmd/experiments -fig cps -scale 0.02 -q

echo "== trace smoke"
# A short traced + probed run must export a structurally valid Chrome
# trace: JSON parses, spans nest, cohort/commit-phase spans sit under
# their attempt. tracecheck exits non-zero on any violation. The same run
# exported as JSONL must read back whole: tracecheck decodes every line,
# and the event count must be the one ddbsim recorded. ddbsim -trace 20
# must print 20 life-cycle lines from the trace log.
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/ddbsim -simtime 30 -warmup 5 -think 4 \
  -trace-out "$tracedir/smoke.json" -probe-interval 100 >/dev/null
go run ./cmd/tracecheck "$tracedir/smoke.json"
recorded=$(go run ./cmd/ddbsim -simtime 30 -warmup 5 -think 4 -trace-out "$tracedir/smoke.jsonl" |
  awk '$1 == "trace" { print $2 }')
readback=$(go run ./cmd/tracecheck "$tracedir/smoke.jsonl")
if [[ -z "$recorded" || "$readback" != *"ok ($recorded events,"* ]]; then
  echo "JSONL trace of $recorded events read back as: $readback" >&2
  exit 1
fi
lifecycle=$(go run ./cmd/ddbsim -trace 20 -simtime 30 -warmup 5 -think 4 -seed 7 | grep -c ' txn ')
if [[ "$lifecycle" != 20 ]]; then
  echo "ddbsim -trace 20 printed $lifecycle life-cycle lines" >&2
  exit 1
fi

echo "== obs smoke"
# The trace log's pins: a nil tracer allocates nothing, recording
# allocates only whole chunks, the stored record stays pointer-free, and
# the direct Chrome encoder renders byte for byte what encoding/json
# renders. Then the recording and export benchmarks, as a smoke.
go test -count=1 \
  -run 'TestDisabledTracerZeroAllocs|TestEnabledSteadyStateAllocs|TestRecordPointerFree|TestChromeEncoderMatchesReference' \
  -bench 'BenchmarkTracerRecord|BenchmarkWriteChromeTrace' -benchtime 0.1s -benchmem ./internal/obs/

echo "== breakdown smoke"
# Time-breakdown accounting end to end: the reconciliation property pins
# (every committed attempt's phase ledger must sum to its response time
# across all commit-protocol variants, and breakdown on/off must be
# bit-identical), then a short -breakdown report + CSV export and the
# decomposition figure at a tiny scale — a phase attribution that no
# longer telescopes or a broken exporter fails loudly here.
go test -run 'TestBreakdown' -count=1 ./internal/core/
go run ./cmd/ddbsim -simtime 30 -warmup 5 -think 4 \
  -breakdown -breakdown-out "$tracedir/bd.csv" >/dev/null
go run ./cmd/experiments -fig bd -scale 0.02 -q >/dev/null

echo "== fault-tolerance smoke"
# The fault subsystem end to end: a race pass over the injector and the
# recovery machinery, the fault property tests (stream isolation, crash
# recovery under every protocol, cause accounting, golden-trace bit
# identity), then the Ext K mini-grid and a crashy logged run, which catch
# a crash or recovery path that panics. A wedged crash path (a
# coordinator parked on a dead cohort, a restart that never rejoins) is
# not caught here: it parks a terminal, the run goes on and exits 0.
# That waits on the progress watchdog on the ROADMAP.
go test -race -count=1 ./internal/fault/ ./internal/recovery/
go test -run 'TestFault' -count=1 ./internal/core/
go run ./cmd/experiments -fig ft -scale 0.02 -q >/dev/null
go run ./cmd/ddbsim -simtime 60 -warmup 10 -think 4 -logging -mttf 20 >/dev/null

echo "== benchmark-of-record smoke"
# The benchmark's own fold tests, then its shortest run (a warm-up pass and
# three measured passes) on every workload at the seed whose Result
# fingerprints are recorded in _perfbench/fingerprints.json. The result
# line must say correct: a fingerprint that drifted, an observed run whose
# shared fields differ from baseline's, or a Chrome trace that fails its
# structural check fails CI here as it fails the merge gate. faults is the
# one workload whose crash-stops cancel pending continuations, some of
# them in the kernel's same-instant lane.
(cd _perfbench && go test ./...)
for workload in baseline observed faults; do
  result=$(bash _perfbench/run.sh --workload "$workload" --seed 7 --seconds 0 --trace 0 2>/dev/null | tail -n 1)
  if [[ "$result" != *'"correct":true'* ]]; then
    echo "perfbench $workload at seed 7 is not correct: $result" >&2
    exit 1
  fi
done

echo "CI OK"
