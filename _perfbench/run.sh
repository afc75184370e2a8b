#!/usr/bin/env bash
# Builds the benchmark of record from source and runs it. Run it from the
# repository root; every argument is passed on to the benchmark:
#
#   bash _perfbench/run.sh --workload baseline --seed 7 --seconds 20 --trace 0
#
# The benchmark is a Go module of its own that uses the simulator through a
# replace directive. Its directory name starts with an underscore so that
# the go tool's ./... patterns and the repository's determinism linter,
# which reads host clocks as findings, leave it out.
#
# Everything the build writes stays under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory: the build cache, temporary files
# and the binary.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off
mkdir -p "$GOTMPDIR"

rev=unknown
if [[ -e .git ]] && command -v git >/dev/null; then
  rev=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

(cd "$here" && go build -trimpath -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --rev "$rev" "$@"
