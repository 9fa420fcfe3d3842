#!/usr/bin/env bash
# Builds mithrad and the benchmark program from this checkout, then runs
# one workload:
#
#   bash perfbench/run.sh --workload serve_open_fft --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (Go build cache included); the result is the last
# line of standard output.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mithrad" ] || [ ! -d "$root/internal" ]; then
  echo "perfbench: $root is not a mithra checkout (no go.mod, cmd/mithrad or internal/)" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cd "$root"
go build -o "$build/bin/mithrad" ./cmd/mithrad >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin-dir "$build/bin" -work-dir "$build/work" "$@"
