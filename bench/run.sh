#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds scilens-bench inside bench/out
# (build cache included, so nothing is written outside the checkout) and
# runs it with the caller's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out/bin" "$here/out/tmp"
export GOCACHE="$here/out/gocache" GOTMPDIR="$here/out/tmp" GOWORK=off GOTOOLCHAIN=local
go build -C "$here" -o "$here/out/bin/scilens-bench" ./cmd/scilens-bench
exec "$here/out/bin/scilens-bench" -bench-dir "$here" "$@"
