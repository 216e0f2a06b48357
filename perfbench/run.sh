#!/usr/bin/env bash
# Builds the yield-service benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload evaluate_mixed --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare before.jsonl after.jsonl
#
# Every build product, Go cache and scratch file stays under .bench_build/ in
# the current directory. The build needs the repository's sources next to
# perfbench/; without them it fails and nothing is printed on stdout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
