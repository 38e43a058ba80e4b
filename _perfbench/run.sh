#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it, from the repository root:
#
#   bash _perfbench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, run
# reports, CPU profiles) goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/_perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod or _perfbench/go.mod here)" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/_perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
