#!/usr/bin/env bash
# Builds and runs the qwm benchmark from the root of a qwm checkout:
#
#   bash perfbench/run.sh --workload warm_repeat --seed 1 --seconds 20 --trace 0
#
# Every build artefact, the Go build cache and temporary files stay under
# .bench_build/ in the checkout. The last line of standard output is the
# JSON result; see perfbench/README.md.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/service ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a qwm checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local
export GOPROXY=off GOSUMDB=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
