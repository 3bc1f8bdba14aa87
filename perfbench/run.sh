#!/usr/bin/env bash
# Builds cmd/cleanseld and the perfbench harness from this checkout and
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload select_maxpr --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the daemon logs go under
# .bench_build/ in the checkout, so a run reads and writes nothing
# outside it. The harness's flags are documented in perfbench/README.md.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/cleanseld" ] || [ ! -d "$root/perfbench" ]; then
	echo "run.sh: run from the repository root (go.mod, cmd/cleanseld and perfbench/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's settings file and telemetry
# counters in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

go build -o "$out/bin/cleanseld" ./cmd/cleanseld
go build -o "$out/bin/perfbench" ./perfbench

commit=none
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi

exec "$out/bin/perfbench" -daemon "$out/bin/cleanseld" -workdir "$out" -commit "$commit" "$@"
