#!/usr/bin/env bash
# One command for the benchmark. From any directory:
#
#   benchmark/run.sh                                  four untraced workloads, then the traced pass
#   benchmark/run.sh --workload send-through --seed 1 --seconds 20 --trace 0
#                                                     one run; arguments go to the harness as they are
#
# It builds the harness from source into .bench_build/ at the root of
# the checkout (nothing is read or written outside the checkout: the Go
# build cache, module cache and HOME all live there) and runs it from
# the root. The last line of each run is the JSON result; the exit code
# is non-zero if the build or any output check failed.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(
	cd "$root/benchmark"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
		go build -ldflags "-X main.commit=$commit" -o "$build/benchmark" . >&2
)
cd "$root"
exec "$build/benchmark" "$@"
