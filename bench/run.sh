#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: the driver's (--workload W --seed N --seconds S --trace 0|1), or
# none to run every workload and write result.json. Build cache, temporary
# files and the binary all live in .bench_build, so nothing is written
# outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$build/e2e" ./e2e)
cd "$root"
exec "$build/e2e" "$@"
