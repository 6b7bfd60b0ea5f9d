#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): builds bench/ from source
# and runs it from the root of the checkout. Everything the build and the
# run write stays inside the checkout, under .bench_build/ and bench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

# The Go tool keeps its build cache, telemetry and GOPATH under $HOME;
# point all of them into the checkout. GOTOOLCHAIN=local: never download.
export HOME="$build/home" GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)

cd "$root"
BENCH_COMMIT="$commit" exec "$build/bench" "$@"
