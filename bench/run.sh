#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root, passing every argument through (see main.go or README.md).
# Everything the build writes stays under .bench_build/ at the root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
