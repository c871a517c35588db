#!/usr/bin/env bash
# Builds fgbench once and runs it in the foreground: exec replaces this
# shell, so no process outlives the command. Everything this writes goes
# under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/fgbench" .)
FGBENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export FGBENCH_GIT_REV FGBENCH_TMP="$build/tmp"
exec "$build/fgbench" "$@"
