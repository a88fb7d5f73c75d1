#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it from the
# repository root; arguments pass through (see main.go). Build outputs,
# the Go build cache and traces stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if ! grep -qx 'module repro' "$root/go.mod" 2>/dev/null || [ ! -d "$root/internal/sched" ]; then
	echo "perfbench: $root is not a repository checkout (no go.mod of module repro, or no internal/)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
"$out/perfbench" "$@"
