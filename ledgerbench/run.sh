#!/usr/bin/env bash
# Builds ledgerbench from this checkout's sources and runs it with the given
# arguments, e.g.
#   bash ledgerbench/run.sh --workload rpc-qvga --seed 1 --seconds 10 --trace 0
# Every build product and cache stays under .bench_build/ at the checkout
# root; the last line of standard output is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/ledgerbench"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local CGO_ENABLED=0 GOFLAGS=
(cd "$root/ledgerbench" && go build -o "$out/ledgerbench" .) >&2
cd "$root"
exec "$out/ledgerbench" "$@"
