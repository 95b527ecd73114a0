#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the repository:
#
#   bash perfbench/run.sh --workload paced-l3fwd --seed 1 --seconds 10 --trace 0
#
# Every build artefact and cache lives under .bench_build/ in the checkout
# (CARGO_TARGET_DIR, when set, names that build directory instead).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench.new" .) >&2
mv -f "$out/perfbench.new" "$out/perfbench"
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
