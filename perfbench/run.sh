#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload restore-rewire --seed 1 --seconds 35 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the checkout: the Go build cache, the
# binary, per-run scratch directories and trace files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
  echo "perfbench: no program sources here (missing go.mod at the root)" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOPROXY=off
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

# The commit, or outside a git checkout a hash of the Go sources.
if command -v git >/dev/null 2>&1 && git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
  commit=$(git -C "$root" rev-parse HEAD)
else
  commit=tree-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
    LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
fi
export PERFBENCH_COMMIT="$commit"
exec "$build/perfbench" --root "$root" "$@"
