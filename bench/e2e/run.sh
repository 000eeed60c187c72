#!/usr/bin/env bash
# Build orq_bench from this checkout's sources, then run it with the given
# arguments (see README.md next to this script). Run from the repository
# root; build output goes to .bench_build/, run output to .bench_out/.
set -u
cd "$(dirname "$0")/../.." || exit 2
# no shared dune cache: the build reads and writes this checkout only
export DUNE_CACHE=disabled
if ! dune build --root . --build-dir .bench_build --profile release \
  ./bench/e2e/orq_bench.exe >&2; then
  echo "orq_bench: build failed" >&2
  exit 2
fi
exec ./.bench_build/default/bench/e2e/orq_bench.exe "$@"
