#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout of the repository. The build goes to
# .bench_build with the dune cache off, so nothing is written outside
# the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench/run.sh: $(pwd) is not a checkout of the repository" >&2
  exit 2
fi
dune build --root . --build-dir .bench_build --cache=disabled \
  --display=quiet perfbench/mcs_bench.exe >&2
exec .bench_build/default/perfbench/mcs_bench.exe "$@"
