#!/usr/bin/env bash
# Build the server and the benchmark from source, then run one benchmark
# run from the root of the checkout:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./bin/whynot_serverd.exe ./perfbench/wire_bench.exe 1>&2
exec ./_build/default/perfbench/wire_bench.exe "$@"
