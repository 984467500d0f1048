#!/usr/bin/env bash
# Build ric and the benchmark from this checkout, then run one
# benchmark pass:
#
#   bash ricbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the checkout root; everything it writes stays under _build/
# and .ricbench/.  The last line of standard output is the JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/ric.exe ./ricbench/main.exe 1>&2
exec ./_build/default/ricbench/main.exe "$@"
