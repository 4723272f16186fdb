#!/usr/bin/env bash
# Build the server and the benchmark program from source, then run one
# workload:
#
#   bash perfbench/run.sh --workload analytics --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout. The last line of stdout is the JSON
# result; progress goes to stderr. Everything the run writes (build tree,
# input cache, traces, temp store directories) stays under
# _build/ and .perfbench/ in the checkout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a levelheaded checkout (no dune-project/lib/bin here)" >&2
  exit 2
fi

# No shared build cache outside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/lhserve.exe >&2

exec ./_build/default/perfbench/main.exe --lhserve ./_build/default/bin/lhserve.exe "$@"
