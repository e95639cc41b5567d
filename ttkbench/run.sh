#!/usr/bin/env bash
# Build the time-to-verified-key benchmark from source and run one
# measurement.  Run from the repository root:
#
#   bash ttkbench/run.sh --workload sarlock-k12-n2 --seed 1 --seconds 35 --trace 0
#
# Build output goes to stderr; stdout is the benchmark's own record, whose
# last line is the JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: not at the root of a logiclock checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
# The shared dune cache is off so that the build writes only inside the
# checkout.
DUNE_CACHE=disabled dune build --root . --display quiet ./ttkbench/ttk.exe 1>&2
exec ./_build/default/ttkbench/ttk.exe "$@"
