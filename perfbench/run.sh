#!/usr/bin/env bash
# Build the benchmark and the accals executable from source, then run one
# workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload scale-10k --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the JSON result. Build output goes
# to standard error; a failed build exits non-zero without a result.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1; then
  if command -v opam >/dev/null 2>&1; then
    eval "$(opam env 2>/dev/null)" || true
  fi
fi
command -v dune >/dev/null 2>&1 || { echo "perfbench: dune not found" >&2; exit 3; }

dune build --root . ./perfbench/main.exe ./bin/main.exe >&2
exec ./_build/default/perfbench/main.exe --accals ./_build/default/bin/main.exe "$@"
