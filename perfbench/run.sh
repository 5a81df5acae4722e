#!/usr/bin/env bash
# Build the benchmark from source and run it, from the repository root:
#   bash perfbench/run.sh --workload cached|mail|stream --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last stdout line stays the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
