#!/usr/bin/env bash
# Build kv_server and the load generator from source, then run it:
#   bash perfbench/run.sh --workload kv-mixed --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from a checkout of the repository (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
dune build --root . ./bin/kv_server.exe ./perfbench/kvbench.exe 1>&2
exec ./_build/default/perfbench/kvbench.exe "$@"
