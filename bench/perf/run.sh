#!/usr/bin/env bash
# Build cpr_perf from the sources of this checkout, then run one
# benchmark workload, e.g.
#   bash bench/perf/run.sh --workload flow --seed 0 --seconds 20 --trace 0
# Build output goes to stderr; stdout is the benchmark's alone, ending
# with its one-line JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $root holds no dune project with lib/ to build" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . -j 2 --display quiet \
  ./bench/perf/cpr_perf.exe >&2
exec ./_build/default/bench/perf/cpr_perf.exe run "$@"
