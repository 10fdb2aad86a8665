#!/bin/sh
# Build ozobench from source in this checkout, then run it with the given
# arguments, e.g.
#   sh bench/e2e/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
# The dune cache is disabled so the build writes nothing outside the
# checkout. Outside a full checkout (no dune-project or lib/) the build
# fails and so does this script.
set -e
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: not inside a full checkout of the repository" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet bench/e2e/ozobench.exe
exec ./_build/default/bench/e2e/ozobench.exe "$@"
