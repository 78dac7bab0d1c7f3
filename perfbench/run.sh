#!/usr/bin/env bash
# Builds the speedup daemon and the benchmark from source, then runs one
# workload from the root of a checkout:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result.
set -u
if [ ! -f dune-project ] || [ ! -f bin/main.ml ] || [ ! -f perfbench/perfbench.ml ]; then
  echo "perfbench: run from the root of a speedup checkout" >&2
  exit 2
fi
mkdir -p .perfbench
export DUNE_CACHE=disabled TMPDIR="$PWD/.perfbench"
dune build bin/main.exe perfbench/perfbench.exe >&2 || exit 2
_build/default/perfbench/perfbench.exe --speedup _build/default/bin/main.exe "$@" &
pid=$!
trap 'kill -TERM "$pid" 2>/dev/null' TERM INT
while kill -0 "$pid" 2>/dev/null; do wait "$pid"; status=$?; done
# Daemons outlive the benchmark only if it was killed outright.
pkill -KILL -f "serve --socket .perfbench/run-$pid/" 2>/dev/null
exit "$status"
