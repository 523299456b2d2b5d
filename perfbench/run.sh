#!/usr/bin/env bash
# Build the benchmark and the hirc binary from source, then run one
# workload:  bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  The build log goes to stderr; the last
# line of stdout is the run's JSON result.
set -euo pipefail
dune build --root . --cache=disabled ./perfbench/bench.exe ./bin/hirc.exe 1>&2
exec ./_build/default/perfbench/bench.exe --hirc ./_build/default/bin/hirc.exe "$@"
