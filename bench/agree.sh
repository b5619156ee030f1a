#!/usr/bin/env bash
# Runs every workload as two sets of N fresh-process runs (default 5,
# seeds 1..N) plus one traced run per set, and fails unless the sets
# agree: no end-to-end median worse than the other set's by more than
# its bound in BENCHMARK.json, and the simulated quantities and counts
# (core.machine_s, core.slowdown, core.samples, simmpi.msgs_per_exec,
# ...) identical. About N x 3 minutes.
#   bash bench/agree.sh [N] [workload...]
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
n=${1:-5}
shift || true
if [ $# -eq 0 ]; then
	set -- tune_replay job_live serve_batch serve_single serve_reload
fi
for w in "$@"; do
	bash "$here/run.sh" --workload "$w" --seed 1 --repeat "$n" --sets 2
done
