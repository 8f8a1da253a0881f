#!/usr/bin/env bash
# Perf trajectory runner: builds release and runs the hotpath and
# shard_scaling benches, updating crates/bench/BENCH_hotpath.json and
# BENCH_shard.json.
#
# Usage:
#   scripts/bench.sh                 # full run, records the "current" section
#   scripts/bench.sh --label NAME    # record under a different section
#   scripts/bench.sh --smoke         # 1-iteration-scale smoke pass (CI;
#                                    # prints only, writes no file)
#   scripts/bench.sh --only GROUP    # hotpath|shard: one scenario group
#                                    # (any other value filters scenarios
#                                    # without recording)
#
# BENCH_hotpath.json / BENCH_shard.json (in crates/bench/) accumulate one
# section per label (e.g. "baseline"/"scoped" recorded from the
# pre-optimization layouts, "current" from HEAD), so the before/after
# throughput and allocs/update comparison is in-repo.
set -euo pipefail

cd "$(dirname "$0")/.."

label=""
smoke=""
only=""
while [ $# -gt 0 ]; do
  case "$1" in
    --label) label="$2"; shift 2 ;;
    --smoke) smoke="--smoke"; shift ;;
    --only) only="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

run() {
  echo "==> $*"
  "$@"
}

run cargo build --release --offline --workspace

# Hot-path throughput + allocations per update (writes BENCH_hotpath.json
# and/or BENCH_shard.json depending on the group selection; not in smoke
# mode).
hotpath_args=()
[ -n "$label" ] && hotpath_args+=(--label "$label")
[ -n "$smoke" ] && hotpath_args+=(--smoke)
[ -n "$only" ] && hotpath_args+=(--only "$only")
run cargo bench --offline -q -p acq-bench --bench hotpath -- "${hotpath_args[@]}"

# Parallel scaling on the virtual cost substrate (writes
# EXPERIMENTS_OUTPUT/shard_scaling.csv). Skipped in smoke mode (its run
# length is fixed and the hotpath smoke already covers the build) and when
# --only selects the hotpath group alone.
if [ -z "$smoke" ] && { [ -z "$only" ] || [ "$only" = "shard" ]; }; then
  run cargo run --release --offline -q -p acq-bench --bin shard_scaling
fi

echo "BENCH OK"
