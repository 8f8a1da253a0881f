#!/usr/bin/env bash
# Repo CI: build, test, lint. All dependencies are vendored in-tree
# (vendor/), so this runs fully offline; --offline keeps cargo from
# touching the network at all. Clippy is optional tooling — skip
# gracefully where the component is not installed.
set -uo pipefail

cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

fail=0

run cargo build --release --offline --workspace || fail=1
run cargo test -q --offline --workspace || fail=1

# Conformance sweep (tier 2, see TESTING.md): a short fixed-seed sweep
# plus a replay of every committed corpus reproducer. Fails if any sweep
# point diverges from the oracle or a corpus case is no longer green.
run cargo run --release --offline -q -p acq-harness -- --seed 1 --cases 6 --check-corpus --no-write || fail=1

# Bench smoke (tier 2): the hot-path benchmark — including the sharded
# executor's scenario group — on a tiny workload, to catch bench-harness rot
# without paying full measurement time. The smoke run only prints: it
# leaves every tracked file as it was.
run scripts/bench.sh --smoke || fail=1

# Benchmark correctness gate (tier 2): tiny runs of every perfbench
# workload in both modes — single vs sharded vs the naive oracle — checked
# against BENCHMARK.json.
run python3 perfbench/selftest.py || fail=1

# Documentation gate: every public item is documented (missing_docs is
# enabled crate-side) and rustdoc warnings are errors.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace || fail=1

if cargo clippy --version >/dev/null 2>&1; then
  run cargo clippy --offline --workspace --all-targets -- -D warnings || fail=1
else
  echo "==> cargo clippy not installed; skipping lint"
fi

if [ "$fail" -ne 0 ]; then
  echo "CI FAILED"
  exit 1
fi
echo "CI OK"
