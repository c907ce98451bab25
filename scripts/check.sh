#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 verify from ROADMAP.md.
# Run locally before pushing; CI (.github/workflows/ci.yml) runs the same.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings, both obs modes)"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --features obs -- -D warnings

echo "== tier-1 verify, both obs modes: cargo build --release, then every test once per mode"
# Every crate is a default member, so the workspace run is tier-1's
# `cargo test -q` plus the vendored shims' own tests.
cargo build --release
cargo test -q --workspace
cargo test -q --workspace --features obs

echo "== NPB class-A verifications (ignored by tier-1), both obs modes"
cargo test -q -p ookami-npb -- --ignored
cargo test -q -p ookami-npb --features ookami-core/obs -- --ignored

# Probes write their reports to target/bench/, never over the committed
# baselines at the repo root; start from an empty directory so benchdiff
# judges only what this run produced.
rm -rf target/bench

echo "== figure, accuracy and fork/join reports (each in its committed baseline's obs mode)"
# Regenerates BENCH_figures.json (fig1, without obs), BENCH_accuracy.json
# (with obs) and BENCH_forkjoin.json (without obs) so benchdiff below
# judges them against the committed files. forkjoin exits 1 unless the
# pool is >= 5x cheaper than spawn-per-region at an 8-thread team.
cargo run -p ookami-bench --bin figures --release -- fig1 >/dev/null
cargo run -p ookami-bench --features obs --bin accuracy --release >/dev/null
cargo run -p ookami-bench --bin forkjoin --release

echo "== trace-replay + compiled-trace identity smoke (svereplay --smoke, both obs modes)"
# The probe drives interpreter, replayer, and the compiled native path and
# asserts bit/instruction identity in both builds; with obs it additionally
# asserts exact counter identity across all three executors.
cargo run -p ookami-bench --bin svereplay --release -- --smoke
cargo run -p ookami-bench --features obs --bin svereplay --release -- --smoke

echo "== sharded cache-sim identity smoke (cachesim --smoke, both obs modes)"
# Serial CacheSim vs ShardedCacheSim (serial dispatch and pool-parallel at
# several thread counts) must agree exactly on both machine geometries.
cargo run -p ookami-bench --bin cachesim --release -- --smoke
cargo run -p ookami-bench --features obs --bin cachesim --release -- --smoke

echo "== irregular-memory family smoke (spmv --smoke, both obs modes)"
# CRS/SELL-C-σ/STREAM/stencil executors must stay bit-identical to their
# fused scalar references, and the ECM model must keep attributing the
# CRS family bandwidth_bound on the A64FX descriptor.
cargo run -p ookami-bench --bin spmv --release -- --smoke
cargo run -p ookami-bench --features obs --bin spmv --release -- --smoke

echo "== counter-layer smoke (ookamistat --smoke, obs on) + trace + schema check"
cargo run -p ookami-bench --features obs --bin ookamistat --release -- --smoke --trace target/trace.json
cargo run -p ookami-bench --bin report --release -- --validate target/bench/BENCH_obs.json

echo "== span-tree profiler smoke (ookamiprof --smoke, both obs modes)"
# With obs the probe asserts histogram counts, span-tree counts, and the
# 13 deterministic counters agree across interpreter/replayer/compiled,
# and exports the collapsed flamegraph stacks; without obs it must still
# produce a schema-valid report from the no-op telemetry layer.
cargo run -p ookami-bench --bin ookamiprof --release -- --smoke
cargo run -p ookami-bench --features obs --bin ookamiprof --release -- --smoke
cargo run -p ookami-bench --bin report --release -- --validate target/bench/BENCH_prof.json
test -s target/PROFILE.collapsed

echo "== static verifier, mutation self-tests, translation validator and race gate (ookamicheck, obs on)"
# One run writes BENCH_check.json: the 66 shipped programs must verify
# clean, the corpus and trace mutants must be judged as expected, every
# family trace must prove pass-by-pass, and the pool kernels' timeline
# must replay race-free.
cargo run -p ookami-bench --features obs --bin ookamicheck --release

echo "== bench-trajectory gate (benchdiff vs committed baselines)"
cargo run -p ookami-bench --features obs --bin benchdiff --release -- \
  --baseline . --current target/bench --out target/BENCHDIFF.json
# Self-test: an injected synthetic regression must trip the gate (exit 1)
# and --explain must rank the counter deltas that caused it.
inject_out="$(mktemp)"
if cargo run -p ookami-bench --features obs --bin benchdiff --release -- \
  --baseline . --current target/bench --out target/BENCHDIFF.inject.json \
  --inject-regression --explain >"$inject_out" 2>&1; then
  echo "benchdiff failed to flag an injected regression" >&2
  rm -f "$inject_out"
  exit 1
fi
if ! grep -q "top counter deltas vs baseline" "$inject_out"; then
  echo "benchdiff --explain produced no counter-delta ranking" >&2
  cat "$inject_out" >&2
  rm -f "$inject_out"
  exit 1
fi
rm -f "$inject_out"

echo "== miri (strict provenance) over the pool runtime, if available"
if cargo miri --version >/dev/null 2>&1; then
  # SendPtr keeps provenance through the pool (no usize round-trips), so
  # the runtime and pool suites must pass under strict provenance.
  MIRIFLAGS="-Zmiri-strict-provenance" cargo miri test -p ookami-core runtime:: pool::
else
  echo "   SKIPPED: cargo miri not installed (rustup component add miri)"
fi

echo "== all checks passed"
