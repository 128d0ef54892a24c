#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in the order that fails
# fastest. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> examples (cargo test only compiles them; each must run to exit 0)"
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> ttvbench self-test (the benchmark's use of the public API)"
cargo test --release --offline --quiet --manifest-path ttvbench/Cargo.toml

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> report smoke (exp_t2_dac at n = 2, schema- and trace-validated)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release -q -p lbsa-bench --bin exp_t2_dac -- \
  --max-n 2 --reports-dir "$smoke_dir"
cargo run --release -q -p lbsa-bench --bin exp_report -- \
  --validate "$smoke_dir/exp_t2_dac.json" \
  --validate-trace "$smoke_dir/exp_t2_dac.trace.jsonl"

echo "==> sampling smoke (exp_f8 vote propagation, schema- and trace-validated)"
cargo run --release -q -p lbsa-bench --bin exp_f8_vote_propagation -- \
  --n 6 --runs 60 --reports-dir "$smoke_dir"
cargo run --release -q -p lbsa-bench --bin exp_report -- \
  --validate "$smoke_dir/exp_f8_vote_propagation.json" \
  --validate-trace "$smoke_dir/exp_f8_vote_propagation.trace.jsonl"

echo "==> trace observatory smoke (obs_analyze on the tier-1 trace)"
cargo run --release -q -p lbsa-bench --bin obs_analyze -- \
  "$smoke_dir/exp_t2_dac.trace.jsonl" --summary-json >/dev/null

echo "==> live progress smoke (profile_t2 with a 50ms sampler, validated + cockpit-rendered)"
# One traced WS run with the in-flight progress sampler: the trace must
# carry schema-valid `progress` events (exp_report checks the cockpit
# fields), obs_top must render a dashboard from it, and the Prometheus
# snapshot must land. Short runs still emit the guaranteed final event.
cargo run --release -q -p lbsa-bench --bin profile_t2 -- 1 --n 6 --ws \
  --trace "$smoke_dir/progress_smoke.trace.jsonl" \
  --progress-ms 50 \
  --metrics-out "$smoke_dir/progress_smoke.prom" 2>/dev/null
cargo run --release -q -p lbsa-bench --bin exp_report -- \
  --validate-trace "$smoke_dir/progress_smoke.trace.jsonl"
cargo run --release -q -p lbsa-bench --bin obs_top -- \
  "$smoke_dir/progress_smoke.trace.jsonl" --no-clear >/dev/null
grep -q "explore_configs_total" "$smoke_dir/progress_smoke.prom"

echo "==> per-worker trace smoke (obs_analyze on the work-stealing trace)"
# The smoke trace above is a work-stealing run, so its summary must carry
# the per-worker rows folded from the workers' ws.done sign-offs.
cargo run --release -q -p lbsa-bench --bin obs_analyze -- \
  "$smoke_dir/progress_smoke.trace.jsonl" --summary-json >"$smoke_dir/ws_summary.json"
grep -q '"workers"' "$smoke_dir/ws_summary.json"

echo "==> perf smoke (explore_scaling -> BENCH_explore.json gates)"
# Regenerate BENCH_explore.json from a fresh bench run and gate it against
# the committed copy (engine-vs-seed speedup floors, work-stealing
# speedup floors, symmetry-reduction ratio). The committed file is restored
# afterwards — regenerating the tracked copy is a deliberate, separate act
# (see ci.yml, which uploads the fresh file as an artifact instead).
cp BENCH_explore.json "$smoke_dir/BENCH_committed.json"
restore_bench() { cp "$smoke_dir/BENCH_committed.json" BENCH_explore.json; rm -rf "$smoke_dir"; }
trap 'restore_bench' EXIT
cargo bench -q -p lbsa-bench --bench explore_scaling >/dev/null
# --history accumulates the run into BENCH_history.jsonl (append-only
# perf trajectory; committing the grown file is a deliberate act, like
# regenerating BENCH_explore.json). The regression comparison against the
# trailing same-host median is advisory: it warns, it does not gate.
# A failing perf_smoke gate still fails the script, but only after the
# advisory comparison has run, so its output is there to read either way.
perf_status=0
cargo run --release -q -p lbsa-bench --bin perf_smoke -- \
  "$smoke_dir/BENCH_committed.json" BENCH_explore.json \
  --history BENCH_history.jsonl || perf_status=$?
cargo run --release -q -p lbsa-bench --bin obs_analyze -- \
  --regress BENCH_history.jsonl \
  || echo "WARNING: perf regression vs trailing median (advisory)"
if [ "$perf_status" -ne 0 ]; then
  echo "tier-1: FAILED (perf smoke exited $perf_status)"
  exit "$perf_status"
fi

echo "tier-1: OK"
