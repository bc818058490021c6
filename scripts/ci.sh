#!/usr/bin/env bash
# Offline CI gate: build, test, lint (when available), and the parallel-replay
# performance smoke test. No step needs network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

# `cargo test` builds no bench target and the clippy step below is skipped
# where clippy is missing, so build the benches here.
echo "==> cargo bench --no-run (offline)"
cargo bench --no-run --offline --workspace

echo "==> cargo test (offline)"
cargo test -q --offline --workspace

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    cargo clippy -q --offline --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed, skipping"
fi

echo "==> counter audit (attribution invariants + DES golden + 1-vs-N thread equality + differential)"
cargo test -q --offline --release -p alpha-pim-sim --test counter_invariants
cargo test -q --offline --release -p alpha-pim-sim --test des_golden
cargo test -q --offline --release -p alpha-pim --test cycle_invariants
cargo test -q --offline --release -p alpha-pim-bench --test differential
cargo test -q --offline --release -p alpha-pim-bench --test golden_reports

echo "==> fault audit (ledger/partition invariants + app-level chaos suite)"
cargo test -q --offline --release -p alpha-pim-sim --test fault_invariants
cargo test -q --offline --release -p alpha-pim-bench --test chaos

echo "==> integrity audit (ABFT merge guard, silent-corruption ledgers, quarantine)"
cargo test -q --offline --release -p alpha-pim-bench --test integrity

echo "==> perfsmoke (parallel replay: bit-identical reports + speedup)"
cargo run --release --offline -p alpha-pim-bench --bin perfsmoke
echo "==> BENCH_parallel_sim.json:"
cat BENCH_parallel_sim.json

echo "==> panic-free lint (typed errors, never panics, every sparse + core source)"
# Library code must return typed errors, never panic. Test modules
# (everything from the first `#[cfg(test)]` line down) are exempt. Hard
# panic paths (unwrap / panic! / unreachable! / todo! / unimplemented!)
# are banned in every non-test source below crates/sparse/src and
# crates/core/src; `.expect(...)` is additionally banned except in the
# files listed here, where every use documents an internal invariant the
# surrounding code establishes (bounds already validated, indices
# constructed unique, ...). Extend the list only with an expect message
# that names its invariant.
INVARIANT_EXPECT_OK="
crates/core/src/adaptive.rs
crates/core/src/apps/kcore.rs
crates/core/src/apps/ppr.rs
crates/core/src/apps/triangles.rs
crates/core/src/cost_model.rs
crates/core/src/gblas.rs
crates/core/src/kernel/integrity.rs
crates/core/src/kernel/layout.rs
crates/sparse/src/coo.rs
crates/sparse/src/csc.rs
crates/sparse/src/csr.rs
crates/sparse/src/gen/mod.rs
crates/sparse/src/gen/models.rs
crates/sparse/src/graph.rs
crates/sparse/src/partition.rs
crates/sparse/src/reorder.rs
"
panic_lint() {
    local file="$1" mode="$2"
    local body pattern
    pattern='\.unwrap\(\)|panic!|unreachable!|todo!|unimplemented!'
    if [ "$mode" = strict ]; then
        pattern="$pattern"'|\.expect\('
    fi
    body="$(sed '/#\[cfg(test)\]/,$d' "$file")"
    if printf '%s\n' "$body" | grep -nE "$pattern"; then
        echo "FAIL: panic path in non-test code of $file" >&2
        return 1
    fi
}
LINTED=0
for f in $(find crates/sparse/src crates/core/src -name '*.rs' | sort); do
    mode=strict
    case "$INVARIANT_EXPECT_OK" in
        *"
$f
"*) mode=invariant-expects ;;
    esac
    panic_lint "$f" "$mode"
    LINTED=$((LINTED + 1))
done
echo "panic-free lint ok ($LINTED files)"

echo "==> calibration audit (analytic fast path vs exact replay, 13 graphs x 3 apps)"
# Fails if any graph x app pair exceeds the 5% relative makespan error
# bound, if any pair regresses past its frozen per-graph bound, or if the
# analytic path's result values / traffic counters diverge from replay.
cargo run --release --offline -p alpha-pim-bench --bin alpha_pim_cli -- \
    calibrate all --scale 0.02 --dpus 64 --queries 2 --bound 0.05 --frozen \
    --json BENCH_calibration.json
echo "==> BENCH_calibration.json summary:"
grep -o '"max_rel_error": [0-9.]*' BENCH_calibration.json

echo "==> sdc audit (seeded silent-corruption sweep, 13 graphs x 3 apps, 1 vs 4 threads)"
# The CLI gate exits non-zero on any escaped corruption, any sdc.* ledger
# remainder, or any corrected answer that is not bit-identical to the
# fault-free run.
cargo run --release --offline -p alpha-pim-bench --bin alpha_pim_cli -- \
    sdc all --scale 0.02 --dpus 64 --flip-rate 0.08 --json BENCH_sdc_audit.json
echo "==> BENCH_sdc_audit.json summary:"
grep -o '"injected": [0-9]*\|"escaped": [0-9]*\|"escaped_unverified": [0-9]*\|"passes": [a-z]*' BENCH_sdc_audit.json

echo "==> crash recovery audit (checkpoint/restore bit-identity sweep)"
cargo test -q --offline --release -p alpha-pim-bench --test crash_recovery

echo "==> service audit (weighted fairness, ledger balance, thread determinism)"
cargo test -q --offline --release -p alpha-pim-bench --test service

echo "==> serve smoke (seeded 64-query trace: batched == sequential fingerprints)"
cargo run --release --offline -p alpha-pim-bench --bin alpha_pim_cli -- \
    serve A302 --scale 0.02 --dpus 64 --policy spmv1d \
    --queries 64 --batch 16 --json BENCH_batched_serve.json
echo "==> BENCH_batched_serve.json:"
cat BENCH_batched_serve.json

echo "==> crash recovery smoke (kill a 64-query trace, resume it, diff fingerprints)"
CKPT_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR"' EXIT
SERVE_FLAGS=(serve A302 --scale 0.02 --dpus 64 --policy spmv1d --queries 64 --batch 64)
# The dead host: crash the batch at superstep boundary 3, leaving the
# snapshot + write-ahead journal in $CKPT_DIR.
cargo run --release --offline -p alpha-pim-bench --bin alpha_pim_cli -- \
    "${SERVE_FLAGS[@]}" --checkpoint-dir "$CKPT_DIR" --crash-after 3
# The restarted host: resume from disk and finish the trace.
cargo run --release --offline -p alpha-pim-bench --bin alpha_pim_cli -- \
    "${SERVE_FLAGS[@]}" --checkpoint-dir "$CKPT_DIR" --resume --json BENCH_crash_recovery.json
# An uninterrupted run of the same trace for the fingerprint diff.
cargo run --release --offline -p alpha-pim-bench --bin alpha_pim_cli -- \
    "${SERVE_FLAGS[@]}" --json BENCH_crash_recovery_base.json
FP_RESUMED="$(grep -o '"fingerprint": "[^"]*"' BENCH_crash_recovery.json)"
FP_BASE="$(grep -o '"fingerprint": "[^"]*"' BENCH_crash_recovery_base.json)"
if [ "$FP_RESUMED" != "$FP_BASE" ]; then
    echo "FAIL: resumed fingerprint $FP_RESUMED != uninterrupted $FP_BASE" >&2
    exit 1
fi
rm -f BENCH_crash_recovery_base.json
echo "crash recovery smoke ok: resumed == uninterrupted ($FP_RESUMED)"
echo "==> BENCH_crash_recovery.json:"
cat BENCH_crash_recovery.json

echo "==> mutation audit (incremental vs rebuild differential gate, all catalog graphs)"
# Seeded insert/delete batches on every catalog graph; incremental BFS/SSSP/PPR
# must be bit-identical to a from-scratch rebuild at every epoch, at 1 and 4
# threads, with the delta.* ledgers balancing to zero remainder.
cargo test -q --offline --release -p alpha-pim-bench --test mutation_fuzz

echo "==> mutate smoke (4 structural epochs, per-epoch rebuild referee)"
# The CLI gate itself exits non-zero on any epoch whose incremental results
# diverge from the fresh-engine referee or whose ledgers don't balance.
cargo run --release --offline -p alpha-pim-bench --bin alpha_pim_cli -- \
    mutate A302 --scale 0.02 --dpus 64 --queries 12 --epochs 4 --ops 48 \
    --json BENCH_dynamic_serve.json
echo "==> BENCH_dynamic_serve.json summary:"
grep -o '"saved_fraction": [0-9.]*\|"differential_match": [a-z]*\|"ledgers_balanced": [a-z]*' BENCH_dynamic_serve.json

echo "==> service load smoke (100k-query open-loop trace, 3 tenants x 3 graphs, analytic path)"
# Sustained overload through the multi-tenant front-end: weighted-fair
# admission, priority rejection at the door, queue-wait shedding under the
# deadline budget — the command itself fails if the ledgers don't balance.
cargo run --release --offline -p alpha-pim-bench --bin alpha_pim_cli -- \
    serve-load as00,face,p2p-24 --scale 0.005 --dpus 32 --queries 100000 \
    --batch 32 --fast-path analytic --mean-gap 15000 --queue-capacity 4096 \
    --budget-cycles 100000000 --mix 4:4:1 --json BENCH_service_load.json
echo "==> BENCH_service_load.json summary:"
grep -o '"p50_latency_ms": [0-9.]*\|"p99_latency_ms": [0-9.]*\|"shed_rate": [0-9.]*' BENCH_service_load.json

echo "==> benchmark determinism audit (pimbench: tiny workloads, seeds 1 and 7919, 1 vs 2 threads)"
# The benchmark is a package with its own workspace; its test checks that
# every model metric, counter and answer fingerprint repeats bit for bit.
cargo test --release --offline --manifest-path pimbench/Cargo.toml

echo "==> benchmark at full size (paper-replay and analytic-serve, seed 1, minimum rounds)"
# The audit above runs 16-DPU workloads, where few partitions sit idle.
# These are the benchmark's own configurations (2,048 DPUs; the frozen
# full-size analytic-serve fingerprint). Each run exits non-zero on a
# wrong answer, a moved fingerprint or a library error.
for workload in paper-replay analytic-serve; do
    cargo run --release --quiet --offline --manifest-path pimbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0 --trace 0
done

echo "==> bench artifact trajectory"
./scripts/bench_summary.sh
