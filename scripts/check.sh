#!/usr/bin/env bash
# Full local gate: format, lints, release build, tests — all offline.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# --lib: the `tinyadc` core lib and the cli's `tinyadc` binary would
# collide on target/doc/tinyadc/ if bins were documented too.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --lib >/dev/null

# --workspace: the root manifest is both a package and the workspace
# root, so a bare `cargo build` compiles only the root package.
echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> cargo test"
cargo test --offline -q

# The packed popcount kernel and the parallel layer are correctness
# anchors: run their suites explicitly (and by name) so a kernel
# regression fails loudly even if the workspace test set is filtered.
echo "==> packed-kernel equivalence suite"
cargo test --offline -q --test packed_equivalence

# The exact integer path Eq. 1 licenses: bitwise equal to the reference
# loop and the packed kernel with identical hardware counters, and the
# packed fallback whenever the proof fails.
echo "==> exact-path equivalence suite"
cargo test --offline -q --test exact_path

echo "==> parallel determinism suite"
cargo test --offline -q --test parallel_determinism

# The resilience layer's acceptance gates: thread-count-invariant fault
# campaigns, bitwise-exact spare-column repair, CP damage dominance.
echo "==> resilience suite"
cargo test --offline -q --test resilience

# The observability layer's acceptance gates: bitwise-identical metric
# values across thread counts, and the docs/observability.md catalogue
# matching the registry exactly.
echo "==> observability determinism suite"
cargo test --offline -q --test obs_determinism

# The degraded-mode serving gates: thread-count-invariant non-ideal
# campaigns, zero-stress bitwise cleanliness on the compiled path, the
# IR-drop reference against the clean tile across kernel modes, and the
# deterministic escalation/retry ladder.
echo "==> degraded-mode serving suite"
cargo test --offline -q --test degraded_mode

# The serving front-end's acceptance gates, on a one-tenant registry:
# bitwise thread-count invariance of full replayed traces, exact
# flush-trigger timing, typed backpressure, the zero-alloc
# workspace-ring fixed point, and the driver failing fast on offers no
# retry can admit.
echo "==> serving front-end suite"
cargo test --offline -q --test serving

# The compiled-model registry's acceptance gates: bitwise-exact snapshot
# round trips across thread counts, zero-drop multi-tenant hot-swap
# replays, and tag-routing correctness through the shared queue.
echo "==> compiled-model registry suite"
cargo test --offline -q --test registry

# The execution engine's acceptance gates: datapath-vs-engine agreement
# on a trained model, the zero-steady-state-allocation workspace
# contract, and bitwise thread-count invariance of run_batch.
echo "==> compiled datapath equivalence suite"
cargo test --offline -q --test compiled_datapath

# End-to-end compile-once/run-many smoke through the CLI: compiles the
# quick-test network, runs both executors, prints their accuracies.
echo "==> compiled inference smoke run (--quick)"
cargo run --offline --release -p tinyadc-cli --bin tinyadc -- infer --quick 1 >/dev/null

# End-to-end fault-campaign smoke through the CLI (2 rates x 2 seeds):
# the command itself fails unless the report parses back exactly and the
# CP-pruned curve dominates the dense one.
echo "==> fault campaign smoke run (--quick)"
cargo run --offline --release -p tinyadc-cli --bin tinyadc -- faults --quick 1 >/dev/null

# End-to-end degraded-serving smoke through the CLI: trains dense and
# CP-pruned models, sweeps wire resistance x read noise x fault rate
# with health monitoring and spare-column repair, and fails unless the
# CP curve dominates the dense one under matched device stress.
echo "==> degraded serving campaign smoke run (--quick)"
cargo run --offline --release -p tinyadc-cli --bin tinyadc -- serve-degraded --quick 1 >/dev/null

# Snapshot persistence smoke through the CLI: `model save` compiles the
# quick network, persists the program, reloads it and fails unless the
# round trip is byte- and bit-identical; `model load` restores it cold.
echo "==> model snapshot save/load smoke run (--quick)"
snap_tmp="$(mktemp -u).tadp"
cargo run --offline --release -p tinyadc-cli --bin tinyadc -- \
    model save --quick 1 --out "$snap_tmp" >/dev/null
cargo run --offline --release -p tinyadc-cli --bin tinyadc -- \
    model load --in "$snap_tmp" >/dev/null
rm -f "$snap_tmp"

# End-to-end serving and registry bench smokes through the CLI, each
# twice. `bench serve` replays all three traces against dense and
# CP-pruned compilations and fails unless CP dominates dense at iso-p99
# on every trace; `bench registry` fails unless every hot-swapped replay
# completed all admitted requests. Two back-to-back runs of either must
# emit byte-identical JSON (the determinism contract the committed
# BENCH_serving.json and BENCH_registry.json rely on).
for bench in serve registry; do
    echo "==> $bench bench smoke run (--quick, twice, byte-identical)"
    out_a="$(mktemp)"; out_b="$(mktemp)"
    for out in "$out_a" "$out_b"; do
        cargo run --offline --release -p tinyadc-cli --bin tinyadc -- \
            bench "$bench" --quick 1 --out "$out" >/dev/null
    done
    if ! cmp -s "$out_a" "$out_b"; then
        echo "FAIL: two quick $bench bench runs emitted different bytes" >&2
        exit 1
    fi
    rm -f "$out_a" "$out_b"
done

# Smoke-run the perf harness so bench bit-rot (API drift, JSON emission)
# fails the gate offline; --quick keeps it to a few seconds. The run
# also feeds the speedup regression gate below.
echo "==> perf bench smoke run (--quick)"
cargo run --offline --release -p tinyadc-bench --bin perf -- --quick >/dev/null

# Speedup regression gate: the 4-worker run_batch speedup from the quick
# run must not fall below a recorded floor. On a host with >= 4 cores
# the floor is real scaling (2.0x); on smaller hosts the sweep measures
# oversubscription, so the floor degrades to a sanity bound (0.7x) that
# still catches pathological pool overhead (lock convoys, busy spins).
echo "==> run_batch speedup regression gate"
host_cores="$(nproc 2>/dev/null || echo 1)"
if [ "$host_cores" -ge 4 ]; then floor="2.0"; else floor="0.7"; fi
speedup_4t="$(sed -n 's/.*"name": "run_batch".*"speedup_4t": \([0-9.]*\).*/\1/p' \
    BENCH_parallel.quick.json)"
if [ -z "$speedup_4t" ]; then
    echo "FAIL: run_batch speedup_4t missing from BENCH_parallel.quick.json" >&2
    exit 1
fi
if ! awk -v s="$speedup_4t" -v f="$floor" 'BEGIN { exit !(s >= f) }'; then
    echo "FAIL: run_batch 4-worker speedup $speedup_4t below floor $floor" \
         "(host cores: $host_cores)" >&2
    exit 1
fi
echo "    run_batch speedup_4t $speedup_4t >= floor $floor (host cores: $host_cores)"

# Sparsity-dispatch gates (single-threaded, algorithmic — valid on any
# host): the occupancy-indexed kernel must beat the forced-dense kernel
# by >= 1.5x on the ~70%-zero post-ReLU conv microbench and > 1.3x on
# the sparse run_batch, while costing <= 5% on the fully dense control
# (the dispatch itself must be ~free when there is nothing to skip).
# The perf bin compiles the run_batch_relu70 program one ADC bit below
# the Eq. 1 proof so it keeps running the packed kernels (at or above
# the proof a clean program runs the exact integer GEMM), and reads the
# dense control as the median of many interleaved pairs.
echo "==> sparsity kernel-dispatch gates"
datapath_speedup() {
    sed -n 's/.*"name": "'"$1"'".*"speedup": \([0-9.]*\).*/\1/p' \
        BENCH_parallel.quick.json
}
for gate in "datapath_conv2d_relu70 1.5" "datapath_conv2d_dense 0.95" \
            "run_batch_relu70 1.3"; do
    name="${gate% *}"; floor="${gate#* }"
    s="$(datapath_speedup "$name")"
    if [ -z "$s" ]; then
        echo "FAIL: $name speedup missing from BENCH_parallel.quick.json" >&2
        exit 1
    fi
    if ! awk -v s="$s" -v f="$floor" 'BEGIN { exit !(s >= f) }'; then
        echo "FAIL: $name occupancy-vs-dense speedup $s below floor $floor" >&2
        exit 1
    fi
    echo "    $name speedup $s >= floor $floor"
done
# Informational, no floor: the packed kernel against the exact integer
# GEMM on the same compiled layer.
echo "    run_batch_exact exact-vs-packed speedup $(datapath_speedup run_batch_exact)"

# Pool-shutdown leak check: after set_threads(0) no pool worker may
# linger. The par unit test asserts pool_workers() == 0 post-quiesce;
# run it by name so a leak fails loudly here.
echo "==> pool shutdown leak check"
cargo test --offline -q -p tinyadc-par shutdown_leaves_no_workers_and_pool_respawns

# Observability report smoke: manifest + metrics + roll-up emission and
# the chrome://tracing span export through the CLI.
echo "==> observability report smoke run"
trace_tmp="$(mktemp)"
cargo run --offline --release -p tinyadc-cli --bin tinyadc -- report --trace "$trace_tmp" >/dev/null
rm -f "$trace_tmp"

echo "OK: all checks passed"
