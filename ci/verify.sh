#!/usr/bin/env bash
# CI verify job: the hard gates every change must pass before merge.
#
#   ./ci/verify.sh          # lint + engine/heuristic tests + perf/identity/allocation gates
#   ./ci/verify.sh --full   # additionally: full test suite + chaos/overload
#
# Each gated binary prints PASS/FAIL, writes its JSON report under
# target/verify/ (so a verify run never overwrites the checked-in
# BENCH_pr*.json records), and exits non-zero on any failed criterion;
# this script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT=target/verify
mkdir -p "$OUT"

echo "== gate 1/8: clippy -D warnings (whole workspace) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== gate 2/8: engine + heuristic + serve + nn + core + decima + identity tests =="
# Scheduler/plan/stats unit tests, the frontier and hot-mirror oracle
# proptests, the wake-path fast-vs-reference scenarios, the heuristic
# policies' tests and the serving layer's unit tests (router,
# supervisor, crash failover; well under a second of test time once
# built); then the nn, core and Decima tests, unit and integration (the
# parameter store's values stamp, the encoder memo, tape/inference
# identity, the arena-vs-reference-tape gradient equivalence, Decima's
# replay and training; about 25 s in debug); then the root package's two
# inference identity suites: tape vs tape-free values and decisions
# (incl. the fused tree-conv filter against the decomposed reference
# tape) and the encoder memo in lockstep with cold and tape decisions
# (about 25 s in debug).
cargo test -q -p lsched-engine -p lsched-sched -p lsched-serve
cargo test -q -p lsched-nn -p lsched-core -p lsched-decima
cargo test -q --test infer_equivalence --test encoder_memo_lockstep

echo "== gate 3/8: build (release, count-allocs) =="
cargo build --release -p lsched-bench --features count-allocs \
    --bin sim_throughput --bin infer_latency --bin shard_scale \
    --bin train_throughput --bin chaos_serve

echo "== gate 4/8: sim_throughput --mpl 1024 =="
# Tick-batched event loop vs full-rescan reference at mpl 1024:
# >=2x aggregate speedup end to end (total wall, scheduler time
# included), bit-identical results (fault-free and
# faulted), bursty-arrival decision-latency histogram within bounds,
# zero steady-state allocations per event.
target/release/sim_throughput --mpl 1024 --out "$OUT/BENCH_pr6.json"

echo "== gate 5/8: shard_scale smoke (1,2 shards) =="
# Serving-layer smoke: 1-shard routed run bit-identical to the unsharded
# simulator, repeat bit-identity under the standard fault matrix, and
# the scaling-shape gate for the host class (monotone + >=0.7x/shard at
# 8 shards on multicore; flat-no-overhead on 1-CPU hosts). Each sweep
# point is timed by the median of repeated serves totalling >= 0.2 s
# (the bin prints the serve count). The full 1->16 sweep runs under
# --full.
target/release/shard_scale --shards 1,2 --mpl 128 --out "$OUT/BENCH_pr8.json"

echo "== gate 6/8: infer_latency (incl. batched section) =="
# Reference-tape vs tape-free identity + >=3x per-decision speedup,
# plus the cross-event batched path: bit-identity (greedy + sampled)
# against the sequential loop and zero steady-state allocations per
# batched pass. The arena-tape ratio is reported informationally. Both
# allocation passes run memo-warm and also decide a copy of every
# snapshot with one operator's dynamic tail moved per query, so the
# encoder memo's partial-reuse (dirty-cone) path is counted too; the
# per-decision pass also takes one predictive-admission verdict. A
# third count runs warmed-up LSchedScheduler::on_tick calls (snapshot
# included) and requires zero allocations besides the decision lists
# they return. Each counted pass must both reuse and recompute cached
# tree-conv filter products, so both paths run at zero allocations.
target/release/infer_latency --reps 100 --out "$OUT/BENCH_pr3.json"

echo "== gate 7/8: train_throughput smoke =="
# Fused arena-tape gradient phase vs the per-decision tape baseline:
# >=3x episodes/sec at the default TrainConfig, gradients / params /
# Adam state bit-identical to the reference-tape oracle, and zero
# steady-state allocations per gradient step (recording, the pinned-
# parameter slot table, backward, unpinning and Adam). Reports the
# fused tape's nodes, value floats and gradient floats per replayed
# decision. The longer sweep runs under --full.
target/release/train_throughput --reps 12 --out "$OUT/BENCH_pr9.json"

echo "== gate 8/8: chaos_serve smoke (supervised shard failover) =="
# Supervised serving smoke: 2 shards with one forced crash — every query
# gets exactly one fate (none lost, none duplicated), the crashed run
# repeats bit-identically, a poisoned shard's panic stays inside the
# supervisor, and the 8-shard/1-crash failover makespan stays <=2x the
# fault-free run. The full crash/restart/slow sweep runs under --full.
target/release/chaos_serve --mpl 32 --out "$OUT/BENCH_pr10.json"

if [[ "${1:-}" == "--full" ]]; then
    echo "== full: test suite =="
    cargo test -q --workspace
    echo "== full: chaos + overload regression gates =="
    # Overload (PR7 gates included): predictive admission must match or
    # beat the hysteresis gate on P99 at the calibrated 2x overload
    # point, hold its starvation bound across the chaos seed matrix,
    # stay bit-identical under the standard fault matrix, and degrade
    # to hysteresis (never unguarded) when the predictor head is
    # poisoned. Writes BENCH_pr7.json.
    cargo build --release -p lsched-bench --bin chaos --bin overload
    target/release/chaos --out "$OUT/BENCH_pr2.json"
    target/release/overload --out "$OUT/BENCH_pr7.json"
    echo "== full: shard_scale 1->16 sweep =="
    # Weak-scaling sweep at mpl 1024/shard across 1,2,4,8,16 shards with
    # both bit-identity gates; overwrites the smoke BENCH_pr8.json with
    # the full sweep.
    target/release/shard_scale --out "$OUT/BENCH_pr8.json"
    echo "== full: train_throughput sweep =="
    # Larger episode/rep sweep of the gated gradient-phase benchmark;
    # overwrites the smoke BENCH_pr9.json.
    target/release/train_throughput --full --out "$OUT/BENCH_pr9.json"
    echo "== full: chaos_serve crash/restart/slow sweep =="
    # Seeded shard-fault matrices (crash, crash+restart, slow, poison)
    # across 4/8/16 shards x 5 seeds, each run twice: repeat
    # bit-identity and the exactly-once partition on every run;
    # overwrites the smoke BENCH_pr10.json with the full sweep.
    target/release/chaos_serve --full --out "$OUT/BENCH_pr10.json"
fi

echo "verify: all gates passed"
