#!/bin/bash
# Repo CI gate: formatting, lints, build, tests, benches, regression gate.
# Run before merging and as the run_experiments.sh preflight (skip there
# with DAR_SKIP_CI=1).
#
# Every check is a named, individually-timed stage. A full run writes
# results/ci_report.json (stage -> status/duration) and always ends with
# a summary table, pass or fail. A one-stage run writes its report to
# target/ci_report.json instead, so it never overwrites the committed
# full-run report.
#
#   ./ci.sh                   # full gate
#   ./ci.sh --stage clippy    # one stage, same table; report under target/
#   ./ci.sh --list            # stage names
#   ./ci.sh --timings         # also print the three slowest stages
#
# Stages are ordered fail-fast: the cheap text gates (fmt, ops-deny,
# kernel-deny) run before anything that compiles, so a trivial rejection
# costs seconds, not a release build.
#
# The benchgate stage compares fresh BENCH_*.json against the trajectory
# committed at HEAD; DAR_BENCHGATE=off skips that comparison for machines
# whose absolute throughput is incomparable to the committed baseline.
#
# DAR_CI_REPORT overrides the report path of either kind of run;
# DAR_CI_SELFTEST=1 exposes a deliberately failing fake stage so the
# report machinery itself can be regression-tested (tests/ci_report.rs).
set -uo pipefail
cd "$(dirname "$0")"

# ---- stage implementations ---------------------------------------------

st_fmt() { cargo fmt --all -- --check; }

st_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }

st_build() { cargo build --release; }

# The shim crates (dar-par and the offline rand/proptest/criterion
# stand-ins) live under crates/shims/, which the workspace excludes so the
# shims stay dependency-free; their own tests must be invoked standalone.
st_shim_tests() {
    local shim
    for shim in dar-par rand proptest criterion; do
        cargo test --manifest-path "crates/shims/$shim/Cargo.toml" --release -q || return 1
    done
}

# The repository benchmark (darbench/, BENCHMARK.json) is its own Cargo
# workspace built against the public API: its self-tests also prove it
# still compiles after API changes in the crates it drives.
st_darbench() { cargo test --release --offline --manifest-path darbench/Cargo.toml; }

# The benchmark's own output checks (darbench/README.md: every answer
# against a solo `infer`, exactly-once outcomes, finite losses), which
# its self-tests never run: both workloads through the BENCHMARK.json
# command on a short run (~40 s on 2 vCPUs). A run passes only if its
# last line reports `"correct": true` and `"failed": 0`.
st_darbench_smoke() {
    local w last
    for w in dar dar_light_swap; do
        last=$(cargo run --release --quiet --offline --manifest-path darbench/Cargo.toml -- \
            --workload "$w" --seed 1 --seconds 3 --trace 0 | tail -n 1) || return 1
        echo "$w: $last"
        [[ $last == *'"correct": true,'* && $last == *'"failed": 0,'* ]] ||
            { echo "ci.sh: darbench $w run is not correct"; return 1; }
    done
}

# The full suite runs under two thread budgets. Results must not depend
# on the budget (DESIGN.md §9) — a test that passes serially but fails
# parallel (or vice versa) is a determinism bug, not flakiness. These two
# stages are the only place each suite runs: the serving chaos harness
# (serving_chaos, §10), the online loop (online_loop, §13), scale-out
# (scale_out, §14), crash recovery (crash_recovery, §15), self-healing
# (self_healing, §16), the numeric fuzz (numeric_fuzz, §11), the obs
# goldens (obs_determinism) and the kernel-backend equivalence harness
# (kernel_equivalence) all run under both budgets here, and a failure
# names its test binary. To rerun one suite under one budget:
#   DAR_THREADS=4 cargo test --release --test self_healing
st_test_t1() { DAR_THREADS=1 cargo test --workspace --release -q; }
st_test_t4() { DAR_THREADS=4 cargo test --workspace --release -q; }

# Record sustained throughput + tail latency of the serving demo into
# results/serve_bench.txt and the obs_serve.json observability snapshot.
st_serve_bench() { cargo run --release --bin dar-serve -- --requests 400 --out results; }

# Saturation sweep across 1/2/4/8 replica pools on the light workload;
# writes the BENCH_serve.json trajectory point (aggregate rps at 8
# replicas plus per-width rps/p99/steal columns). The binary exits
# non-zero if any request fails or any worker panics.
st_serve_saturation() {
    cargo run --release --bin dar-serve -- --saturate --requests 1024 --out results
}

# Self-healing bench: stall-detection latency and hedge overhead at
# 1/2/4 replicas, written to results/BENCH_health.json for the benchgate
# stage. The binary exits non-zero if a quarantine is missed, a stranded
# request resolves untyped, or hedging fails.
st_health_bench() {
    cargo run --release --bin dar-serve -- --health-bench --out results
}

# Closed online loop demo: train-while-serve with canary promotion and
# auto-rollback, recorded into results/BENCH_online.json and the
# obs_online.json snapshot. The binary exits non-zero on any dropped
# request, trainer death, or a promotion that failed its accuracy bar.
st_loop_bench() { cargo run --release --bin dar-loop -- --rounds 3 --out results; }

# Kill-and-recover drill fixture end-to-end (fresh run then a --recover
# resume over the same journal), plus the WAL replay-latency trajectory
# point written to results/BENCH_recovery.json for the benchgate stage.
st_recovery_drill() {
    cargo run --release --bin dar-loop -- \
        --drill --rounds 4 --state-dir target/drill-ci --wal-pad 20000 --out results &&
        cargo run --release --bin dar-loop -- \
            --drill --rounds 4 --state-dir target/drill-ci --recover
}

# Numeric containment (DESIGN.md §11): the op kernels must stay free of
# unwrap/expect — the module-level deny makes the clippy stage fail on
# any new site, so CI only has to assert the attribute is still there.
st_ops_deny() {
    grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' crates/tensor/src/ops/mod.rs \
        || { echo "ci.sh: crates/tensor/src/ops lost its unwrap/expect deny"; return 1; }
}

# Unsafe containment for the kernel backends (DESIGN.md §17): every
# `unsafe` block under crates/tensor/src/ops/ must live under the
# module-level undocumented-unsafe-blocks deny (so clippy rejects any
# block without a `// SAFETY:` comment) — and as a belt-and-braces text
# check, any ops/ file using the `unsafe` keyword must carry at least one
# `// SAFETY:` comment.
st_kernel_deny() {
    grep -q 'deny(clippy::undocumented_unsafe_blocks)' crates/tensor/src/ops/mod.rs \
        || { echo "ci.sh: crates/tensor/src/ops lost its undocumented_unsafe_blocks deny"; return 1; }
    local bad=0 f
    while IFS= read -r f; do
        grep -q '// SAFETY:' "$f" ||
            { echo "ci.sh: $f uses unsafe without a // SAFETY: comment"; bad=1; }
    done < <(grep -rlw 'unsafe' crates/tensor/src/ops --include='*.rs')
    return $bad
}

# Per-kernel throughput trajectory: best-of-3 gemm/bmm/gru_bptt/softmax/
# layer_norm reference vs blocked plus end-to-end examples/s, recorded
# into results/BENCH_kernels.json for the benchgate stage. The binary
# exits non-zero below the design floors (blocked >= 2x reference on
# gemm and gru_bptt, >= 1.3x end to end) on SIMD-capable machines.
st_kernel_bench() { cargo run --release --bin numbench -- --kernels --out results; }

# Observability overhead benchmark: instrumentation disabled vs enabled on
# the same seeded workload, recorded into results/BENCH_obs.json. The
# binary itself exits non-zero past the 3% budget (DESIGN.md §12).
st_obsbench() { cargo run --release --bin obsbench -- --out results; }

# Regression gate over the committed bench trajectory: extract the
# BENCH_*.json baseline from HEAD (the binary never runs git itself),
# prove the gate catches a synthetic regression, then compare the fresh
# points produced by the bench stages above.
st_benchgate() {
    cargo run --release --bin benchgate -- --self-test || return 1
    local bl=target/benchgate/baseline
    rm -rf "$bl" && mkdir -p "$bl"
    local f
    for f in BENCH_serve.json BENCH_obs.json BENCH_online.json \
        BENCH_recovery.json BENCH_health.json BENCH_kernels.json; do
        git show "HEAD:results/$f" > "$bl/$f" 2>/dev/null || rm -f "$bl/$f"
    done
    cargo run --release --bin benchgate -- --baseline "$bl" --fresh results
}

# Deliberately failing fake stage, only exposed under DAR_CI_SELFTEST=1:
# tests/ci_report.rs drives it to prove a failed run still writes a valid
# report.
st_selftest_fail() {
    echo "ci.sh: selftest-fail stage failing on purpose"
    return 1
}

# ---- stage driver -------------------------------------------------------

# Fail-fast order: text gates (fmt, ops-deny, kernel-deny) cost seconds
# and run before anything build-heavy; clippy compiles but still beats a
# full release build + test sweep.
STAGE_NAMES=(fmt ops-deny kernel-deny clippy build shim-tests darbench darbench-smoke test-t1 test-t4
    serve-bench serve-saturation health-bench loop-bench recovery-drill
    obsbench kernel-bench benchgate)
[[ ${DAR_CI_SELFTEST:-0} == 1 ]] && STAGE_NAMES+=(selftest-fail)

REPORT_PATH="${DAR_CI_REPORT:-results/ci_report.json}"
TIMINGS=0 # may be set by --timings below, read by the summary trap

RAN_NAMES=()
RAN_STATUS=()
RAN_SECS=()

# Always emits valid JSON: zero stages ran (e.g. an unknown --stage name)
# produces an empty stages map, and `last` is only consulted inside the
# loop, so the failure path — where the trap fires mid-run — closes every
# brace it opened.
write_report() {
    mkdir -p "$(dirname "$REPORT_PATH")"
    {
        echo '{'
        echo '  "schema_version": 1,'
        echo '  "stages": {'
        local i last=$((${#RAN_NAMES[@]} - 1))
        for i in "${!RAN_NAMES[@]}"; do
            local comma=','
            [[ $i -eq $last ]] && comma=''
            printf '    "%s": {"status": "%s", "seconds": %s}%s\n' \
                "${RAN_NAMES[$i]}" "${RAN_STATUS[$i]}" "${RAN_SECS[$i]}" "$comma"
        done
        echo '  }'
        echo '}'
    } > "$REPORT_PATH"
}

summary() {
    write_report
    [[ ${#RAN_NAMES[@]} -eq 0 ]] && return 0
    echo
    echo "ci.sh summary ($REPORT_PATH):"
    printf '  %-16s %-6s %8s\n' stage status seconds
    local i
    for i in "${!RAN_NAMES[@]}"; do
        printf '  %-16s %-6s %8s\n' \
            "${RAN_NAMES[$i]}" "${RAN_STATUS[$i]}" "${RAN_SECS[$i]}"
    done
    if [[ $TIMINGS == 1 ]]; then
        echo
        echo "  slowest stages:"
        for i in "${!RAN_NAMES[@]}"; do
            printf '%s %s\n' "${RAN_SECS[$i]}" "${RAN_NAMES[$i]}"
        done | sort -rn | head -3 | while read -r secs name; do
            printf '  %-16s %15ss\n' "$name" "$secs"
        done
    fi
}
trap summary EXIT

run_stage() {
    local name="$1" fn="$2"
    echo "=== $name ==="
    local start=$SECONDS status=ok
    "$fn" || status=FAIL
    RAN_NAMES+=("$name")
    RAN_STATUS+=("$status")
    RAN_SECS+=($((SECONDS - start)))
    if [[ $status == FAIL ]]; then
        echo "ci.sh: stage '$name' FAILED"
        exit 1
    fi
}

TIMINGS=0
for arg in "$@"; do
    [[ $arg == --timings ]] && TIMINGS=1
done

ONLY=""
case "${1:-}" in
    --stage)
        # Set before anything can exit: the EXIT trap writes the report.
        REPORT_PATH="${DAR_CI_REPORT:-target/ci_report.json}"
        ONLY="${2:?usage: ci.sh --stage <name>}"
        if [[ ! " ${STAGE_NAMES[*]} " == *" $ONLY "* ]]; then
            echo "ci.sh: unknown stage '$ONLY' (try --list)"
            exit 2
        fi
        ;;
    --list)
        trap - EXIT # listing must not touch the report
        printf '%s\n' "${STAGE_NAMES[@]}"
        exit 0
        ;;
    -h | --help)
        trap - EXIT
        echo "usage: ci.sh [--stage <name>] [--list] [--timings]"
        exit 0
        ;;
esac

for name in "${STAGE_NAMES[@]}"; do
    [[ -n $ONLY && $name != "$ONLY" ]] && continue
    run_stage "$name" "st_${name//-/_}"
done

echo "ci.sh: all checks passed"
