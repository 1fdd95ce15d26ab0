//! `benchgate` — CI regression gate over the committed bench trajectory.
//!
//! Compares freshly-measured `BENCH_*.json` points against the baseline
//! committed in git (CI extracts `git show HEAD:results/BENCH_*.json`
//! into a baseline directory; this binary never runs git itself). A
//! throughput metric may not drop more than 10% below baseline and a
//! latency metric may not inflate more than 15% above it — past either
//! line the gate exits non-zero and CI fails.
//!
//! ```sh
//! benchgate --baseline target/benchgate/baseline --fresh results
//! benchgate --self-test        # gate must fail a synthetic regression
//! ```
//!
//! Escape hatch: `DAR_BENCHGATE=off` skips the comparison entirely (exit
//! 0) — for machines whose absolute throughput is incomparable to the
//! one that produced the committed trajectory. Use it to land a change
//! that legitimately moves a bench number, then commit the fresh point
//! as the new baseline.

use std::path::Path;

use dar::cli::{bool_flag, flag};
use dar::obs::json::parse_flat;

/// Higher-is-better metrics per trajectory file: fresh must stay above
/// `(1 - MAX_THROUGHPUT_DROP)` × baseline.
const THROUGHPUT_METRICS: &[(&str, &str)] = &[
    ("BENCH_serve.json", "throughput_rps"),
    ("BENCH_obs.json", "on_examples_per_s"),
    ("BENCH_online.json", "throughput_rps"),
    ("BENCH_kernels.json", "gemm_blocked_gflops"),
    ("BENCH_kernels.json", "gru_bptt_blocked_seq_per_s"),
    ("BENCH_kernels.json", "softmax_blocked_melem_per_s"),
    ("BENCH_kernels.json", "layer_norm_blocked_melem_per_s"),
    ("BENCH_kernels.json", "e2e_blocked_examples_per_s"),
    ("BENCH_kernels.json", "gemm_speedup"),
    ("BENCH_kernels.json", "gru_bptt_speedup"),
    ("BENCH_kernels.json", "e2e_speedup"),
];

/// Lower-is-better metrics: fresh must stay below
/// `(1 + MAX_LATENCY_INFLATION)` × baseline.
const LATENCY_METRICS: &[(&str, &str)] = &[
    ("BENCH_serve.json", "p99_us"),
    ("BENCH_online.json", "p99_us"),
    ("BENCH_recovery.json", "replay_us"),
    ("BENCH_health.json", "detection_us"),
    ("BENCH_health.json", "hedge_overhead_us"),
];

/// Scale-context keys per file: when both sides carry the key and the
/// values differ, that file's points were measured at different scales
/// (e.g. a 1-worker baseline against an 8-replica saturation sweep) and
/// comparing them is meaningless — every metric in the file is skipped
/// with a note instead of gating. A side *missing* the key still gates:
/// only a known mismatch disarms the comparison.
const CONTEXT_KEYS: &[(&str, &str)] = &[
    ("BENCH_serve.json", "workers"),
    // A scalar-only box produces a wholly different kernel trajectory
    // than an AVX2 one; only same-level points are comparable.
    ("BENCH_kernels.json", "simd_level"),
];

const MAX_THROUGHPUT_DROP: f64 = 0.10;
const MAX_LATENCY_INFLATION: f64 = 0.15;

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
}

fn check_throughput(baseline: f64, fresh: f64) -> Verdict {
    if fresh < baseline * (1.0 - MAX_THROUGHPUT_DROP) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn check_latency(baseline: f64, fresh: f64) -> Verdict {
    if fresh > baseline * (1.0 + MAX_LATENCY_INFLATION) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn metric(dir: &Path, file: &str, key: &str) -> Result<Option<f64>, String> {
    let path = dir.join(file);
    if !path.exists() {
        return Ok(None);
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let map = parse_flat(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    match map.get(key) {
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("{file}:{key} is not a number")),
        None => Ok(None),
    }
}

/// The file's scale contexts on both sides, when they disagree.
fn context_mismatch(
    baseline: &Path,
    fresh: &Path,
    file: &str,
) -> Result<Option<(&'static str, f64, f64)>, String> {
    for &(f, key) in CONTEXT_KEYS {
        if f != file {
            continue;
        }
        let (Some(b), Some(n)) = (metric(baseline, file, key)?, metric(fresh, file, key)?) else {
            continue;
        };
        if b != n {
            return Ok(Some((key, b, n)));
        }
    }
    Ok(None)
}

/// Run every gate over `baseline` vs `fresh`. Returns the failures; an
/// empty vec is a pass. A file or key missing on the *baseline* side is
/// skipped with a note (a brand-new bench has no history to regress
/// from); missing on the *fresh* side it is an error — the bench that
/// should have produced it did not run.
fn run_gate(baseline: &Path, fresh: &Path) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let checks = THROUGHPUT_METRICS
        .iter()
        .map(|&(f, k)| (f, k, true))
        .chain(LATENCY_METRICS.iter().map(|&(f, k)| (f, k, false)));
    for (file, key, higher_is_better) in checks {
        let Some(base) = metric(baseline, file, key)? else {
            println!("benchgate: {file}:{key} has no baseline yet — skipping");
            continue;
        };
        if let Some((ckey, bw, nw)) = context_mismatch(baseline, fresh, file)? {
            println!(
                "benchgate: {file}:{key} baseline measured at {ckey}={bw}, fresh at \
                 {ckey}={nw} — incomparable scales, skipping"
            );
            continue;
        }
        let Some(new) = metric(fresh, file, key)? else {
            return Err(format!(
                "benchgate: {file}:{key} missing from fresh results — did the bench run?"
            ));
        };
        let (verdict, direction, limit_pct) = if higher_is_better {
            (
                check_throughput(base, new),
                "drop",
                MAX_THROUGHPUT_DROP * 100.0,
            )
        } else {
            (
                check_latency(base, new),
                "inflation",
                MAX_LATENCY_INFLATION * 100.0,
            )
        };
        let delta_pct = (new / base - 1.0) * 100.0;
        println!("benchgate: {file}:{key} baseline {base:.2} fresh {new:.2} ({delta_pct:+.1}%)");
        if verdict == Verdict::Regressed {
            failures.push(format!(
                "{file}:{key} {direction} beyond {limit_pct:.0}%: baseline {base:.2}, fresh {new:.2} ({delta_pct:+.1}%)"
            ));
        }
    }
    Ok(failures)
}

/// The gate must catch a synthetic regression and pass an identical
/// point — the negative test CI runs on every build.
fn self_test() {
    let dir = std::env::temp_dir().join(format!("dar_benchgate_{}", std::process::id()));
    let base = dir.join("baseline");
    let fresh = dir.join("fresh");
    std::fs::create_dir_all(&base).expect("creating self-test baseline dir");
    std::fs::create_dir_all(&fresh).expect("creating self-test fresh dir");

    let serve_base = r#"{"throughput_rps": 1000.0, "p99_us": 10000}"#;
    let obs = r#"{"on_examples_per_s": 480.0}"#;
    let online = r#"{"throughput_rps": 200.0, "p99_us": 8000}"#;
    let recovery = r#"{"replay_records": 20000, "replay_us": 50000}"#;
    let health = r#"{"detection_us": 300000, "hedge_overhead_us": 4000}"#;
    let kernels = r#"{"simd_level": 2, "gemm_blocked_gflops": 60.0, "gru_bptt_blocked_seq_per_s": 12000.0, "softmax_blocked_melem_per_s": 1000.0, "layer_norm_blocked_melem_per_s": 1200.0, "e2e_blocked_examples_per_s": 2000.0, "gemm_speedup": 4.0, "gru_bptt_speedup": 2.5, "e2e_speedup": 1.6}"#;
    std::fs::write(base.join("BENCH_serve.json"), serve_base).expect("writing baseline");
    std::fs::write(base.join("BENCH_obs.json"), obs).expect("writing baseline");
    std::fs::write(base.join("BENCH_online.json"), online).expect("writing baseline");
    std::fs::write(base.join("BENCH_recovery.json"), recovery).expect("writing baseline");
    std::fs::write(base.join("BENCH_health.json"), health).expect("writing baseline");
    std::fs::write(base.join("BENCH_kernels.json"), kernels).expect("writing baseline");

    // Identical fresh point: must pass.
    std::fs::write(fresh.join("BENCH_serve.json"), serve_base).expect("writing fresh");
    std::fs::write(fresh.join("BENCH_obs.json"), obs).expect("writing fresh");
    std::fs::write(fresh.join("BENCH_online.json"), online).expect("writing fresh");
    std::fs::write(fresh.join("BENCH_recovery.json"), recovery).expect("writing fresh");
    std::fs::write(fresh.join("BENCH_health.json"), health).expect("writing fresh");
    std::fs::write(fresh.join("BENCH_kernels.json"), kernels).expect("writing fresh");
    let failures = run_gate(&base, &fresh).expect("self-test gate errored");
    assert!(
        failures.is_empty(),
        "identical point must pass, got {failures:?}"
    );

    // Regressed fresh points (-20% throughput, +30% p99): must fail all
    // four — both files' throughput and latency gates.
    std::fs::write(
        fresh.join("BENCH_serve.json"),
        r#"{"throughput_rps": 800.0, "p99_us": 13000}"#,
    )
    .expect("writing regressed fresh");
    std::fs::write(
        fresh.join("BENCH_online.json"),
        r#"{"throughput_rps": 160.0, "p99_us": 10400}"#,
    )
    .expect("writing regressed fresh");
    let failures = run_gate(&base, &fresh).expect("self-test gate errored");
    assert_eq!(
        failures.len(),
        4,
        "regressed points must fail both files' throughput and p99, got {failures:?}"
    );

    // Scale-context mismatch: a 1-worker baseline must never gate an
    // 8-replica sweep (or vice versa) — the serve file's metrics skip,
    // so only the online regression remains.
    std::fs::write(
        base.join("BENCH_serve.json"),
        r#"{"workers": 1, "throughput_rps": 1000.0, "p99_us": 10000}"#,
    )
    .expect("writing baseline");
    std::fs::write(
        fresh.join("BENCH_serve.json"),
        r#"{"workers": 8, "throughput_rps": 100.0, "p99_us": 99000}"#,
    )
    .expect("writing regressed fresh");
    let failures = run_gate(&base, &fresh).expect("self-test gate errored");
    assert_eq!(
        failures.len(),
        2,
        "mismatched worker counts must skip the serve file, got {failures:?}"
    );

    // Matching scale context: the same regression at the same worker
    // count must gate as usual.
    std::fs::write(
        fresh.join("BENCH_serve.json"),
        r#"{"workers": 1, "throughput_rps": 100.0, "p99_us": 99000}"#,
    )
    .expect("writing regressed fresh");
    let failures = run_gate(&base, &fresh).expect("self-test gate errored");
    assert_eq!(
        failures.len(),
        4,
        "matching worker counts must still gate the serve file, got {failures:?}"
    );

    // WAL replay latency regression (+30% replay_us) with everything
    // else back at baseline: exactly the recovery gate must fire.
    std::fs::write(base.join("BENCH_serve.json"), serve_base).expect("writing baseline");
    std::fs::write(fresh.join("BENCH_serve.json"), serve_base).expect("writing fresh");
    std::fs::write(fresh.join("BENCH_online.json"), online).expect("writing fresh");
    std::fs::write(
        fresh.join("BENCH_recovery.json"),
        r#"{"replay_records": 20000, "replay_us": 65000}"#,
    )
    .expect("writing regressed fresh");
    let failures = run_gate(&base, &fresh).expect("self-test gate errored");
    assert_eq!(
        failures.len(),
        1,
        "slower WAL replay must fail exactly the recovery gate, got {failures:?}"
    );
    assert!(
        failures[0].contains("BENCH_recovery.json:replay_us"),
        "wrong gate fired: {failures:?}"
    );

    // Watchdog regression (+30% stall-detection latency, +50% hedge
    // overhead) with everything else at baseline: exactly the two
    // health gates must fire.
    std::fs::write(fresh.join("BENCH_recovery.json"), recovery).expect("writing fresh");
    std::fs::write(
        fresh.join("BENCH_health.json"),
        r#"{"detection_us": 390000, "hedge_overhead_us": 6000}"#,
    )
    .expect("writing regressed fresh");
    let failures = run_gate(&base, &fresh).expect("self-test gate errored");
    assert_eq!(
        failures.len(),
        2,
        "slower detection and hedging must fail exactly the health gates, got {failures:?}"
    );
    assert!(
        failures
            .iter()
            .any(|f| f.contains("BENCH_health.json:detection_us"))
            && failures
                .iter()
                .any(|f| f.contains("BENCH_health.json:hedge_overhead_us")),
        "wrong gates fired: {failures:?}"
    );

    // Kernel-trajectory regression (-20% blocked GEMM throughput, -20%
    // GRU-BPTT speedup) with everything else at baseline: exactly the
    // two kernel gates must fire.
    std::fs::write(fresh.join("BENCH_health.json"), health).expect("writing fresh");
    std::fs::write(
        fresh.join("BENCH_kernels.json"),
        r#"{"simd_level": 2, "gemm_blocked_gflops": 48.0, "gru_bptt_blocked_seq_per_s": 12000.0, "softmax_blocked_melem_per_s": 1000.0, "layer_norm_blocked_melem_per_s": 1200.0, "e2e_blocked_examples_per_s": 2000.0, "gemm_speedup": 4.0, "gru_bptt_speedup": 2.0, "e2e_speedup": 1.6}"#,
    )
    .expect("writing regressed fresh");
    let failures = run_gate(&base, &fresh).expect("self-test gate errored");
    assert_eq!(
        failures.len(),
        2,
        "a slower blocked GEMM and a shrunken GRU speedup must fail exactly the two kernel gates, got {failures:?}"
    );
    assert!(
        failures
            .iter()
            .any(|f| f.contains("BENCH_kernels.json:gemm_blocked_gflops"))
            && failures
                .iter()
                .any(|f| f.contains("BENCH_kernels.json:gru_bptt_speedup")),
        "wrong gates fired: {failures:?}"
    );

    // SIMD-level mismatch: a scalar box's kernel point must never gate
    // against an AVX2 baseline — the same regressed numbers now skip.
    std::fs::write(
        fresh.join("BENCH_kernels.json"),
        r#"{"simd_level": 0, "gemm_blocked_gflops": 48.0, "gru_bptt_blocked_seq_per_s": 12000.0, "softmax_blocked_melem_per_s": 1000.0, "layer_norm_blocked_melem_per_s": 1200.0, "e2e_blocked_examples_per_s": 2000.0, "gemm_speedup": 4.0, "gru_bptt_speedup": 2.0, "e2e_speedup": 1.6}"#,
    )
    .expect("writing mismatched fresh");
    let failures = run_gate(&base, &fresh).expect("self-test gate errored");
    assert!(
        failures.is_empty(),
        "mismatched simd_level must skip every kernel gate, got {failures:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
    println!("benchgate: self-test ok");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: benchgate --baseline DIR --fresh DIR | --self-test");
        eprintln!("       DAR_BENCHGATE=off benchgate ...   # skip (exit 0)");
        std::process::exit(2);
    }
    if bool_flag(&args, "--self-test") {
        self_test();
        return;
    }
    if std::env::var("DAR_BENCHGATE").as_deref() == Ok("off") {
        println!("benchgate: DAR_BENCHGATE=off — skipping regression gate");
        return;
    }
    let baseline: String = flag(&args, "--baseline").unwrap_or_else(|| {
        eprintln!("missing --baseline DIR");
        std::process::exit(2);
    });
    let fresh: String = flag(&args, "--fresh").unwrap_or_else(|| {
        eprintln!("missing --fresh DIR");
        std::process::exit(2);
    });
    match run_gate(Path::new(&baseline), Path::new(&fresh)) {
        Ok(failures) if failures.is_empty() => println!("benchgate: ok"),
        Ok(failures) => {
            for f in &failures {
                eprintln!("benchgate: FAIL {f}");
            }
            eprintln!(
                "benchgate: {} regression(s). If the change legitimately moves the \
                 trajectory, commit the fresh results/BENCH_*.json as the new baseline \
                 (or set DAR_BENCHGATE=off for incomparable hardware).",
                failures.len()
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("benchgate: ERROR {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_threshold_is_ten_percent() {
        assert_eq!(check_throughput(1000.0, 901.0), Verdict::Ok);
        assert_eq!(check_throughput(1000.0, 899.0), Verdict::Regressed);
        // Improvements always pass.
        assert_eq!(check_throughput(1000.0, 1500.0), Verdict::Ok);
    }

    #[test]
    fn latency_threshold_is_fifteen_percent() {
        assert_eq!(check_latency(10000.0, 11400.0), Verdict::Ok);
        assert_eq!(check_latency(10000.0, 11600.0), Verdict::Regressed);
        assert_eq!(check_latency(10000.0, 5000.0), Verdict::Ok);
    }

    #[test]
    fn gate_skips_missing_baseline_but_rejects_missing_fresh() {
        let dir = std::env::temp_dir().join(format!("dar_bg_unit_{}", std::process::id()));
        let base = dir.join("b");
        let fresh = dir.join("f");
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&fresh).unwrap();

        // No baseline files at all: everything skips, gate passes.
        assert!(run_gate(&base, &fresh).unwrap().is_empty());

        // Baseline exists but fresh missing: hard error.
        std::fs::write(base.join("BENCH_serve.json"), r#"{"throughput_rps": 10.0}"#).unwrap();
        assert!(run_gate(&base, &fresh).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn self_test_scenario_passes() {
        self_test();
    }
}
