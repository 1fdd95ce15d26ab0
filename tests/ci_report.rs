//! Regression tests for ci.sh's machine-readable report.
//!
//! The CI driver (`ci.sh`) promises a *valid JSON* report at
//! `$DAR_CI_REPORT` on every exit path — including the two that
//! historically produced truncated output: a failing stage (the EXIT
//! trap fires after `exit 1` mid-run) and an unknown `--stage` name
//! (zero stages ran, so the stages map must still close). These tests
//! drive the real script end to end under `DAR_CI_SELFTEST=1`, which
//! exposes a deliberately failing fake stage that runs no cargo
//! commands — so the tests cannot recurse into the build.
//!
//! The workspace has no JSON parser, so validation here is a tiny
//! hand-rolled JSON walker.

use std::path::PathBuf;
use std::process::Command;

/// Minimal JSON validity checker: objects, strings, numbers, and the
/// literals the report can contain. Returns the rest of the input on
/// success so the caller can require full consumption.
fn skip_ws(s: &str) -> &str {
    s.trim_start_matches([' ', '\t', '\n', '\r'])
}

fn parse_value(s: &str) -> Result<&str, String> {
    let s = skip_ws(s);
    match s.chars().next() {
        Some('{') => parse_object(s),
        Some('"') => parse_string(s).map(|(_, rest)| rest),
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(s.len());
            s[..end]
                .parse::<f64>()
                .map_err(|e| format!("bad number {:?}: {e}", &s[..end]))?;
            Ok(&s[end..])
        }
        Some('t') if s.starts_with("true") => Ok(&s[4..]),
        Some('f') if s.starts_with("false") => Ok(&s[5..]),
        Some('n') if s.starts_with("null") => Ok(&s[4..]),
        other => Err(format!("unexpected value start: {other:?}")),
    }
}

fn parse_string(s: &str) -> Result<(String, &str), String> {
    let body = s
        .strip_prefix('"')
        .ok_or_else(|| format!("expected string at {:?}", &s[..s.len().min(20)]))?;
    // The report never emits escapes, so a bare quote terminates.
    let end = body
        .find('"')
        .ok_or_else(|| "unterminated string".to_string())?;
    Ok((body[..end].to_string(), &body[end + 1..]))
}

fn parse_object(s: &str) -> Result<&str, String> {
    let mut s = skip_ws(s)
        .strip_prefix('{')
        .ok_or_else(|| "expected '{'".to_string())?;
    s = skip_ws(s);
    if let Some(rest) = s.strip_prefix('}') {
        return Ok(rest);
    }
    loop {
        let (_key, rest) = parse_string(skip_ws(s))?;
        let rest = skip_ws(rest)
            .strip_prefix(':')
            .ok_or_else(|| "expected ':'".to_string())?;
        s = skip_ws(parse_value(rest)?);
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
            continue;
        }
        return skip_ws(s)
            .strip_prefix('}')
            .ok_or_else(|| format!("expected '}}' at {:?}", &s[..s.len().min(20)]));
    }
}

fn assert_valid_json(text: &str, ctx: &str) {
    let rest = parse_value(text).unwrap_or_else(|e| panic!("{ctx}: invalid JSON ({e}): {text}"));
    assert!(
        skip_ws(rest).is_empty(),
        "{ctx}: trailing garbage after JSON: {rest:?}"
    );
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Run `bash ci.sh <args>` with the selftest stage exposed and the
/// report redirected to a scratch path; returns (exit_code, report).
fn run_ci(args: &[&str], tag: &str) -> (i32, String) {
    let report =
        std::env::temp_dir().join(format!("dar_ci_report_{}_{tag}.json", std::process::id()));
    let _ = std::fs::remove_file(&report);
    let out = Command::new("bash")
        .arg(repo_root().join("ci.sh"))
        .args(args)
        .current_dir(repo_root())
        .env("DAR_CI_SELFTEST", "1")
        .env("DAR_CI_REPORT", &report)
        .output()
        .expect("spawn bash ci.sh");
    let code = out.status.code().expect("ci.sh killed by signal");
    let text = std::fs::read_to_string(&report).unwrap_or_else(|e| {
        panic!(
            "{tag}: ci.sh exited {code} without writing {}: {e}\nstdout:\n{}\nstderr:\n{}",
            report.display(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        )
    });
    let _ = std::fs::remove_file(&report);
    (code, text)
}

#[test]
fn failing_stage_still_writes_valid_report() {
    let (code, report) = run_ci(&["--stage", "selftest-fail"], "fail");
    assert_eq!(code, 1, "selftest-fail must fail the run; report: {report}");
    assert_valid_json(&report, "failing-stage report");
    assert!(
        report.contains(r#""selftest-fail": {"status": "FAIL""#),
        "report must record the FAIL entry: {report}"
    );
    assert!(
        report.contains(r#""schema_version": 1"#),
        "report must carry the schema version: {report}"
    );
}

#[test]
fn unknown_stage_writes_valid_empty_report() {
    let (code, report) = run_ci(&["--stage", "no-such-stage"], "unknown");
    assert_eq!(code, 2, "unknown stage must exit 2; report: {report}");
    assert_valid_json(&report, "unknown-stage report");
    let squashed: String = report.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(
        squashed.contains(r#""stages":{}"#),
        "zero stages ran, so the stages map must be empty: {report}"
    );
}

#[test]
fn selftest_stage_is_hidden_without_optin() {
    // Without DAR_CI_SELFTEST the fake stage must not exist at all.
    let out = Command::new("bash")
        .arg(repo_root().join("ci.sh"))
        .arg("--list")
        .current_dir(repo_root())
        .env_remove("DAR_CI_SELFTEST")
        .output()
        .expect("spawn bash ci.sh --list");
    assert!(out.status.success());
    let stages = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stages.contains("selftest-fail"),
        "selftest-fail leaked into the default stage list:\n{stages}"
    );
    assert!(
        stages.contains("kernel-deny") && stages.contains("kernel-bench"),
        "kernel lanes missing from the stage list:\n{stages}"
    );
}

#[test]
fn one_stage_run_leaves_the_committed_report_alone() {
    // A copy of the script in a scratch tree holding a committed report:
    // ci.sh works relative to its own directory.
    let root = std::env::temp_dir().join(format!("dar_ci_copy_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("results")).unwrap();
    std::fs::copy(repo_root().join("ci.sh"), root.join("ci.sh")).unwrap();
    let committed = root.join("results/ci_report.json");
    let seeded = "{\n  \"schema_version\": 1,\n  \"stages\": {\"fmt\": {\"status\": \"ok\", \"seconds\": 1}}\n}\n";
    std::fs::write(&committed, seeded).unwrap();

    for (stage, code) in [("no-such-stage", 2), ("selftest-fail", 1)] {
        let out = Command::new("bash")
            .arg(root.join("ci.sh"))
            .args(["--stage", stage])
            .env("DAR_CI_SELFTEST", "1")
            .env_remove("DAR_CI_REPORT")
            .output()
            .expect("spawn bash ci.sh");
        assert_eq!(out.status.code(), Some(code), "--stage {stage}");
        assert_eq!(
            std::fs::read_to_string(&committed).unwrap(),
            seeded,
            "--stage {stage} rewrote the committed full-run report"
        );
        let report = std::fs::read_to_string(root.join("target/ci_report.json"))
            .unwrap_or_else(|e| panic!("--stage {stage} wrote no report under target/: {e}"));
        assert_valid_json(&report, stage);
    }
    std::fs::remove_dir_all(&root).ok();
}
