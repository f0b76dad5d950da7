//! The CLI exit-status contract, end to end against the real binary:
//!
//! * `0` — clean: the command did its work, no denied diagnostics;
//! * `1` — diagnostics at warning level or above under `--deny`
//!   (the command itself worked);
//! * `2` — usage, I/O, or build/run failure.
//!
//! Scripts and the CI lint-smoke job match on these values, so they
//! are pinned here rather than left to drift.

use std::path::PathBuf;
use std::process::{Command, Output};

fn example(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/minic")
        .join(name);
    p.to_str().expect("utf-8 path").to_string()
}

fn tesla(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tesla"))
        .args(args)
        .output()
        .expect("spawn tesla")
}

fn assert_exit(out: &Output, want: i32) {
    assert_eq!(
        out.status.code(),
        Some(want),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn clean_lint_exits_zero_even_with_deny() {
    let out = tesla(&["lint", "--deny", &example("safe.c")]);
    assert_exit(&out, 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");
}

#[test]
fn lint_findings_exit_zero_without_deny_and_one_with() {
    let path = example("lint_pathologies.c");
    // Findings alone never fail the command…
    let out = tesla(&["lint", &path]);
    assert_exit(&out, 0);
    // …but `--deny` turns them into exit status 1, and the findings
    // still reach stdout in the requested format.
    let out = tesla(&["lint", "--deny", "--format=sarif", &path]);
    assert_exit(&out, 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for code in ["TESLA-L001", "TESLA-L002", "TESLA-L003", "TESLA-L004"] {
        let rule = format!("\"ruleId\": \"{code}\"");
        assert_eq!(stdout.matches(&rule).count(), 1, "{code} in {stdout}");
    }
}

#[test]
fn build_lint_deny_exits_one_on_pathologies() {
    let out = tesla(&["build", "--lint=deny", &example("lint_pathologies.c")]);
    assert_exit(&out, 1);
    // Plain --lint reports on stderr but exits clean.
    let out = tesla(&["build", "--lint", &example("lint_pathologies.c")]);
    assert_exit(&out, 0);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("TESLA-L001"), "{stderr}");
}

#[test]
fn usage_and_io_errors_exit_two() {
    // No arguments at all.
    assert_exit(&tesla(&[]), 2);
    // Unknown command.
    assert_exit(&tesla(&["frobnicate"]), 2);
    // Missing input file.
    assert_exit(&tesla(&["lint", "no-such-file.c"]), 2);
    // Bad flag value.
    assert_exit(&tesla(&["lint", "--format=xml", &example("safe.c")]), 2);
    // A trailing flag with its value missing.
    assert_exit(
        &tesla(&["lint", &example("lint_pathologies.c"), "--format"]),
        2,
    );
    // A re-instrumentation policy that does not exist.
    let out = tesla(&["build", &example("safe.c"), "--reinstrument", "fingerprint"]);
    assert_exit(&out, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown --reinstrument `fingerprint` (expected naive|delta)"),
        "{stderr}"
    );
}

/// Every verb refuses a flag it does not know, before it does any
/// work, wherever the flag stands: no verb takes it for an input path.
#[test]
fn every_verb_refuses_an_unknown_flag() {
    let dir = std::env::temp_dir().join(format!("tesla-unknown-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("empty.jsonl").to_str().unwrap().to_string();
    std::fs::write(&trace, "{\"tesla_trace\":1}\n").unwrap();
    let socket = dir.join("attach.sock").to_str().unwrap().to_string();
    let safe = example("safe.c");
    let scenarios = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .to_str()
        .expect("utf-8 path")
        .to_string();
    let run = [
        safe.as_str(),
        "--entry",
        "ssl_main",
        "--arg",
        "5",
        "--arg",
        "5",
    ];
    let mut verbs: Vec<(&[&str], Vec<&str>)> = vec![
        (&["build"], vec![&safe]),
        (&["run"], run.to_vec()),
        (&["observe"], run.to_vec()),
        (&["baseline"], run.to_vec()),
        (&["static-check"], vec![&safe]),
        (&["lint"], vec![&safe]),
        (&["analyse"], vec![&safe]),
        (&["scenario", "run"], vec![&scenarios]),
        (&["scenario", "fuzz"], vec![&scenarios]),
        (&["replay"], vec![&trace, "--spec", &safe]),
    ];
    if cfg!(unix) {
        verbs.push((&["attach"], vec![&socket, "--spec", &safe]));
    }
    for (verb, operands) in &verbs {
        let first = [*verb, &["--no-such-flag"], operands].concat();
        let last = [*verb, operands, &["--no-such-flag"]].concat();
        for args in [first, last] {
            let out = tesla(&args);
            assert_exit(&out, 2);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(stderr, "tesla: unknown flag `--no-such-flag`\n", "{args:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn static_check_deny_contract_matches_lint() {
    // The buggy CVE corpus has a definite violation: exit 1 under
    // --deny, 0 without.
    let path = example("cve_unchecked.c");
    assert_exit(&tesla(&["static-check", &path]), 0);
    assert_exit(&tesla(&["static-check", "--deny", &path]), 1);
}

#[test]
fn bad_fault_specs_exit_two() {
    let path = example("safe.c");
    let run = |spec: &str| {
        tesla(&[
            "run", &path, "--entry", "ssl_main", "--arg", "5", "--arg", "5", "--chaos", "42",
            "--faults", spec,
        ])
    };
    // A valid spec runs clean…
    assert_exit(&run("panic=40,drop=16"), 0);
    // …but duplicate kinds and trailing garbage are usage errors, not
    // last-write-wins or silently-eaten.
    let out = run("panic=1,panic=2");
    assert_exit(&out, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("duplicate fault kind `panic`"), "{stderr}");
    let out = run("panic=40,");
    assert_exit(&out, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("empty segment"), "{stderr}");
}

#[test]
fn baseline_and_anomaly_exit_codes() {
    let dir = std::env::temp_dir().join(format!("tesla-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();

    // Learn a baseline from a healthy run: exit 0, versioned header.
    let base = p("safe.base.json");
    let out = tesla(&[
        "baseline",
        &example("safe.c"),
        "--entry",
        "ssl_main",
        "--arg",
        "5",
        "--arg",
        "5",
        "--out",
        &base,
    ]);
    assert_exit(&out, 0);
    let text = std::fs::read_to_string(&base).unwrap();
    assert!(text.starts_with("{\"tesla_baseline\":1}"), "{text}");

    // Scoring the same healthy run against its own baseline is clean.
    let out = tesla(&[
        "observe",
        &example("safe.c"),
        "--entry",
        "ssl_main",
        "--arg",
        "5",
        "--arg",
        "5",
        "--baseline",
        &base,
        "--anomalies",
    ]);
    assert_exit(&out, 0);

    // --anomalies without a baseline to score against is a usage error.
    let out = tesla(&["observe", &example("safe.c"), "--anomalies"]);
    assert_exit(&out, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--anomalies needs --baseline"), "{stderr}");

    // A malformed baseline is a *positioned* usage error, mirroring
    // the trace-schema contract: exit 2 before any run happens.
    let bad = p("bad.base.json");
    std::fs::write(&bad, "{\"tesla_baseline\":1}\nnot json\n").unwrap();
    let out = tesla(&[
        "observe",
        &example("safe.c"),
        "--entry",
        "ssl_main",
        "--baseline",
        &bad,
        "--anomalies",
    ]);
    assert_exit(&out, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("malformed baseline line 2") && stderr.contains("byte offset 21"),
        "{stderr}"
    );

    // A version-bumped header names both versions and exits 2.
    let v2 = p("v2.base.json");
    std::fs::write(&v2, "{\"tesla_baseline\":2}\n").unwrap();
    let out = tesla(&[
        "observe",
        &example("safe.c"),
        "--entry",
        "ssl_main",
        "--baseline",
        &v2,
        "--anomalies",
    ]);
    assert_exit(&out, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unsupported baseline version 2"),
        "{stderr}"
    );

    // A bad --govern value is caught before the program builds.
    let out = tesla(&[
        "run",
        &example("safe.c"),
        "--entry",
        "ssl_main",
        "--govern",
        "0.5x",
    ]);
    assert_exit(&out, 2);
    // …and --allow-shed without --govern has nothing to act on.
    let out = tesla(&[
        "run",
        &example("safe.c"),
        "--entry",
        "ssl_main",
        "--allow-shed",
    ]);
    assert_exit(&out, 2);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_exit_codes_match_the_run_contract() {
    let dir = std::env::temp_dir().join(format!("tesla-exitcodes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();

    // Record a clean run; replay exits 0 like the run did.
    let trace = p("safe.jsonl");
    let out = tesla(&[
        "run",
        &example("safe.c"),
        "--entry",
        "ssl_main",
        "--arg",
        "5",
        "--arg",
        "5",
        "--record",
        &trace,
    ]);
    assert_exit(&out, 0);
    assert_exit(&tesla(&["replay", &trace, "--spec", &example("safe.c")]), 0);

    // A violating run exits 2; so does its replay.
    let cve_trace = p("cve.jsonl");
    let out = tesla(&[
        "run",
        &example("cve_unchecked.c"),
        "--entry",
        "ssl_main",
        "--arg",
        "5",
        "--arg",
        "5",
        "--record",
        &cve_trace,
    ]);
    assert_exit(&out, 2);
    let out = tesla(&["replay", &cve_trace, "--spec", &example("cve_unchecked.c")]);
    assert_exit(&out, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("violation"), "{stderr}");

    // Missing trace file: exit 2 with an I/O diagnostic.
    let out = tesla(&["replay", &p("no-such.jsonl"), "--spec", &example("safe.c")]);
    assert_exit(&out, 2);

    // Malformed line: exit 2 with a line + byte-offset diagnostic.
    let bad = p("bad.jsonl");
    std::fs::write(&bad, "{\"tesla_trace\":1}\nnot json\n").unwrap();
    let out = tesla(&["replay", &bad, "--spec", &example("safe.c")]);
    assert_exit(&out, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 2") && stderr.contains("byte offset 18"),
        "{stderr}"
    );

    // A trace truncated mid-line: positioned diagnostic, never a
    // panic.
    let full = std::fs::read_to_string(&cve_trace).unwrap();
    let trunc = p("trunc.jsonl");
    std::fs::write(&trunc, &full[..full.len() - 4]).unwrap();
    let out = tesla(&["replay", &trunc, "--spec", &example("cve_unchecked.c")]);
    assert_exit(&out, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed trace line"), "{stderr}");

    // Replay without --spec is a usage error.
    assert_exit(&tesla(&["replay", &trace]), 2);

    // An unknown flag is a usage error, never taken for the trace
    // path or the socket, wherever it stands.
    #[cfg(unix)]
    let verbs = ["replay", "attach"];
    #[cfg(not(unix))]
    let verbs = ["replay"];
    for verb in verbs {
        let out = tesla(&[verb, "--no-batch", &trace, "--spec", &example("safe.c")]);
        assert_exit(&out, 2);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr, "tesla: unknown flag `--no-batch`\n");
    }

    std::fs::remove_dir_all(&dir).ok();
}
