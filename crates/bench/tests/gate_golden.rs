//! Golden verdict tests for the `perf_gate` binary: committed fixture
//! report pairs must map to exactly the documented exit codes —
//! `0` pass/skip, `1` regression, `2` usage, `3` corrupt report. These
//! pin the gate's CLI contract; the statistics behind the verdicts are
//! covered in `gate_stats.rs` and the `capman_bench::gate` unit tests.

use std::process::Command;

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run_gate(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .args(args)
        .output()
        .expect("spawn perf_gate");
    (
        out.status.code().expect("perf_gate must exit, not signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_clear_regression_exits_1() {
    let (code, stdout, stderr) = run_gate(&[
        &fixture("baseline.json"),
        &fixture("candidate_regression.json"),
    ]);
    assert_eq!(code, 1, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(
        stdout.contains("Welch"),
        "verdict must come from the t-test: {stdout}"
    );
    assert!(stderr.contains("regressed"), "{stderr}");
}

#[test]
fn a_clear_win_exits_0() {
    let (code, stdout, _) = run_gate(&[&fixture("baseline.json"), &fixture("candidate_win.json")]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("within limits"), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");
}

#[test]
fn within_noise_differences_exit_0() {
    let (code, stdout, _) =
        run_gate(&[&fixture("baseline.json"), &fixture("candidate_noise.json")]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("Welch"), "{stdout}");
    assert!(stdout.contains("within limits"), "{stdout}");
}

#[test]
fn a_missing_section_skips_cleanly_with_exit_0() {
    let (code, stdout, _) =
        run_gate(&[&fixture("baseline.json"), &fixture("missing_section.json")]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("SKIP"), "{stdout}");
    assert!(stdout.contains("absent from fresh report"), "{stdout}");
}

#[test]
fn a_renamed_row_key_exits_1_instead_of_skipping() {
    // The baseline with its `states` key renamed in both sections: no
    // row can match, and that must not read as "nothing to gate".
    let (code, stdout, stderr) =
        run_gate(&[&fixture("baseline.json"), &fixture("renamed_key.json")]);
    assert_eq!(code, 1, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("key field states"), "{stdout}");
    assert!(!stdout.contains("SKIP"), "{stdout}");
    assert!(stderr.contains("2 gated metric(s) regressed"), "{stderr}");
}

#[test]
fn a_missing_file_skips_cleanly_with_exit_0() {
    let (code, stdout, _) = run_gate(&[
        &fixture("does_not_exist.json"),
        &fixture("candidate_noise.json"),
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("SKIP"), "{stdout}");
}

#[test]
fn a_corrupt_report_exits_3_instead_of_skipping() {
    let (code, stdout, stderr) = run_gate(&[&fixture("baseline.json"), &fixture("corrupt.json")]);
    assert_eq!(code, 3, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("CORRUPT"), "{stderr}");
    assert!(
        stderr.contains("fresh report"),
        "names the offending role: {stderr}"
    );
    // And symmetrically for a rotten baseline.
    let (code, _, stderr) = run_gate(&[&fixture("corrupt.json"), &fixture("baseline.json")]);
    assert_eq!(code, 3);
    assert!(stderr.contains("committed report"), "{stderr}");
}

#[test]
fn wrong_arity_is_a_usage_error() {
    let (code, _, stderr) = run_gate(&[&fixture("baseline.json")]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage"), "{stderr}");
    // Bad flags are usage errors too, never a silent fallback to the
    // default: unparsable or out-of-range values, unknown flags, and a
    // flag missing its value.
    let (baseline, noise) = (fixture("baseline.json"), fixture("candidate_noise.json"));
    for flags in [
        &["--alpha", "abc"][..],
        &["--alpha", "5"],
        &["--alpha", "0"],
        &["--min-effect", "-0.1"],
        &["--max-slowdown", "0"],
        &["--max-slowdown", "inf"],
        &["--ab-slowdown", "NaN"],
        &["--min-ms", "0"],
        &["--reps", "1"],
        &["--reps", "2.5"],
        &["--ab-seed", "x7"],
        &["--bogus", "1"],
        &["--alpha"],
    ] {
        let mut args = vec![baseline.as_str(), noise.as_str()];
        args.extend_from_slice(flags);
        let (code, stdout, stderr) = run_gate(&args);
        assert_eq!(code, 2, "{flags:?}: stdout:\n{stdout}\nstderr:\n{stderr}");
        assert!(stderr.contains("usage"), "{flags:?}: {stderr}");
    }
}

#[test]
fn tighter_alpha_and_effect_flags_are_honoured() {
    // The regression pair still fails under a stricter alpha...
    let (code, _, _) = run_gate(&[
        &fixture("baseline.json"),
        &fixture("candidate_regression.json"),
        "--alpha",
        "0.001",
    ]);
    assert_eq!(code, 1);
    // ...and passes once the practical-effect floor exceeds the ~2x
    // shift the fixture encodes.
    let (code, stdout, _) = run_gate(&[
        &fixture("baseline.json"),
        &fixture("candidate_regression.json"),
        "--min-effect",
        "1.5",
    ]);
    assert_eq!(code, 0, "{stdout}");
}

#[test]
fn seeded_live_aa_passes_and_a_seeded_slowdown_fails() {
    // Live interleaved mode, deterministic via --ab-seed: A/A passes...
    let (code, stdout, _) = run_gate(&["--alpha", "0.05", "--ab-seed", "7", "--reps", "10"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("Welch"), "{stdout}");
    assert!(stdout.contains("live/interleaved"), "{stdout}");
    // ...and a synthetic 2x candidate arm fails.
    let (code, stdout, _) = run_gate(&[
        "--alpha",
        "0.05",
        "--ab-seed",
        "7",
        "--reps",
        "10",
        "--ab-slowdown",
        "2.0",
    ]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
}
