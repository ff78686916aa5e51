//! Every bench binary must reject unparsable flag values loudly: exit
//! nonzero and name the offending value on stderr, instead of silently
//! substituting the default (the old `parse().ok().unwrap_or(..)` trap).

use std::process::Command;

fn check_bad_flag(bin: &str, exe: &str, args: &[&str], bad: &str) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{bin} runs: {e}"));
    assert!(
        !out.status.success(),
        "{bin} {args:?} should exit nonzero on an unparsable flag value"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(bad),
        "{bin} stderr should name the offending value {bad:?}, got:\n{stderr}"
    );
}

#[test]
fn bench_bins_reject_unparsable_flag_values() {
    for (bin, exe, flag) in [
        ("table1", env!("CARGO_BIN_EXE_table1"), "--n"),
        ("table2", env!("CARGO_BIN_EXE_table2"), "--measured-max"),
        ("inspect", env!("CARGO_BIN_EXE_inspect"), "--n"),
        ("ablation", env!("CARGO_BIN_EXE_ablation"), "--n"),
        ("r_sweep", env!("CARGO_BIN_EXE_r_sweep"), "--measure-n"),
        ("numerics", env!("CARGO_BIN_EXE_numerics"), "--n"),
        ("satlint", env!("CARGO_BIN_EXE_satlint"), "--n"),
        ("loadgen", env!("CARGO_BIN_EXE_loadgen"), "--threads"),
        ("satprof", env!("CARGO_BIN_EXE_satprof"), "--n"),
    ] {
        check_bad_flag(bin, exe, &[flag, "not-a-number"], "not-a-number");
    }
}

#[test]
fn unwritable_json_path_fails_cleanly() {
    check_bad_flag(
        "table1",
        env!("CARGO_BIN_EXE_table1"),
        &["--json", "/nonexistent-dir/x.json"],
        "/nonexistent-dir/x.json",
    );
}

#[test]
fn unknown_algorithm_names_are_rejected() {
    for (bin, exe, flag) in [
        ("satprof", env!("CARGO_BIN_EXE_satprof"), "--algo"),
        ("inspect", env!("CARGO_BIN_EXE_inspect"), "--alg"),
    ] {
        check_bad_flag(bin, exe, &[flag, "9r9w"], "9r9w");
    }
}

#[test]
fn bench_bins_reject_flags_missing_their_value() {
    // A flag in final position has no value at all; that is an error too.
    for (bin, exe, flag) in [
        ("satlint", env!("CARGO_BIN_EXE_satlint"), "--n"),
        ("loadgen", env!("CARGO_BIN_EXE_loadgen"), "--requests"),
    ] {
        let out = Command::new(exe)
            .arg(flag)
            .output()
            .unwrap_or_else(|e| panic!("{bin} runs: {e}"));
        assert!(!out.status.success(), "{bin} {flag} with no value");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("requires a value"),
            "{bin} stderr:\n{stderr}"
        );
    }
}

#[test]
fn loadgen_negative_count_is_unparsable_for_usize() {
    check_bad_flag(
        "loadgen",
        env!("CARGO_BIN_EXE_loadgen"),
        &["--threads", "-3"],
        "-3",
    );
}

#[test]
fn satprof_rejects_non_block_aligned_size() {
    // Raw kernels need block-aligned sides; the error must be a clean exit,
    // not a panic from inside the kernel.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_satprof"))
        .args(["--n", "48", "--check"])
        .output()
        .expect("satprof runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("multiple of") && !stderr.contains("panicked"),
        "expected a clean validation error, got:\n{stderr}"
    );
}

#[test]
fn satprof_rejects_2r1w_at_width_one_instead_of_aborting() {
    // At w = 1, 2R1W's recursion never shrinks its block-sum matrix; the
    // error must be a clean exit naming the constraint, not a stack
    // overflow (or a panic) from inside the driver or the cost model.
    for algo in ["2r1w", "hybrid"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_satprof"))
            .args(["--algo", algo, "--n", "4", "--width", "1"])
            .output()
            .expect("satprof runs");
        assert_eq!(out.status.code(), Some(2), "{algo}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("needs w ≥ 2") && !stderr.contains("panicked"),
            "{algo}: expected a clean validation error, got:\n{stderr}"
        );
    }
}

#[test]
fn satprof_and_inspect_accept_the_shared_algorithm_names() {
    // One parser (`SatAlgorithm: FromStr`) serves satprof, inspect and
    // satcli: `hybrid` and any-case paper names work everywhere.
    let trace = format!("{}/satprof_hybrid.json", env!("CARGO_TARGET_TMPDIR"));
    for (bin, exe, args) in [
        (
            "satprof",
            env!("CARGO_BIN_EXE_satprof"),
            vec!["--algo", "hybrid", "--n", "64", "--trace", &trace],
        ),
        (
            "inspect",
            env!("CARGO_BIN_EXE_inspect"),
            vec!["--alg", "4r1w", "--n", "64", "--w", "8"],
        ),
    ] {
        let out = Command::new(exe)
            .args(&args)
            .output()
            .unwrap_or_else(|e| panic!("{bin} runs: {e}"));
        assert!(
            out.status.success(),
            "{bin} {args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
