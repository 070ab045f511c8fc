//! The `ombj` CLI rejects job shapes and fault plans it cannot run with a
//! usage error (exit 2, a message on stderr, nothing on stdout) instead
//! of a panic or a run that silently ignores part of the request.

use std::process::Command;

/// Run `ombj` with `args`; returns (exit code, stdout, stderr).
fn ombj(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ombj"))
        .args(args)
        .output()
        .expect("ombj runs");
    (
        out.status.code().expect("ombj exits, not killed"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let (code, stdout, stderr) = ombj(args);
    assert_eq!(code, 2, "{args:?}: stderr {stderr}");
    assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: want {needle:?} in {stderr}"
    );
}

#[test]
fn fault_plan_ranks_outside_the_job_are_usage_errors() {
    for (plan, msg) in [
        ("slow=9:2", "slow names rank 9, but the job has 2 ranks"),
        (
            "delay=0-9:100",
            "delay names rank 9, but the job has 2 ranks",
        ),
        (
            "linkdrop=7-0:0.5",
            "linkdrop names rank 7, but the job has 2 ranks",
        ),
        ("crash=9@100", "crash names rank 9, but the job has 2 ranks"),
    ] {
        assert_usage_error(
            &["latency", "--max", "64", "--flight", "--faults", plan],
            msg,
        );
    }
}

#[test]
fn fault_plan_ranks_inside_the_job_still_run() {
    let (code, stdout, stderr) = ombj(&[
        "latency",
        "--max",
        "64",
        "--faults",
        "slow=1:2,delay=0-1:100",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("osu_latency"), "{stdout}");
}

#[test]
fn empty_topologies_are_usage_errors() {
    assert_usage_error(
        &["latency", "--nodes", "0"],
        "--nodes and --ppn must be at least 1",
    );
    assert_usage_error(
        &["bcast", "--ppn", "0"],
        "--nodes and --ppn must be at least 1",
    );
}

#[test]
fn two_rank_benchmarks_on_one_rank_are_usage_errors() {
    for (bench, name) in [
        ("latency", "osu_latency"),
        ("bw", "osu_bw"),
        ("put_latency", "osu_put_latency"),
        ("get_bw", "osu_get_bw"),
    ] {
        assert_usage_error(
            &[bench, "--nodes", "1", "--ppn", "1", "--max", "64"],
            &format!("{name} needs at least 2 ranks; --nodes 1 --ppn 1 gives 1"),
        );
    }
}
