//! The `figures` CLI rejects arguments it cannot run with a usage error
//! (exit 2, a message on stderr, nothing on stdout) before any figure
//! runs, instead of a panic.

use std::process::Command;

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        !stderr.contains("regenerating"),
        "{args:?} ran a figure: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{args:?}: want {needle:?} in {stderr}"
    );
}

#[test]
fn unknown_figure_ids_are_usage_errors_listing_the_valid_ids() {
    let valid = "valid ids: fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, \
                 fig15, fig16, fig17, fig18";
    assert_usage_error(&["--only", "fig99"], "unknown figure id `fig99`");
    assert_usage_error(&["--only", "fig99", "--quick"], valid);
    // A valid id ahead of the bad one does not run either.
    assert_usage_error(&["--only", "fig5,fig99", "--quick"], "`fig99`");
    assert_usage_error(&["--only", "fig5,", "--quick"], "unknown figure id ``");
}

#[test]
fn missing_and_unknown_arguments_are_usage_errors() {
    assert_usage_error(&["--only"], "--only needs a figure list");
    assert_usage_error(&["--quick", "--only"], "usage: figures");
    assert_usage_error(&["--fast"], "unknown argument --fast");
}
