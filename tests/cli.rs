//! Exit-code contract of `alpha_pim_cli`: good invocations succeed, bad
//! ones fail *fast* — an unknown subcommand or malformed flag must exit
//! non-zero with a usage message before any graph is generated.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_alpha_pim_cli"))
        .args(args)
        .output()
        .expect("spawn alpha_pim_cli")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

// Tiny catalog graph so the passing runs stay fast.
const GRAPH: [&str; 5] = ["A302", "--scale", "0.01", "--dpus", "32"];

#[test]
fn known_subcommands_succeed() {
    // The audit gates run on inputs small enough for a quick run that
    // still exercise each gate: `sdc` draws flips at this rate, and
    // `mutate` lands real epochs.
    for (algo, flags, expect) in [
        ("bfs", &[][..], ""),
        ("top", &[][..], ""),
        ("chaos", &[][..], ""),
        ("serve", &["--queries", "4", "--batch", "2"][..], "batched == sequential"),
        ("sdc", &["--scale", "0.002", "--dpus", "8", "--flip-rate", "0.3"][..], "sdc audit passed"),
        (
            "mutate",
            &["--queries", "4", "--epochs", "2", "--ops", "16"][..],
            "differential gate passed",
        ),
        ("calibrate", &["--queries", "1"][..], "calibration passed"),
        (
            "serve-load",
            &["--queries", "64", "--batch", "8", "--fast-path", "analytic"][..],
            "ledger: 64 arrivals",
        ),
    ] {
        let out = cli(&[&[algo], &GRAPH[..], flags].concat());
        assert!(out.status.success(), "{algo} failed:\n{}\n{}", stdout(&out), stderr(&out));
        assert!(stdout(&out).contains(expect), "{algo} stdout:\n{}", stdout(&out));
    }
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let out = cli(&["frobnicate", "A302"]);
    assert!(!out.status.success(), "garbage subcommand must fail");
    let err = stderr(&out);
    assert!(err.contains("unknown algorithm"), "stderr: {err}");
    assert!(err.contains("usage: alpha_pim_cli"), "stderr: {err}");
    assert!(err.contains("serve"), "usage must list the serve subcommand: {err}");
    // Rejection happens in argument parsing: no graph banner on stdout.
    assert!(stdout(&out).is_empty(), "stdout: {}", stdout(&out));
}

#[test]
fn malformed_flags_exit_nonzero_with_usage() {
    for bad in [
        &["bfs", "A302", "--bogus", "1"][..],
        &["bfs", "A302", "--dpus"][..],          // flag missing its value
        &["bfs", "A302", "--dpus", "lots"][..],  // unparseable value
        &["serve", "A302", "--queries", "-3"][..],
        &["bfs"][..],                            // missing graph
        &[][..],                                 // missing everything
    ] {
        let out = cli(bad);
        assert!(!out.status.success(), "{bad:?} must fail");
        assert!(
            stderr(&out).contains("usage: alpha_pim_cli"),
            "{bad:?} stderr: {}",
            stderr(&out),
        );
    }
}

#[test]
fn unknown_graph_exits_nonzero_and_lists_catalog() {
    let out = cli(&["bfs", "NOPE"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("A302"), "stderr: {}", stderr(&out));
}
