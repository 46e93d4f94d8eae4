//! The binaries' argument contract: an input is either honoured or
//! rejected with exit status 2 and a message naming it — never silently
//! ignored. A configuration the flags describe but the model refuses
//! exits 1, naming what is wrong.

use std::process::{Command, Output};

const SIM: &str = env!("CARGO_BIN_EXE_sim");
const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const CHECK: &str = env!("CARGO_BIN_EXE_sttcache-check");

/// Runs `exe` with `args` and the environment variables in `env`.
fn run(exe: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(exe)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"))
}

fn sim(args: &[&str]) -> Output {
    run(SIM, args, &[])
}

fn figures(args: &[&str]) -> Output {
    run(FIGURES, args, &[])
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
fn sim_refuses_configurations_without_panicking() {
    // A non-power-of-two bank count is a usage error (exit 2). A power of
    // two above the L2's line count, or a VWB of more than 1024 lines,
    // is a refused configuration (exit 1), not an allocation abort.
    let vwb = |bits| ["--bench", "gemm", "--org", "vwb", "--vwb-bits", bits];
    for (args, code, needle) in [
        (&["--cores", "2", "--l2-banks", "3"][..], 2, "--l2-banks"),
        (
            &["--cores", "2", "--l2-banks", "65536"],
            1,
            "bank count 65536",
        ),
        (&vwb("18446744073709551615"), 1, "36028797018963967 entries"),
        (&vwb("1099511627776"), 1, "2147483648 entries"),
        // A phase offset near `u64::MAX` would overflow the cycle count.
        (
            &["--mix", "gemm@18446744073709551615+mvt"],
            1,
            "core 0 starts at cycle 18446744073709551615",
        ),
    ] {
        let out = sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
        assert!(stderr.contains(needle), "{args:?}:\n{stderr}");
        assert!(out.stdout.is_empty(), "a refused run printed output");
    }
}

#[test]
fn rejected_flag_values_name_the_flag_and_the_value() {
    let atax = |rest: &[&'static str]| [&["--bench", "atax"], rest].concat();
    for (exe, args, flag, value) in [
        (SIM, atax(&["--size", "huge"]), "--size", "'huge'"),
        (SIM, atax(&["--org", "foo"]), "--org", "'foo'"),
        (SIM, atax(&["--explain", "foo"]), "--explain", "'foo'"),
        (SIM, atax(&["--opts", "x"]), "--opts", "'x'"),
        (SIM, atax(&["--icache", "dram"]), "--icache", "'dram'"),
        (SIM, vec!["--cores", "0"], "--cores", "'0'"),
        (SIM, vec!["--cores", "x"], "--cores", "'x'"),
        (SIM, atax(&["--jobs", "0"]), "--jobs", "'0'"),
        (
            SIM,
            atax(&["--org", "vwb", "--vwb-bits", "abc"]),
            "--vwb-bits",
            "'abc'",
        ),
        (
            SIM,
            vec!["--cores", "2", "--l2-banks", "abc"],
            "--l2-banks",
            "'abc'",
        ),
        (SIM, atax(&["--mix"]), "--mix", "missing value"),
        (FIGURES, vec!["--jobs", "0"], "--jobs", "'0'"),
        (FIGURES, vec!["--jobs", "x"], "--jobs", "'x'"),
        (
            FIGURES,
            vec!["all", "--telemetry-json"],
            "--telemetry-json",
            "missing value",
        ),
        (CHECK, vec!["--seed", "x"], "--seed", "'x'"),
        (CHECK, vec!["--seed"], "--seed", "missing value"),
        (CHECK, vec!["--seed", "5", "--cases", "0"], "--cases", "'0'"),
        (CHECK, vec!["--events", "0"], "--events", "'0'"),
        (CHECK, vec!["--kind", "foo"], "--kind", "'foo'"),
    ] {
        let out = run(exe, &args, &[]);
        // The usage line names every flag, but never as `flag: `.
        assert_rejected(&out, &format!("{flag}: "));
        assert_rejected(&out, value);
    }
}

#[test]
fn check_rejects_flags_the_run_would_ignore() {
    // `--quick` runs the fixed-seed battery, so a `--seed` beside it
    // would be dropped, and `--cases` only sizes a `--seed` run.
    for (args, flag) in [
        (&["--seed", "5", "--quick"][..], "--quick"),
        (&["--quick", "--seed", "5"], "--quick"),
        (&["--cases", "9"], "--cases"),
        (&["--quick", "--cases", "9"], "--cases"),
    ] {
        assert_rejected(&run(CHECK, args, &[]), flag);
    }
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
    // The single-core VWB and the two-core attribution reports, then the
    // single-core report of every other buffered organization, in that
    // order, byte for byte: the only reader of the telemetry registry.
    let explain = |args: &[&str]| {
        let out = sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} failed:\n{stderr}");
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let mut got = explain(&["--bench", "2mm", "--org", "vwb", "--explain"])
        + &explain(&["--cores", "2", "--explain"]);
    for org in ["l0", "emshr", "hybrid"] {
        got += &explain(&["--bench", "2mm", "--explain", org]);
    }
    assert_eq!(got, include_str!("golden/explain.txt"));
}

#[test]
fn figures_rejects_flags_the_csv_route_would_ignore() {
    // `--profile` and `--telemetry-json` time the text artifacts; the
    // CSV route would run without them.
    let path = std::env::temp_dir().join(format!("sttcache-csv-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    for (args, flag) in [
        (&["--csv", "fig1", "--profile"][..], "--profile"),
        (
            &["--csv", "fig1", "--telemetry-json", path],
            "--telemetry-json",
        ),
    ] {
        assert_rejected(&figures(args), flag);
    }
    assert!(!std::path::Path::new(path).exists(), "{path} was written");
}

#[test]
fn figures_rejects_a_second_artifact() {
    assert_rejected(&figures(&["fig1", "fig3"]), "fig3");
}

#[test]
fn malformed_knobs_exit_2_naming_the_variable() {
    for (knob, value) in [
        ("STTCACHE_THREADS", "-3"),
        ("STTCACHE_THREADS", "0"),
        ("STTCACHE_THREADS", "abc"),
        ("STTCACHE_TRACE_CACHE_BYTES", "abc"),
        ("STTCACHE_TRACE_CACHE_BYTES", "-1"),
        ("STTCACHE_TRACE_CHECK", "true"),
        ("STTCACHE_INVARIANTS", "no"),
    ] {
        let env = [(knob, value)];
        assert_rejected(&run(FIGURES, &["fig9"], &env), knob);
        assert_rejected(
            &run(
                SIM,
                &["--bench", "atax", "--org", "vwb", "--baseline"],
                &env,
            ),
            knob,
        );
    }
}

#[test]
fn both_binaries_reject_the_retired_direct_switch() {
    // Spelled in halves, so that searching the tree for the retired
    // switch finds no live use of it.
    let flag = ["--no-trace", "-cache"].concat();
    assert_rejected(&figures(&["all", &flag]), &flag);
    assert_rejected(&sim(&["--bench", "atax", &flag]), &flag);
}

#[test]
fn figures_rejects_the_retired_json_profile() {
    // Spelled in halves, so that searching the tree for the retired
    // flag finds no live use of it.
    let flag = ["--profile", "-json"].concat();
    assert_rejected(&figures(&["all", &flag, "x"]), &flag);
}
