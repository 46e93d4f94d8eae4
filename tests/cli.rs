//! The binaries' argument contract: an input is either honoured or
//! rejected with exit status 2 and a message naming it — never silently
//! ignored. A configuration the flags describe but the model refuses
//! exits 1, naming what is wrong. A stdout that closes early ends the run
//! quietly with status 0; one that fails otherwise exits 1, naming the
//! error.

use std::process::{Command, Output, Stdio};

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

/// Runs `sim` with `args`, asserts that it succeeded, and returns its
/// stdout.
fn sim_stdout(args: &[&str]) -> String {
    let out = sim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?} failed:\n{stderr}");
    String::from_utf8(out.stdout).expect("utf-8 output")
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
fn a_bad_mix_suffix_is_named_rather_than_the_workload() {
    assert_rejected(
        &sim(&["--cores", "2", "--mix", "gemm@64:foo"]),
        "bad --mix: in mix entry 'gemm@64:foo': unknown organization 'foo' \
         (try one of: sram, nvm, vwb, l0, emshr, hybrid)\n",
    );
    assert_rejected(
        &sim(&["--mix", "gemm@abc:vwb"]),
        "bad --mix: in mix entry 'gemm@abc:vwb': malformed offset 'abc' \
         (not a decimal 64-bit cycle count)\n",
    );
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
        // Refused before the default mix allocates a core per count.
        (
            SIM,
            vec!["--cores", "18446744073709551615"],
            "--cores",
            "'18446744073709551615'",
        ),
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
        (
            SIM,
            vec!["--cores", "2", "--l2-banks", "3"],
            "--l2-banks",
            "'3' is not a power of two",
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
        // Refused before a generator reserves a slot per event.
        (
            CHECK,
            vec!["--events", "18446744073709551615"],
            "--events",
            "'18446744073709551615'",
        ),
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
    let default = sim_stdout(&["--bench", "atax", "--org", "vwb"]);
    let sized = sim_stdout(&["--bench", "atax", "--org", "vwb", "--vwb-bits", "4096"]);
    assert_ne!(sized, default, "--vwb-bits 4096 changed nothing");
    // `--explain vwb` selects the VWB after `--vwb-bits` was given; the
    // explained run must still be the 4 Kbit one.
    let explained = sim_stdout(&["--bench", "atax", "--vwb-bits", "4096", "--explain", "vwb"]);
    assert!(explained.starts_with(&sized), "{explained}");
}

#[test]
fn sim_explain_reports_match_the_golden() {
    // The single-core VWB and the two-core attribution reports, then the
    // single-core report of every other buffered organization, in that
    // order, byte for byte: the only reader of the model's instruments.
    // Last, bicg at Small on the VWB prints every line a single-core
    // report can print, the write-buffer depth and the coalescing runs
    // among them.
    let mut got = sim_stdout(&["--bench", "2mm", "--org", "vwb", "--explain"])
        + &sim_stdout(&["--cores", "2", "--explain"]);
    for org in ["l0", "emshr", "hybrid"] {
        got += &sim_stdout(&["--bench", "2mm", "--explain", org]);
    }
    got += &sim_stdout(&["--bench", "bicg", "--size", "small", "--explain", "vwb"]);
    assert_eq!(got, include_str!("golden/explain.txt"));
}

#[test]
fn sim_explain_checks_its_replay_against_direct_execution() {
    // `STTCACHE_TRACE_CHECK=1` also executes the explained kernel
    // directly and panics if the probed replay diverged from it; the
    // report is unchanged: the golden's first.
    let args = ["--bench", "2mm", "--org", "vwb", "--explain"];
    let out = run(SIM, &args, &[("STTCACHE_TRACE_CHECK", "1")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?} failed:\n{stderr}");
    let golden = include_str!("golden/explain.txt");
    let first = &golden[..golden
        .find("# sim: 2-core")
        .expect("the mix report follows")];
    assert_eq!(String::from_utf8_lossy(&out.stdout), first);
}

#[test]
fn sim_multicore_runs_match_the_golden() {
    // The default four-core mix, a three-core EMSHR attribution report
    // and three identical cores that start together, in that order,
    // byte for byte: no other golden pins a run of more than two cores.
    let got = [
        &["--cores", "4"][..],
        &["--cores", "3", "--org", "emshr", "--explain"],
        &["--mix", "gemm@0:vwb+gemm@0:vwb+gemm@0:vwb"],
    ]
    .map(sim_stdout)
    .concat();
    assert_eq!(got, include_str!("golden/sim_multicore.txt"));
}

#[test]
fn sim_icache_runs_match_the_golden() {
    // An explicit IL1 in each technology, with a baseline and with an
    // explained run, in that order, byte for byte: no other golden pins
    // a run that fetches through an IL1.
    let got = [
        "--bench atax --icache nvm --baseline",
        "--bench atax --org vwb --icache nvm --explain",
        "--bench gemm --org l0 --opts all --icache sram --baseline",
    ]
    .map(|args| sim_stdout(&args.split(' ').collect::<Vec<_>>()))
    .concat();
    assert_eq!(got, include_str!("golden/sim_icache.txt"));
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
fn an_unwritable_telemetry_path_fails_before_any_sweep() {
    // The path is opened before the sweep runs: a bad one costs no
    // simulation and prints no figure.
    let dir = std::env::temp_dir().join(format!("sttcache-missing-{}", std::process::id()));
    let path = dir.join("x.json");
    let path = path.to_str().expect("utf-8 temp path");
    let out = figures(&["fig1", "--telemetry-json", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        out.stdout.is_empty(),
        "printed before failing:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains(path), "'{path}' not named in:\n{stderr}");
}

#[test]
fn serial_and_jobs_are_refused_together_in_either_order() {
    // Both flags set the worker count; neither may silently win.
    for pair in [["--serial", "--jobs", "2"], ["--jobs", "2", "--serial"]] {
        let figures_args = [&["fig9", "--profile"][..], &pair].concat();
        let sim_args = [&["--bench", "atax", "--baseline", "--profile"][..], &pair].concat();
        for out in [figures(&figures_args), sim(&sim_args)] {
            assert_rejected(&out, "--serial");
            assert_rejected(&out, "--jobs");
        }
    }
}

#[test]
fn figures_rejects_a_second_artifact() {
    assert_rejected(&figures(&["fig1", "fig3"]), "fig3");
}

#[test]
fn malformed_or_retired_knobs_exit_2_naming_the_variable() {
    // `STTCACHE_TRACE_CACHE_BYTES` is retired: any value, well-formed or
    // not, is refused rather than silently ignored.
    for (knob, value) in [
        ("STTCACHE_THREADS", "-3"),
        ("STTCACHE_THREADS", "0"),
        ("STTCACHE_THREADS", "abc"),
        ("STTCACHE_TRACE_CACHE_BYTES", "abc"),
        ("STTCACHE_TRACE_CACHE_BYTES", "-1"),
        ("STTCACHE_TRACE_CACHE_BYTES", "1048576"),
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
        assert_rejected(&run(CHECK, &["--quick"], &env), knob);
    }
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // A reader that stops early (`figures all | head -1`) must not turn
    // a `set -o pipefail` pipeline red: exit 0, nothing on stderr. Each
    // run simulates before it prints again, so it writes after the read
    // end below is gone.
    for (exe, args) in [
        (FIGURES, &["all"][..]),
        (SIM, &["--cores", "2"]),
        (CHECK, &["--quick"]),
    ] {
        let mut child = Command::new(exe)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("child runs to its end");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{exe} {args:?}:\n{stderr}");
        assert!(stderr.is_empty(), "{exe} {args:?}:\n{stderr}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_stdout_exits_1_with_one_line_naming_it() {
    for (exe, args) in [
        (FIGURES, &["table1"][..]),
        (SIM, &["--bench", "atax"]),
        (CHECK, &["--list-kinds"]),
    ] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens for writing");
        let out = Command::new(exe)
            .args(args)
            .stdout(full)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe} {args:?}:\n{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{exe} {args:?}:\n{stderr}");
        assert!(
            stderr.contains("cannot write to stdout: No space left on device"),
            "{exe} {args:?}:\n{stderr}"
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
