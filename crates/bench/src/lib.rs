//! Experiment harness for the DATE 2015 STT-MRAM L1 D-cache paper.
//!
//! One function per table/figure of the paper's evaluation. Each returns
//! the figure as data, a [`SeriesTable`] (so the `figures` binary, the
//! benchmark in `benchmark/` and the integration tests all share one
//! source of truth), and [`figures`] renders every table in the layout
//! the paper plots.
//!
//! Penalty convention (identical to the paper): every bar is
//! `100·(cycles(config) − cycles(SRAM baseline)) / cycles(SRAM baseline)`,
//! with the SRAM D-cache platform running the *untransformed* kernels as
//! the fixed 100 % reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod check;
pub mod experiments;
pub mod explain;
pub mod extensions;
pub mod figures;
pub mod multicore;
pub mod parallel;
pub mod profile;
pub mod testkit;
pub mod trace_cache;
pub mod workload;

pub use experiments::{
    fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, run_benchmark, table1, SeriesTable,
};
pub use parallel::{GridPoint, SweepError, SweepRunner};
pub use profile::{ProfileReport, ProfileSnapshot};
pub use trace_cache::{TraceCache, TraceCacheStats, TraceKey};
pub use workload::WorkloadError;

/// Checks the sweep knob `STTCACHE_THREADS` and the boolean gates
/// `STTCACHE_TRACE_CHECK` and `STTCACHE_INVARIANTS`
/// ([`sttcache_mem::env_gate`]), and refuses the retired
/// `STTCACHE_TRACE_CACHE_BYTES` whenever it is set: the trace cache has
/// no cap to honour. The binaries call this before any work and exit 2
/// on error; a library caller that skips it gets the same message for
/// a malformed knob as a panic from the first read of that knob, and
/// never reads the retired one.
///
/// # Errors
///
/// Names the first malformed or retired variable and its value.
pub fn check_env_knobs() -> Result<(), String> {
    if let Some(raw) = std::env::var_os("STTCACHE_TRACE_CACHE_BYTES") {
        return Err(format!(
            "STTCACHE_TRACE_CACHE_BYTES={:?}: retired (the trace cache has no cap); unset it",
            raw.to_string_lossy()
        ));
    }
    SweepRunner::from_env()?;
    sttcache_mem::env_gate("STTCACHE_TRACE_CHECK")?;
    sttcache_mem::env_gate("STTCACHE_INVARIANTS")?;
    Ok(())
}

/// Makes a failed write to stdout end the process instead of panicking.
///
/// Std's `print!` family panics with `failed printing to stdout: {error}`
/// when a write fails. The binaries call this first in `main`, and the
/// hook it installs takes those panics over: a reader that closed the
/// pipe early (`figures all | head -1`) ends the run quietly with status
/// 0, so `set -o pipefail` pipelines keep passing, and any other error (a
/// full disk) exits 1 with one stderr line, prefixed with `bin`, naming
/// it. Every other panic goes to the hook that was installed before.
pub fn exit_on_stdout_error(bin: &'static str) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let failed_write = info
            .payload_as_str()
            .and_then(|m| m.strip_prefix("failed printing to stdout: "));
        let Some(error) = failed_write else {
            return previous(info);
        };
        if os_error_kind(error) == Some(std::io::ErrorKind::BrokenPipe) {
            std::process::exit(0);
        }
        eprintln!("{bin}: cannot write to stdout: {error}");
        std::process::exit(1);
    }));
}

/// The kind of an OS error from its `Display` form, `… (os error N)`.
fn os_error_kind(error: &str) -> Option<std::io::ErrorKind> {
    let (_, code) = error.strip_suffix(')')?.rsplit_once("(os error ")?;
    Some(std::io::Error::from_raw_os_error(code.parse().ok()?).kind())
}

#[cfg(test)]
mod tests {
    #[test]
    fn os_error_kinds_read_back_from_their_display_form() {
        for code in 1..150 {
            let e = std::io::Error::from_raw_os_error(code);
            assert_eq!(super::os_error_kind(&e.to_string()), Some(e.kind()), "{e}");
        }
        assert_eq!(super::os_error_kind("broken pipe"), None);
    }
}
