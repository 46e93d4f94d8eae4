//! The parser of the boolean environment gates ([`env_gate`]).

/// Reads the boolean environment gate `name` (`STTCACHE_INVARIANTS`,
/// `STTCACHE_TRACE_CHECK`): unset or `0` is off and `1` is on. Any other
/// value, the empty string included, is an error naming the variable and
/// its value, never a default.
pub fn env_gate(name: &str) -> Result<bool, String> {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    match raw.as_deref() {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(raw) => Err(format!("{name}={raw:?}: expected 0 or 1")),
    }
}
