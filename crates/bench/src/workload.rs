//! Workload resolution: one resolver from CLI/mix tokens to
//! [`Workload`] identities, plus the external-trace registry.
//!
//! Every front end (`sim --bench`, `sim --trace-file`, the multicore mix
//! grammar, the fuzzer) resolves workload names here, against the
//! workload catalog (`sttcache_workloads::catalog`) — one lookup, one
//! error type, no private name tables.
//!
//! External traces (`file:<path>` tokens) are ingested through the
//! hardened binary reader, then **content-hashed**: the trace's event
//! words are FNV-1a hashed in place ([`Trace::content_hash`]) into the
//! 64-bit identity behind [`Workload::External`]. The same recording
//! ingested twice — or from two different paths — is one workload, so
//! the trace cache and its result memo apply to it exactly as they do to
//! kernel-backed workloads, with zero special cases downstream.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use sttcache_cpu::Trace;
use sttcache_workloads::{catalog, Workload};

/// Why a workload token failed to resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The token names neither a catalog entry nor a `file:` source.
    Unknown(String),
    /// A `file:` source could not be read or parsed.
    File {
        /// The path as given in the token.
        path: String,
        /// The underlying I/O or format error.
        error: String,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Unknown(token) => {
                write!(f, "unknown workload '{token}' (try one of: ")?;
                let tokens: Vec<&str> = catalog::catalog().iter().map(|w| w.cli).collect();
                write!(f, "{}, or file:<path>)", tokens.join(", "))
            }
            WorkloadError::File { path, error } => {
                write!(f, "cannot ingest trace file '{path}': {error}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A registered external trace: the parsed recording plus where it came
/// from (for labels and mix round-trips).
#[derive(Debug, Clone)]
struct External {
    trace: Arc<Trace>,
    source: String,
}

fn registry() -> &'static Mutex<HashMap<u64, External>> {
    static REGISTRY: OnceLock<Mutex<HashMap<u64, External>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Ingests a recorded trace file: reads it through the hardened binary
/// reader, content-hashes its event words and registers the
/// recording under [`Workload::External`]. Idempotent — re-ingesting the
/// same content returns the same workload identity.
pub fn load_trace_file(path: &str) -> Result<Workload, WorkloadError> {
    let file_err = |error: String| WorkloadError::File {
        path: path.to_string(),
        error,
    };
    let bytes = std::fs::read(path).map_err(|e| file_err(e.to_string()))?;
    let mut cursor = bytes.as_slice();
    let trace = Trace::read_from(&mut cursor).map_err(|e| file_err(e.to_string()))?;
    if !cursor.is_empty() {
        return Err(file_err(format!(
            "{} trailing bytes after the trace payload",
            cursor.len()
        )));
    }
    Ok(register_trace(trace, path.to_string()))
}

/// Registers an in-memory recording as an external workload. `source`
/// is the label the workload reports (a path for file ingestion).
pub fn register_trace(trace: Trace, source: String) -> Workload {
    let id = trace.content_hash();
    let mut reg = registry().lock().expect("workload registry poisoned");
    reg.entry(id).or_insert(External {
        trace: Arc::new(trace),
        source,
    });
    Workload::External(id)
}

/// The registered recording behind an external workload identity.
pub fn external_trace(id: u64) -> Option<Arc<Trace>> {
    registry()
        .lock()
        .expect("workload registry poisoned")
        .get(&id)
        .map(|e| Arc::clone(&e.trace))
}

/// Where an external workload was ingested from.
pub fn external_source(id: u64) -> Option<String> {
    registry()
        .lock()
        .expect("workload registry poisoned")
        .get(&id)
        .map(|e| e.source.clone())
}

/// Resolves a workload token: a catalog CLI token (`gemm`,
/// `list-chase`, …) or an external trace source (`file:<path>`).
pub fn resolve(token: &str) -> Result<Workload, WorkloadError> {
    if let Some(path) = token.strip_prefix("file:") {
        if path.is_empty() {
            return Err(WorkloadError::Unknown(token.to_string()));
        }
        return load_trace_file(path);
    }
    catalog::by_cli(token)
        .map(|spec| spec.workload)
        .ok_or_else(|| WorkloadError::Unknown(token.to_string()))
}

/// The token that resolves back to this workload: the catalog CLI token
/// for kernel-backed workloads, `file:<source>` for external ones. The
/// inverse of [`resolve`] (an external source re-ingests to the same
/// content hash).
pub fn token_of(w: Workload) -> String {
    match w {
        Workload::External(id) => match external_source(id) {
            Some(source) => format!("file:{source}"),
            None => w.label(),
        },
        _ => catalog::by_workload(w)
            .map(|spec| spec.cli.to_string())
            .unwrap_or_else(|| w.label()),
    }
}

/// Display label: the catalog name, or `trace:<hash>` plus its source
/// for external workloads.
pub fn label_of(w: Workload) -> String {
    match w {
        Workload::External(id) => match external_source(id) {
            Some(source) => format!("{} ({source})", w.label()),
            None => w.label(),
        },
        _ => w.label(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttcache_cpu::{Engine, TraceRecorder};
    use sttcache_mem::Addr;

    fn sample_trace() -> Trace {
        let mut rec = TraceRecorder::new();
        for i in 0..32u64 {
            rec.load(Addr(0x1000 + i * 8), 8);
            if i % 3 == 0 {
                rec.store(Addr(0x2000 + i * 8), 8);
            }
        }
        rec.into_trace()
    }

    #[test]
    fn catalog_tokens_resolve() {
        for spec in catalog::catalog() {
            assert_eq!(resolve(spec.cli).unwrap(), spec.workload);
            assert_eq!(token_of(spec.workload), spec.cli);
            assert_eq!(label_of(spec.workload), spec.name);
        }
        assert!(matches!(
            resolve("nosuchkernel"),
            Err(WorkloadError::Unknown(_))
        ));
        assert!(matches!(resolve("file:"), Err(WorkloadError::Unknown(_))));
    }

    #[test]
    fn file_ingestion_round_trips_and_is_idempotent() {
        let trace = sample_trace();
        let dir = std::env::temp_dir();
        let path = dir.join("sttcache_workload_ingest.trace");
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let token = format!("file:{}", path.display());

        let w = resolve(&token).unwrap();
        let again = resolve(&token).unwrap();
        assert_eq!(w, again, "ingestion must be idempotent");
        let Workload::External(id) = w else {
            panic!("file token resolved to a kernel workload")
        };
        assert_eq!(*external_trace(id).unwrap(), trace);
        assert_eq!(token_of(w), token);
        assert!(label_of(w).contains("trace:"));
        // Same content from a different path: same identity.
        let path2 = dir.join("sttcache_workload_ingest_copy.trace");
        std::fs::write(&path2, &bytes).unwrap();
        let w2 = resolve(&format!("file:{}", path2.display())).unwrap();
        assert_eq!(w, w2, "content hash must ignore the path");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn corrupt_and_truncated_files_are_rejected() {
        let dir = std::env::temp_dir();
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();

        let truncated = dir.join("sttcache_workload_truncated.trace");
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            resolve(&format!("file:{}", truncated.display())),
            Err(WorkloadError::File { .. })
        ));

        let garbage = dir.join("sttcache_workload_garbage.trace");
        std::fs::write(&garbage, b"not a trace at all").unwrap();
        assert!(matches!(
            resolve(&format!("file:{}", garbage.display())),
            Err(WorkloadError::File { .. })
        ));

        let trailing = dir.join("sttcache_workload_trailing.trace");
        let mut with_trailing = bytes.clone();
        with_trailing.extend_from_slice(b"junk");
        std::fs::write(&trailing, &with_trailing).unwrap();
        assert!(matches!(
            resolve(&format!("file:{}", trailing.display())),
            Err(WorkloadError::File { .. })
        ));

        assert!(matches!(
            resolve("file:/no/such/path.trace"),
            Err(WorkloadError::File { .. })
        ));
        for p in [&truncated, &garbage, &trailing] {
            std::fs::remove_file(p).ok();
        }
    }
}
