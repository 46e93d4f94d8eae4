//! Trace lifetime: a recording whose only consumer has replayed it for
//! the last time leaves the process-wide trace cache, while the shared
//! recordings stay resident.
//!
//! No other test runs in this binary, so the cache holds exactly what
//! Fig. 6 and Ext. 2 leave behind.

use sttcache_bench::{extensions, fig6, trace_cache, TraceKey};
use sttcache_workloads::{catalog, ProblemSize, Transformations, WorkloadFamily};

#[test]
fn single_use_traces_leave_the_cache_after_their_last_replay() {
    let size = ProblemSize::Mini;
    fig6(size);
    extensions::ext_hw_prefetch(size);
    let resident = trace_cache::global_is_resident;
    let all = Transformations::all();
    let affine = catalog::family(WorkloadFamily::Affine);
    for spec in &affine {
        let w = spec.workload;
        assert!(
            resident(TraceKey::new(w, size, all)),
            "{}: `all` dropped",
            spec.name
        );
        for leave_one_out in [
            Transformations {
                vectorize: false,
                ..all
            },
            Transformations {
                prefetch: false,
                ..all
            },
            Transformations {
                others: false,
                ..all
            },
        ] {
            let key = TraceKey::new(w, size, leave_one_out);
            assert!(!resident(key), "{} still resident", key.label());
        }
    }
    let ext_mix = extensions::ext_mix();
    for w in ext_mix {
        assert!(resident(TraceKey::new(w, size, Transformations::none())));
        let key = TraceKey::new(w, size, Transformations::only_prefetch());
        assert!(!resident(key), "{} still resident", key.label());
    }
    // Every release dropped a resident recording, and nothing else is left.
    let stats = trace_cache::global_stats();
    assert_eq!(stats.releases as usize, 3 * affine.len() + ext_mix.len());
    assert_eq!(stats.evictions, 0);
    assert_eq!(
        trace_cache::global_footprint().1,
        affine.len() + ext_mix.len()
    );
}
