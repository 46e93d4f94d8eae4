//! Replacement policies.
//!
//! The paper's platform uses true LRU; the alternatives here (FIFO,
//! tree-PLRU, pseudo-random) are the policies a hardware team would weigh
//! against it — true LRU is expensive above a few ways. The per-set
//! state each policy keeps (stamps, tree bits, random stream) lives in
//! the cache's tag store, which also picks the victims. The ablation
//! bench sweeps the policies; `replacement_outcomes_are_pinned` in
//! `tests/properties.rs` pins the victims each one picks.

/// Victim-selection policy of a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ReplacementPolicy {
    /// True least-recently-used (paper configuration).
    #[default]
    Lru,
    /// First-in first-out (insertion order, untouched by hits).
    Fifo,
    /// Tree-based pseudo-LRU (single bit per tree node; the common
    /// hardware approximation for 4+ ways). Falls back to true LRU for
    /// non-power-of-two way counts.
    TreePlru,
    /// Pseudo-random (xorshift; deterministic per set, so simulations
    /// stay reproducible).
    Random,
}

impl ReplacementPolicy {
    /// All policies, for sweeps.
    pub const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Random,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::TreePlru => "tree-plru",
            ReplacementPolicy::Random => "random",
        }
    }
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::tests::victim_of;
    use crate::set::TagStore;

    /// A store of `sets` sets of `ways` ways, every way of every set
    /// filled (tag = way) at cycle 0: victims come from the policy.
    fn full(sets: usize, ways: usize, policy: ReplacementPolicy) -> TagStore {
        let mut store = TagStore::new(sets, ways, policy);
        for set in 0..sets {
            for way in 0..ways {
                store.fill(set, way, way as u64, false, 0);
            }
        }
        store
    }

    /// A full one-set store whose ways were inserted and last used at
    /// the given `(last_use, inserted_at)` cycles.
    fn stamped(policy: ReplacementPolicy, stamps: &[(u64, u64)]) -> TagStore {
        let mut store = TagStore::new(1, stamps.len(), policy);
        for (way, &(used, inserted)) in stamps.iter().enumerate() {
            store.fill(0, way, way as u64, false, inserted);
            store.touch(0, way, used, false);
        }
        store
    }

    fn victim(store: &mut TagStore, set: usize) -> usize {
        victim_of(store, set, u64::MAX)
    }

    #[test]
    fn lru_picks_the_oldest_use() {
        let mut store = stamped(ReplacementPolicy::Lru, &[(5, 0), (2, 1), (9, 2)]);
        assert_eq!(victim(&mut store, 0), 1);
    }

    #[test]
    fn fifo_picks_the_oldest_insert_regardless_of_use() {
        let mut store = stamped(ReplacementPolicy::Fifo, &[(100, 3), (200, 1), (1, 2)]);
        assert_eq!(victim(&mut store, 0), 1);
    }

    #[test]
    fn plru_avoids_the_most_recent_way() {
        let mut store = full(1, 4, ReplacementPolicy::TreePlru);
        for _ in 0..16 {
            let v = victim(&mut store, 0);
            store.touch(0, v, 0, false);
            // Immediately after touching v it is never the next victim.
            assert_ne!(victim(&mut store, 0), v);
        }
    }

    #[test]
    fn plru_cycles_through_all_ways() {
        let mut store = full(1, 4, ReplacementPolicy::TreePlru);
        let mut seen = [false; 4];
        for _ in 0..8 {
            let v = victim(&mut store, 0);
            seen[v] = true;
            store.touch(0, v, 0, false);
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        // Set `s` draws the stream seeded `s + 1`.
        let sequence = |set: usize| -> Vec<usize> {
            let mut store = full(43, 8, ReplacementPolicy::Random);
            (0..32).map(|_| victim(&mut store, set)).collect()
        };
        let a = sequence(41);
        assert_eq!(a, sequence(41));
        assert_ne!(a, sequence(42));
        assert!(a.iter().all(|&v| v < 8));
        // Not stuck on one way.
        assert!(a.iter().collect::<std::collections::HashSet<_>>().len() > 2);
    }

    #[test]
    fn plru_non_power_of_two_falls_back_to_lru() {
        let mut store = stamped(ReplacementPolicy::TreePlru, &[(5, 0), (2, 0), (9, 0)]);
        assert_eq!(victim(&mut store, 0), 1);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "lru");
        assert_eq!(ReplacementPolicy::TreePlru.name(), "tree-plru");
        assert_eq!(ReplacementPolicy::ALL.len(), 4);
    }
}
