//! The cache's tag store: the one authoritative record of which line
//! each way of each set holds.
//!
//! Every set's tags, replacement stamps, valid and dirty bits and
//! replacement word live in flat arrays, so a cache of any size is six
//! allocations. Per-way arrays are indexed `set * ways + way`; per-set
//! state is one `u64` each. The store holds no data payload: the
//! simulator is timing-only (the functional values live in the workload
//! itself), exactly like gem5's atomic tag arrays.

use crate::addr::Cycle;
use crate::replacement::ReplacementPolicy;

/// Widest set the store represents: valid and dirty bits are one `u64`
/// mask per set, so wider configurations are rejected when built.
pub(crate) const MAX_WAYS: usize = 64;

/// Result of looking a tag up in one set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LookupResult {
    /// The tag is present in the given way.
    Hit(usize),
    /// The tag is absent; `victim` is the way to fill. `dirty_tag`
    /// carries the victim's tag if it holds dirty data that must be
    /// written back.
    Miss {
        victim: usize,
        dirty_tag: Option<u64>,
    },
}

/// Tag, replacement and status state of every set of one cache.
#[derive(Debug, Clone)]
pub(crate) struct TagStore {
    ways: usize,
    /// The policy in force; tree-PLRU over a way count that forms no
    /// binary tree is stored as the true LRU it falls back to.
    policy: ReplacementPolicy,
    tags: Vec<u64>,
    /// Monotonic last-use stamp per way (LRU).
    last_use: Vec<Cycle>,
    /// Monotonic insertion stamp per way (FIFO).
    inserted_at: Vec<Cycle>,
    /// One bit per way, per set.
    valid: Vec<u64>,
    /// One bit per way, per set; only ever set on valid ways.
    dirty: Vec<u64>,
    /// Per set: the tree-PLRU node bits (node 1 is the root, the
    /// children of `n` are `2n` and `2n+1`, and a set bit sends the
    /// victim search right), or the random policy's xorshift state.
    repl: Vec<u64>,
}

impl TagStore {
    /// An empty store of `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is between 1 and [`MAX_WAYS`].
    pub fn new(sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "a set needs 1 to {MAX_WAYS} ways, not {ways}"
        );
        let policy = match policy {
            ReplacementPolicy::TreePlru if ways == 1 || !ways.is_power_of_two() => {
                ReplacementPolicy::Lru
            }
            p => p,
        };
        let repl = match policy {
            // Golden-ratio mix so adjacent sets get distinct streams.
            ReplacementPolicy::Random => (1..=sets as u64)
                .map(|seed| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
                .collect(),
            _ => vec![0; sets],
        };
        TagStore {
            ways,
            policy,
            tags: vec![0; sets * ways],
            last_use: vec![0; sets * ways],
            inserted_at: vec![0; sets * ways],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            repl,
        }
    }

    /// The way of `set` holding `tag`, without touching replacement
    /// state.
    #[inline]
    pub fn probe(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            if self.tags[base + way] == tag {
                return Some(way);
            }
            mask &= mask - 1;
        }
        None
    }

    /// Probes `set` for `tag`; on a miss, names the victim: the lowest
    /// invalid way, else the policy's choice (which advances the random
    /// policy's stream).
    pub fn lookup(&mut self, set: usize, tag: u64) -> LookupResult {
        if let Some(way) = self.probe(set, tag) {
            return LookupResult::Hit(way);
        }
        let free = !self.valid[set] & (u64::MAX >> (64 - self.ways));
        if free != 0 {
            return LookupResult::Miss {
                victim: free.trailing_zeros() as usize,
                dirty_tag: None,
            };
        }
        let victim = self.victim(set);
        let dirty = (self.dirty[set] >> victim) & 1 == 1;
        LookupResult::Miss {
            victim,
            dirty_tag: dirty.then_some(self.tags[set * self.ways + victim]),
        }
    }

    /// The policy's victim in the full `set`.
    fn victim(&mut self, set: usize) -> usize {
        let ways = set * self.ways..(set + 1) * self.ways;
        let oldest = |stamps: &[Cycle]| {
            // The first way with the smallest stamp.
            stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, stamp)| stamp)
                .map_or(0, |(way, _)| way)
        };
        match self.policy {
            ReplacementPolicy::Fifo => oldest(&self.inserted_at[ways]),
            ReplacementPolicy::TreePlru => {
                let bits = self.repl[set];
                let mut node = 1;
                let mut way = 0;
                for _ in 0..self.ways.trailing_zeros() {
                    let bit = (bits >> node) as usize & 1;
                    way = (way << 1) | bit;
                    node = node * 2 + bit;
                }
                way
            }
            ReplacementPolicy::Random => {
                // xorshift64*
                let mut x = self.repl[set];
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.repl[set] = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % self.ways
            }
            ReplacementPolicy::Lru => oldest(&self.last_use[ways]),
        }
    }

    /// Records a use of `way` (hit or fill) in the tree-PLRU bits,
    /// pointing every node on its path away from it.
    #[inline]
    fn plru_touch(&mut self, set: usize, way: usize) {
        if self.policy != ReplacementPolicy::TreePlru {
            return;
        }
        let bits = &mut self.repl[set];
        let mut node = 1;
        for level in (0..self.ways.trailing_zeros()).rev() {
            let went_right = (way >> level) & 1 == 1;
            if went_right {
                *bits &= !(1 << node);
            } else {
                *bits |= 1 << node;
            }
            node = node * 2 + usize::from(went_right);
        }
    }

    /// Marks `way` of `set` used at cycle `now` (replacement update) and,
    /// with `make_dirty`, dirty.
    ///
    /// # Panics
    ///
    /// Panics if the way is invalid.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize, now: Cycle, make_dirty: bool) {
        assert!((self.valid[set] >> way) & 1 == 1, "touching an invalid way");
        self.last_use[set * self.ways + way] = now;
        self.dirty[set] |= u64::from(make_dirty) << way;
        self.plru_touch(set, way);
    }

    /// Installs `tag` into `way` of `set` at cycle `now`, replacing
    /// whatever was there. `dirty` sets the initial dirty bit.
    pub fn fill(&mut self, set: usize, way: usize, tag: u64, dirty: bool, now: Cycle) {
        let i = set * self.ways + way;
        self.tags[i] = tag;
        self.last_use[i] = now;
        self.inserted_at[i] = now;
        self.valid[set] |= 1 << way;
        self.dirty[set] = (self.dirty[set] & !(1 << way)) | (u64::from(dirty) << way);
        self.plru_touch(set, way);
    }

    /// Invalidates the way of `set` holding `tag`, returning whether it
    /// was dirty, or `None` if the tag is not present.
    pub fn invalidate(&mut self, set: usize, tag: u64) -> Option<bool> {
        let bit = 1 << self.probe(set, tag)?;
        let was_dirty = self.dirty[set] & bit != 0;
        self.valid[set] &= !bit;
        self.dirty[set] &= !bit;
        Some(was_dirty)
    }

    /// Clears the dirty bit of the way of `set` holding `tag` (after a
    /// write-back).
    pub fn clean(&mut self, set: usize, tag: u64) {
        if let Some(way) = self.probe(set, tag) {
            self.dirty[set] &= !(1 << way);
        }
    }

    /// The valid `(tag, dirty)` pairs of `set`, in way order.
    pub fn iter_valid(&self, set: usize) -> impl Iterator<Item = (u64, bool)> + '_ {
        let base = set * self.ways;
        let (valid, dirty) = (self.valid[set], self.dirty[set]);
        (0..self.ways)
            .filter(move |way| (valid >> way) & 1 == 1)
            .map(move |way| (self.tags[base + way], (dirty >> way) & 1 == 1))
    }

    /// Number of dirty lines in the whole store.
    pub fn dirty_count(&self) -> usize {
        self.dirty
            .iter()
            .map(|mask| mask.count_ones() as usize)
            .sum()
    }

    /// Structural validity of `set`, reported through
    /// [`invariants`](crate::invariants): no tag may occupy two valid
    /// ways (a double-fill would make `probe` nondeterministic), and no
    /// way may have been used before it was inserted. Neither check
    /// depends on global access ordering, so both stay sound with
    /// overlapping operations (non-blocking prefetch fills stamp sets
    /// "in the future" relative to the next demand access).
    pub fn check_invariants(&self, set: usize, now: Cycle) {
        let base = set * self.ways;
        let is_valid = |way: &usize| (self.valid[set] >> way) & 1 == 1;
        for i in (0..self.ways).filter(is_valid) {
            let tag = self.tags[base + i];
            let (used, inserted) = (self.last_use[base + i], self.inserted_at[base + i]);
            if used < inserted {
                crate::invariants::report(
                    "set",
                    now,
                    Some(tag),
                    format!("set {set} way {i}: used at {used} before insertion at {inserted}"),
                );
            }
            for j in (i + 1..self.ways).filter(is_valid) {
                if self.tags[base + j] == tag {
                    crate::invariants::report(
                        "set",
                        now,
                        Some(tag),
                        format!("set {set}: tag duplicated in ways {i} and {j}"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A one-set store.
    fn set(ways: usize, policy: ReplacementPolicy) -> TagStore {
        TagStore::new(1, ways, policy)
    }

    fn lru(ways: usize) -> TagStore {
        set(ways, ReplacementPolicy::Lru)
    }

    /// The victim a miss on `tag` in `set` names.
    pub(crate) fn victim_of(store: &mut TagStore, set: usize, tag: u64) -> usize {
        match store.lookup(set, tag) {
            LookupResult::Miss { victim, .. } => victim,
            hit => panic!("unexpected {hit:?}"),
        }
    }

    #[test]
    fn empty_set_misses_with_clean_victim() {
        assert_eq!(
            lru(2).lookup(0, 42),
            LookupResult::Miss {
                victim: 0,
                dirty_tag: None
            }
        );
    }

    #[test]
    fn fill_then_hit() {
        let mut s = lru(2);
        s.fill(0, 0, 42, false, 1);
        assert_eq!(s.lookup(0, 42), LookupResult::Hit(0));
        assert_eq!(s.probe(0, 42), Some(0));
        assert_eq!(s.iter_valid(0).count(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = lru(2);
        s.fill(0, 0, 1, false, 1);
        s.fill(0, 1, 2, false, 2);
        s.touch(0, 0, 3, false); // tag 1 is now MRU
        assert_eq!(victim_of(&mut s, 0, 99), 1);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut s = set(2, ReplacementPolicy::Fifo);
        s.fill(0, 0, 1, false, 1);
        s.fill(0, 1, 2, false, 2);
        s.touch(0, 0, 50, false); // does not save tag 1 under FIFO
        assert_eq!(victim_of(&mut s, 0, 99), 0);
    }

    #[test]
    fn plru_never_victimizes_the_most_recent() {
        let mut s = set(4, ReplacementPolicy::TreePlru);
        for (way, tag) in [10, 20, 30, 40].into_iter().enumerate() {
            s.fill(0, way, tag, false, way as u64);
        }
        s.touch(0, 2, 100, false);
        assert_ne!(victim_of(&mut s, 0, 99), 2);
    }

    #[test]
    fn random_victims_are_reproducible() {
        let run = || {
            let mut s = set(4, ReplacementPolicy::Random);
            for (way, tag) in [10, 20, 30, 40].into_iter().enumerate() {
                s.fill(0, way, tag, false, way as u64);
            }
            (0..8).map(|_| victim_of(&mut s, 0, 99)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dirty_victim_reports_writeback_tag() {
        let mut s = lru(1);
        s.fill(0, 0, 5, false, 1);
        s.touch(0, 0, 2, true);
        assert_eq!(
            s.lookup(0, 6),
            LookupResult::Miss {
                victim: 0,
                dirty_tag: Some(5)
            }
        );
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut s = lru(2);
        s.fill(0, 0, 1, true, 1);
        assert_eq!(s.invalidate(0, 1), Some(true));
        assert_eq!(s.invalidate(0, 1), None);
        assert_eq!(s.iter_valid(0).count(), 0);
        assert_eq!(s.dirty_count(), 0);
    }

    #[test]
    fn clean_clears_dirty_bit() {
        let mut s = lru(1);
        s.fill(0, 0, 9, true, 1);
        s.clean(0, 9);
        assert!(matches!(
            s.lookup(0, 10),
            LookupResult::Miss {
                dirty_tag: None,
                ..
            }
        ));
    }

    #[test]
    fn invalid_way_preferred_as_victim() {
        let mut s = lru(4);
        s.fill(0, 0, 1, false, 1);
        s.fill(0, 1, 2, false, 2);
        assert_eq!(victim_of(&mut s, 0, 3), 2);
    }

    #[test]
    fn lru_tie_breaks_by_way_index() {
        let mut s = lru(2);
        s.fill(0, 0, 1, false, 5);
        s.fill(0, 1, 2, false, 5);
        assert_eq!(victim_of(&mut s, 0, 3), 0);
    }

    #[test]
    #[should_panic(expected = "invalid way")]
    fn touch_invalid_way_panics() {
        lru(1).touch(0, 0, 1, false);
    }

    #[test]
    #[should_panic(expected = "1 to 64 ways")]
    fn zero_ways_panics() {
        let _ = lru(0);
    }

    #[test]
    fn check_invariants_flags_duplicate_tags() {
        crate::invariants::take_violations();
        let mut s = TagStore::new(4, 2, ReplacementPolicy::Lru);
        s.fill(3, 0, 7, false, 5);
        s.fill(3, 1, 7, false, 6); // double-fill: same tag in two ways
        s.check_invariants(3, 10);
        let (list, _) = crate::invariants::take_violations();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].component, "set");
        assert_eq!(list[0].cycle, 10);
        assert_eq!(list[0].addr, Some(7));
        assert!(list[0].detail.contains("duplicated"), "{}", list[0].detail);

        // A clean set reports nothing.
        let mut ok = lru(2);
        ok.fill(0, 0, 1, false, 1);
        ok.fill(0, 1, 2, true, 2);
        ok.touch(0, 0, 9, false);
        ok.check_invariants(0, 20);
        assert_eq!(crate::invariants::take_violations().1, 0);
    }

    #[test]
    fn iter_valid_lists_contents() {
        let mut s = lru(3);
        s.fill(0, 0, 10, false, 1);
        s.fill(0, 2, 20, true, 2);
        assert_eq!(
            s.iter_valid(0).collect::<Vec<_>>(),
            vec![(10, false), (20, true)]
        );
        assert_eq!(s.dirty_count(), 1);
    }

    #[test]
    fn a_64_way_set_uses_way_63() {
        let mut s = lru(64);
        for tag in 0..64 {
            let way = victim_of(&mut s, 0, tag);
            assert_eq!(way, tag as usize, "invalid ways fill lowest first");
            s.fill(0, way, tag, tag == 63, tag);
        }
        assert_eq!(s.probe(0, 63), Some(63));
        assert_eq!(s.iter_valid(0).count(), 64);
        assert_eq!(s.dirty_count(), 1);
        s.touch(0, 0, 100, false);
        assert_eq!(victim_of(&mut s, 0, 64), 1, "the full set evicts LRU");
        assert_eq!(s.invalidate(0, 63), Some(true));
        assert_eq!(victim_of(&mut s, 0, 64), 63);
    }
}
