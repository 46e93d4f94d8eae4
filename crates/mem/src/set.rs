//! The cache's tag store: the one authoritative record of which line
//! each way of each set holds.
//!
//! Every set's tags, replacement stamps, valid and dirty bits and
//! replacement word live in flat arrays, so a cache of any size is six
//! allocations. Per-way arrays are indexed `set * ways + way`; per-set
//! state is one `u64` each. The store holds no data payload: the
//! simulator is timing-only (the functional values live in the workload
//! itself), exactly like gem5's atomic tag arrays.
//!
//! ## Recycled storage
//!
//! Every run builds a cold hierarchy, and the canonical 2 MiB L2's
//! per-way arrays alone are 768 KiB, which the allocator would hand back
//! as fresh pages to fault in on every run. Instead a dropped store
//! returns its arrays to a small process-wide pool of at most
//! [`POOL_CAP`] spares, and the next store of the same shape takes them
//! over, clearing only the per-set words: valid, dirty and replacement.
//! The per-way words (tag, last-use and insertion stamp) need no
//! clearing, because they are read only for valid ways, and a way
//! becomes valid only through [`TagStore::fill`], which writes all three:
//!
//! - `probe`, `iter_valid` and `check_invariants` read a way only when
//!   its valid bit is set;
//! - `victim` reads stamps only when every way of the set is valid;
//! - `touch` asserts that the way is valid.
//!
//! `invalidate` has always left stale per-way words behind in just this
//! way, so a recycled store holds no state a used one does not, and
//! every run still starts from cold caches.

use crate::addr::Cycle;
use crate::replacement::ReplacementPolicy;
use std::sync::{Mutex, PoisonError};

/// Widest set the store represents: valid and dirty bits are one `u64`
/// mask per set, so wider configurations are rejected when built.
pub(crate) const MAX_WAYS: usize = 64;

/// Most spare storages the process keeps: two sweep workers' IL1, DL1
/// and L2, or a 4-core mix's four DL1s and its shared L2.
const POOL_CAP: usize = 8;

/// Storage of dropped stores, shared by every thread: the sweep runner
/// spawns fresh workers on every call, so per-thread spares would die
/// with them.
static POOL: Mutex<Pool> = Mutex::new(Pool::new(POOL_CAP));

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

/// A store's arrays, moved whole into and out of the pool.
#[derive(Debug, Clone, Default)]
struct Storage {
    ways: usize,
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

impl Storage {
    /// Zeroed arrays for `sets` sets of `ways` ways.
    fn zeroed(sets: usize, ways: usize) -> Self {
        Storage {
            ways,
            tags: vec![0; sets * ways],
            last_use: vec![0; sets * ways],
            inserted_at: vec![0; sets * ways],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            repl: vec![0; sets],
        }
    }

    /// `(sets, ways)`.
    fn shape(&self) -> (usize, usize) {
        (self.valid.len(), self.ways)
    }

    /// Makes the arrays read as a fresh store under `policy`, whatever
    /// they held: every way invalid and clean, and every replacement
    /// word at its initial value. The per-way words are left as they are
    /// (see the module doc).
    fn reset(&mut self, policy: ReplacementPolicy) {
        self.valid.fill(0);
        self.dirty.fill(0);
        match policy {
            // Golden-ratio mix so adjacent sets get distinct streams.
            ReplacementPolicy::Random => {
                for (seed, word) in (1u64..).zip(&mut self.repl) {
                    *word = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                }
            }
            _ => self.repl.fill(0),
        }
    }
}

/// At most `cap` spare storages, oldest first.
#[derive(Debug)]
struct Pool {
    cap: usize,
    spares: Vec<Storage>,
}

impl Pool {
    const fn new(cap: usize) -> Self {
        Pool {
            cap,
            spares: Vec::new(),
        }
    }

    /// The newest spare of exactly `sets` sets of `ways` ways, if any.
    fn take(&mut self, sets: usize, ways: usize) -> Option<Storage> {
        let i = self
            .spares
            .iter()
            .rposition(|s| s.shape() == (sets, ways))?;
        Some(self.spares.remove(i))
    }

    /// Keeps `storage` as the newest spare, dropping the oldest if the
    /// pool is full.
    fn put(&mut self, storage: Storage) {
        if self.spares.len() == self.cap {
            self.spares.remove(0);
        }
        self.spares.push(storage);
    }
}

/// Tag, replacement and status state of every set of one cache.
#[derive(Debug, Clone)]
pub(crate) struct TagStore {
    /// The policy in force; tree-PLRU over a way count that forms no
    /// binary tree is stored as the true LRU it falls back to.
    policy: ReplacementPolicy,
    storage: Storage,
}

impl TagStore {
    /// An empty store of `sets` sets of `ways` ways, over a dropped
    /// store's storage of that shape when the pool holds one.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is between 1 and [`MAX_WAYS`].
    pub fn new(sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "a set needs 1 to {MAX_WAYS} ways, not {ways}"
        );
        // A poisoned pool is still whole: each update of it is a single
        // push or remove.
        let spare = POOL
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take(sets, ways);
        TagStore::over(spare.unwrap_or_else(|| Storage::zeroed(sets, ways)), policy)
    }

    /// An empty store over `storage`, whatever it held.
    fn over(mut storage: Storage, policy: ReplacementPolicy) -> Self {
        let ways = storage.ways;
        let policy = match policy {
            ReplacementPolicy::TreePlru if ways == 1 || !ways.is_power_of_two() => {
                ReplacementPolicy::Lru
            }
            p => p,
        };
        storage.reset(policy);
        TagStore { policy, storage }
    }

    /// The way of `set` holding `tag`, without touching replacement
    /// state.
    #[inline(always)]
    pub fn probe(&self, set: usize, tag: u64) -> Option<usize> {
        let s = &self.storage;
        let base = set * s.ways;
        let mut mask = s.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            if s.tags[base + way] == tag {
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
        let ways = self.storage.ways;
        let free = !self.storage.valid[set] & (u64::MAX >> (64 - ways));
        if free != 0 {
            return LookupResult::Miss {
                victim: free.trailing_zeros() as usize,
                dirty_tag: None,
            };
        }
        let victim = self.victim(set);
        let s = &self.storage;
        let dirty = (s.dirty[set] >> victim) & 1 == 1;
        LookupResult::Miss {
            victim,
            dirty_tag: dirty.then_some(s.tags[set * ways + victim]),
        }
    }

    /// The policy's victim in the full `set`.
    fn victim(&mut self, set: usize) -> usize {
        let s = &mut self.storage;
        let ways = set * s.ways..(set + 1) * s.ways;
        let oldest = |stamps: &[Cycle]| {
            // The first way with the smallest stamp.
            stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, stamp)| stamp)
                .map_or(0, |(way, _)| way)
        };
        match self.policy {
            ReplacementPolicy::Fifo => oldest(&s.inserted_at[ways]),
            ReplacementPolicy::TreePlru => {
                let bits = s.repl[set];
                let mut node = 1;
                let mut way = 0;
                for _ in 0..s.ways.trailing_zeros() {
                    let bit = (bits >> node) as usize & 1;
                    way = (way << 1) | bit;
                    node = node * 2 + bit;
                }
                way
            }
            ReplacementPolicy::Random => {
                // xorshift64*
                let mut x = s.repl[set];
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                s.repl[set] = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % s.ways
            }
            ReplacementPolicy::Lru => oldest(&s.last_use[ways]),
        }
    }

    /// Records a use of `way` (hit or fill) in the tree-PLRU bits,
    /// pointing every node on its path away from it. Only the policy test
    /// is inlined: the walk is tree-PLRU's own work, out of line.
    #[inline(always)]
    fn plru_touch(&mut self, set: usize, way: usize) {
        if self.policy == ReplacementPolicy::TreePlru {
            self.plru_walk(set, way);
        }
    }

    /// [`TagStore::plru_touch`]'s walk from the root to `way`.
    #[inline(never)]
    fn plru_walk(&mut self, set: usize, way: usize) {
        let levels = self.storage.ways.trailing_zeros();
        let bits = &mut self.storage.repl[set];
        let mut node = 1;
        for level in (0..levels).rev() {
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
    #[inline(always)]
    pub fn touch(&mut self, set: usize, way: usize, now: Cycle, make_dirty: bool) {
        let s = &mut self.storage;
        assert!((s.valid[set] >> way) & 1 == 1, "touching an invalid way");
        s.last_use[set * s.ways + way] = now;
        if make_dirty {
            s.dirty[set] |= 1 << way;
        }
        self.plru_touch(set, way);
    }

    /// Installs `tag` into `way` of `set` at cycle `now`, replacing
    /// whatever was there. `dirty` sets the initial dirty bit.
    pub fn fill(&mut self, set: usize, way: usize, tag: u64, dirty: bool, now: Cycle) {
        let s = &mut self.storage;
        let i = set * s.ways + way;
        s.tags[i] = tag;
        s.last_use[i] = now;
        s.inserted_at[i] = now;
        s.valid[set] |= 1 << way;
        s.dirty[set] = (s.dirty[set] & !(1 << way)) | (u64::from(dirty) << way);
        self.plru_touch(set, way);
    }

    /// Invalidates the way of `set` holding `tag`, returning whether it
    /// was dirty, or `None` if the tag is not present.
    pub fn invalidate(&mut self, set: usize, tag: u64) -> Option<bool> {
        let bit = 1 << self.probe(set, tag)?;
        let s = &mut self.storage;
        let was_dirty = s.dirty[set] & bit != 0;
        s.valid[set] &= !bit;
        s.dirty[set] &= !bit;
        Some(was_dirty)
    }

    /// Clears the dirty bit of the way of `set` holding `tag` (after a
    /// write-back).
    pub fn clean(&mut self, set: usize, tag: u64) {
        if let Some(way) = self.probe(set, tag) {
            self.storage.dirty[set] &= !(1 << way);
        }
    }

    /// The valid `(tag, dirty)` pairs of `set`, in way order.
    pub fn iter_valid(&self, set: usize) -> impl Iterator<Item = (u64, bool)> + '_ {
        let s = &self.storage;
        let base = set * s.ways;
        let (valid, dirty) = (s.valid[set], s.dirty[set]);
        (0..s.ways)
            .filter(move |way| (valid >> way) & 1 == 1)
            .map(move |way| (s.tags[base + way], (dirty >> way) & 1 == 1))
    }

    /// Number of dirty lines in the whole store.
    pub fn dirty_count(&self) -> usize {
        self.storage
            .dirty
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
        let s = &self.storage;
        let base = set * s.ways;
        let is_valid = |way: &usize| (s.valid[set] >> way) & 1 == 1;
        for i in (0..s.ways).filter(is_valid) {
            let tag = s.tags[base + i];
            let (used, inserted) = (s.last_use[base + i], s.inserted_at[base + i]);
            if used < inserted {
                crate::invariants::report(
                    "set",
                    now,
                    Some(tag),
                    format!("set {set} way {i}: used at {used} before insertion at {inserted}"),
                );
            }
            for j in (i + 1..s.ways).filter(is_valid) {
                if s.tags[base + j] == tag {
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

impl Drop for TagStore {
    /// Returns the storage to the pool. A poisoned pool frees it
    /// instead, so a drop never panics.
    fn drop(&mut self) {
        if let Ok(mut pool) = POOL.lock() {
            pool.put(std::mem::take(&mut self.storage));
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

    /// xorshift64, so the tests draw reproducible streams without the
    /// bench crate's test kit.
    pub(crate) struct XorShift(pub(crate) u64);

    impl XorShift {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Storage left in any state at all: every way valid and dirty,
    /// random tags (drawn from the domain `tags` the driver uses, so a
    /// stale way would hit) and stamps, and random replacement words,
    /// as another policy would leave them.
    fn garbage(sets: usize, ways: usize, tags: u64, rng: &mut XorShift) -> Storage {
        let mut s = Storage::zeroed(sets, ways);
        s.valid.fill(u64::MAX);
        s.dirty.fill(u64::MAX);
        s.tags.iter_mut().for_each(|t| *t = rng.next() % tags);
        let stamps = s.last_use.iter_mut().chain(&mut s.inserted_at);
        stamps.chain(&mut s.repl).for_each(|w| *w = rng.next());
        s
    }

    /// Every observable of `store`: the valid lines of each set, the
    /// dirty count, and the invariant reports of every set at `now`.
    type Observed = (
        Vec<Vec<(u64, bool)>>,
        usize,
        Vec<crate::invariants::InvariantViolation>,
    );

    fn observe(store: &TagStore, now: Cycle) -> Observed {
        let sets = store.storage.shape().0;
        crate::invariants::take_violations();
        (0..sets).for_each(|set| store.check_invariants(set, now));
        (
            (0..sets)
                .map(|set| store.iter_valid(set).collect())
                .collect(),
            store.dirty_count(),
            crate::invariants::take_violations().0,
        )
    }

    #[test]
    fn recycled_storage_behaves_as_fresh_storage() {
        use ReplacementPolicy::{Fifo, Lru, Random, TreePlru};
        for policy in [Lru, Fifo, TreePlru, Random] {
            for (sets, ways) in [(1, 1), (8, 2), (4, 16), (1, 64)] {
                let case = format!("{policy} {sets}x{ways}");
                let tags = 2 * ways as u64 + 2;
                let mut rng = XorShift(0x9E37_79B9 ^ (sets * 1000 + ways) as u64);
                let mut recycled = TagStore::over(garbage(sets, ways, tags, &mut rng), policy);
                let mut fresh = TagStore::over(Storage::zeroed(sets, ways), policy);
                assert_eq!(observe(&recycled, 0), observe(&fresh, 0), "{case}");
                for now in 1..=1500 {
                    let (set, tag) = (rng.below(sets), rng.next() % tags);
                    let dirty = rng.below(2) == 0;
                    match rng.below(4) {
                        0 => {
                            let looked_up = fresh.lookup(set, tag);
                            assert_eq!(recycled.lookup(set, tag), looked_up, "{case} @{now}");
                            if let LookupResult::Miss { victim, .. } = looked_up {
                                recycled.fill(set, victim, tag, dirty, now);
                                fresh.fill(set, victim, tag, dirty, now);
                            }
                        }
                        1 => {
                            let way = fresh.probe(set, tag);
                            assert_eq!(recycled.probe(set, tag), way, "{case} @{now}");
                            if let Some(way) = way {
                                recycled.touch(set, way, now, dirty);
                                fresh.touch(set, way, now, dirty);
                            }
                        }
                        2 => assert_eq!(
                            recycled.invalidate(set, tag),
                            fresh.invalidate(set, tag),
                            "{case} @{now}"
                        ),
                        _ => {
                            recycled.clean(set, tag);
                            fresh.clean(set, tag);
                        }
                    }
                    assert_eq!(
                        observe(&recycled, now),
                        observe(&fresh, now),
                        "{case} @{now}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_pool_hands_out_exact_shapes_and_drops_its_oldest_spare() {
        let mut pool = Pool::new(3);
        for (sets, ways) in [(4, 4), (1, 1), (2, 8), (8, 2)] {
            pool.put(Storage::zeroed(sets, ways));
            assert!(pool.spares.len() <= 3, "the pool outgrew its cap");
        }
        // The fourth spare pushed out the first: no 4x4 is left, and a
        // spare with as many ways in all but another shape is no match.
        assert!(pool.take(4, 4).is_none());
        assert!(pool.take(16, 1).is_none());
        for shape in [(8, 2), (2, 8), (1, 1)] {
            let spare = pool.take(shape.0, shape.1).expect("a spare of the shape");
            assert_eq!(spare.shape(), shape);
        }
        assert!(pool.spares.is_empty());
        assert!(pool.take(8, 2).is_none());
    }
}
