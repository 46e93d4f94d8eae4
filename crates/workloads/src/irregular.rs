//! The irregular (pointer-chasing) workload family.
//!
//! Four deterministic kernels whose access streams are the opposite of
//! the PolyBench loop nests: low spatial reuse, data-dependent addresses
//! and no profitable vectorization — the traffic class where an
//! STT-MRAM read penalty cannot hide behind a wide-interface buffer.
//! Every kernel is seeded (an in-module SplitMix64, no external RNG), so
//! recording the same kernel twice yields bit-identical traces and the
//! shared trace cache stays sound.
//!
//! Determinism contract (DESIGN.md §16): the computation — and therefore
//! the output checksum — is independent of the [`Transformations`]
//! toggles. `others` only moves array bases (alignment) and batches loop
//! overhead (unrolling), `prefetch` only adds hint events, and
//! `vectorize` is a no-op: dependent chains have no 4-wide variant, which
//! is precisely the property the family exists to measure.

use crate::kernels::{checksum, for_n, seed_value, Kernel};
use crate::space::DataSpace;
use crate::suite::ProblemSize;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// SplitMix64: the crate-local seeded generator behind every irregular
/// kernel's topology (list permutation, hash keys, graph edges, object
/// references). Small, fast and stable — the stream for a given seed is
/// part of the trace-reproducibility contract.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seeded linked-list traversal: a Sattolo single-cycle permutation of
/// `nodes` list nodes walked for `steps` dependent hops, accumulating a
/// payload and writing it back periodically. Every load is on the
/// critical path and the successor is data-dependent, so no buffer or
/// prefetch distance short of following the pointer helps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListChase {
    nodes: usize,
    steps: usize,
    seed: u64,
}

impl ListChase {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or `steps` is zero.
    pub fn new(nodes: usize, steps: usize, seed: u64) -> Self {
        assert!(
            nodes >= 2 && steps > 0,
            "list chase needs a cycle and steps"
        );
        ListChase { nodes, steps, seed }
    }
}

impl Kernel for ListChase {
    fn name(&self) -> &'static str {
        "list-chase"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut next = space.array1(self.nodes);
        let mut payload = space.array1(self.nodes);
        let mut sink = space.array1(1);

        // Sattolo's algorithm: a uniform random *single-cycle*
        // permutation, so the chase never gets stuck in a short loop.
        let mut rng = SplitMix64::new(self.seed);
        let mut perm: Vec<usize> = (0..self.nodes).collect();
        for i in (1..self.nodes).rev() {
            let j = rng.below(i);
            perm.swap(i, j);
        }
        let mut succ = vec![0usize; self.nodes];
        for w in 0..self.nodes {
            succ[perm[w]] = perm[(w + 1) % self.nodes];
        }
        next.fill(|i| succ[i] as f32);
        payload.fill(|i| seed_value(i, 11));

        let mut idx = rng.below(self.nodes);
        let mut acc = 0.0f32;
        for_n(e, t.unroll_factor(), self.steps, |e, s| {
            let nxt = next.at(e, idx) as usize;
            let v = payload.at(e, idx);
            acc += v;
            e.compute(3);
            if s % 16 == 0 {
                payload.set(e, idx, v + 0.5);
            }
            if t.prefetch {
                // The only prefetch a dependent chase admits: hint the
                // successor the moment its index is known.
                e.prefetch(next.addr(nxt));
            }
            idx = nxt;
        });
        sink.set(e, 0, acc + idx as f32);
        checksum(sink.raw())
    }
}

/// Open-addressing hash-table probes: seeded keys inserted with linear
/// probing, then a mixed present/absent lookup stream. Probe sequences
/// hash all over the table — short dependent runs with no spatial reuse
/// beyond the probe cluster itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashProbe {
    capacity: usize,
    keys: usize,
    probes: usize,
    seed: u64,
}

impl HashProbe {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if the table would be full (`keys >= capacity`) or any
    /// parameter is zero.
    pub fn new(capacity: usize, keys: usize, probes: usize, seed: u64) -> Self {
        assert!(
            capacity > 0 && keys > 0 && probes > 0 && keys < capacity,
            "hash probe needs a non-full table and work"
        );
        HashProbe {
            capacity,
            keys,
            probes,
            seed,
        }
    }

    fn slot_of(&self, key: u32) -> usize {
        let mut x = key.wrapping_mul(2654435761);
        x ^= x >> 15;
        (x as usize) % self.capacity
    }
}

impl Kernel for HashProbe {
    fn name(&self) -> &'static str {
        "hash-probe"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        // A slot of 0.0 is empty; keys start at 1 and stay well inside f32's
        // exact-integer range.
        let mut slots = space.array1(self.capacity);
        let mut vals = space.array1(self.capacity);
        let mut sink = space.array1(1);

        let mut rng = SplitMix64::new(self.seed);
        let mut inserted = Vec::with_capacity(self.keys);
        for _ in 0..self.keys {
            let key = 1 + (rng.next_u64() % 0xFFFF) as u32;
            inserted.push(key);
            let mut h = self.slot_of(key);
            loop {
                let cur = slots.at(e, h);
                e.compute(2);
                let empty = cur == 0.0;
                e.branch(!empty);
                if empty {
                    slots.set(e, h, key as f32);
                    vals.set(e, h, seed_value(key as usize, 3));
                    break;
                }
                h = (h + 1) % self.capacity;
            }
        }

        let mut acc = 0.0f32;
        for_n(e, t.unroll_factor(), self.probes, |e, _| {
            // Three present lookups for every absent one.
            let present = rng.below(4) != 0;
            let key = if present {
                inserted[rng.below(inserted.len())]
            } else {
                0x1_0000 + (rng.next_u64() % 0xFFFF) as u32
            };
            let mut h = self.slot_of(key);
            if t.prefetch {
                // The probe cluster is the one predictable address run.
                e.prefetch(slots.addr((h + 1) % self.capacity));
            }
            loop {
                let cur = slots.at(e, h);
                e.compute(2);
                if cur == key as f32 {
                    e.branch(false);
                    acc += vals.at(e, h);
                    break;
                }
                if cur == 0.0 {
                    e.branch(false);
                    acc -= 0.125;
                    break;
                }
                e.branch(true);
                h = (h + 1) % self.capacity;
            }
        });
        sink.set(e, 0, acc);
        checksum(sink.raw())
    }
}

/// CSR graph BFS: level-synchronous frontier sweeps over a seeded random
/// graph. The row-pointer and column arrays stream, but the visited-
/// distance lookups scatter across the whole node range — the classic
/// graph-analytics mix of streaming metadata and random payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrBfs {
    nodes: usize,
    degree: usize,
    seed: u64,
}

impl CsrBfs {
    /// Creates the workload over `nodes` vertices with `degree` seeded
    /// out-edges each.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or `degree` is zero.
    pub fn new(nodes: usize, degree: usize, seed: u64) -> Self {
        assert!(nodes >= 2 && degree > 0, "BFS needs a graph");
        CsrBfs {
            nodes,
            degree,
            seed,
        }
    }
}

impl Kernel for CsrBfs {
    fn name(&self) -> &'static str {
        "csr-bfs"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let edges = self.nodes * self.degree;
        let mut row_ptr = space.array1(self.nodes + 1);
        let mut col = space.array1(edges);
        let mut dist = space.array1(self.nodes);
        let mut frontier = space.array1(self.nodes);
        let mut next_frontier = space.array1(self.nodes);

        let mut rng = SplitMix64::new(self.seed);
        let mut targets = vec![0usize; edges];
        for tgt in targets.iter_mut() {
            *tgt = rng.below(self.nodes);
        }
        row_ptr.fill(|i| (i * self.degree) as f32);
        col.fill(|j| targets[j] as f32);
        dist.fill(|_| -1.0);

        dist.set(e, 0, 0.0);
        frontier.set(e, 0, 0.0);
        let mut count = 1usize;
        let mut level = 0usize;
        while count > 0 {
            let mut produced = 0usize;
            for_n(e, t.unroll_factor(), count, |e, i| {
                let u = frontier.at(e, i) as usize;
                let start = row_ptr.at(e, u) as usize;
                let end = row_ptr.at(e, u + 1) as usize;
                for j in start..end {
                    let v = col.at(e, j) as usize;
                    if t.prefetch {
                        // Streaming over col is easy; the win is hinting
                        // the scattered distance slot before the check.
                        e.prefetch(dist.addr(v));
                    }
                    let d = dist.at(e, v);
                    e.compute(2);
                    let unseen = d < 0.0;
                    e.branch(unseen);
                    if unseen {
                        dist.set(e, v, (level + 1) as f32);
                        next_frontier.set(e, produced, v as f32);
                        produced += 1;
                    }
                }
            });
            for_n(e, t.unroll_factor(), produced, |e, i| {
                let v = next_frontier.at(e, i);
                frontier.set(e, i, v);
            });
            count = produced;
            level += 1;
        }
        checksum(dist.raw())
    }
}

/// GC-mark-style object-graph traversal: a seeded heap of fixed-shape
/// objects (two reference slots each, some null), marked from seeded
/// roots through an explicit worklist — the hwgc-flavored tracing load of
/// mark-bit read-modify-writes at data-dependent addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcMark {
    objects: usize,
    roots: usize,
    seed: u64,
}

/// Reference slots per heap object.
const GC_SLOTS: usize = 2;

impl GcMark {
    /// Creates the workload over `objects` heap objects marked from
    /// `roots` seeded roots.
    ///
    /// # Panics
    ///
    /// Panics if `objects < 2` or `roots` is zero.
    pub fn new(objects: usize, roots: usize, seed: u64) -> Self {
        assert!(objects >= 2 && roots > 0, "GC mark needs a heap and roots");
        GcMark {
            objects,
            roots,
            seed,
        }
    }
}

impl Kernel for GcMark {
    fn name(&self) -> &'static str {
        "gc-mark"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut refs = space.array1(GC_SLOTS * self.objects);
        let mut mark = space.array1(self.objects);
        // Worst case: every root plus both slots of every object get
        // pushed once — the worklist never grows past that.
        let mut stack = space.array1(self.roots + GC_SLOTS * self.objects);

        let mut rng = SplitMix64::new(self.seed);
        let mut slots = vec![-1.0f32; GC_SLOTS * self.objects];
        for s in slots.iter_mut() {
            // Three live references for every null slot.
            if rng.below(4) != 0 {
                *s = rng.below(self.objects) as f32;
            }
        }
        refs.fill(|i| slots[i]);

        let mut sp = 0usize;
        for_n(e, t.unroll_factor(), self.roots, |e, _| {
            let root = rng.below(self.objects);
            stack.set(e, sp, root as f32);
            sp += 1;
        });

        // The mark loop is a worklist drain, not a counted loop, so it
        // carries its own back-edge accounting (batched per unroll group
        // like `for_n` batches counted loops).
        let unroll = t.unroll_factor() as usize;
        let mut tick = 0usize;
        while sp > 0 {
            sp -= 1;
            let u = stack.at(e, sp) as usize;
            let m = mark.at(e, u);
            e.compute(1);
            let unmarked = m == 0.0;
            e.branch(unmarked);
            if unmarked {
                mark.set(e, u, 1.0);
                for slot in 0..GC_SLOTS {
                    let child = refs.at(e, GC_SLOTS * u + slot);
                    let live = child >= 0.0;
                    e.branch(live);
                    if live {
                        if t.prefetch {
                            e.prefetch(mark.addr(child as usize));
                        }
                        stack.set(e, sp, child);
                        sp += 1;
                    }
                }
            }
            tick += 1;
            if tick.is_multiple_of(unroll) {
                e.compute(1);
                e.branch(sp > 0);
            }
        }
        checksum(mark.raw())
    }
}

/// The irregular family, enumerable like [`crate::PolyBench`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the kernel names
pub enum Irregular {
    ListChase,
    HashProbe,
    CsrBfs,
    GcMark,
}

impl Irregular {
    /// Every irregular kernel, in catalog order.
    pub const ALL: [Irregular; 4] = [
        Irregular::ListChase,
        Irregular::HashProbe,
        Irregular::CsrBfs,
        Irregular::GcMark,
    ];

    /// The kernel's canonical name (also its CLI token).
    pub fn name(self) -> &'static str {
        match self {
            Irregular::ListChase => "list-chase",
            Irregular::HashProbe => "hash-probe",
            Irregular::CsrBfs => "csr-bfs",
            Irregular::GcMark => "gc-mark",
        }
    }

    /// Instantiates the kernel at the given problem size. Seeds are
    /// fixed per kernel: the topology is part of the workload identity.
    pub fn kernel(self, size: ProblemSize) -> Box<dyn Kernel> {
        let s = size.scale();
        match self {
            Irregular::ListChase => Box::new(ListChase::new(768 * s, 1536 * s, 0xC0FFEE)),
            Irregular::HashProbe => Box::new(HashProbe::new(1024 * s, 640 * s, 768 * s, 0xB1657)),
            Irregular::CsrBfs => Box::new(CsrBfs::new(320 * s, 4, 0x5EED)),
            Irregular::GcMark => Box::new(GcMark::new(512 * s, 24 * s, 0x6C_3A2B)),
        }
    }
}

impl std::fmt::Display for Irregular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::test_support::Recorder;

    #[test]
    fn names_match_kernels() {
        for w in Irregular::ALL {
            assert_eq!(w.kernel(ProblemSize::Mini).name(), w.name());
            assert_eq!(w.to_string(), w.name());
        }
    }

    #[test]
    fn recording_is_deterministic() {
        for w in Irregular::ALL {
            let run = || {
                let mut rec = Recorder::default();
                let sum = w
                    .kernel(ProblemSize::Mini)
                    .execute(&mut rec, Transformations::none());
                (rec.loads, rec.stores, sum.to_bits())
            };
            assert_eq!(run(), run(), "{w}");
        }
    }

    #[test]
    fn small_is_bigger_than_mini() {
        for w in Irregular::ALL {
            let count = |size| {
                let mut rec = Recorder::default();
                w.kernel(size).run(&mut rec, Transformations::none());
                rec.loads.len()
            };
            assert!(count(ProblemSize::Small) > count(ProblemSize::Mini), "{w}");
        }
    }

    #[test]
    fn prefetch_toggle_emits_hints_without_changing_results() {
        for w in Irregular::ALL {
            let mut plain = Recorder::default();
            let base = w
                .kernel(ProblemSize::Mini)
                .execute(&mut plain, Transformations::none());
            let mut hinted = Recorder::default();
            let out = w
                .kernel(ProblemSize::Mini)
                .execute(&mut hinted, Transformations::only_prefetch());
            assert!(plain.prefetches.is_empty(), "{w}: hints without the toggle");
            assert!(!hinted.prefetches.is_empty(), "{w}: no prefetch hints");
            assert_eq!(base.to_bits(), out.to_bits(), "{w}: prefetch changed data");
            assert_eq!(plain.loads, hinted.loads, "{w}: prefetch changed loads");
        }
    }

    #[test]
    fn bfs_reaches_most_of_the_graph() {
        let mut rec = Recorder::default();
        let sum = CsrBfs::new(320, 4, 0x5EED).execute(&mut rec, Transformations::none());
        // checksum(dist) = sum of levels over reached nodes - unreached
        // count; a connected-ish random graph reaches nearly everything,
        // so the sum is comfortably positive.
        assert!(sum > 0.0, "BFS reached too little of the graph: {sum}");
    }

    #[test]
    fn chase_visits_are_scattered() {
        let mut rec = Recorder::default();
        ListChase::new(256, 512, 1).run(&mut rec, Transformations::none());
        // Dependent hops through a random cycle: consecutive loads land
        // on different cache lines far more often than a stream would.
        let jumps = rec
            .loads
            .windows(2)
            .filter(|w| w[0].0 .0 / 64 != w[1].0 .0 / 64)
            .count();
        assert!(jumps * 2 > rec.loads.len(), "chase looks like a stream");
    }
}
