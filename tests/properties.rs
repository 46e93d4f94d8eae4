//! Property-based tests on the memory hierarchy and front-ends: the timed
//! cache is compared against an untimed reference model over random access
//! sequences, and timing/stat invariants are checked for every structure.
//!
//! Randomness comes from the in-repo seeded harness
//! (`sttcache_bench::testkit`): every failure prints its reproducing
//! seed, and `STTCACHE_TEST_SEED=<seed>` re-runs exactly that case.

use std::collections::HashMap;
use sttcache::{nvm_dl1_config, FrontEnd, StageSpec, VwbConfig};
use sttcache_bench::testkit::{run_cases, Rng};
use sttcache_cpu::{DataPort, Engine as _};
use sttcache_mem::{Addr, Cache, CacheConfig, Cycle, MainMemory, MemoryLevel};

/// An untimed reference model of a set-associative LRU write-back cache:
/// per-set vectors ordered most-recent-first.
struct RefCache {
    sets: Vec<Vec<(u64, bool)>>, // (tag, dirty), MRU first
    ways: usize,
    line_bytes: usize,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> Self {
        RefCache {
            sets: vec![Vec::new(); cfg.sets()],
            ways: cfg.associativity(),
            line_bytes: cfg.line_bytes(),
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes as u64;
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    /// Returns whether the access hit; updates LRU/dirty/contents.
    fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.ways;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&(t, _)| t == tag) {
            let (t, d) = entries.remove(pos);
            entries.insert(0, (t, d || is_write));
            true
        } else {
            entries.insert(0, (tag, is_write));
            entries.truncate(ways);
            false
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter().any(|&(t, _)| t == tag)
    }
}

/// Random (address, is_write) sequences over a small footprint so sets
/// collide and evictions happen.
fn access_seq(rng: &mut Rng) -> Vec<(u64, bool)> {
    rng.vec_of(1, 400, |r| (r.u64_in(0, 1 << 18), r.bool()))
}

/// The timed cache's contents and hit/miss decisions match the untimed
/// LRU reference exactly.
#[test]
fn cache_matches_reference_model() {
    run_cases("cache_matches_reference_model", 64, |rng| {
        let seq = access_seq(rng);
        let cfg = CacheConfig::builder()
            .capacity_bytes(4 * 1024)
            .associativity(2)
            .line_bytes(64)
            .banks(2)
            .build()
            .expect("test configuration is valid");
        let mut cache = Cache::new(cfg, MainMemory::new(50));
        let mut reference = RefCache::new(&cfg);
        let mut now = 0;
        for (addr, is_write) in seq {
            let expect_hit = reference.access(addr, is_write);
            let before = *cache.stats();
            let out = if is_write {
                cache.write(Addr(addr), now)
            } else {
                cache.read(Addr(addr), now)
            };
            let got_hit = cache.stats().misses() == before.misses();
            assert_eq!(got_hit, expect_hit, "addr {addr:#x} write {is_write}");
            assert!(out.complete_at > now);
            now = out.complete_at + 20; // quiesce banks/buffers between ops
        }
        // Final contents agree.
        for addr in (0..(1u64 << 18)).step_by(64) {
            assert_eq!(cache.contains(Addr(addr)), reference.contains(addr));
        }
    });
}

/// Completion times never precede issue, and later issues of the same
/// access never complete earlier (monotonicity under contention).
#[test]
fn completion_is_monotonic() {
    run_cases("completion_is_monotonic", 64, |rng| {
        let seq = access_seq(rng);
        let mut cache = Cache::new(CacheConfig::default(), MainMemory::new(100));
        let mut now = 0;
        for (addr, is_write) in seq {
            let out = if is_write {
                cache.write(Addr(addr), now)
            } else {
                cache.read(Addr(addr), now)
            };
            assert!(out.complete_at > now);
            assert!(out.complete_at <= now + 10_000, "unbounded stall");
            now = out.complete_at;
        }
    });
}

/// Hit + miss counters always reconcile with total accesses, and
/// fills never exceed misses.
#[test]
fn stats_reconcile() {
    run_cases("stats_reconcile", 64, |rng| {
        let seq = access_seq(rng);
        let mut cache = Cache::new(CacheConfig::default(), MainMemory::new(100));
        let mut now = 0;
        for (addr, is_write) in &seq {
            let out = if *is_write {
                cache.write(Addr(*addr), now)
            } else {
                cache.read(Addr(*addr), now)
            };
            now = out.complete_at;
        }
        let s = cache.stats();
        assert_eq!(s.accesses(), seq.len() as u64);
        assert_eq!(s.read_hits + s.read_misses(), s.reads);
        assert!(s.fills <= s.misses());
        assert!(s.writebacks <= s.fills + 1);
    });
}

/// The VWB front-end serves the same addresses as a bare DL1 would —
/// every read completes, and a read issued after a prior read of the
/// same line at a quiescent time is a 1-cycle buffer hit.
#[test]
fn vwb_rereads_hit_in_one_cycle() {
    run_cases("vwb_rereads_hit_in_one_cycle", 64, |rng| {
        let addrs = rng.vec_of(1, 64, |r| r.u64_in(0, 1 << 14));
        let dl1 = Cache::new(nvm_dl1_config().expect("canonical"), MainMemory::new(100));
        let mut vwb =
            FrontEnd::new(&[StageSpec::Vwb(VwbConfig::default())], dl1).expect("canonical");
        let mut now = 0;
        for addr in addrs {
            let t1 = vwb.read(Addr(addr), now);
            assert!(t1 > now);
            // Quiesce, then re-read: must be a VWB hit at hit latency.
            let quiet = t1 + 50;
            let t2 = vwb.read(Addr(addr), quiet);
            assert_eq!(t2, quiet + 1, "addr {addr:#x}");
            now = t2;
        }
    });
}

/// VWB statistics reconcile: hits never exceed accesses and every miss
/// triggered exactly one promotion.
#[test]
fn vwb_stats_reconcile() {
    run_cases("vwb_stats_reconcile", 64, |rng| {
        let seq = access_seq(rng);
        let dl1 = Cache::new(nvm_dl1_config().expect("canonical"), MainMemory::new(100));
        let mut vwb =
            FrontEnd::new(&[StageSpec::Vwb(VwbConfig::default())], dl1).expect("canonical");
        let mut now = 0;
        for (addr, is_write) in seq {
            now = if is_write {
                vwb.write(Addr(addr), now)
            } else {
                vwb.read(Addr(addr), now)
            };
        }
        let s = vwb.stage_stats()[0].stats;
        assert!(s.read_hits <= s.reads);
        assert!(s.write_hits <= s.writes);
        assert_eq!(s.fills, s.reads - s.read_hits);
        assert!(s.dirty_evictions <= s.fills);
    });
}

/// Penalty percentages are order-preserving and zero at the baseline.
#[test]
fn penalty_properties() {
    run_cases("penalty_properties", 64, |rng| {
        let base = rng.u64_in(1, 1_000_000);
        let extra = rng.u64_in(0, 1_000_000);
        let p = sttcache::penalty_pct(base, base + extra);
        assert!(p >= 0.0);
        assert_eq!(sttcache::penalty_pct(base, base), 0.0);
        let p2 = sttcache::penalty_pct(base, base + extra + 1);
        assert!(p2 > p);
    });
}

/// An untimed FIFO reference: eviction by insertion order, untouched by
/// hits.
struct RefFifo {
    sets: Vec<Vec<(u64, u64)>>, // (tag, inserted_seq)
    ways: usize,
    line_bytes: usize,
    seq: u64,
}

impl RefFifo {
    fn new(cfg: &CacheConfig) -> Self {
        RefFifo {
            sets: vec![Vec::new(); cfg.sets()],
            ways: cfg.associativity(),
            line_bytes: cfg.line_bytes(),
            seq: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes as u64;
        let sets = self.sets.len() as u64;
        let (set, tag) = ((line % sets) as usize, line / sets);
        let entries = &mut self.sets[set];
        if entries.iter().any(|&(t, _)| t == tag) {
            return true;
        }
        if entries.len() >= self.ways {
            let oldest = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, &(_, s))| s)
                .map(|(i, _)| i)
                .expect("full set");
            entries.swap_remove(oldest);
        }
        self.seq += 1;
        entries.push((tag, self.seq));
        false
    }
}

/// The FIFO-configured timed cache matches the untimed FIFO reference
/// on hit/miss decisions (reads only: FIFO victim choice is
/// insertion-order-only, so writes behave identically).
#[test]
fn fifo_cache_matches_reference() {
    run_cases("fifo_cache_matches_reference", 48, |rng| {
        use sttcache_mem::ReplacementPolicy;
        let seq = rng.vec_of(1, 300, |r| r.u64_in(0, 1 << 16));
        let cfg = CacheConfig::builder()
            .capacity_bytes(2 * 1024)
            .associativity(2)
            .line_bytes(64)
            .banks(1)
            .replacement(ReplacementPolicy::Fifo)
            .build()
            .expect("test configuration is valid");
        let mut cache = Cache::new(cfg, MainMemory::new(50));
        let mut reference = RefFifo::new(&cfg);
        let mut now = 0;
        for addr in seq {
            let expect_hit = reference.access(addr);
            let before = cache.stats().misses();
            let out = cache.read(Addr(addr), now);
            let got_hit = cache.stats().misses() == before;
            assert_eq!(got_hit, expect_hit, "addr {addr:#x}");
            now = out.complete_at + 20;
        }
    });
}

/// Every replacement policy yields a working cache: correct hit/miss
/// accounting and bounded completion times over random streams.
#[test]
fn all_policies_stay_consistent() {
    run_cases("all_policies_stay_consistent", 48, |rng| {
        use sttcache_mem::ReplacementPolicy;
        let seq = rng.vec_of(1, 200, |r| (r.u64_in(0, 1 << 16), r.bool()));
        let policy = *rng.pick(&ReplacementPolicy::ALL);
        let cfg = CacheConfig::builder()
            .capacity_bytes(2 * 1024)
            .associativity(4)
            .line_bytes(64)
            .banks(1)
            .replacement(policy)
            .build()
            .expect("test configuration is valid");
        let mut cache = Cache::new(cfg, MainMemory::new(50));
        let mut now = 0;
        for (addr, is_write) in &seq {
            let out = if *is_write {
                cache.write(Addr(*addr), now)
            } else {
                cache.read(Addr(*addr), now)
            };
            assert!(out.complete_at > now);
            now = out.complete_at + 5;
        }
        let s = cache.stats();
        assert_eq!(s.accesses(), seq.len() as u64, "{policy}");
        assert!(s.fills <= s.misses());
    });
}

/// Folds `words` into an FNV-1a digest, which stays stable across
/// toolchains, unlike `DefaultHasher`.
fn fnv1a(hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes = words.into_iter().flat_map(u64::to_le_bytes);
    bytes.fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Victim choice is pinned end to end. Every replacement policy at every
/// associativity up to 64 ways runs one seeded read/write stream over six
/// times the capacity of an 8 KiB cache, with back-to-back issues, an
/// invalidation every 100 accesses and a final flush. The digest of every outcome, the final statistics,
/// the flush and the resident line count must match the one recorded for
/// that row. The ablation tables cannot pin victims (gemm at Mini never
/// evicts from the DL1); this test also catches a change in how often
/// the random policy's per-set stream advances.
#[test]
fn replacement_outcomes_are_pinned() {
    use sttcache_mem::ReplacementPolicy;
    const WAYS: [usize; 6] = [1, 2, 4, 8, 16, 64];
    const CAPACITY: u64 = 8 * 1024;
    const PINNED: [u64; 24] = [
        // lru
        0xc8f5fd78e04ed8a5,
        0x44493478c142f645,
        0x39c30f6da6c0544a,
        0xc47d84ec21711598,
        0xa77aaf5ce3d8c6e3,
        0x3ea3182711a12105,
        // fifo
        0xc8f5fd78e04ed8a5,
        0xd8f1354b41ad0a83,
        0x6dfdebdf76670da7,
        0xa1166bf8430db8f8,
        0xa22e073b8574da5f,
        0xf3a76d3bf4e463e6,
        // tree-plru
        0xc8f5fd78e04ed8a5,
        0x44493478c142f645,
        0x9791e5894c225a03,
        0x802c608723d8dd7e,
        0x889875262d393dbc,
        0x6ee73e12a53660a4,
        // random
        0xc8f5fd78e04ed8a5,
        0x3cb7612be28c526e,
        0xcda4c1d8637eb219,
        0x0fa2d858be96146e,
        0xd36f2f183eb5f345,
        0x36d19019dcb6114f,
    ];
    let digest = |policy, ways| {
        let cfg = CacheConfig::builder()
            .capacity_bytes(CAPACITY as usize)
            .associativity(ways)
            .banks(2)
            .replacement(policy)
            .build()
            .expect("pinned configuration is valid");
        let mut cache = Cache::new(cfg, MainMemory::new(50));
        let mut rng = Rng::new(0x2015_0016);
        let (mut hash, mut now) = (0xcbf2_9ce4_8422_2325, 0);
        for i in 0..3_000 {
            let addr = Addr(rng.u64_in(0, 6 * CAPACITY));
            let out = if rng.u64_in(0, 3) == 0 {
                cache.write(addr, now)
            } else {
                cache.read(addr, now)
            };
            hash = fnv1a(hash, [out.complete_at, out.served_by as u64]);
            if i % 100 == 99 {
                hash = fnv1a(hash, [u64::from(cache.invalidate(addr, now))]);
            }
            // One issue in four does not wait for the previous completion.
            now = match rng.u64_in(0, 4) {
                0 => now + 1,
                gap => out.complete_at + gap,
            };
        }
        let s = *cache.stats();
        hash = fnv1a(
            hash,
            [s.reads, s.writes, s.read_hits, s.write_hits, s.fills],
        );
        hash = fnv1a(hash, [s.writebacks, s.bank_conflict_cycles, s.mshr_merges]);
        hash = fnv1a(
            hash,
            [s.mshr_full_stall_cycles, s.write_buffer_stall_cycles],
        );
        let (flushed, done) = cache.flush_dirty(now);
        fnv1a(
            hash,
            [flushed as u64, done, cache.resident_lines().len() as u64],
        )
    };
    let got: Vec<u64> = ReplacementPolicy::ALL
        .iter()
        .flat_map(|&p| WAYS.map(|w| digest(p, w)))
        .collect();
    assert!(got == PINNED, "digests, in PINNED order:\n{got:#018x?}");
}

/// A data port that folds every completion it forwards into a digest.
struct DigestingPort<P> {
    port: P,
    hash: u64,
}

impl<P: DataPort> DataPort for DigestingPort<P> {
    fn read(&mut self, addr: Addr, now: Cycle) -> Cycle {
        let done = self.port.read(addr, now);
        self.hash = fnv1a(self.hash, [addr.0, now, done]);
        done
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> Cycle {
        let done = self.port.write(addr, now);
        self.hash = fnv1a(self.hash, [addr.0, now, done, 1]);
        done
    }
}

/// The in-flight structures are pinned end to end. A core with a 1-entry
/// store buffer drives a DL1 with one write-buffer entry over an L2 with
/// one MSHR. Beside the core, a second requester shares the DL1: it
/// issues accesses at the core's cycle without waiting for them, and
/// invalidates lines. Each seeded stream mixes loads and stores to the
/// same line, the same DL1 set and the same bank, so that MSHR merges,
/// full-MSHR retries, full write- and store-buffer stalls and the
/// re-fetch after a stale merge all occur. With one DL1 MSHR only an
/// invalidated line can miss while its own fill is in flight; with two,
/// a later fill into the same set can evict it too. The digest of every
/// completion, both levels' statistics and the core report must match
/// the one recorded for that row.
#[test]
fn in_flight_outcomes_are_pinned() {
    use sttcache_cpu::{Core, CoreConfig, MemPort};
    use sttcache_mem::Shared;
    const PINNED: [u64; 4] = [
        0x88fa2e0ffcc9f15f,
        0xc305e7e621c2bce9,
        0xef1736ecdc6e61fe,
        0xa75a86d17f1aa056,
    ];
    let cache = |capacity, mshrs, cycles| {
        CacheConfig::builder()
            .capacity_bytes(capacity)
            .associativity(2)
            .banks(2)
            .read_cycles(cycles)
            .write_cycles(cycles)
            .mshr_entries(mshrs)
            .write_buffer_entries(1)
            .build()
            .expect("pinned configuration is valid")
    };
    let digest = |dl1_mshrs, seed| {
        let l2 = Cache::new(cache(8 * 1024, 1, 12), MainMemory::new(100));
        let mut dl1 = Shared::new(Cache::new(cache(1024, dl1_mshrs, 4), l2));
        let port = DigestingPort {
            port: MemPort::new(dl1.clone()),
            hash: 0xcbf2_9ce4_8422_2325,
        };
        let config = CoreConfig {
            store_buffer_entries: 1,
            ..CoreConfig::default()
        };
        let mut core = Core::new(config, port);
        let mut rng = Rng::new(seed);
        let mut addr = 0;
        for _ in 0..4_000 {
            // 512 B apart is the same DL1 set; 128 B apart the same bank.
            addr = match rng.u64_in(0, 4) {
                0 => addr & !63 | rng.u64_in(0, 64),
                1 => addr + 512 * rng.u64_in(1, 4),
                2 => addr + 128 * rng.u64_in(1, 4),
                _ => rng.u64_in(0, 16 * 1024),
            } % (16 * 1024);
            let now = core.now();
            let side = match rng.u64_in(0, 16) {
                0..=5 => {
                    core.load(Addr(addr), 8);
                    None
                }
                6..=10 => {
                    core.store(Addr(addr), 8);
                    None
                }
                11 => Some(dl1.read(Addr(addr), now).complete_at),
                12..=14 => Some(dl1.write(Addr(addr), now).complete_at),
                _ => Some(u64::from(dl1.borrow_mut().invalidate(Addr(addr), now))),
            };
            if let Some(word) = side {
                core.port_mut().hash = fnv1a(core.port().hash, [addr, now, word, 2]);
            }
            // One issue in two follows the last one back to back.
            if rng.bool() {
                core.compute(rng.u64_in(1, 40));
            }
        }
        let r = core.report();
        let mut hash = fnv1a(core.port().hash, [r.cycles, r.instructions]);
        hash = fnv1a(hash, [r.read_stall_cycles, r.write_stall_cycles]);
        let l2 = *dl1.borrow().next_level().stats();
        for s in [dl1.stats_snapshot(), l2] {
            hash = fnv1a(
                hash,
                [s.reads, s.writes, s.read_hits, s.write_hits, s.fills],
            );
            hash = fnv1a(hash, [s.writebacks, s.bank_conflict_cycles, s.mshr_merges]);
            hash = fnv1a(
                hash,
                [s.mshr_full_stall_cycles, s.write_buffer_stall_cycles],
            );
        }
        hash
    };
    let got = [(1, 1), (1, 2), (2, 3), (2, 4)].map(|(m, i)| digest(m, 0x2015_0029 + i));
    assert!(got == PINNED, "digests, in PINNED order:\n{got:#018x?}");
}

/// Every line-buffer fill route is pinned end to end: VWB promotions
/// from loads and from prefetch hints (bank held 0 and 3 cycles past the
/// critical word), L0 fills and write-allocates, EMSHR read and write
/// captures, and the hybrid's promotions through its EMSHR. Each front
/// end sits on a 2 KiB two-bank DL1 and runs one seeded stream of loads,
/// stores and hints to the same line, the same set, the same bank or
/// the next line or anywhere in 6 KiB, issued back to back or after the last completion,
/// so fills meet DL1 hits, hits on lines still being filled, and misses.
/// The digest of every completion, every stage's statistics and the DL1's
/// and L2's (bank-conflict cycles included) must match the one recorded
/// for that row.
#[test]
fn fill_route_outcomes_are_pinned() {
    use sttcache::baselines::{EmshrConfig, L0Config};
    use sttcache::HYBRID_STACK;
    const PINNED: [u64; 5] = [
        0xc6568f95e49d706e,
        0xc3cd47ede1323085,
        0xddc7f696a84704e9,
        0x0ad6aa204bb38f7b,
        0xf026d5b0b47ecb19,
    ];
    let vwb = |promotion_cycles| {
        StageSpec::Vwb(VwbConfig {
            promotion_cycles,
            ..VwbConfig::default()
        })
    };
    let routes: [&[StageSpec]; 5] = [
        &[vwb(0)],
        &[vwb(3)],
        &[StageSpec::L0(L0Config::default())],
        &[StageSpec::Emshr(EmshrConfig::default())],
        &[HYBRID_STACK.outer, HYBRID_STACK.inner],
    ];
    let digest = |stages: &[StageSpec], seed| {
        let dl1 = CacheConfig::builder()
            .capacity_bytes(2 * 1024)
            .associativity(2)
            .banks(2)
            .read_cycles(4)
            .write_cycles(2)
            .mshr_entries(2)
            .build()
            .expect("pinned configuration is valid");
        let l2 = Cache::new(
            CacheConfig::builder()
                .capacity_bytes(16 * 1024)
                .associativity(4)
                .read_cycles(12)
                .write_cycles(12)
                .build()
                .expect("pinned configuration is valid"),
            MainMemory::new(100),
        );
        let mut fe = FrontEnd::new(stages, Cache::new(dl1, l2)).expect("pinned stages are valid");
        let mut rng = Rng::new(seed);
        let (mut hash, mut now, mut addr) = (0xcbf2_9ce4_8422_2325, 0, 0);
        for _ in 0..4_000 {
            // 1 KiB apart is the same DL1 set; 128 B apart the same bank.
            addr = match rng.u64_in(0, 6) {
                0 => addr & !63 | rng.u64_in(0, 64),
                1 => addr + 1024 * rng.u64_in(1, 4),
                2 => addr + 128 * rng.u64_in(1, 4),
                3 => addr + 64,
                _ => rng.u64_in(0, 6 * 1024),
            } % (6 * 1024);
            let kind = rng.u64_in(0, 8);
            let done = match kind {
                0..=3 => fe.read(Addr(addr), now),
                4..=5 => fe.write(Addr(addr), now),
                _ => {
                    fe.prefetch(Addr(addr), now);
                    now
                }
            };
            hash = fnv1a(hash, [addr, now, done, kind]);
            // One issue in two follows the last one back to back.
            now = if rng.bool() {
                now + rng.u64_in(0, 3)
            } else {
                done + rng.u64_in(0, 8)
            };
        }
        for stage in fe.stage_stats() {
            let s = stage.stats;
            hash = fnv1a(hash, [s.reads, s.read_hits, s.writes, s.write_hits]);
            hash = fnv1a(
                hash,
                [
                    s.fills,
                    s.dirty_evictions,
                    s.prefetch_fills,
                    s.prefetch_drops,
                ],
            );
        }
        for s in [*fe.dl1_stats(), *fe.l2_stats()] {
            hash = fnv1a(
                hash,
                [s.reads, s.writes, s.read_hits, s.write_hits, s.fills],
            );
            hash = fnv1a(hash, [s.writebacks, s.bank_conflict_cycles, s.mshr_merges]);
            hash = fnv1a(
                hash,
                [s.mshr_full_stall_cycles, s.write_buffer_stall_cycles],
            );
        }
        hash
    };
    let got: Vec<u64> = (0..)
        .zip(routes)
        .map(|(i, stages)| digest(stages, 0x2015_0032 + i))
        .collect();
    assert!(got == PINNED, "digests, in PINNED order:\n{got:#018x?}");
}

/// Deterministic cross-check of the reference model itself.
#[test]
fn reference_model_basics() {
    let cfg = CacheConfig::builder()
        .capacity_bytes(256)
        .line_bytes(64)
        .associativity(2)
        .banks(1)
        .build()
        .expect("test configuration is valid");
    let mut r = RefCache::new(&cfg);
    assert!(!r.access(0, false)); // cold miss
    assert!(r.access(0, false)); // hit
    assert!(!r.access(128, false)); // same set (2 sets), different tag
    assert!(!r.access(256, false)); // evicts LRU (line 0? no: set 0 ways {256,0})
    let _ = r;
}

/// A one-off check that hits under a fill wait for the data (regression
/// for the MSHR ready-time path).
#[test]
fn hit_under_fill_waits_for_data() {
    let mut cache = Cache::new(CacheConfig::default(), MainMemory::new(100));
    let miss = cache.read(Addr(0), 0);
    let hit = cache.read(Addr(8), 1);
    assert!(hit.complete_at >= miss.complete_at);
    let mut hashes = HashMap::new();
    hashes.insert("complete", hit.complete_at);
    assert!(hashes["complete"] >= 100);
}

/// After `flush_buffers` the VWB holds zero dirty entries, the returned
/// cycle never precedes the request, and a second flush is a no-op —
/// over random read/write sequences, with the invariant gate on so the
/// flush's own post-conditions are exercised too.
#[test]
fn vwb_flush_dirty_property() {
    let _armed = sttcache_mem::invariants::arm();
    let _ = sttcache_mem::invariants::take_violations();
    run_cases("vwb_flush_dirty_property", 64, |rng| {
        let seq = access_seq(rng);
        let dl1 = Cache::new(nvm_dl1_config().expect("canonical"), MainMemory::new(100));
        let mut vwb =
            FrontEnd::new(&[StageSpec::Vwb(VwbConfig::default())], dl1).expect("canonical");
        let mut now = 0;
        for (addr, is_write) in seq {
            now = if is_write {
                vwb.write(Addr(addr), now)
            } else {
                vwb.read(Addr(addr), now)
            };
        }
        let (flushed, done) = vwb.flush_buffers(now);
        assert!(done >= now, "flush completed at {done}, before {now}");
        assert_eq!(
            vwb.dirty_buffer_entries(),
            0,
            "dirty entries survived the flush"
        );
        if flushed == 0 {
            assert_eq!(done, now, "a flush with nothing to do must be free");
        }
        let (again, t2) = vwb.flush_buffers(done);
        assert_eq!(again, 0, "second flush found dirty entries");
        assert_eq!(t2, done);
    });
    let (violations, _) = sttcache_mem::invariants::take_violations();
    assert!(violations.is_empty(), "{violations:#?}");
}

/// `VwbConfig` boundary cases: a capacity of exactly one DL1 line is the
/// smallest valid buffer, one bit less holds nothing, and the modelled
/// associative-search cost kicks in at eight entries.
#[test]
fn vwb_config_boundaries() {
    let line_bits = nvm_dl1_config().expect("canonical").line_bytes() * 8;

    // Exactly one line: valid, and a working front-end.
    let one = VwbConfig {
        capacity_bits: line_bits,
        ..VwbConfig::default()
    };
    assert_eq!(one.entries(line_bits), 1);
    assert!(StageSpec::Vwb(one).validate(line_bits).is_ok());
    let dl1 = Cache::new(nvm_dl1_config().expect("canonical"), MainMemory::new(100));
    let mut vwb = FrontEnd::new(&[StageSpec::Vwb(one)], dl1).expect("one-entry VWB is valid");
    let t = vwb.read(Addr(0), 0);
    assert_eq!(
        vwb.read(Addr(8), t + 10),
        t + 11,
        "re-read hits the single entry"
    );

    // One bit short of a line: holds nothing, rejected.
    let short = VwbConfig {
        capacity_bits: line_bits - 1,
        ..VwbConfig::default()
    };
    assert_eq!(short.entries(line_bits), 0);
    assert!(StageSpec::Vwb(short).validate(line_bits).is_err());

    // A zero hit latency is rejected regardless of capacity.
    let instant = VwbConfig {
        hit_cycles: 0,
        ..VwbConfig::default()
    };
    assert!(StageSpec::Vwb(instant).validate(line_bits).is_err());

    // The maximum line size a config can hold is its own capacity.
    let max_line = VwbConfig::default().capacity_bits;
    assert_eq!(VwbConfig::default().entries(max_line), 1);
    let paper = StageSpec::Vwb(VwbConfig::default());
    assert!(paper.validate(max_line).is_ok());
    assert!(paper.validate(max_line + 8).is_err());
}

/// `effective_hit_cycles` only grows once the search cost is modelled,
/// and then by exactly entries/8.
#[test]
fn vwb_search_cost_model() {
    let line_bits = 512;
    let plain = VwbConfig::default();
    assert_eq!(plain.effective_hit_cycles(line_bits), plain.hit_cycles);

    // 4 entries: below the 8-entry threshold, still free.
    let modelled = VwbConfig {
        model_search_cost: true,
        ..VwbConfig::default()
    };
    assert_eq!(modelled.entries(line_bits), 4);
    assert_eq!(
        modelled.effective_hit_cycles(line_bits),
        modelled.hit_cycles
    );

    // 8 and 64 entries: one and eight extra cycles.
    let eight = VwbConfig {
        capacity_bits: 8 * line_bits,
        model_search_cost: true,
        ..VwbConfig::default()
    };
    assert_eq!(eight.effective_hit_cycles(line_bits), eight.hit_cycles + 1);
    let big = VwbConfig {
        capacity_bits: 64 * line_bits,
        model_search_cost: true,
        ..VwbConfig::default()
    };
    assert_eq!(big.effective_hit_cycles(line_bits), big.hit_cycles + 8);
}

// ---------------------------------------------------------------------------
// Shared-L2 contention properties (multi-core platforms)
// ---------------------------------------------------------------------------

/// Builds a synthetic trace of `n` random 8-byte loads/stores over a
/// 1 MiB footprint.
fn random_core_trace(rng: &mut Rng) -> sttcache_cpu::Trace {
    let n = rng.usize_in(50, 600);
    let mut rec = sttcache_cpu::TraceRecorder::with_capacity(n);
    for _ in 0..n {
        let addr = Addr(rng.u64_in(0, (1 << 20) / 8 - 1) * 8);
        if rng.bool() {
            rec.store(addr, 8);
        } else {
            rec.load(addr, 8);
        }
    }
    rec.into_trace()
}

/// A trace that streams `lines` distinct L2 lines, all mapping to L2
/// bank `bank` (L2 bank = line index modulo the bank count, and the
/// per-core address stripe is bank-preserving).
fn bank_pinned_trace(bank: u64, banks: u64, line_bytes: u64, lines: u64) -> sttcache_cpu::Trace {
    let mut rec = sttcache_cpu::TraceRecorder::with_capacity(lines as usize);
    for k in 0..lines {
        rec.load(Addr((k * banks + bank) * line_bytes), 8);
    }
    rec.into_trace()
}

/// Conservation at the shared level: for any mix of organizations,
/// offsets and random workloads, the shared L2's reads equal the summed
/// private-DL1 fills, its writes the summed write-backs — every shared
/// access is some core's demand miss or write-back, none invented, none
/// lost.
#[test]
fn shared_l2_traffic_is_conserved() {
    run_cases("shared_l2_traffic_is_conserved", 24, |rng| {
        let orgs = sttcache::catalog::catalog();
        let n = rng.usize_in(2, 5);
        let specs: Vec<sttcache::CoreSpec> = (0..n)
            .map(|_| {
                sttcache::CoreSpec::staggered(rng.pick(&orgs).organization, rng.u64_in(0, 999))
            })
            .collect();
        let platform =
            sttcache::MultiPlatform::new(sttcache::MultiPlatformConfig::new(specs)).unwrap();
        let traces: Vec<sttcache_cpu::Trace> = (0..n).map(|_| random_core_trace(rng)).collect();
        let refs: Vec<&sttcache_cpu::Trace> = traces.iter().collect();
        let r = platform.run_traces(&refs);
        let fills: u64 = r.cores.iter().map(|c| c.dl1.fills).sum();
        let writebacks: u64 = r.cores.iter().map(|c| c.dl1.writebacks).sum();
        assert_eq!(r.shared_l2.reads, fills, "shared reads != summed DL1 fills");
        assert_eq!(
            r.shared_l2.writes, writebacks,
            "shared writes != summed DL1 write-backs"
        );
        assert_eq!(r.shared_l2.accesses(), fills + writebacks);
    });
}

/// Disjointness: cores confined to different shared-L2 banks add zero
/// cross-core *bank* conflict. A lone streaming core already conflicts
/// with its own fills (read and fill both occupy the bank), and
/// end-to-end timing may still couple through the shared main-memory
/// channel — so the sharp statement is additivity: the shared level's
/// conflict cycles are exactly the per-core isolated conflict cycles
/// summed, for any interleave.
#[test]
fn disjoint_bank_ranges_never_conflict_in_shared_l2() {
    run_cases(
        "disjoint_bank_ranges_never_conflict_in_shared_l2",
        24,
        |rng| {
            let l2 = sttcache::l2_config().unwrap();
            let banks = l2.banks() as u64;
            let line = l2.line_bytes() as u64;
            let n = rng.usize_in(2, (banks as usize).min(4));
            let specs: Vec<sttcache::CoreSpec> = (0..n)
                .map(|i| {
                    sttcache::CoreSpec::staggered(
                        sttcache::DCacheOrganization::SramBaseline,
                        i as u64 * rng.u64_in(0, 200),
                    )
                })
                .collect();
            let platform =
                sttcache::MultiPlatform::new(sttcache::MultiPlatformConfig::new(specs)).unwrap();
            // Core i streams lines pinned to L2 bank i: all DL1 misses, no
            // two cores ever demand the same shared bank.
            let traces: Vec<sttcache_cpu::Trace> = (0..n as u64)
                .map(|i| bank_pinned_trace(i, banks, line, rng.u64_in(64, 512)))
                .collect();
            let refs: Vec<&sttcache_cpu::Trace> = traces.iter().collect();
            let r = platform.run_traces(&refs);
            assert!(
                r.shared_l2.reads >= traces.iter().map(|t| t.len() as u64).min().unwrap(),
                "streams were expected to miss the DL1s"
            );
            let mut isolated_conflicts = 0u64;
            for (idx, trace) in traces.iter().enumerate() {
                let iso = sttcache::Platform::with_config(platform.isolated_config(idx))
                    .unwrap()
                    .run_trace(trace);
                isolated_conflicts += iso.l2.bank_conflict_cycles;
            }
            assert_eq!(
                r.shared_l2.bank_conflict_cycles, isolated_conflicts,
                "disjoint per-bank streams interfered across cores in the shared L2"
            );
        },
    );
}

/// Monotonicity: piling more cores onto the *same* shared bank never
/// reduces its conflict cycles — each added contender only adds demand.
#[test]
fn shared_bank_conflicts_grow_with_overlap() {
    run_cases("shared_bank_conflicts_grow_with_overlap", 16, |rng| {
        let l2 = sttcache::l2_config().unwrap();
        let banks = l2.banks() as u64;
        let line = l2.line_bytes() as u64;
        let lines = rng.u64_in(64, 256);
        let trace = bank_pinned_trace(0, banks, line, lines);
        let mut previous = 0u64;
        for n in 1..=4usize {
            let specs =
                vec![sttcache::CoreSpec::new(sttcache::DCacheOrganization::SramBaseline); n];
            let platform =
                sttcache::MultiPlatform::new(sttcache::MultiPlatformConfig::new(specs)).unwrap();
            let refs: Vec<&sttcache_cpu::Trace> = (0..n).map(|_| &trace).collect();
            let conflicts = platform.run_traces(&refs).shared_l2.bank_conflict_cycles;
            assert!(
                conflicts >= previous,
                "{n} cores on one bank conflicted less ({conflicts}) than {} ({previous})",
                n - 1
            );
            previous = conflicts;
        }
        assert!(previous > 0, "4 cores on one shared bank never conflicted");
    });
}
