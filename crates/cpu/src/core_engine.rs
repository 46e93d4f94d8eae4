//! The in-order core.

use crate::fetch::FetchUnit;
use crate::port::DataPort;
use crate::predictor::BranchPredictor;
use crate::report::CoreReport;
use crate::store_buffer::StoreBuffer;
use crate::Engine;
use sttcache_mem::{Addr, Cycle};

/// Core timing parameters.
///
/// Defaults model the paper's 1 GHz ARM Cortex-A9-like core: 1 IPC base,
/// 4-entry store buffer, 8-cycle mispredict refill, and one cycle of load
/// latency hidden per load (the A9's dual-issue window lets one independent
/// instruction execute under an outstanding load).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Store-buffer depth in entries.
    pub store_buffer_entries: usize,
    /// Pipeline-refill penalty per mispredicted branch, in cycles.
    pub mispredict_penalty: u64,
    /// Load-stall cycles hidden by issuing independent work under each
    /// outstanding load (0 = fully blocking).
    pub load_overlap_cycles: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            store_buffer_entries: 4,
            mispredict_penalty: 8,
            load_overlap_cycles: 1,
        }
    }
}

/// The in-order, blocking-load core.
///
/// Drive it through the [`Engine`] trait (usually by handing it to a
/// workload kernel) and read the result with [`Core::report`].
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Core<P> {
    config: CoreConfig,
    port: P,
    now: Cycle,
    start: Cycle,
    store_buffer: StoreBuffer,
    fetch: Option<FetchUnit>,
    predictor: BranchPredictor,
    instructions: u64,
    loads: u64,
    stores: u64,
    prefetches: u64,
    read_stall_cycles: u64,
    branch_stall_cycles: u64,
}

impl<P: DataPort> Core<P> {
    /// Creates a core at cycle 0 in front of `port`.
    pub fn new(config: CoreConfig, port: P) -> Self {
        Core::starting_at(config, port, 0)
    }

    /// Creates a core whose clock starts at `start`, e.g. a core of a
    /// multi-programmed mix that begins at a phase offset.
    /// [`Core::report`] counts cycles relative to `start`.
    pub fn starting_at(config: CoreConfig, port: P, start: Cycle) -> Self {
        Core {
            store_buffer: StoreBuffer::new(config.store_buffer_entries),
            config,
            port,
            now: start,
            start,
            fetch: None,
            predictor: BranchPredictor::new(),
            instructions: 0,
            loads: 0,
            stores: 0,
            prefetches: 0,
            read_stall_cycles: 0,
            branch_stall_cycles: 0,
        }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Attaches an explicit instruction-fetch unit (default: ideal fetch).
    ///
    /// Use this to explore non-SRAM I-caches; with the paper's SRAM IL1
    /// the unit adds (almost) nothing, which is why the default omits it.
    pub fn attach_fetch_unit(&mut self, fetch: FetchUnit) {
        self.fetch = Some(fetch);
    }

    /// The attached fetch unit, if any.
    pub fn fetch_unit(&self) -> Option<&FetchUnit> {
        self.fetch.as_ref()
    }

    /// Charges instruction fetch for one instruction.
    fn fetch_instr(&mut self, branch: Option<bool>) {
        if let Some(f) = self.fetch.as_mut() {
            self.now += f.step(self.now, branch);
        }
    }

    /// The data port (for inspecting hierarchy statistics).
    pub fn port(&self) -> &P {
        &self.port
    }

    /// Mutable access to the data port.
    pub fn port_mut(&mut self) -> &mut P {
        &mut self.port
    }

    /// Mutable access to the store buffer (to arm or take its probe).
    pub fn store_buffer_mut(&mut self) -> &mut StoreBuffer {
        &mut self.store_buffer
    }

    /// Finishes the run (drains the store buffer) and returns the report.
    ///
    /// The core may continue executing afterwards; the drain only advances
    /// time to the last outstanding store.
    pub fn report(&mut self) -> CoreReport {
        self.now = self.store_buffer.drain_all(self.now);
        CoreReport {
            cycles: self.now - self.start,
            instructions: self.instructions,
            loads: self.loads,
            stores: self.stores,
            prefetches: self.prefetches,
            branches: self.predictor.branches(),
            mispredicts: self.predictor.mispredicts(),
            read_stall_cycles: self.read_stall_cycles,
            write_stall_cycles: self.store_buffer.full_stall_cycles(),
            branch_stall_cycles: self.branch_stall_cycles,
            fetch_stall_cycles: self.fetch.as_ref().map_or(0, |f| f.fetch_stall_cycles()),
        }
    }

    /// Consumes the core, returning the port.
    pub fn into_port(self) -> P {
        self.port
    }
}

impl<P: DataPort> Engine for Core<P> {
    fn load(&mut self, addr: Addr, _bytes: usize) {
        self.fetch_instr(None);
        self.instructions += 1;
        self.loads += 1;
        let issue = self.now;
        let data_ready = self.port.read(addr, issue);
        if sttcache_mem::invariants::enabled() && data_ready < issue {
            // A port must never deliver data before the request was
            // issued; saturating arithmetic below would silently mask it.
            sttcache_mem::invariants::report(
                "core",
                issue,
                Some(addr.0),
                format!("load data ready at {data_ready}, before issue"),
            );
        }
        // The load occupies one issue cycle; anything beyond that is stall,
        // of which `load_overlap_cycles` are hidden under independent work.
        let raw_stall = data_ready.saturating_sub(issue + 1);
        let stall = raw_stall.saturating_sub(self.config.load_overlap_cycles);
        self.read_stall_cycles += stall;
        self.now = issue + 1 + stall;
    }

    // Without the hint, whether a replay loop inlines the store path
    // depends on which codegen unit rustc places the loop in.
    #[inline]
    fn store(&mut self, addr: Addr, _bytes: usize) {
        self.fetch_instr(None);
        self.instructions += 1;
        self.stores += 1;
        let issue_at = self.store_buffer.admit(self.now);
        let complete = self.port.write(addr, issue_at);
        if sttcache_mem::invariants::enabled() && complete < issue_at {
            sttcache_mem::invariants::report(
                "core",
                issue_at,
                Some(addr.0),
                format!("store completed at {complete}, before issue"),
            );
        }
        self.store_buffer.record_completion(complete);
        // The core resumes after the (possibly stalled) one-cycle issue.
        self.now = issue_at.max(self.now) + 1;
    }

    fn prefetch(&mut self, addr: Addr) {
        self.fetch_instr(None);
        self.instructions += 1;
        self.prefetches += 1;
        self.port.prefetch(addr, self.now);
        self.now += 1;
    }

    fn compute(&mut self, ops: u64) {
        if self.fetch.is_some() {
            for _ in 0..ops {
                self.fetch_instr(None);
                self.now += 1;
            }
            self.instructions += ops;
            return;
        }
        self.instructions += ops;
        self.now += ops;
    }

    fn branch(&mut self, taken: bool) {
        self.fetch_instr(Some(taken));
        self.instructions += 1;
        let mispredict = self.predictor.predict_and_update(taken);
        self.now += 1;
        if mispredict {
            self.now += self.config.mispredict_penalty;
            self.branch_stall_cycles += self.config.mispredict_penalty;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted port with fixed read/write latencies.
    #[derive(Debug)]
    struct FixedPort {
        read_latency: u64,
        write_latency: u64,
        prefetched: Vec<Addr>,
    }

    impl FixedPort {
        fn new(read_latency: u64, write_latency: u64) -> Self {
            FixedPort {
                read_latency,
                write_latency,
                prefetched: Vec::new(),
            }
        }
    }

    impl DataPort for FixedPort {
        fn read(&mut self, _addr: Addr, now: Cycle) -> Cycle {
            now + self.read_latency
        }

        fn write(&mut self, _addr: Addr, now: Cycle) -> Cycle {
            now + self.write_latency
        }

        fn prefetch(&mut self, addr: Addr, _now: Cycle) {
            self.prefetched.push(addr);
        }
    }

    #[test]
    fn one_cycle_loads_do_not_stall() {
        let mut core = Core::new(CoreConfig::default(), FixedPort::new(1, 1));
        core.load(Addr(0), 4);
        core.load(Addr(4), 4);
        let r = core.report();
        assert_eq!(r.cycles, 2);
        assert_eq!(r.read_stall_cycles, 0);
        assert!((r.ipc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slow_loads_stall_the_core() {
        // Default config hides one stall cycle per load (dual-issue
        // window); a 4-cycle load therefore costs 1 issue + 2 stall.
        let mut core = Core::new(CoreConfig::default(), FixedPort::new(4, 2));
        core.load(Addr(0), 4);
        let r = core.report();
        assert_eq!(r.cycles, 3);
        assert_eq!(r.read_stall_cycles, 2);
    }

    #[test]
    fn fully_blocking_core_exposes_whole_latency() {
        let cfg = CoreConfig {
            load_overlap_cycles: 0,
            ..CoreConfig::default()
        };
        let mut core = Core::new(cfg, FixedPort::new(4, 2));
        core.load(Addr(0), 4);
        let r = core.report();
        assert_eq!(r.cycles, 4);
        assert_eq!(r.read_stall_cycles, 3);
    }

    #[test]
    fn buffered_stores_hide_write_latency() {
        let mut core = Core::new(CoreConfig::default(), FixedPort::new(4, 100));
        // Four stores fit in the buffer: each costs one issue cycle.
        for i in 0..4u64 {
            core.store(Addr(i * 64), 4);
        }
        assert_eq!(core.now(), 4);
        // The fifth stalls until the first write completes (cycle 100).
        core.store(Addr(999), 4);
        assert!(core.now() >= 100);
        let r = core.report();
        assert!(r.write_stall_cycles > 0);
        // Draining pushes the final time past the last completion.
        assert!(r.cycles >= 200);
    }

    #[test]
    fn compute_advances_time_exactly() {
        let mut core = Core::new(CoreConfig::default(), FixedPort::new(1, 1));
        core.compute(123);
        let r = core.report();
        assert_eq!(r.cycles, 123);
        assert_eq!(r.instructions, 123);
    }

    #[test]
    fn mispredicts_cost_the_refill_penalty() {
        let mut core = Core::new(CoreConfig::default(), FixedPort::new(1, 1));
        // Alternating outcomes defeat the 2-bit counter.
        for i in 0..100 {
            core.branch(i % 2 == 0);
        }
        let r = core.report();
        assert!(r.mispredicts > 30);
        assert_eq!(r.branch_stall_cycles, r.mispredicts * 8);
        assert_eq!(r.cycles, 100 + r.branch_stall_cycles);
    }

    #[test]
    fn well_predicted_loops_cost_one_cycle_each() {
        let mut core = Core::new(CoreConfig::default(), FixedPort::new(1, 1));
        for _ in 0..1000 {
            core.branch(true);
        }
        let r = core.report();
        assert!(r.branch_stall_cycles <= 8); // at most the cold mispredict
    }

    #[test]
    fn prefetch_reaches_the_port() {
        let mut core = Core::new(CoreConfig::default(), FixedPort::new(1, 1));
        core.prefetch(Addr(0x40));
        core.prefetch(Addr(0x80));
        assert_eq!(core.port().prefetched, vec![Addr(0x40), Addr(0x80)]);
        let r = core.report();
        assert_eq!(r.prefetches, 2);
        assert_eq!(r.cycles, 2);
    }

    #[test]
    fn report_includes_final_drain() {
        let mut core = Core::new(CoreConfig::default(), FixedPort::new(1, 50));
        core.store(Addr(0), 4);
        assert_eq!(core.now(), 1);
        let r = core.report();
        assert_eq!(r.cycles, 50);
    }

    #[test]
    fn into_port_returns_the_port() {
        let core = Core::new(CoreConfig::default(), FixedPort::new(1, 1));
        let port = core.into_port();
        assert_eq!(port.read_latency, 1);
    }
}
