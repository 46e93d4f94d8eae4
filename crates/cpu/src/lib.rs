//! In-order CPU timing engine for the `sttcache` simulator.
//!
//! This crate substitutes for gem5's SE-mode ARM `detailed` CPU in the
//! paper's platform: a single-core, 1 GHz, in-order engine modelled on the
//! ARM Cortex-A9's timing behaviour for data accesses:
//!
//! * one instruction issues per cycle (base CPI = 1);
//! * loads **block**: the core stalls until the data port returns the value
//!   — this is what exposes the STT-MRAM read latency the paper studies;
//! * stores retire into a small [`StoreBuffer`] and drain to the data port
//!   in the background; the core only stalls when the buffer is full —
//!   which is why the write latency contributes far less penalty (Fig. 4);
//! * branches run through a 2-bit bimodal [`BranchPredictor`]; mispredicts
//!   cost a pipeline refill (8 cycles, A9-like);
//! * software prefetches are issued to the data port without blocking.
//!
//! Workloads drive the core through the [`Engine`] trait; the core is
//! generic over a [`DataPort`] so the same kernel runs unchanged against a
//! plain cache hierarchy, the paper's VWB front-end, or the L0/EMSHR
//! baselines.
//!
//! # Example
//!
//! ```
//! use sttcache_cpu::{Core, CoreConfig, Engine, MemPort};
//! use sttcache_mem::{Addr, Cache, CacheConfig, MainMemory};
//!
//! # fn main() -> Result<(), sttcache_mem::MemError> {
//! let dl1 = Cache::new(CacheConfig::builder().build()?, MainMemory::new(100));
//! let mut core = Core::new(CoreConfig::default(), MemPort::new(dl1));
//! core.load(Addr(0), 4);      // cold miss: long stall
//! core.load(Addr(8), 4);      // hit: short
//! core.compute(10);
//! let report = core.report();
//! assert_eq!(report.loads, 2);
//! assert!(report.read_stall_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapters;
mod core_engine;
mod fetch;
mod port;
mod predictor;
mod report;
mod store_buffer;
mod trace;

pub use adapters::CountingEngine;
pub use core_engine::{Core, CoreConfig};
pub use fetch::FetchUnit;
pub use port::{DataPort, MemPort};
pub use predictor::BranchPredictor;
pub use report::CoreReport;
pub use store_buffer::StoreBuffer;
pub use trace::{Trace, TraceEvent, TraceRecorder};

use sttcache_mem::Addr;

/// The event interface workloads drive.
///
/// Instrumented kernels (see `sttcache-workloads`) call these methods for
/// every architectural event; implementations account the timing. The
/// methods deliberately mirror an instruction stream: one call ≈ one
/// instruction.
pub trait Engine {
    /// A blocking load of `bytes` bytes at `addr`.
    fn load(&mut self, addr: Addr, bytes: usize);

    /// A store of `bytes` bytes at `addr` (buffered, non-blocking unless
    /// the store buffer is full).
    fn store(&mut self, addr: Addr, bytes: usize);

    /// A non-binding software-prefetch hint for the line at `addr`.
    fn prefetch(&mut self, addr: Addr);

    /// `ops` single-cycle ALU/FPU operations.
    fn compute(&mut self, ops: u64);

    /// A conditional branch with the given outcome.
    fn branch(&mut self, taken: bool);
}
