//! Memory-hierarchy framework for the `sttcache` simulator.
//!
//! This crate implements the memory substrate the paper's evaluation runs
//! on: set-associative write-back/write-allocate caches with true-LRU
//! replacement, banked data arrays with conflict modelling, miss-status
//! holding registers (MSHRs), eviction write buffers and a fixed-latency
//! main memory. Every component is timed in CPU clock cycles and keeps full
//! statistics so the paper's penalty decompositions (Fig. 4) are measured
//! rather than estimated.
//!
//! The hierarchy is composed through the [`MemoryLevel`] trait: a
//! [`Cache`] is generic over its next level, so the paper's platform is
//! simply `Cache (DL1) → Cache (L2) → MainMemory`.
//!
//! # Example
//!
//! ```
//! use sttcache_mem::{Addr, Cache, CacheConfig, MainMemory, MemoryLevel};
//!
//! # fn main() -> Result<(), sttcache_mem::MemError> {
//! // The paper's drop-in STT-MRAM DL1: 64 KB, 2-way, 64 B lines,
//! // 4 read / 2 write cycles, in front of a 100-cycle main memory.
//! let dl1 = CacheConfig::builder()
//!     .capacity_bytes(64 * 1024)
//!     .associativity(2)
//!     .line_bytes(64)
//!     .read_cycles(4)
//!     .write_cycles(2)
//!     .build()?;
//! let mut cache = Cache::new(dl1, MainMemory::new(100));
//! let miss = cache.read(Addr(0x1000), 0);
//! let hit = cache.read(Addr(0x1000), miss.complete_at);
//! assert!(miss.complete_at - 0 > hit.complete_at - miss.complete_at);
//! assert_eq!(cache.stats().read_hits, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod banks;
mod cache;
mod config;
mod error;
mod gates;
pub mod invariants;
mod memory;
mod mshr;
mod prefetcher;
mod replacement;
mod set;
mod shared;
mod stats;
pub mod telemetry;
mod write_buffer;

pub use addr::{Addr, Cycle, LineAddr};
pub use banks::BankSchedule;
pub use cache::{AccessOutcome, Cache, CacheProbe, ServedBy};
pub use config::{AsymmetricWrite, CacheConfig, CacheConfigBuilder};
pub use error::MemError;
pub use gates::env_gate;
pub use invariants::InvariantViolation;
pub use memory::MainMemory;
pub use mshr::{MshrFile, MshrOutcome};
pub use prefetcher::{NextLinePrefetcher, PrefetcherStats};
pub use replacement::ReplacementPolicy;
pub use shared::Shared;
pub use stats::CacheStats;
pub use write_buffer::WriteBuffer;

/// A timed level of the memory hierarchy.
///
/// All operations take the current cycle `now` and return an
/// [`AccessOutcome`] whose `complete_at` is the cycle at which the data is
/// available (reads) or accepted (writes). Implementations maintain their
/// own internal resource timing (banks, buffers) and may therefore return
/// completion times later than `now + latency` under contention.
/// Statistics count from construction and are never reset: every run
/// builds its own cold hierarchy. A line buffer's fill, which holds a
/// bank past the read it makes, is not a trait operation: only a DL1
/// ever sits below a buffer, and the buffer asks it directly
/// ([`Cache::read_and_hold`]).
///
/// See the [crate-level example](crate) for composing levels into a
/// hierarchy.
pub trait MemoryLevel {
    /// Reads the line containing `addr`.
    fn read(&mut self, addr: Addr, now: Cycle) -> AccessOutcome;

    /// Writes into the line containing `addr`.
    fn write(&mut self, addr: Addr, now: Cycle) -> AccessOutcome;

    /// The line size of this level in bytes.
    fn line_bytes(&self) -> usize;

    /// Statistics for this level.
    fn stats(&self) -> &CacheStats;

    /// Whether the line containing `addr` is present at this level.
    ///
    /// A pure tag probe: no state, timing or statistics change. Levels
    /// without tags (the default) report `false`; [`MainMemory`] always
    /// reports `true`.
    fn contains(&self, _addr: Addr) -> bool {
        false
    }
}

impl<M: MemoryLevel + ?Sized> MemoryLevel for Box<M> {
    fn read(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        (**self).read(addr, now)
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        (**self).write(addr, now)
    }

    fn line_bytes(&self) -> usize {
        (**self).line_bytes()
    }

    fn stats(&self) -> &CacheStats {
        (**self).stats()
    }

    fn contains(&self, addr: Addr) -> bool {
        (**self).contains(addr)
    }
}
