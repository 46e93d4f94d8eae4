//! # sttcache — an STT-MRAM L1 data-cache exploration platform
//!
//! A from-scratch Rust reproduction of *"System level exploration of a
//! STT-MRAM based Level 1 Data-Cache"* (Komalan, Tenllado, Gómez, Tirado,
//! Catthoor — DATE 2015).
//!
//! The paper replaces the SRAM L1 D-cache of a 1 GHz ARM Cortex-A9-like
//! core with an STT-MRAM array (4× read / 2× write latency, Table I) and
//! shows that a small, fully associative, *wide-interfaced* buffer — the
//! **Very Wide Buffer (VWB)** — plus code transformations (vectorization,
//! prefetching, alignment/branch intrinsics) reduces the drop-in penalty
//! from ≈54 % to ≈8 %.
//!
//! This crate provides:
//!
//! * [`FrontEnd`] — the L1 D-cache front-end: a list of line buffers in
//!   front of the DL1, each a [`StageSpec`]. The VWB ([`VwbConfig`]) is
//!   the paper's §IV organization, with its exact load and store
//!   policies, banked-promotion stalls and write-back handling;
//!   [`baselines`] configures the comparison structures of Fig. 8, a
//!   small fully associative L0 cache and the DATE'14 enhanced MSHR;
//! * [`Platform`] — the full evaluated system (64 KB DL1, 2 MB L2, main
//!   memory, in-order core) with one-call runs and penalty computation;
//! * energy/area/lifetime reporting via `sttcache-tech`.
//!
//! # Quick start
//!
//! ```
//! use sttcache::{DCacheOrganization, Platform};
//! use sttcache_cpu::Engine;
//! use sttcache_mem::Addr;
//!
//! # fn main() -> Result<(), sttcache::SttError> {
//! // A tiny workload: walk an array twice.
//! let walk = |e: &mut dyn Engine| {
//!     for pass in 0..2 {
//!         for i in 0..256u64 {
//!             e.load(Addr(i * 4), 4);
//!             e.compute(1);
//!         }
//!         e.branch(pass == 0);
//!     }
//! };
//!
//! let sram = Platform::new(DCacheOrganization::SramBaseline)?.run(&walk);
//! let nvm = Platform::new(DCacheOrganization::NvmDropIn)?.run(&walk);
//! let vwb = Platform::new(DCacheOrganization::nvm_vwb_default())?.run(&walk);
//!
//! let drop_in = sttcache::penalty_pct(sram.cycles(), nvm.cycles());
//! let with_vwb = sttcache::penalty_pct(sram.cycles(), vwb.cycles());
//! assert!(with_vwb < drop_in);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod buffer;
pub mod catalog;
mod dl1;
mod error;
mod front_end;
mod multi;
mod penalty;
mod platform;
mod report;
mod stage;
mod vwb;

pub use buffer::BufferProbe;
pub use catalog::{by_cli, readme_table, OrgEntry, HYBRID_STACK};
pub use dl1::{
    l2_config, nvm_dl1_config, nvm_il1_config, sram_dl1_config, sram_il1_config, DlOneTechnology,
};
pub use error::SttError;
pub use front_end::FrontEnd;
pub use multi::{
    core_addr, CoreSpec, MultiAudit, MultiPlatform, MultiPlatformConfig, MultiRunResult, SharedL2,
    CORE_ADDRESS_STRIDE, MAX_CORES, MAX_PHASE_OFFSET,
};
pub use penalty::penalty_pct;
pub use platform::{
    DCacheOrganization, EnergyReport, Platform, PlatformConfig, RunProbes, RunResult, CLOCK_GHZ,
    CODE_FOOTPRINT_BYTES, MEMORY_LATENCY_CYCLES,
};
pub use stage::{BufferStats, StackSpec, StageSpec, StageStats};
pub use vwb::VwbConfig;
