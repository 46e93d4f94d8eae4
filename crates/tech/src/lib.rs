//! Analytical technology models for on-chip memory arrays.
//!
//! This crate is the technology substrate of the `sttcache` reproduction of
//! *"System level exploration of a STT-MRAM based Level 1 Data-Cache"*
//! (Komalan et al., DATE 2015). It provides CACTI/NVSim-flavoured analytical
//! models for the memory cells the paper discusses — 6T SRAM, STT-MRAM
//! (1T-1MTJ and 2T-2MTJ), ReRAM and PRAM — and for complete banked memory
//! arrays built from them: access latency, dynamic energy, leakage power,
//! silicon area and endurance.
//!
//! The array model is calibrated at the 32 nm high-performance node so that a
//! 64 KB, 2-way array reproduces the paper's Table I exactly (SRAM:
//! 0.787 ns read / 0.773 ns write, 146 F² per cell; STT-MRAM: 3.37 ns read /
//! 1.86 ns write, 28.35 mW leakage, 42 F² per cell).
//!
//! # Example
//!
//! ```
//! use sttcache_tech::{ArrayConfig, ArrayModel, CellKind, TechNode};
//!
//! # fn main() -> Result<(), sttcache_tech::TechError> {
//! let cfg = ArrayConfig::builder()
//!     .capacity_bytes(64 * 1024)
//!     .associativity(2)
//!     .line_bits(512)
//!     .cell(CellKind::SttMram)
//!     .node(TechNode::hp_32nm())
//!     .build()?;
//! let model = ArrayModel::new(cfg);
//! assert!((model.read_latency_ns() - 3.37).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod cell;
mod endurance;
mod energy;
mod error;
mod explore;
mod mtj;
mod node;
mod table;

pub use array::{ArrayConfig, ArrayConfigBuilder, ArrayModel, ArrayOrganization};
pub use cell::{CellKind, CellModel, CellParameters};
pub use endurance::{wear_uniformity, EnduranceModel, Lifetime};
pub use energy::LeakageIntegrator;
pub use error::TechError;
pub use explore::{explore, pareto_front, DesignPoint, SweepSpec};
pub use mtj::{MtjDevice, MtjStack, SwitchingMode};
pub use node::{TechNode, TransistorFlavor};
pub use table::{table_one, TableOneRow};

/// Nanoseconds, as used for array access latencies.
pub type Nanoseconds = f64;
/// Picojoules, as used for per-access dynamic energy.
pub type Picojoules = f64;
/// Milliwatts, as used for leakage power.
pub type Milliwatts = f64;
/// Square millimetres, as used for array area.
pub type SquareMillimetres = f64;
