//! Instrumented PolyBench workloads for the `sttcache` simulator.
//!
//! The paper evaluates on "a subset of the PolyBench benchmark suite"
//! (Pouchet's polyhedral kernels). This crate re-implements 28 of those
//! kernels in Rust, plus four irregular pointer-chasing kernels, as
//! *instrumented computations*: every array element access performs the
//! real floating-point arithmetic **and** emits a load/store event (with
//! its exact byte address) into a [`sttcache_cpu::Engine`], so the timing
//! simulator observes precisely the access stream the kernel's loop nest
//! generates.
//!
//! ## Code transformations (paper §V)
//!
//! Each kernel supports the paper's three transformation families through
//! [`Transformations`]:
//!
//! * **vectorization** — the innermost vectorizable loops process four
//!   elements per operation (one wide load/store instead of four narrow
//!   ones), like the paper's manually steered loop vectorization;
//! * **prefetching** — critical loop arrays are prefetched one cache line
//!   ahead into the VWB via [`sttcache_cpu::Engine::prefetch`] hints;
//! * **others** — alignment of arrays (mis-aligned vector accesses
//!   otherwise split across lines), 4× loop unrolling (fewer back-edge
//!   branches and less index overhead) and branch-less inner conditionals.
//!
//! # Example
//!
//! ```
//! use sttcache_workloads::{Kernel, PolyBench, ProblemSize, Transformations};
//! use sttcache::{DCacheOrganization, Platform};
//!
//! # fn main() -> Result<(), sttcache::SttError> {
//! # let _ = (); // platform built from the core crate
//! let kernel = PolyBench::Atax.kernel(ProblemSize::Mini);
//! let platform = Platform::new(DCacheOrganization::nvm_vwb_default())?;
//! let result = platform.run(|e| kernel.run(e, Transformations::all()));
//! assert!(result.cycles() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! (The example depends on the `sttcache` platform crate; within this
//! crate's own tests a recording engine is used instead.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod conformance;
mod irregular;
pub mod kernels;
mod micro;
mod space;
mod suite;
mod transform;

pub use catalog::{Workload, WorkloadFamily, WorkloadSpec};
pub use irregular::{CsrBfs, GcMark, HashProbe, Irregular, ListChase};
pub use micro::StrideWalk;
pub use space::{Array1, Array2, Array3, DataSpace};
pub use suite::{Kernel, PolyBench, ProblemSize};
pub use transform::Transformations;
