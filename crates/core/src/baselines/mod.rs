//! Comparison structures of the paper's Fig. 8.
//!
//! Both are write-latency-mitigation techniques from prior work, re-used
//! here (as in the paper) as latency-reduction front-ends of the same
//! 2 Kbit capacity as the VWB, fully associative, but with the *regular*
//! narrow array interface — which is exactly why they recover only about
//! half the penalty the VWB does.

mod emshr;
mod l0;

pub use emshr::EmshrConfig;
pub use l0::L0Config;
