//! Instruction-fetch modelling.
//!
//! The paper's platform has a 32 KB 2-way SRAM L1 I-cache that is never
//! changed, so by default the core models fetch as ideal (it cancels out
//! of every penalty ratio). This module makes fetch explicit so the
//! *I-cache* can be explored too — the paper's companion work (reference
//! [7], NVM I-cache through MSHR enhancements) is reproduced as an
//! extension experiment by handing the core an STT-MRAM IL1.
//!
//! The model is deliberately first-order: instructions are 4 bytes and
//! fetched sequentially through the IL1; a taken branch redirects the PC
//! to the most recent loop head (loop-dominated kernels re-execute the
//! same code), a not-taken branch falls through. Only cycles beyond the
//! pipelined 1-per-cycle fetch are charged, so an always-hitting SRAM IL1
//! adds zero overhead.

use sttcache_mem::{Addr, Cycle, MemoryLevel};

/// Instruction size in bytes (fixed-width ARM).
const INSTR_BYTES: u64 = 4;

/// An instruction-fetch front-end over an L1 I-cache.
///
/// # Example
///
/// ```
/// use sttcache_cpu::FetchUnit;
/// use sttcache_mem::{Cache, CacheConfig, MainMemory};
///
/// # fn main() -> Result<(), sttcache_mem::MemError> {
/// let il1 = Cache::new(
///     CacheConfig::builder()
///         .capacity_bytes(32 * 1024)
///         .line_bytes(32)
///         .read_cycles(1)
///         .write_cycles(1)
///         .build()?,
///     MainMemory::new(100),
/// );
/// let mut fetch = FetchUnit::new(Box::new(il1), 4096);
/// // The first fetch of a line misses; later ones on the same line are
/// // pipelined and free.
/// let cold = fetch.step(0, None);
/// assert!(cold > 0);
/// assert_eq!(fetch.step(1000, None), 0);
/// # Ok(())
/// # }
/// ```
pub struct FetchUnit {
    il1: Box<dyn MemoryLevel>,
    /// Cached `il1.line_bytes()` so the per-instruction line-boundary
    /// check skips the virtual call (the IL1 geometry never changes).
    line_mask: u64,
    /// Simulated code-region base.
    base: u64,
    /// Active code footprint in bytes; the PC wraps inside it.
    footprint: u64,
    pc: u64,
    /// PC of the current loop head (target of taken branches).
    loop_head: u64,
    fetch_stall_cycles: u64,
    fetches: u64,
}

impl std::fmt::Debug for FetchUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchUnit")
            .field("pc", &self.pc)
            .field("footprint", &self.footprint)
            .field("fetches", &self.fetches)
            .field("fetch_stall_cycles", &self.fetch_stall_cycles)
            .finish_non_exhaustive()
    }
}

impl FetchUnit {
    /// Creates a fetch unit over `il1` with the given active code
    /// footprint in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_bytes` is smaller than one instruction.
    pub fn new(il1: Box<dyn MemoryLevel>, footprint_bytes: u64) -> Self {
        assert!(footprint_bytes >= INSTR_BYTES, "code footprint too small");
        let base = 0x4000_0000; // away from the data space
        let line_bytes = il1.line_bytes() as u64;
        assert!(line_bytes.is_power_of_two(), "IL1 line size");
        FetchUnit {
            line_mask: line_bytes - 1,
            il1,
            base,
            footprint: footprint_bytes,
            pc: base,
            loop_head: base,
            fetch_stall_cycles: 0,
            fetches: 0,
        }
    }

    /// Fetches the next instruction at cycle `now`. `branch` carries the
    /// outcome when the instruction is a branch (`Some(taken)`).
    /// Returns the stall cycles beyond the pipelined fetch.
    pub fn step(&mut self, now: Cycle, branch: Option<bool>) -> u64 {
        // Only a PC that enters a new line touches the IL1 (the fetch
        // buffer holds the current line).
        let stall = if self.pc & self.line_mask == 0 || self.fetches == 0 {
            self.fetches += 1;
            let out = self.il1.read(Addr(self.pc), now);
            let extra = out.complete_at.saturating_sub(now + 1);
            self.fetch_stall_cycles += extra;
            extra
        } else {
            self.fetches += 1;
            0
        };

        // Advance the PC.
        match branch {
            Some(true) => {
                // Taken branch: back to the loop head.
                self.pc = self.loop_head;
            }
            Some(false) => {
                // Fall through and open a new loop head (a new region of
                // code begins after a loop exits).
                self.pc = self.wrap(self.pc + INSTR_BYTES);
                self.loop_head = self.pc;
            }
            None => {
                self.pc = self.wrap(self.pc + INSTR_BYTES);
            }
        }
        stall
    }

    fn wrap(&self, pc: u64) -> u64 {
        // The PC advances one instruction at a time, so it exceeds the
        // footprint only on the step that crosses the end — the division
        // runs once per wrap-around, not per instruction.
        let off = pc - self.base;
        if off < self.footprint {
            pc
        } else {
            self.base + off % self.footprint
        }
    }

    /// Total cycles lost to instruction-fetch stalls.
    pub fn fetch_stall_cycles(&self) -> u64 {
        self.fetch_stall_cycles
    }

    /// Instructions fetched.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// The IL1 behind the fetch unit.
    pub fn il1(&self) -> &dyn MemoryLevel {
        self.il1.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttcache_mem::{Cache, CacheConfig, MainMemory};

    fn il1(read_cycles: u64) -> Box<dyn MemoryLevel> {
        Box::new(Cache::new(
            CacheConfig::builder()
                .capacity_bytes(32 * 1024)
                .associativity(2)
                .line_bytes(32)
                .read_cycles(read_cycles)
                .write_cycles(read_cycles)
                .build()
                .expect("test il1 config is valid"),
            MainMemory::new(100),
        ))
    }

    #[test]
    fn sram_il1_straight_line_is_nearly_free() {
        let mut f = FetchUnit::new(il1(1), 4096);
        let mut now = 0;
        let mut total = 0;
        // Warm pass over the footprint (consuming each stall).
        for _ in 0..2048 {
            let s = f.step(now, None);
            total += s;
            now += 3 + s;
        }
        // Second pass: all IL1 hits, 1-cycle pipelined -> zero stall.
        let warm_start = f.fetch_stall_cycles();
        for _ in 0..2048 {
            now += 3 + f.step(now, None);
        }
        assert_eq!(f.fetch_stall_cycles(), warm_start);
        assert!(total > 0); // the cold pass did stall
    }

    #[test]
    fn nvm_il1_charges_per_line_stalls_even_warm() {
        let mut f = FetchUnit::new(il1(4), 4096);
        let mut now = 0;
        for _ in 0..2048 {
            now += 3 + f.step(now, None);
        }
        let warm_start = f.fetch_stall_cycles();
        for _ in 0..2048 {
            now += 3 + f.step(now, None);
        }
        // 4-cycle reads leave 3 stall cycles per new line (8 instrs/line).
        let warm_stalls = f.fetch_stall_cycles() - warm_start;
        assert!(warm_stalls >= 2048 / 8 * 3 / 2, "{warm_stalls}");
    }

    #[test]
    fn taken_branches_loop_over_hot_code() {
        let mut f = FetchUnit::new(il1(1), 65536);
        let mut now = 0;
        // A tight loop: 10 instructions then a taken branch, repeated. The
        // core consumes each returned stall before issuing the next fetch.
        for _ in 0..100 {
            for _ in 0..10 {
                now += 1 + f.step(now, None);
            }
            now += 1 + f.step(now, Some(true));
        }
        // The loop body fits in two lines: two cold misses, then nothing.
        let cold = 2 * 103;
        let stalls = f.fetch_stall_cycles();
        assert!(stalls <= cold, "{stalls}");
        // Warm reference: run another 100 iterations, no new stalls.
        let warm_start = f.fetch_stall_cycles();
        for _ in 0..100 {
            for _ in 0..10 {
                now += 1 + f.step(now, None);
            }
            now += 1 + f.step(now, Some(true));
        }
        assert_eq!(f.fetch_stall_cycles(), warm_start);
    }

    #[test]
    fn not_taken_branch_falls_through() {
        let mut f = FetchUnit::new(il1(1), 4096);
        f.step(0, Some(false));
        assert_eq!(f.fetches(), 1);
        // The PC advanced; a new loop head was set (no way to observe
        // directly, but stepping keeps working).
        f.step(10, Some(true));
        assert_eq!(f.fetches(), 2);
    }

    #[test]
    fn footprint_wraps() {
        let mut f = FetchUnit::new(il1(1), 64);
        let mut now = 0;
        for _ in 0..100 {
            now += 2 + f.step(now, None);
        }
        // 100 instructions in a 16-instruction footprint: only two lines
        // ever touched.
        assert_eq!(f.il1().stats().reads, f.il1().stats().read_hits + 2);
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn tiny_footprint_panics() {
        let _ = FetchUnit::new(il1(1), 2);
    }
}
