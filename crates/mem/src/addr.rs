//! Addresses, line addresses and cycle counts.

use std::fmt;

/// A simulation clock-cycle count.
pub type Cycle = u64;

/// A byte address in the simulated physical address space.
///
/// # Example
///
/// ```
/// use sttcache_mem::Addr;
///
/// let a = Addr(0x1234);
/// assert_eq!(a.line(64).0, 0x1234 / 64);
/// assert_eq!(a.offset_in_line(64), 0x34 % 64 + 0x1200 % 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The line address for a line size of `line_bytes` (power of two).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line_bytes` is not a power of two.
    pub fn line(self, line_bytes: usize) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 >> line_bytes.trailing_zeros())
    }

    /// The byte offset of this address within its line.
    pub fn offset_in_line(self, line_bytes: usize) -> usize {
        debug_assert!(line_bytes.is_power_of_two());
        (self.0 & (line_bytes as u64 - 1)) as usize
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A line-granular address (byte address divided by the line size).
///
/// Line addresses are only comparable within one level of the hierarchy
/// (levels may have different line sizes); the newtype prevents mixing them
/// with byte addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The first byte address of this line.
    pub fn base(self, line_bytes: usize) -> Addr {
        debug_assert!(line_bytes.is_power_of_two());
        Addr(self.0 << line_bytes.trailing_zeros())
    }

    /// The set index for `sets` sets (power of two).
    pub fn set_index(self, sets: usize) -> usize {
        debug_assert!(sets.is_power_of_two());
        (self.0 & (sets as u64 - 1)) as usize
    }

    /// The tag for `sets` sets.
    pub fn tag(self, sets: usize) -> u64 {
        debug_assert!(sets.is_power_of_two());
        self.0 >> sets.trailing_zeros()
    }

    /// Reconstructs a line address from tag and set index.
    pub fn from_parts(tag: u64, set_index: usize, sets: usize) -> Self {
        debug_assert!(sets.is_power_of_two());
        LineAddr((tag << sets.trailing_zeros()) | set_index as u64)
    }

    /// The bank this line maps to under line-interleaving across `banks`
    /// banks (power of two).
    pub fn bank(self, banks: usize) -> usize {
        debug_assert!(banks.is_power_of_two());
        (self.0 & (banks as u64 - 1)) as usize
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_offset_roundtrip() {
        let a = Addr(0xdead_beef);
        let line = a.line(64);
        assert_eq!(line.base(64).0 + a.offset_in_line(64) as u64, a.0);
    }

    #[test]
    fn set_tag_roundtrip() {
        let line = LineAddr(0xabcd_ef01);
        let sets = 512;
        let rebuilt = LineAddr::from_parts(line.tag(sets), line.set_index(sets), sets);
        assert_eq!(rebuilt, line);
    }

    #[test]
    fn bank_interleaving_cycles_through_banks() {
        let banks = 4;
        let seen: Vec<usize> = (0..8).map(|i| LineAddr(i).bank(banks)).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr(255).to_string(), "0xff");
        assert_eq!(format!("{:x}", Addr(255)), "ff");
        assert_eq!(LineAddr(16).to_string(), "line 0x10");
    }

    #[test]
    fn from_u64() {
        assert_eq!(Addr::from(7u64), Addr(7));
    }
}
