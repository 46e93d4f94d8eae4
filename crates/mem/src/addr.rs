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
/// assert_eq!(a.line(64).base(64), Addr(0x1200));
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
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

/// How one cache splits an address: the shifts and masks of its
/// power-of-two line size, set count and bank count, derived once when
/// the cache is built so that an access only shifts and masks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    bank_mask: u64,
}

/// An address split under one [`Geometry`]: its line, the set and tag of
/// that line, and the bank that serves it (lines interleave across
/// banks).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Split {
    pub line: LineAddr,
    pub set: usize,
    pub tag: u64,
    pub bank: usize,
}

impl Geometry {
    /// The geometry of `sets` sets of `line_bytes`-byte lines over
    /// `banks` banks, each a power of two.
    pub fn new(line_bytes: usize, sets: usize, banks: usize) -> Self {
        debug_assert!(line_bytes.is_power_of_two() && sets.is_power_of_two());
        debug_assert!(banks.is_power_of_two());
        Geometry {
            line_shift: line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            bank_mask: banks as u64 - 1,
        }
    }

    /// The number of sets.
    pub fn sets(self) -> usize {
        self.set_mask as usize + 1
    }

    /// Splits the line holding `addr`.
    #[inline(always)]
    pub fn split(self, addr: Addr) -> Split {
        self.split_line(LineAddr(addr.0 >> self.line_shift))
    }

    /// Splits `line`.
    #[inline(always)]
    pub fn split_line(self, line: LineAddr) -> Split {
        Split {
            line,
            set: (line.0 & self.set_mask) as usize,
            tag: line.0 >> self.set_bits,
            bank: (line.0 & self.bank_mask) as usize,
        }
    }

    /// The line whose tag is `tag` in set `set`.
    pub fn line(self, tag: u64, set: usize) -> LineAddr {
        LineAddr((tag << self.set_bits) | set as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_offset_roundtrip() {
        let a = Addr(0xdead_beef);
        let line = a.line(64);
        assert_eq!(line.base(64).0 + a.0 % 64, a.0);
        assert_eq!(Geometry::new(64, 512, 4).split(a).line, line);
    }

    #[test]
    fn set_tag_roundtrip() {
        let line = LineAddr(0xabcd_ef01);
        let geometry = Geometry::new(64, 512, 4);
        let at = geometry.split_line(line);
        assert_eq!((at.set, at.tag), (0x101, 0xabcd_ef01 >> 9));
        assert_eq!(geometry.line(at.tag, at.set), line);
        assert_eq!(geometry.sets(), 512);
    }

    #[test]
    fn bank_interleaving_cycles_through_banks() {
        let geometry = Geometry::new(32, 8, 4);
        let seen: Vec<usize> = (0..8).map(|i| geometry.split(Addr(i * 32)).bank).collect();
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
