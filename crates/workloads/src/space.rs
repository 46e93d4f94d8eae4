//! Instrumented data arrays.
//!
//! Kernels compute on real `f32` data held in these arrays; every element
//! access additionally emits the corresponding load/store (with its exact
//! simulated byte address) into the [`Engine`], which is how the timing
//! simulator sees the kernel's memory-access stream.
//!
//! A [`DataSpace`] lays the arrays out in a simulated physical address
//! space. With `aligned = true` (the paper's "others" alignment intrinsics)
//! every array starts on a cache-line boundary; otherwise arrays start at a
//! deliberately skewed offset, so 16-byte vector accesses periodically
//! straddle a line boundary and split into two loads — the cost the
//! alignment transformation removes.

use sttcache_cpu::Engine;
use sttcache_mem::Addr;

/// Element size of the `f32` arrays in bytes.
pub(crate) const ELEM: usize = 4;
/// Vector width in elements (16-byte NEON-class vectors).
pub(crate) const VEC: usize = 4;
/// Boundary used for the vector-split check (the narrower SRAM line).
const SPLIT_BOUNDARY: u64 = 32;
/// Skew applied to array bases when unaligned.
const MISALIGN_SKEW: u64 = 20;

/// Allocates instrumented arrays in a simulated address space.
///
/// # Example
///
/// ```
/// use sttcache_workloads::DataSpace;
///
/// let mut space = DataSpace::new(true);
/// let a = space.array1(100);
/// let b = space.array2(10, 10);
/// assert_ne!(a.addr(0), b.addr(0, 0));
/// assert_eq!(a.addr(0).0 % 64, 0); // aligned allocation
/// ```
#[derive(Debug, Clone)]
pub struct DataSpace {
    next: u64,
    aligned: bool,
}

impl DataSpace {
    /// Creates a space; `aligned` controls whether arrays start on line
    /// boundaries (the "others" transformation) or at a skewed offset.
    pub fn new(aligned: bool) -> Self {
        DataSpace {
            next: 0x1000_0000,
            aligned,
        }
    }

    /// Allocates `len` zero-initialized elements: rounds up to a line,
    /// then applies the skew if unaligned.
    fn store(&mut self, len: usize) -> Store {
        self.next = (self.next + 63) & !63;
        let base = if self.aligned {
            self.next
        } else {
            self.next + MISALIGN_SKEW
        };
        self.next += ((len * ELEM) as u64 + MISALIGN_SKEW + 63) & !63;
        Store {
            base,
            aligned: self.aligned,
            data: vec![0.0; len],
        }
    }

    /// Allocates a 1-D array of `len` `f32` elements, zero-initialized.
    pub fn array1(&mut self, len: usize) -> Array1 {
        Array1 {
            store: self.store(len),
        }
    }

    /// Allocates a row-major 2-D array of `rows × cols` `f32` elements.
    pub fn array2(&mut self, rows: usize, cols: usize) -> Array2 {
        Array2 {
            store: self.store(rows * cols),
            rows,
            cols,
        }
    }

    /// Allocates a 3-D array of `d0 × d1 × d2` `f32` elements.
    pub fn array3(&mut self, d0: usize, d1: usize, d2: usize) -> Array3 {
        Array3 {
            store: self.store(d0 * d1 * d2),
            d0,
            d1,
            d2,
        }
    }
}

impl Default for DataSpace {
    fn default() -> Self {
        DataSpace::new(true)
    }
}

/// The flat element store behind every array: its data, its place in the
/// simulated address space, and the one place an element access is
/// emitted.
#[derive(Debug, Clone)]
struct Store {
    base: u64,
    aligned: bool,
    data: Vec<f32>,
}

impl Store {
    fn addr(&self, k: usize) -> Addr {
        Addr(self.base + (k * ELEM) as u64)
    }

    fn at(&self, e: &mut dyn Engine, k: usize) -> f32 {
        e.load(self.addr(k), ELEM);
        self.data[k]
    }

    fn set(&mut self, e: &mut dyn Engine, k: usize, v: f32) {
        e.store(self.addr(k), ELEM);
        self.data[k] = v;
    }

    fn at_vec(&self, e: &mut dyn Engine, k: usize) -> [f32; VEC] {
        self.emit_vec(e, k, |e, addr, bytes| e.load(addr, bytes));
        std::array::from_fn(|l| self.data[k + l])
    }

    fn set_vec(&mut self, e: &mut dyn Engine, k: usize, v: [f32; VEC]) {
        self.emit_vec(e, k, |e, addr, bytes| e.store(addr, bytes));
        self.data[k..k + VEC].copy_from_slice(&v);
    }

    /// Emits the 4-wide access at element `k` through `access` (a load or
    /// a store): two bus accesses when an unaligned vector straddles a
    /// split boundary, one otherwise. Inlined, so `access` is a direct
    /// call.
    #[inline(always)]
    fn emit_vec(&self, e: &mut dyn Engine, k: usize, access: fn(&mut dyn Engine, Addr, usize)) {
        let addr = self.addr(k).0;
        let bytes = (VEC * ELEM) as u64;
        let first = SPLIT_BOUNDARY - addr % SPLIT_BOUNDARY;
        if !self.aligned && first < bytes {
            access(e, Addr(addr), first as usize);
            access(e, Addr(addr + first), (bytes - first) as usize);
        } else {
            access(e, Addr(addr), bytes as usize);
        }
    }
}

/// A 1-D instrumented `f32` array.
#[derive(Debug, Clone)]
pub struct Array1 {
    store: Store,
}

impl Array1 {
    /// Element count.
    pub fn len(&self) -> usize {
        self.store.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.store.data.is_empty()
    }

    /// Simulated byte address of element `i`.
    pub fn addr(&self, i: usize) -> Addr {
        self.store.addr(i)
    }

    /// Instrumented load of element `i`.
    pub fn at(&self, e: &mut dyn Engine, i: usize) -> f32 {
        self.store.at(e, i)
    }

    /// Instrumented store of element `i`.
    pub fn set(&mut self, e: &mut dyn Engine, i: usize, v: f32) {
        self.store.set(e, i, v);
    }

    /// Instrumented 4-wide vector load starting at `i`.
    pub fn at_vec(&self, e: &mut dyn Engine, i: usize) -> [f32; VEC] {
        self.store.at_vec(e, i)
    }

    /// Instrumented 4-wide vector store starting at `i`.
    pub fn set_vec(&mut self, e: &mut dyn Engine, i: usize, v: [f32; VEC]) {
        self.store.set_vec(e, i, v);
    }

    /// Uninstrumented view (initialization and result checking only).
    pub fn raw(&self) -> &[f32] {
        &self.store.data
    }

    /// Initializes every element from an index function (uninstrumented).
    pub fn fill(&mut self, f: impl Fn(usize) -> f32) {
        for (i, v) in self.store.data.iter_mut().enumerate() {
            *v = f(i);
        }
    }
}

/// A row-major 2-D instrumented `f32` array.
#[derive(Debug, Clone)]
pub struct Array2 {
    store: Store,
    rows: usize,
    cols: usize,
}

impl Array2 {
    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        i * self.cols + j
    }

    /// Simulated byte address of element `(i, j)`.
    pub fn addr(&self, i: usize, j: usize) -> Addr {
        self.store.addr(self.idx(i, j))
    }

    /// Instrumented load of `(i, j)`.
    pub fn at(&self, e: &mut dyn Engine, i: usize, j: usize) -> f32 {
        self.store.at(e, self.idx(i, j))
    }

    /// Instrumented store of `(i, j)`.
    pub fn set(&mut self, e: &mut dyn Engine, i: usize, j: usize, v: f32) {
        let k = self.idx(i, j);
        self.store.set(e, k, v);
    }

    /// Instrumented 4-wide vector load of `(i, j..j+4)`.
    pub fn at_vec(&self, e: &mut dyn Engine, i: usize, j: usize) -> [f32; VEC] {
        self.store.at_vec(e, self.idx(i, j))
    }

    /// Instrumented 4-wide vector store of `(i, j..j+4)`.
    pub fn set_vec(&mut self, e: &mut dyn Engine, i: usize, j: usize, v: [f32; VEC]) {
        let k = self.idx(i, j);
        self.store.set_vec(e, k, v);
    }

    /// Uninstrumented view.
    pub fn raw(&self) -> &[f32] {
        &self.store.data
    }

    /// Uninstrumented element read (result checking only).
    pub fn raw_at(&self, i: usize, j: usize) -> f32 {
        self.store.data[self.idx(i, j)]
    }

    /// Initializes every element from an index function (uninstrumented).
    pub fn fill(&mut self, f: impl Fn(usize, usize) -> f32) {
        for i in 0..self.rows {
            for j in 0..self.cols {
                self.store.data[i * self.cols + j] = f(i, j);
            }
        }
    }
}

/// A 3-D instrumented `f32` array (for `doitgen`).
#[derive(Debug, Clone)]
pub struct Array3 {
    store: Store,
    d0: usize,
    d1: usize,
    d2: usize,
}

impl Array3 {
    /// Dimensions `(d0, d1, d2)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.d0, self.d1, self.d2)
    }

    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.d0 && j < self.d1 && k < self.d2);
        (i * self.d1 + j) * self.d2 + k
    }

    /// Simulated byte address of `(i, j, k)`.
    pub fn addr(&self, i: usize, j: usize, k: usize) -> Addr {
        self.store.addr(self.idx(i, j, k))
    }

    /// Instrumented load of `(i, j, k)`.
    pub fn at(&self, e: &mut dyn Engine, i: usize, j: usize, k: usize) -> f32 {
        self.store.at(e, self.idx(i, j, k))
    }

    /// Instrumented store of `(i, j, k)`.
    pub fn set(&mut self, e: &mut dyn Engine, i: usize, j: usize, k: usize, v: f32) {
        let n = self.idx(i, j, k);
        self.store.set(e, n, v);
    }

    /// Instrumented 4-wide vector load along the last dimension.
    pub fn at_vec(&self, e: &mut dyn Engine, i: usize, j: usize, k: usize) -> [f32; VEC] {
        self.store.at_vec(e, self.idx(i, j, k))
    }

    /// Uninstrumented view.
    pub fn raw(&self) -> &[f32] {
        &self.store.data
    }

    /// Initializes every element from an index function (uninstrumented).
    pub fn fill(&mut self, f: impl Fn(usize, usize, usize) -> f32) {
        for i in 0..self.d0 {
            for j in 0..self.d1 {
                for k in 0..self.d2 {
                    self.store.data[(i * self.d1 + j) * self.d2 + k] = f(i, j, k);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use sttcache_cpu::Engine;
    use sttcache_mem::Addr;

    /// Records every event for assertion.
    #[derive(Debug, Default)]
    pub struct Recorder {
        pub loads: Vec<(Addr, usize)>,
        pub stores: Vec<(Addr, usize)>,
        pub prefetches: Vec<Addr>,
        pub compute_ops: u64,
        pub branches: Vec<bool>,
    }

    impl Engine for Recorder {
        fn load(&mut self, addr: Addr, bytes: usize) {
            self.loads.push((addr, bytes));
        }

        fn store(&mut self, addr: Addr, bytes: usize) {
            self.stores.push((addr, bytes));
        }

        fn prefetch(&mut self, addr: Addr) {
            self.prefetches.push(addr);
        }

        fn compute(&mut self, ops: u64) {
            self.compute_ops += ops;
        }

        fn branch(&mut self, taken: bool) {
            self.branches.push(taken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::Recorder;
    use super::*;

    #[test]
    fn aligned_arrays_start_on_line_boundaries() {
        let mut space = DataSpace::new(true);
        for _ in 0..5 {
            let a = space.array1(33);
            assert_eq!(a.addr(0).0 % 64, 0);
        }
    }

    #[test]
    fn unaligned_arrays_are_skewed() {
        let mut space = DataSpace::new(false);
        let a = space.array1(10);
        assert_eq!(a.addr(0).0 % 64, MISALIGN_SKEW);
    }

    #[test]
    fn arrays_do_not_overlap() {
        let mut space = DataSpace::new(true);
        let a = space.array1(100);
        let b = space.array2(7, 9);
        let a_end = a.addr(99).0 + ELEM as u64;
        assert!(b.addr(0, 0).0 >= a_end);
    }

    #[test]
    fn scalar_access_emits_event_and_computes() {
        let mut space = DataSpace::new(true);
        let mut a = space.array1(8);
        let mut e = Recorder::default();
        a.set(&mut e, 3, 2.5);
        assert_eq!(a.at(&mut e, 3), 2.5);
        assert_eq!(e.stores, vec![(a.addr(3), 4)]);
        assert_eq!(e.loads, vec![(a.addr(3), 4)]);
    }

    #[test]
    fn aligned_vector_access_is_one_event() {
        let mut space = DataSpace::new(true);
        let a = space.array1(16);
        let mut e = Recorder::default();
        a.at_vec(&mut e, 4);
        assert_eq!(e.loads, vec![(a.addr(4), 16)]);
    }

    #[test]
    fn misaligned_vector_access_can_split() {
        let mut space = DataSpace::new(false);
        let a = space.array1(64);
        let mut e = Recorder::default();
        // base % 32 = 20; element 0 → offset 20; 20 + 16 > 32: split.
        a.at_vec(&mut e, 0);
        assert_eq!(e.loads.len(), 2);
        assert_eq!(e.loads[0].1 + e.loads[1].1, 16);
        // Element 3 → offset 32: aligned within the boundary, no split.
        let mut e2 = Recorder::default();
        a.at_vec(&mut e2, 3);
        assert_eq!(e2.loads.len(), 1);
    }

    #[test]
    fn array2_addressing_is_row_major() {
        let mut space = DataSpace::new(true);
        let m = space.array2(4, 8);
        assert_eq!(m.addr(1, 0).0 - m.addr(0, 0).0, 32);
        assert_eq!(m.addr(0, 1).0 - m.addr(0, 0).0, 4);
    }

    #[test]
    fn array2_vector_ops_roundtrip() {
        let mut space = DataSpace::new(true);
        let mut m = space.array2(2, 8);
        let mut e = Recorder::default();
        m.set_vec(&mut e, 1, 4, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.at_vec(&mut e, 1, 4), [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.raw_at(1, 5), 2.0);
    }

    #[test]
    fn array3_addressing() {
        let mut space = DataSpace::new(true);
        let t = space.array3(2, 3, 4);
        assert_eq!(t.dims(), (2, 3, 4));
        assert_eq!(t.addr(0, 0, 1).0 - t.addr(0, 0, 0).0, 4);
        assert_eq!(t.addr(0, 1, 0).0 - t.addr(0, 0, 0).0, 16);
        assert_eq!(t.addr(1, 0, 0).0 - t.addr(0, 0, 0).0, 48);
    }

    #[test]
    fn fill_initializes_without_events() {
        let mut space = DataSpace::new(true);
        let mut a = space.array2(3, 3);
        a.fill(|i, j| (i * 10 + j) as f32);
        assert_eq!(a.raw_at(2, 1), 21.0);
    }
}
