//! Trace recording and replay.
//!
//! A [`TraceRecorder`] captures the architectural event stream a workload
//! emits (every load, store, prefetch, compute group and branch) into a
//! [`Trace`] that can be saved to a compact binary format and replayed
//! later into any [`Engine`]. This decouples workload generation from
//! timing simulation — record once, sweep many cache configurations —
//! exactly how trace-driven studies around gem5 are run.
//!
//! This module is the only one that knows how an event is stored: one
//! packed `u64` word, the same in memory, on disk and in the content
//! hash. Bits 63–56 hold the opcode (load 0, store 1, prefetch 2,
//! compute 3, branch 4), bits 55–48 the access width, and bits 47–0 the
//! byte address, the compute count (at most `u32::MAX`) or the branch
//! outcome (0 or 1). Addresses therefore lie below 2^48. Every word
//! unpacks to some [`TraceEvent`]; it is valid exactly when packing that
//! event gives the word back.

use crate::Engine;
use std::fmt;
use std::io::{self, Read, Write};
use sttcache_mem::Addr;

/// One recorded architectural event: the decoded view of an event word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A load of `bytes` at `addr`.
    Load {
        /// Byte address.
        addr: Addr,
        /// Access width in bytes.
        bytes: u8,
    },
    /// A store of `bytes` at `addr`.
    Store {
        /// Byte address.
        addr: Addr,
        /// Access width in bytes.
        bytes: u8,
    },
    /// A software prefetch hint.
    Prefetch {
        /// Byte address.
        addr: Addr,
    },
    /// `ops` back-to-back single-cycle operations.
    Compute {
        /// Operation count.
        ops: u32,
    },
    /// A conditional branch with its outcome.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
    },
}

/// Bit positions of the opcode and the access width in an event word.
const OP_SHIFT: u32 = 56;
const WIDTH_SHIFT: u32 = 48;
/// Every payload, and so every address, lies below this.
const PAYLOAD_LIMIT: u64 = 1 << WIDTH_SHIFT;

/// File magic for the binary trace format, and the retired
/// variable-length format's, which is refused by name.
const MAGIC: &[u8; 8] = b"STTRACE2";
const OLD_MAGIC: &[u8; 8] = b"STTRACE1";

impl TraceEvent {
    /// Feeds this event to an engine: the one dispatch from events to
    /// [`Engine`] calls, shared by [`Trace::replay_into`], the multi-core
    /// interleaver and the fuzzer's shrinker.
    #[inline(always)]
    pub fn replay_into<E: Engine + ?Sized>(self, e: &mut E) {
        match self {
            TraceEvent::Load { addr, bytes } => e.load(addr, bytes as usize),
            TraceEvent::Store { addr, bytes } => e.store(addr, bytes as usize),
            TraceEvent::Prefetch { addr } => e.prefetch(addr),
            TraceEvent::Compute { ops } => e.compute(ops as u64),
            TraceEvent::Branch { taken } => e.branch(taken),
        }
    }

    /// The byte address of a load, store or prefetch.
    pub fn addr_mut(&mut self) -> Option<&mut Addr> {
        match self {
            TraceEvent::Load { addr, .. }
            | TraceEvent::Store { addr, .. }
            | TraceEvent::Prefetch { addr } => Some(addr),
            TraceEvent::Compute { .. } | TraceEvent::Branch { .. } => None,
        }
    }

    /// Packs the event into its word. Panics, naming the address, if it
    /// is at or above 2^48: kernels and fuzz generators stay far below,
    /// so only a program bug gets here.
    fn encode(self) -> u64 {
        let (op, width, payload) = match self {
            TraceEvent::Load { addr, bytes } => (0, bytes, addr.0),
            TraceEvent::Store { addr, bytes } => (1, bytes, addr.0),
            TraceEvent::Prefetch { addr } => (2, 0, addr.0),
            TraceEvent::Compute { ops } => (3, 0, ops as u64),
            TraceEvent::Branch { taken } => (4, 0, taken as u64),
        };
        assert!(
            payload < PAYLOAD_LIMIT,
            "trace address {payload:#x} is outside the 48-bit trace address space"
        );
        (op << OP_SHIFT) | (u64::from(width) << WIDTH_SHIFT) | payload
    }
}

/// Unpacks an event word: the one decoder.
#[inline(always)]
fn decode(word: u64) -> TraceEvent {
    let addr = Addr(word & (PAYLOAD_LIMIT - 1));
    let bytes = (word >> WIDTH_SHIFT) as u8;
    match word >> OP_SHIFT {
        0 => TraceEvent::Load { addr, bytes },
        1 => TraceEvent::Store { addr, bytes },
        2 => TraceEvent::Prefetch { addr },
        3 => TraceEvent::Compute { ops: addr.0 as u32 },
        _ => TraceEvent::Branch { taken: addr.0 != 0 },
    }
}

/// A recorded event stream: one packed word per event.
///
/// # Example
///
/// ```
/// use sttcache_cpu::{Engine, Trace, TraceRecorder};
/// use sttcache_mem::Addr;
///
/// # fn main() -> std::io::Result<()> {
/// let mut rec = TraceRecorder::new();
/// rec.load(Addr(0x40), 4);
/// rec.compute(3);
/// rec.store(Addr(0x80), 4);
/// let trace = rec.into_trace();
///
/// // Round-trip through the binary format.
/// let mut buf = Vec::new();
/// trace.write_to(&mut buf)?;
/// let back = Trace::read_from(&mut buf.as_slice())?;
/// assert_eq!(trace, back);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Trace {
    words: Vec<u64>,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The recorded events, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TraceEvent> + '_ {
        self.words.iter().map(|&word| decode(word))
    }

    /// Heap footprint of the event buffer in bytes, 8 per *capacity*
    /// slot: the unit the trace cache reports its resident recordings
    /// in. A recorder's growth slack (or an oversized capacity hint)
    /// counts until [`Trace::shrink_to_fit`] drops it.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Releases the event buffer's growth slack so [`Trace::heap_bytes`]
    /// matches the event count.
    pub fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
    }

    /// Counts of (loads, stores, prefetches, branches) in the trace.
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        let count = |op: u64| self.words.iter().filter(|&&w| w >> OP_SHIFT == op).count() as u64;
        (count(0), count(1), count(2), count(4))
    }

    /// Replays the trace into an engine, in order, monomorphized over the
    /// engine type (`E = dyn Engine` dispatches virtually instead). With
    /// a concrete `E` every event dispatch is a static (inlinable) call.
    pub fn replay_into<E: Engine + ?Sized>(&self, e: &mut E) {
        // Fixed-size chunks: the counted inner loop measured faster on
        // `replay-affine` than one flat loop.
        for chunk in self.words.chunks(1024) {
            for &word in chunk {
                decode(word).replay_into(e);
            }
        }
    }

    /// FNV-1a over the event words' little-endian bytes, read in place:
    /// the content identity of an external trace.
    pub fn content_hash(&self) -> u64 {
        let bytes = self.words.iter().flat_map(|w| w.to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Serializes the trace: the 8-byte magic `STTRACE2`, the
    /// little-endian `u64` event count, then the event words,
    /// little-endian.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`; a partial trace may have been
    /// written.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&(self.words.len() as u64).to_le_bytes())?;
        for word in &self.words {
            w.write_all(&word.to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserializes a trace written by [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic (naming the retired
    /// `STTRACE1` format) or an invalid event word (naming its index),
    /// `UnexpectedEof` naming the header field or event index if the
    /// stream is truncated, and propagates any other I/O error from `r`.
    /// Decoding never panics on corrupt input.
    pub fn read_from<R: Read>(mut r: R) -> io::Result<Self> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let magic = read_word(&mut r, || "header: magic".into())?.to_le_bytes();
        if &magic == OLD_MAGIC {
            let hint = "STTRACE1 is the retired variable-length trace format; re-record the trace";
            return Err(invalid(hint.into()));
        } else if &magic != MAGIC {
            return Err(invalid("bad trace magic".into()));
        }
        let count = read_word(&mut r, || "header: event count".into())? as usize;
        let mut words = Vec::with_capacity(count.min(1 << 20));
        for idx in 0..count {
            let word = read_word(&mut r, || format!("event {idx}"))?;
            if decode(word).encode() != word {
                return Err(invalid(format!(
                    "event {idx}: invalid event word {word:#018x}"
                )));
            }
            words.push(word);
        }
        Ok(Trace { words })
    }
}

/// Reads one little-endian `u64`; truncation names `field`, the part of
/// the format that was cut short.
fn read_word<R: Read>(r: &mut R, field: impl FnOnce() -> String) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    match r.read_exact(&mut buf) {
        Ok(()) => Ok(u64::from_le_bytes(buf)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated trace: {}", field()),
        )),
        Err(e) => Err(e),
    }
}

/// Packs the events as given, without the recorder's coalescing; panics,
/// naming the address, on an address at or above 2^48.
impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        Trace {
            words: iter.into_iter().map(TraceEvent::encode).collect(),
        }
    }
}

/// An [`Engine`] that records into a [`Trace`].
///
/// Adjacent `compute` calls are coalesced into one event of at most
/// `u32::MAX` operations; a longer run fills whole events and carries
/// the remainder into the next, so replay executes every operation.
/// Access widths clamp at 255 bytes.
/// Recording an address at or above 2^48 panics, naming the address.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    words: Vec<u64>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Creates an empty recorder with room for `events` events, avoiding
    /// growth reallocations when the stream length is known approximately
    /// (e.g. from a previous recording of the same kernel).
    pub fn with_capacity(events: usize) -> Self {
        TraceRecorder {
            words: Vec::with_capacity(events),
        }
    }

    /// Finishes recording.
    pub fn into_trace(self) -> Trace {
        Trace { words: self.words }
    }

    fn push(&mut self, ev: TraceEvent) {
        self.words.push(ev.encode());
    }
}

impl Engine for TraceRecorder {
    fn load(&mut self, addr: Addr, bytes: usize) {
        let bytes = bytes.min(255) as u8;
        self.push(TraceEvent::Load { addr, bytes });
    }

    fn store(&mut self, addr: Addr, bytes: usize) {
        let bytes = bytes.min(255) as u8;
        self.push(TraceEvent::Store { addr, bytes });
    }

    fn prefetch(&mut self, addr: Addr) {
        self.push(TraceEvent::Prefetch { addr });
    }

    fn compute(&mut self, ops: u64) {
        let mut ops = u128::from(ops);
        if let Some(TraceEvent::Compute { ops: prev }) = self.words.last().map(|&w| decode(w)) {
            self.words.pop();
            ops += u128::from(prev);
        }
        let full = u128::from(u32::MAX);
        while ops > full {
            self.push(TraceEvent::Compute { ops: u32::MAX });
            ops -= full;
        }
        self.push(TraceEvent::Compute { ops: ops as u32 });
    }

    fn branch(&mut self, taken: bool) {
        self.push(TraceEvent::Branch { taken });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut rec = TraceRecorder::new();
        rec.load(Addr(0x1000), 4);
        rec.compute(2);
        rec.compute(3); // coalesces with the previous compute
        rec.store(Addr(0x2000), 16);
        rec.prefetch(Addr(0x3000));
        rec.branch(true);
        rec.branch(false);
        rec.into_trace()
    }

    fn bytes_of(t: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf
    }

    /// Decodes `buf` and returns the error message; panics if the input
    /// was (incorrectly) accepted.
    fn read_error(buf: &[u8]) -> String {
        Trace::read_from(buf)
            .expect_err("corrupt input must not decode")
            .to_string()
    }

    #[test]
    fn recording_coalesces_compute() {
        let t = sample();
        assert_eq!(t.len(), 6);
        assert_eq!(t.iter().nth(1), Some(TraceEvent::Compute { ops: 5 }));
    }

    #[test]
    fn compute_past_u32_max_carries_into_the_next_event() {
        let mut rec = TraceRecorder::new();
        for ops in [u64::from(u32::MAX), 5, 1 << 33] {
            rec.compute(ops);
        }
        let t = rec.into_trace();
        let full = TraceEvent::Compute { ops: u32::MAX };
        let events: Vec<_> = t.iter().collect();
        assert_eq!(events, [full, full, full, TraceEvent::Compute { ops: 7 }]);
        let mut count = crate::CountingEngine::new();
        t.replay_into(&mut count);
        assert_eq!(count.compute_ops, 12_884_901_892);
    }

    #[test]
    fn summary_counts_by_kind() {
        assert_eq!(sample().summary(), (1, 1, 1, 2));
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample();
        let back = Trace::read_from(bytes_of(&t).as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn replay_reproduces_the_stream() {
        let t = sample();
        let mut rec = TraceRecorder::new();
        t.replay_into(&mut rec);
        assert_eq!(rec.into_trace(), t);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = bytes_of(&sample());
        buf[0] = b'X';
        assert!(Trace::read_from(buf.as_slice()).is_err());
    }

    #[test]
    fn old_magic_is_refused_by_name() {
        let mut buf = OLD_MAGIC.to_vec();
        buf.extend_from_slice(&0u64.to_le_bytes());
        let msg = read_error(&buf);
        assert!(
            msg.contains("STTRACE1") && msg.contains("re-record"),
            "{msg}"
        );
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut buf = bytes_of(&sample());
        buf.truncate(buf.len() - 1);
        assert!(Trace::read_from(buf.as_slice()).is_err());
    }

    #[test]
    fn truncation_in_the_header_names_the_field() {
        let buf = bytes_of(&sample());
        // Inside the magic.
        let msg = read_error(&buf[..3]);
        assert!(msg.contains("magic"), "{msg}");
        // Inside the event count.
        let msg = read_error(&buf[..12]);
        assert!(msg.contains("event count"), "{msg}");
    }

    #[test]
    fn truncation_at_every_field_boundary_names_event_and_field() {
        // One event of every kind; every cut inside or at the start of
        // event i's word must name event i.
        let mut rec = TraceRecorder::new();
        rec.load(Addr(0x1_0000), 8);
        rec.store(Addr(0x2_0000), 4);
        rec.prefetch(Addr(0x3_0000));
        rec.compute(1_000_000);
        rec.branch(true);
        let trace = rec.into_trace();
        let buf = bytes_of(&trace);
        let header = 16; // magic + count
        assert_eq!(buf.len(), header + 8 * trace.len());
        for keep in header..buf.len() {
            let event = format!("event {}", (keep - header) / 8);
            let msg = read_error(&buf[..keep]);
            assert!(
                msg.contains("truncated") && msg.contains(&event),
                "cut at {keep}: expected '{event}' in '{msg}'"
            );
        }
        assert_eq!(Trace::read_from(buf.as_slice()).unwrap(), trace);
    }

    #[test]
    fn replay_into_matches_dyn_replay() {
        let t = sample();
        let mut via_dyn = TraceRecorder::new();
        t.replay_into(&mut via_dyn as &mut dyn Engine);
        let mut via_mono = TraceRecorder::new();
        t.replay_into(&mut via_mono);
        assert_eq!(via_dyn.into_trace(), via_mono.into_trace());
    }

    #[test]
    fn invalid_event_words_are_rejected_naming_the_event() {
        let valid = bytes_of(&Trace::from_iter([
            TraceEvent::Compute { ops: 1 },
            TraceEvent::Branch { taken: true },
        ]));
        let width = 1u64 << WIDTH_SHIFT;
        for (rule, word) in [
            ("unknown opcode", 5 << OP_SHIFT),
            ("width on a prefetch", (2 << OP_SHIFT) | width),
            ("width on a compute", (3 << OP_SHIFT) | width | 1),
            ("width on a branch", (4 << OP_SHIFT) | width),
            ("compute count above u32::MAX", (3 << OP_SHIFT) | (1 << 32)),
            ("branch payload above 1", (4 << OP_SHIFT) | 2),
        ] {
            let mut buf = valid.clone();
            buf[24..].copy_from_slice(&word.to_le_bytes());
            let msg = read_error(&buf);
            assert!(msg.contains("event 1: invalid event word"), "{rule}: {msg}");
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(Trace::read_from(bytes_of(&t).as_slice()).unwrap(), t);
    }
}
