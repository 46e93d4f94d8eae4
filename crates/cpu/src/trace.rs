//! Trace recording and replay.
//!
//! A [`TraceRecorder`] captures the architectural event stream a workload
//! emits (every load, store, prefetch, compute group and branch) into a
//! [`Trace`] that can be saved to a compact binary format and replayed
//! later into any [`Engine`]. This decouples workload generation from
//! timing simulation — record once, sweep many cache configurations —
//! exactly how trace-driven studies around gem5 are run.

use crate::Engine;
use std::io::{self, Read, Write};
use sttcache_mem::Addr;

/// One recorded architectural event.
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

/// File magic for the binary trace format.
const MAGIC: &[u8; 8] = b"STTRACE1";

/// A recorded event stream.
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
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Heap footprint of the event buffer in bytes — the unit the trace
    /// cache's LRU byte cap accounts recorded entries in. Capacity-based,
    /// so a recorder's growth slack (or an oversized capacity hint)
    /// counts until [`Trace::shrink_to_fit`] drops it.
    pub fn heap_bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<TraceEvent>()
    }

    /// Releases the event buffer's growth slack so [`Trace::heap_bytes`]
    /// matches the event count.
    pub fn shrink_to_fit(&mut self) {
        self.events.shrink_to_fit();
    }

    /// Counts of (loads, stores, prefetches, branches) in the trace.
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0);
        for ev in &self.events {
            match ev {
                TraceEvent::Load { .. } => c.0 += 1,
                TraceEvent::Store { .. } => c.1 += 1,
                TraceEvent::Prefetch { .. } => c.2 += 1,
                TraceEvent::Branch { .. } => c.3 += 1,
                TraceEvent::Compute { .. } => {}
            }
        }
        c
    }

    /// Replays the trace into an engine, in order, monomorphized over the
    /// engine type (`E = dyn Engine` dispatches virtually instead).
    ///
    /// With a concrete `E` every event dispatch is a static (inlinable)
    /// call instead of one virtual call per access — the batched fast
    /// path the sweep engine's trace cache replays through. Events are
    /// fed in fixed-size chunks so the hot loop's working set stays
    /// bounded regardless of trace length.
    pub fn replay_into<E: Engine + ?Sized>(&self, e: &mut E) {
        /// Events dispatched per batch of the replay loop.
        const REPLAY_CHUNK: usize = 1024;
        for chunk in self.events.chunks(REPLAY_CHUNK) {
            for &ev in chunk {
                match ev {
                    TraceEvent::Load { addr, bytes } => e.load(addr, bytes as usize),
                    TraceEvent::Store { addr, bytes } => e.store(addr, bytes as usize),
                    TraceEvent::Prefetch { addr } => e.prefetch(addr),
                    TraceEvent::Compute { ops } => e.compute(ops as u64),
                    TraceEvent::Branch { taken } => e.branch(taken),
                }
            }
        }
    }

    /// Serializes the trace.
    ///
    /// Format: 8-byte magic, little-endian `u64` event count, then one
    /// opcode byte per event followed by its payload (LEB128 varint
    /// addresses and counts).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`; a partial trace may have been
    /// written.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&(self.events.len() as u64).to_le_bytes())?;
        for ev in &self.events {
            match *ev {
                TraceEvent::Load { addr, bytes } => {
                    w.write_all(&[0, bytes])?;
                    write_varint(&mut w, addr.0)?;
                }
                TraceEvent::Store { addr, bytes } => {
                    w.write_all(&[1, bytes])?;
                    write_varint(&mut w, addr.0)?;
                }
                TraceEvent::Prefetch { addr } => {
                    w.write_all(&[2])?;
                    write_varint(&mut w, addr.0)?;
                }
                TraceEvent::Compute { ops } => {
                    w.write_all(&[3])?;
                    write_varint(&mut w, ops as u64)?;
                }
                TraceEvent::Branch { taken } => {
                    w.write_all(&[4, taken as u8])?;
                }
            }
        }
        Ok(())
    }

    /// Deserializes a trace written by [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the magic, an opcode or a varint is
    /// malformed, `UnexpectedEof` (with the event index and field that
    /// was being decoded) if the stream is truncated, and propagates any
    /// other I/O error from `r`. Decoding never panics on corrupt input.
    pub fn read_from<R: Read>(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        read_field(&mut r, &mut magic, "header", "magic")?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad trace magic",
            ));
        }
        let mut count = [0u8; 8];
        read_field(&mut r, &mut count, "header", "event count")?;
        let count = u64::from_le_bytes(count) as usize;
        let mut events = Vec::with_capacity(count.min(1 << 20));
        for idx in 0..count {
            let mut op = [0u8; 1];
            read_event_field(&mut r, &mut op, idx, "opcode")?;
            let ev = match op[0] {
                0 | 1 => {
                    let mut bytes = [0u8; 1];
                    read_event_field(&mut r, &mut bytes, idx, "access width")?;
                    let addr = Addr(read_varint_field(&mut r, idx, "address")?);
                    if op[0] == 0 {
                        TraceEvent::Load {
                            addr,
                            bytes: bytes[0],
                        }
                    } else {
                        TraceEvent::Store {
                            addr,
                            bytes: bytes[0],
                        }
                    }
                }
                2 => TraceEvent::Prefetch {
                    addr: Addr(read_varint_field(&mut r, idx, "address")?),
                },
                3 => {
                    let ops = read_varint_field(&mut r, idx, "compute count")?;
                    let ops = u32::try_from(ops).map_err(|_| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("event {idx}: compute count {ops} overflows u32"),
                        )
                    })?;
                    TraceEvent::Compute { ops }
                }
                4 => {
                    let mut taken = [0u8; 1];
                    read_event_field(&mut r, &mut taken, idx, "branch outcome")?;
                    TraceEvent::Branch {
                        taken: taken[0] != 0,
                    }
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("event {idx}: unknown trace opcode {other}"),
                    ))
                }
            };
            events.push(ev);
        }
        Ok(Trace { events })
    }
}

/// `read_exact` with a descriptive context: truncation reports which
/// structural field of the trace format was cut short.
fn read_field<R: Read>(r: &mut R, buf: &mut [u8], scope: &str, field: &str) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("truncated trace: {scope}: {field}"),
            )
        } else {
            e
        }
    })
}

/// [`read_field`] for per-event payloads, tagging the event index.
fn read_event_field<R: Read>(r: &mut R, buf: &mut [u8], idx: usize, field: &str) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("truncated trace: event {idx}: {field}"),
            )
        } else {
            e
        }
    })
}

/// [`read_varint`] with the event index and field name attached to any
/// truncation or overlong-encoding error.
fn read_varint_field<R: Read>(r: &mut R, idx: usize, field: &str) -> io::Result<u64> {
    read_varint(r).map_err(|e| {
        let kind = e.kind();
        if kind == io::ErrorKind::UnexpectedEof || kind == io::ErrorKind::InvalidData {
            io::Error::new(kind, format!("event {idx}: {field}: {e}"))
        } else {
            e
        }
    })
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        v |= ((byte[0] & 0x7f) as u64) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        "varint too long",
    ))
}

/// An [`Engine`] that records into a [`Trace`].
///
/// Adjacent `compute` calls are coalesced into one event to keep traces
/// compact.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
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
            events: Vec::with_capacity(events),
        }
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finishes recording.
    pub fn into_trace(self) -> Trace {
        Trace {
            events: self.events,
        }
    }
}

impl Engine for TraceRecorder {
    fn load(&mut self, addr: Addr, bytes: usize) {
        self.events.push(TraceEvent::Load {
            addr,
            bytes: bytes.min(255) as u8,
        });
    }

    fn store(&mut self, addr: Addr, bytes: usize) {
        self.events.push(TraceEvent::Store {
            addr,
            bytes: bytes.min(255) as u8,
        });
    }

    fn prefetch(&mut self, addr: Addr) {
        self.events.push(TraceEvent::Prefetch { addr });
    }

    fn compute(&mut self, ops: u64) {
        if let Some(TraceEvent::Compute { ops: prev }) = self.events.last_mut() {
            let merged = (*prev as u64).saturating_add(ops).min(u32::MAX as u64);
            *prev = merged as u32;
            return;
        }
        self.events.push(TraceEvent::Compute {
            ops: ops.min(u32::MAX as u64) as u32,
        });
    }

    fn branch(&mut self, taken: bool) {
        self.events.push(TraceEvent::Branch { taken });
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

    #[test]
    fn recording_coalesces_compute() {
        let t = sample();
        assert_eq!(t.len(), 6);
        assert!(matches!(t.events()[1], TraceEvent::Compute { ops: 5 }));
    }

    #[test]
    fn summary_counts_by_kind() {
        assert_eq!(sample().summary(), (1, 1, 1, 2));
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
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
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(Trace::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(Trace::read_from(&mut buf.as_slice()).is_err());
    }

    /// Decodes a truncated prefix and returns the error message; panics
    /// if the truncation was (incorrectly) accepted.
    fn truncation_error(buf: &[u8], keep: usize) -> String {
        Trace::read_from(&mut &buf[..keep])
            .expect_err("truncated input must not decode")
            .to_string()
    }

    #[test]
    fn truncation_in_the_header_names_the_field() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        // Inside the magic.
        let msg = truncation_error(&buf, 3);
        assert!(msg.contains("magic"), "{msg}");
        // Inside the event count.
        let msg = truncation_error(&buf, 12);
        assert!(msg.contains("event count"), "{msg}");
    }

    #[test]
    fn truncation_at_every_field_boundary_names_event_and_field() {
        // One event of every kind, with a multi-byte varint address so
        // the cut can land strictly inside a varint.
        let trace = Trace::from_iter([
            TraceEvent::Load {
                addr: Addr(0x1_0000),
                bytes: 8,
            },
            TraceEvent::Store {
                addr: Addr(0x2_0000),
                bytes: 4,
            },
            TraceEvent::Prefetch {
                addr: Addr(0x3_0000),
            },
            TraceEvent::Compute { ops: 1_000_000 },
            TraceEvent::Branch { taken: true },
        ]);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let header = 16; // magic + count
        let expect = |keep: usize, event: &str, field: &str| {
            let msg = truncation_error(&buf, keep);
            assert!(
                msg.contains(event) && msg.contains(field),
                "cut at {keep}: expected '{event}'/'{field}' in '{msg}'"
            );
        };
        // Load: opcode | width | 3-byte varint address.
        expect(header, "event 0", "opcode");
        expect(header + 1, "event 0", "access width");
        expect(header + 2, "event 0", "address");
        expect(header + 4, "event 0", "address"); // mid-varint
        let load_end = header + 5;
        // Store mirrors load.
        expect(load_end, "event 1", "opcode");
        expect(load_end + 1, "event 1", "access width");
        expect(load_end + 3, "event 1", "address");
        let store_end = load_end + 5;
        // Prefetch: opcode | 3-byte varint address.
        expect(store_end, "event 2", "opcode");
        expect(store_end + 2, "event 2", "address");
        let prefetch_end = store_end + 4;
        // Compute: opcode | 3-byte varint count.
        expect(prefetch_end, "event 3", "opcode");
        expect(prefetch_end + 2, "event 3", "compute count");
        let compute_end = prefetch_end + 4;
        // Branch: opcode | outcome byte.
        expect(compute_end, "event 4", "opcode");
        expect(compute_end + 1, "event 4", "branch outcome");
        // Sanity: keeping everything decodes.
        assert_eq!(compute_end + 2, buf.len());
        assert_eq!(Trace::read_from(&mut buf.as_slice()).unwrap(), trace);
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
    fn unknown_opcode_is_rejected() {
        let mut buf = Vec::new();
        Trace::from_iter([TraceEvent::Branch { taken: true }])
            .write_to(&mut buf)
            .unwrap();
        let op_pos = 16; // after magic + count
        buf[op_pos] = 99;
        assert!(Trace::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 0xffff, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        assert!(t.is_empty());
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert_eq!(Trace::read_from(&mut buf.as_slice()).unwrap(), t);
    }
}
