//! Event packs: the unit streamed from instrumented ranks to the analyzer.

use crate::codec::{self, CodecError};
use crate::event::Event;
use crate::wire::Reader;
use bytes::{Bytes, BytesMut};

/// Wire size of one encoded [`Event`] in the fixed layout.
pub const EVENT_WIRE_SIZE: usize = 48;
/// Wire size of an encoded [`PackHeader`].
pub const PACK_HEADER_SIZE: usize = 24;
/// Per-event byte budget of the delta layout. The layout's worst case is
/// 52 (`codec.rs` computes it and asserts it fits); the budget stays at
/// the 53 that has sized every block so far, so events per pack — and
/// with them pack fill time and blocks per event — are what they were.
/// Real workloads sit near 8 bytes; packing budgets must assume the bound
/// so a full pack can never overflow its stream block.
pub const DELTA_EVENT_MAX_WIRE_SIZE: usize = 53;

/// How a pack's event section is laid out on the wire.
///
/// `Fixed` is the legacy 48-byte-per-event layout (wire version 1) that
/// old peers decode; `Delta` is the compact changed-fields-only layout
/// (wire version 3). Decoding always dispatches on the header's version,
/// so any reader understands both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PackEncoding {
    /// Fixed 48-byte events — bitwise-identical to the pre-delta format.
    #[default]
    Fixed,
    /// A head byte, the time delta and the fields that changed, per event.
    Delta,
}

impl PackEncoding {
    /// The pack header version this encoding stamps.
    pub const fn version(self) -> u16 {
        match self {
            PackEncoding::Fixed => codec::VERSION,
            PackEncoding::Delta => codec::VERSION_DELTA,
        }
    }

    /// Inverse of [`PackEncoding::version`].
    pub const fn from_version(version: u16) -> Option<PackEncoding> {
        match version {
            codec::VERSION => Some(PackEncoding::Fixed),
            codec::VERSION_DELTA => Some(PackEncoding::Delta),
            _ => None,
        }
    }

    /// Worst-case bytes one event can take in this encoding.
    pub const fn max_event_wire_size(self) -> usize {
        match self {
            PackEncoding::Fixed => EVENT_WIRE_SIZE,
            PackEncoding::Delta => DELTA_EVENT_MAX_WIRE_SIZE,
        }
    }
}

impl std::fmt::Display for PackEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackEncoding::Fixed => write!(f, "fixed"),
            PackEncoding::Delta => write!(f, "delta"),
        }
    }
}

/// Pack metadata: which application/rank produced it and its sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackHeader {
    /// Application (blackboard level) identifier.
    pub app_id: u16,
    /// Partition-local rank of the producer.
    pub rank: u32,
    /// Per-producer pack sequence number (gap detection).
    pub seq: u32,
    /// Number of events in the pack.
    pub count: u32,
}

/// A batch of events plus its header.
#[derive(Debug, Clone, PartialEq)]
pub struct EventPack {
    pub header: PackHeader,
    pub events: Vec<Event>,
}

impl EventPack {
    /// Builds a pack, filling `header.count` from the event list.
    pub fn new(app_id: u16, rank: u32, seq: u32, events: Vec<Event>) -> EventPack {
        EventPack {
            header: PackHeader {
                app_id,
                rank,
                seq,
                count: events.len() as u32,
            },
            events,
        }
    }

    /// Encoded size in bytes in the fixed layout (exact).
    pub fn wire_size(&self) -> usize {
        PACK_HEADER_SIZE + self.events.len() * EVENT_WIRE_SIZE
    }

    /// Upper bound on the encoded size under `encoding`. Exact for
    /// [`PackEncoding::Fixed`]; for [`PackEncoding::Delta`] the actual
    /// size is data-dependent and at most this.
    pub fn max_wire_size_for(&self, encoding: PackEncoding) -> usize {
        PACK_HEADER_SIZE + self.events.len() * encoding.max_event_wire_size()
    }

    /// How many events are *guaranteed* to fit a block of `block_size`
    /// bytes in the fixed layout.
    pub fn capacity_for_block(block_size: usize) -> usize {
        Self::capacity_for_block_with(block_size, PackEncoding::Fixed)
    }

    /// How many events are guaranteed to fit a block of `block_size`
    /// bytes under `encoding`, using the encoding's worst-case per-event
    /// size — a full pack can never overflow the block/frame budget.
    pub fn capacity_for_block_with(block_size: usize, encoding: PackEncoding) -> usize {
        block_size.saturating_sub(PACK_HEADER_SIZE) / encoding.max_event_wire_size()
    }

    /// Serializes the pack to a standalone buffer in the fixed layout —
    /// byte-identical to the pre-delta format.
    pub fn encode(&self) -> Bytes {
        self.encode_with(PackEncoding::Fixed)
    }

    /// Serializes the pack to a standalone buffer under `encoding`.
    pub fn encode_with(&self, encoding: PackEncoding) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.max_wire_size_for(encoding));
        self.encode_into(encoding, &mut buf);
        buf.freeze()
    }

    /// Appends the encoded pack to `out` (the pooled-buffer hot path:
    /// callers reuse `out` across packs and allocate nothing in steady
    /// state). Returns the number of bytes appended.
    pub fn encode_into(&self, encoding: PackEncoding, out: &mut BytesMut) -> usize {
        let before = out.len();
        out.reserve(self.max_wire_size_for(encoding));
        codec::encode_header_versioned(&self.header, encoding.version(), out);
        match encoding {
            PackEncoding::Fixed => {
                for e in &self.events {
                    codec::encode_event(e, out);
                }
            }
            PackEncoding::Delta => {
                let mut st = codec::DeltaState::new(self.header.rank);
                for e in &self.events {
                    codec::encode_event_delta(e, &mut st, out);
                }
            }
        }
        out.len() - before
    }

    /// Parses a pack from a buffer produced by any [`EventPack::encode_with`]
    /// encoding — the header's version selects the event codec.
    pub fn decode(data: &[u8]) -> Result<EventPack, CodecError> {
        let mut events = Vec::new();
        let header = EventPack::decode_into(data, &mut events)?;
        Ok(EventPack { header, events })
    }

    /// Parses a pack's events into `events` (cleared first) and returns its
    /// header: a caller that keeps one buffer across packs allocates
    /// nothing in steady state. On error `events` holds an unspecified
    /// prefix of the rows.
    pub fn decode_into(data: &[u8], events: &mut Vec<Event>) -> Result<PackHeader, CodecError> {
        events.clear();
        let mut buf = data;
        let (header, version) = codec::decode_header_any(&mut buf)?;
        // `decode_header_any` only admits known versions, so the fallback
        // arm is unreachable in practice; Fixed keeps it total.
        let encoding = PackEncoding::from_version(version).unwrap_or(PackEncoding::Fixed);
        let smallest_event = match encoding {
            PackEncoding::Fixed => EVENT_WIRE_SIZE,
            PackEncoding::Delta => codec::DELTA_EVENT_MIN_WIRE_SIZE,
        };
        // A 24-byte block must not allocate for the 2²⁰ events its header
        // lies about.
        let count = Reader::new(buf).check_count(header.count as usize, smallest_event)?;
        events.reserve(count);
        match encoding {
            PackEncoding::Fixed => decode_fixed_rows(buf, count, events)?,
            PackEncoding::Delta => {
                let mut st = codec::DeltaState::new(header.rank);
                for _ in 0..count {
                    events.push(codec::decode_event_delta(&mut buf, &mut st)?);
                }
            }
        }
        Ok(header)
    }

    /// Total payload bytes carried by the pack's events.
    pub fn total_event_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.bytes).sum()
    }
}

impl AsRef<[Event]> for EventPack {
    fn as_ref(&self) -> &[Event] {
        &self.events
    }
}

/// Appends the rows of a fixed-layout pack to `events`. Out of line:
/// sharing a function (and its registers) with the delta loop costs this
/// one a tenth of its speed.
#[inline(never)]
fn decode_fixed_rows(
    mut buf: &[u8],
    count: usize,
    events: &mut Vec<Event>,
) -> Result<(), CodecError> {
    for _ in 0..count {
        let (raw, rest) =
            buf.split_first_chunk::<EVENT_WIRE_SIZE>()
                .ok_or(CodecError::Truncated {
                    need: EVENT_WIRE_SIZE,
                    have: buf.len(),
                })?;
        events.push(codec::decode_event(raw)?);
        buf = rest;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::event::EventKind;

    #[test]
    fn a_lying_count_is_a_typed_error() {
        for encoding in [PackEncoding::Fixed, PackEncoding::Delta] {
            let honest = sample(3).encode_with(encoding);
            for keep in [PACK_HEADER_SIZE, honest.len()] {
                let mut lying = honest[..keep].to_vec();
                codec::patch_header_count(&mut lying, 1 << 20);
                assert!(
                    matches!(EventPack::decode(&lying), Err(CodecError::Truncated { .. })),
                    "{encoding}, {keep} bytes kept"
                );
            }
        }
    }

    fn sample(n: usize) -> EventPack {
        let events = (0..n)
            .map(|i| Event {
                time_ns: i as u64 * 1000,
                duration_ns: 10 + i as u64,
                kind: EventKind::ALL[i % EventKind::ALL.len()],
                rank: 3,
                peer: (i % 5) as i32 - 1,
                tag: i as i32,
                comm: 0,
                bytes: (i * i) as u64,
            })
            .collect();
        EventPack::new(2, 3, 99, events)
    }

    /// Events that hit the delta codec's worst case on every field: each
    /// one differs from its predecessor everywhere, by as much as it can.
    fn worst_case(n: usize) -> EventPack {
        let events = (0..n)
            .map(|i| {
                let even = i % 2 == 0;
                Event {
                    // Alternate across half the u64 range so every time
                    // delta is i64::MIN — the widest possible zigzag varint.
                    time_ns: if even { 1u64 << 63 } else { 0 },
                    duration_ns: u64::MAX,
                    kind: EventKind::Marker,
                    rank: if even { u32::MAX } else { 0 },
                    peer: if even { i32::MIN } else { i32::MAX },
                    tag: if even { i32::MAX } else { i32::MIN },
                    comm: u32::MAX - even as u32,
                    bytes: u64::MAX,
                }
            })
            .collect();
        EventPack::new(1, 0, 0, events)
    }

    #[test]
    fn roundtrip_empty_pack() {
        let p = EventPack::new(0, 0, 0, vec![]);
        assert_eq!(EventPack::decode(&p.encode()).unwrap(), p);
        assert_eq!(
            EventPack::decode(&p.encode_with(PackEncoding::Delta)).unwrap(),
            p
        );
    }

    #[test]
    fn roundtrip_full_pack() {
        let p = sample(257);
        let enc = p.encode();
        assert_eq!(enc.len(), p.wire_size());
        assert_eq!(EventPack::decode(&enc).unwrap(), p);
    }

    #[test]
    fn roundtrip_delta_pack_and_it_is_smaller() {
        let p = sample(257);
        let fixed = p.encode();
        let delta = p.encode_with(PackEncoding::Delta);
        assert_eq!(EventPack::decode(&delta).unwrap(), p);
        assert!(
            delta.len() * 3 <= fixed.len(),
            "delta {} vs fixed {}",
            delta.len(),
            fixed.len()
        );
    }

    #[test]
    fn fixed_encode_is_bitwise_legacy() {
        // encode() must stay byte-identical to the historical layout so
        // old peers keep decoding it.
        let p = sample(3);
        let enc = p.encode();
        assert_eq!(enc.len(), PACK_HEADER_SIZE + 3 * EVENT_WIRE_SIZE);
        assert_eq!(&enc[0..4], b"OPMR");
        assert_eq!(u16::from_le_bytes([enc[4], enc[5]]), codec::VERSION);
        // First event's time_ns at the fixed offset.
        let t = u64::from_le_bytes(enc[24..32].try_into().unwrap());
        assert_eq!(t, p.events[0].time_ns);
    }

    #[test]
    fn capacity_matches_wire_size() {
        let cap = EventPack::capacity_for_block(1 << 20);
        let p = sample(cap);
        assert!(p.wire_size() <= 1 << 20);
        let p2 = sample(cap + 1);
        assert!(p2.wire_size() > 1 << 20);
    }

    #[test]
    fn delta_capacity_never_overflows_block_exact_boundary() {
        // The regression the encoding-aware capacity exists for: a pack
        // of worst-case events must fit the block it was sized for, at
        // the exact boundary.
        for block in [
            PACK_HEADER_SIZE + DELTA_EVENT_MAX_WIRE_SIZE,
            PACK_HEADER_SIZE + DELTA_EVENT_MAX_WIRE_SIZE + DELTA_EVENT_MAX_WIRE_SIZE - 1,
            4096,
            1 << 16,
        ] {
            let cap = EventPack::capacity_for_block_with(block, PackEncoding::Delta);
            let p = worst_case(cap);
            let enc = p.encode_with(PackEncoding::Delta);
            assert!(
                enc.len() <= block,
                "block {block}: cap {cap} encoded to {} bytes",
                enc.len()
            );
            assert!(enc.len() <= p.max_wire_size_for(PackEncoding::Delta));
            // One more worst-case event must be able to overflow — i.e.
            // the capacity is tight, not merely safe.
            let p1 = worst_case(cap + 1);
            assert!(p1.max_wire_size_for(PackEncoding::Delta) > block);
            assert_eq!(EventPack::decode(&enc).unwrap(), p);
        }
    }

    #[test]
    fn worst_case_event_bound_is_tight() {
        // Worst-case events take exactly the layout's computed worst case,
        // 52 bytes each, one under the budget blocks are sized with.
        let p = worst_case(3);
        let enc = p.encode_with(PackEncoding::Delta);
        let body = enc.len() - PACK_HEADER_SIZE;
        assert_eq!(body, 3 * 52);
        assert_eq!(codec::DELTA_EVENT_WORST_WIRE_SIZE, 52);
        assert_eq!(DELTA_EVENT_MAX_WIRE_SIZE, 53);
        assert_eq!(EventPack::decode(&enc).unwrap(), p);
    }

    #[test]
    fn delta_capacity_per_block_is_what_it_has_always_been() {
        // Events per pack decide pack fill time and blocks per event; the
        // compact row must not move them.
        for (block, events) in [
            (2 << 10, 38),
            (4 << 10, 76),
            (64 << 10, 1236),
            (1 << 20, 19_784),
        ] {
            assert_eq!(
                EventPack::capacity_for_block_with(block, PackEncoding::Delta),
                events,
                "{block} B block"
            );
        }
    }

    #[test]
    fn encode_into_appends_and_reports_len() {
        let p = sample(10);
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"prefix");
        let n = p.encode_into(PackEncoding::Delta, &mut buf);
        assert_eq!(buf.len(), 6 + n);
        assert_eq!(EventPack::decode(&buf[6..]).unwrap(), p);
    }

    #[test]
    fn decode_into_replaces_the_buffer_contents_and_keeps_its_capacity() {
        let mut events = Vec::new();
        for (n, encoding) in [(40, PackEncoding::Fixed), (7, PackEncoding::Delta)] {
            let p = sample(n);
            let header = EventPack::decode_into(&p.encode_with(encoding), &mut events).unwrap();
            assert_eq!(
                EventPack {
                    header,
                    events: events.clone()
                },
                p,
                "{encoding}"
            );
        }
        assert!(events.capacity() >= 40, "a smaller pack kept the buffer");
    }

    #[test]
    fn truncated_pack_rejected() {
        let p = sample(4);
        let enc = p.encode();
        assert_eq!(
            EventPack::decode(&enc[..enc.len() - 1]),
            Err(CodecError::Truncated {
                need: 4 * EVENT_WIRE_SIZE,
                have: 4 * EVENT_WIRE_SIZE - 1
            })
        );
        assert!(EventPack::decode(&enc[..PACK_HEADER_SIZE]).is_err());
        let delta = p.encode_with(PackEncoding::Delta);
        for cut in 0..delta.len() {
            assert!(EventPack::decode(&delta[..cut]).is_err());
        }
    }

    #[test]
    fn total_bytes_sums_events() {
        let p = sample(5);
        assert_eq!(p.total_event_bytes(), (0..5).map(|i| (i * i) as u64).sum());
    }
}
