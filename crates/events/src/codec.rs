//! Little-endian wire codec for events and packs.
//!
//! Layout (all little-endian):
//!
//! ```text
//! Event (48 bytes):
//!   0  u64 time_ns
//!   8  u64 duration_ns
//!  16  u64 bytes
//!  24  u16 kind          26 u16 _pad
//!  28  u32 rank
//!  32  i32 peer
//!  36  i32 tag
//!  40  u32 comm          44 u32 _pad
//!
//! PackHeader (24 bytes):
//!   0  u32 magic ("OPMR")
//!   4  u16 version        6 u16 app_id
//!   8  u32 rank
//!  12  u32 seq
//!  16  u32 count
//!  20  u32 _pad
//! ```

use crate::event::{Event, EventKind};
use crate::pack::{PackHeader, DELTA_EVENT_MAX_WIRE_SIZE, EVENT_WIRE_SIZE, PACK_HEADER_SIZE};
use crate::vint;
use bytes::{Buf, BufMut};

/// `"OPMR"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"OPMR");
/// Fixed-layout wire version (the legacy format old peers understand).
pub const VERSION: u16 = 1;
/// Delta/varint wire version (PR 9's batched compact encoding).
pub const VERSION_DELTA: u16 = 2;

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    Truncated {
        need: usize,
        have: usize,
    },
    BadMagic(u32),
    BadVersion(u16),
    BadKind(u16),
    /// A varint ran past 64 bits.
    VarintOverflow,
    /// A decoded value does not fit its event field.
    FieldOverflow(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "truncated buffer: need {need} bytes, have {have}")
            }
            CodecError::BadMagic(m) => write!(f, "bad pack magic {m:#x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported pack version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown event kind {k}"),
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::FieldOverflow(field) => {
                write!(f, "decoded value does not fit event field `{field}`")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends one event to `out`: its 48 bytes are built on the stack and
/// appended once.
#[inline]
pub fn encode_event(e: &Event, out: &mut impl BufMut) {
    let mut raw = [0u8; EVENT_WIRE_SIZE];
    raw[0..8].copy_from_slice(&e.time_ns.to_le_bytes());
    raw[8..16].copy_from_slice(&e.duration_ns.to_le_bytes());
    raw[16..24].copy_from_slice(&e.bytes.to_le_bytes());
    raw[24..26].copy_from_slice(&(e.kind as u16).to_le_bytes());
    raw[28..32].copy_from_slice(&e.rank.to_le_bytes());
    raw[32..36].copy_from_slice(&e.peer.to_le_bytes());
    raw[36..40].copy_from_slice(&e.tag.to_le_bytes());
    raw[40..44].copy_from_slice(&e.comm.to_le_bytes());
    out.put_slice(&raw);
}

/// `N` bytes of a fixed-layout event at a constant offset.
#[inline]
fn field<const N: usize>(raw: &[u8; EVENT_WIRE_SIZE], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&raw[at..at + N]);
    out
}

/// Decodes one event from its 48-byte wire form.
#[inline]
pub fn decode_event(raw: &[u8; EVENT_WIRE_SIZE]) -> Result<Event, CodecError> {
    let kind_raw = u16::from_le_bytes(field(raw, 24));
    let kind = EventKind::from_u16(kind_raw).ok_or(CodecError::BadKind(kind_raw))?;
    Ok(Event {
        time_ns: u64::from_le_bytes(field(raw, 0)),
        duration_ns: u64::from_le_bytes(field(raw, 8)),
        kind,
        rank: u32::from_le_bytes(field(raw, 28)),
        peer: i32::from_le_bytes(field(raw, 32)),
        tag: i32::from_le_bytes(field(raw, 36)),
        comm: u32::from_le_bytes(field(raw, 40)),
        bytes: u64::from_le_bytes(field(raw, 16)),
    })
}

// ---------------------------------------------------------------------
// Delta/varint event codec (pack wire version 2).
//
// Per event, in field order, each a LEB128 varint (signed fields zigzag):
//   time_ns   zigzag(wrapping delta from the previous event's time_ns;
//             the first event deltas from 0)
//   duration  raw
//   bytes     raw
//   kind      raw (u16)
//   rank      zigzag(delta from the previous event's rank; the first
//             event deltas from the pack header's rank)
//   peer      zigzag
//   tag       zigzag
//   comm      raw (u32)
//
// Timestamps are monotone and ranks near-constant within a pack, so the
// two delta fields collapse to one or two bytes each in practice.
// ---------------------------------------------------------------------

/// Running per-pack state the delta codec threads between events.
#[derive(Debug, Clone, Copy)]
pub struct DeltaState {
    prev_time_ns: u64,
    prev_rank: u32,
}

impl DeltaState {
    /// Starts a pack: the first event's rank deltas against the header's.
    pub fn new(header_rank: u32) -> DeltaState {
        DeltaState {
            prev_time_ns: 0,
            prev_rank: header_rank,
        }
    }
}

/// Appends one delta/varint-coded event to `out`: its at most
/// [`DELTA_EVENT_MAX_WIRE_SIZE`] bytes are built on the stack and
/// appended once.
#[inline]
pub fn encode_event_delta(e: &Event, st: &mut DeltaState, out: &mut impl BufMut) {
    let dt = e.time_ns.wrapping_sub(st.prev_time_ns) as i64;
    st.prev_time_ns = e.time_ns;
    let dr = e.rank as i64 - st.prev_rank as i64;
    st.prev_rank = e.rank;
    let mut raw = [0u8; DELTA_EVENT_MAX_WIRE_SIZE];
    let mut at = vint::write_uvarint(&mut raw, 0, vint::zigzag(dt));
    at = vint::write_uvarint(&mut raw, at, e.duration_ns);
    at = vint::write_uvarint(&mut raw, at, e.bytes);
    at = vint::write_uvarint(&mut raw, at, e.kind as u16 as u64);
    at = vint::write_uvarint(&mut raw, at, vint::zigzag(dr));
    at = vint::write_uvarint(&mut raw, at, vint::zigzag(e.peer as i64));
    at = vint::write_uvarint(&mut raw, at, vint::zigzag(e.tag as i64));
    at = vint::write_uvarint(&mut raw, at, e.comm as u64);
    out.put_slice(&raw[..at]);
}

/// Decodes one delta/varint-coded event from the front of `*buf`.
pub fn decode_event_delta(buf: &mut &[u8], st: &mut DeltaState) -> Result<Event, CodecError> {
    let dt = vint::unzigzag(vint::get_uvarint(buf)?);
    let time_ns = st.prev_time_ns.wrapping_add(dt as u64);
    st.prev_time_ns = time_ns;
    let duration_ns = vint::get_uvarint(buf)?;
    let bytes = vint::get_uvarint(buf)?;
    let kind_raw = vint::get_uvarint(buf)?;
    let kind_raw = u16::try_from(kind_raw).map_err(|_| CodecError::FieldOverflow("kind"))?;
    let kind = EventKind::from_u16(kind_raw).ok_or(CodecError::BadKind(kind_raw))?;
    let dr = vint::unzigzag(vint::get_uvarint(buf)?);
    let rank_wide = st.prev_rank as i64 + dr;
    let rank = u32::try_from(rank_wide).map_err(|_| CodecError::FieldOverflow("rank"))?;
    st.prev_rank = rank;
    let peer = i32::try_from(vint::unzigzag(vint::get_uvarint(buf)?))
        .map_err(|_| CodecError::FieldOverflow("peer"))?;
    let tag = i32::try_from(vint::unzigzag(vint::get_uvarint(buf)?))
        .map_err(|_| CodecError::FieldOverflow("tag"))?;
    let comm =
        u32::try_from(vint::get_uvarint(buf)?).map_err(|_| CodecError::FieldOverflow("comm"))?;
    Ok(Event {
        time_ns,
        duration_ns,
        kind,
        rank,
        peer,
        tag,
        comm,
        bytes,
    })
}

/// Appends a pack header to `out` (fixed-layout wire version 1).
pub fn encode_header(h: &PackHeader, out: &mut impl BufMut) {
    encode_header_versioned(h, VERSION, out);
}

/// Appends a pack header carrying an explicit wire version.
pub fn encode_header_versioned(h: &PackHeader, version: u16, out: &mut impl BufMut) {
    out.put_u32_le(MAGIC);
    out.put_u16_le(version);
    out.put_u16_le(h.app_id);
    out.put_u32_le(h.rank);
    out.put_u32_le(h.seq);
    out.put_u32_le(h.count);
    out.put_u32_le(0);
}

/// Overwrites the `count` field of the encoded pack header at the front
/// of `header` (at least [`PACK_HEADER_SIZE`] bytes): a producer that
/// encodes events in place behind the header stamps the count last.
pub fn patch_header_count(header: &mut [u8], count: u32) {
    header[16..20].copy_from_slice(&count.to_le_bytes());
}

/// Decodes a fixed-layout (version 1) pack header from the front of `buf`.
pub fn decode_header(buf: &mut impl Buf) -> Result<PackHeader, CodecError> {
    let (h, version) = decode_header_any(buf)?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    Ok(h)
}

/// Decodes a pack header of any supported wire version, returning the
/// version so the caller can pick the matching event codec.
pub fn decode_header_any(buf: &mut impl Buf) -> Result<(PackHeader, u16), CodecError> {
    if buf.remaining() < PACK_HEADER_SIZE {
        return Err(CodecError::Truncated {
            need: PACK_HEADER_SIZE,
            have: buf.remaining(),
        });
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = buf.get_u16_le();
    if version != VERSION && version != VERSION_DELTA {
        return Err(CodecError::BadVersion(version));
    }
    let app_id = buf.get_u16_le();
    let rank = buf.get_u32_le();
    let seq = buf.get_u32_le();
    let count = buf.get_u32_le();
    let _pad = buf.get_u32_le();
    Ok((
        PackHeader {
            app_id,
            rank,
            seq,
            count,
        },
        version,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn event_wire_size_is_exact() {
        let mut buf = BytesMut::new();
        encode_event(&Event::basic(EventKind::Send, 1, 2, 3), &mut buf);
        assert_eq!(buf.len(), EVENT_WIRE_SIZE);
    }

    #[test]
    fn header_wire_size_is_exact() {
        let mut buf = BytesMut::new();
        encode_header(
            &PackHeader {
                app_id: 1,
                rank: 2,
                seq: 3,
                count: 4,
            },
            &mut buf,
        );
        assert_eq!(buf.len(), PACK_HEADER_SIZE);
    }

    fn wire(e: &Event) -> [u8; EVENT_WIRE_SIZE] {
        let mut buf = Vec::new();
        encode_event(e, &mut buf);
        buf.try_into().unwrap()
    }

    #[test]
    fn event_roundtrip_all_fields() {
        let e = Event {
            time_ns: u64::MAX - 5,
            duration_ns: 123_456_789,
            kind: EventKind::Alltoall,
            rank: 8280,
            peer: -1,
            tag: i32::MIN,
            comm: 7,
            bytes: 1 << 40,
        };
        assert_eq!(decode_event(&wire(&e)).unwrap(), e);
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0xBAD_F00D);
        buf.extend_from_slice(&[0u8; PACK_HEADER_SIZE - 4]);
        assert!(matches!(
            decode_header(&mut buf.freeze()),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn delta_event_roundtrip_extremes() {
        let events = [
            Event {
                time_ns: u64::MAX,
                duration_ns: u64::MAX,
                kind: EventKind::Alltoall,
                rank: u32::MAX,
                peer: i32::MIN,
                tag: i32::MIN,
                comm: u32::MAX,
                bytes: u64::MAX,
            },
            Event {
                time_ns: 0,
                duration_ns: 0,
                kind: EventKind::Send,
                rank: 0,
                peer: i32::MAX,
                tag: i32::MAX,
                comm: 0,
                bytes: 0,
            },
            Event::basic(EventKind::Recv, 7, 1000, 9),
        ];
        let mut buf = BytesMut::new();
        let mut enc = DeltaState::new(42);
        for e in &events {
            let before = buf.len();
            encode_event_delta(e, &mut enc, &mut buf);
            assert!(buf.len() - before <= crate::pack::DELTA_EVENT_MAX_WIRE_SIZE);
        }
        let mut dec = DeltaState::new(42);
        let mut s: &[u8] = &buf;
        for e in &events {
            assert_eq!(decode_event_delta(&mut s, &mut dec).unwrap(), *e);
        }
        assert!(s.is_empty());
    }

    #[test]
    fn delta_event_small_deltas_are_tiny() {
        let mut buf = BytesMut::new();
        let mut enc = DeltaState::new(3);
        let e = Event {
            time_ns: 1_000_000,
            duration_ns: 40,
            kind: EventKind::Send,
            rank: 3,
            peer: 4,
            tag: 1,
            comm: 0,
            bytes: 64,
        };
        encode_event_delta(&e, &mut enc, &mut buf);
        let first = buf.len();
        let e2 = Event {
            time_ns: 1_000_120,
            ..e
        };
        encode_event_delta(&e2, &mut enc, &mut buf);
        // Steady state: only the time delta costs more than one byte.
        assert!(
            buf.len() - first <= 10,
            "steady event took {} bytes",
            buf.len() - first
        );
    }

    #[test]
    fn delta_field_overflows_typed() {
        // rank delta pushing past u32::MAX.
        let mut buf = BytesMut::new();
        vint::put_uvarint(&mut buf, vint::zigzag(0)); // time
        vint::put_uvarint(&mut buf, 0); // duration
        vint::put_uvarint(&mut buf, 0); // bytes
        vint::put_uvarint(&mut buf, 0); // kind = Send
        vint::put_uvarint(&mut buf, vint::zigzag(u32::MAX as i64 + 1)); // rank delta
        let mut st = DeltaState::new(0);
        let mut s: &[u8] = &buf;
        assert_eq!(
            decode_event_delta(&mut s, &mut st),
            Err(CodecError::FieldOverflow("rank"))
        );

        // peer outside i32.
        let mut buf = BytesMut::new();
        for _ in 0..4 {
            vint::put_uvarint(&mut buf, 0);
        }
        vint::put_uvarint(&mut buf, vint::zigzag(0)); // rank delta
        vint::put_uvarint(&mut buf, vint::zigzag(i32::MAX as i64 + 1)); // peer
        let mut st = DeltaState::new(0);
        let mut s: &[u8] = &buf;
        assert_eq!(
            decode_event_delta(&mut s, &mut st),
            Err(CodecError::FieldOverflow("peer"))
        );
    }

    #[test]
    fn versioned_header_roundtrips_and_rejects() {
        let h = PackHeader {
            app_id: 1,
            rank: 2,
            seq: 3,
            count: 4,
        };
        let mut buf = BytesMut::new();
        encode_header_versioned(&h, VERSION_DELTA, &mut buf);
        let frozen = buf.freeze();
        // The strict v1 decoder refuses v2...
        assert_eq!(
            decode_header(&mut frozen.clone()),
            Err(CodecError::BadVersion(VERSION_DELTA))
        );
        // ...the version-dispatching one returns it.
        assert_eq!(
            decode_header_any(&mut frozen.clone()).unwrap(),
            (h, VERSION_DELTA)
        );
        // Unknown versions stay typed rejections.
        let mut buf = BytesMut::new();
        encode_header_versioned(&h, 9, &mut buf);
        assert_eq!(
            decode_header_any(&mut buf.freeze()),
            Err(CodecError::BadVersion(9))
        );
    }

    #[test]
    fn bad_kind_detected() {
        let mut raw = wire(&Event::basic(EventKind::Send, 0, 0, 0));
        raw[24] = 0xFF;
        raw[25] = 0xFF;
        assert_eq!(decode_event(&raw), Err(CodecError::BadKind(0xFFFF)));
    }
}
