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
use crate::wire::{Reader, Truncated};
use bytes::{Buf, BufMut};

/// `"OPMR"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"OPMR");
/// Fixed-layout wire version (the legacy format old peers understand).
pub const VERSION: u16 = 1;
/// Delta wire version: the compact row below. (Version 2, the
/// eight-varint row it replaced, is a typed [`CodecError::BadVersion`].)
pub const VERSION_DELTA: u16 = 3;

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
    /// A delta row's flags byte has reserved bits set.
    BadFlags(u8),
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
            CodecError::BadFlags(b) => write!(f, "reserved bits set in delta flags {b:#04x}"),
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::FieldOverflow(field) => {
                write!(f, "decoded value does not fit event field `{field}`")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<Truncated> for CodecError {
    fn from(t: Truncated) -> CodecError {
        CodecError::Truncated {
            need: t.need,
            have: t.have,
        }
    }
}

/// Writes one event's 48 bytes, padding included, into `raw`: the
/// producer hands in its window of the block the pack is built in.
#[inline]
pub fn encode_event_at(e: &Event, raw: &mut [u8; EVENT_WIRE_SIZE]) {
    raw[0..8].copy_from_slice(&e.time_ns.to_le_bytes());
    raw[8..16].copy_from_slice(&e.duration_ns.to_le_bytes());
    raw[16..24].copy_from_slice(&e.bytes.to_le_bytes());
    raw[24..26].copy_from_slice(&(e.kind as u16).to_le_bytes());
    raw[26..28].fill(0);
    raw[28..32].copy_from_slice(&e.rank.to_le_bytes());
    raw[32..36].copy_from_slice(&e.peer.to_le_bytes());
    raw[36..40].copy_from_slice(&e.tag.to_le_bytes());
    raw[40..44].copy_from_slice(&e.comm.to_le_bytes());
    raw[44..48].fill(0);
}

/// Appends one event to `out` through [`encode_event_at`].
#[inline]
pub fn encode_event(e: &Event, out: &mut impl BufMut) {
    let mut raw = [0u8; EVENT_WIRE_SIZE];
    encode_event_at(e, &mut raw);
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
// Delta event codec (pack wire version 3): a row carries one head byte,
// the time delta, and only what differs from the previous event.
//
//   event  := head [flags] dt [duration] [bytes] [rankΔ] [peerΔ] [tagΔ] [comm]
//   head   := kind | 0x80 if flags ≠ 0        (kind ≤ 127, see `EventKind`)
//   flags  := 0x01 rank  0x02 peer  0x04 tag  0x08 comm   changed → field follows
//             0x10 duration == 0  0x20 bytes == 0         → field absent
//             0x40 | 0x80 reserved                        → `BadFlags`
//   dt, rankΔ, peerΔ, tagΔ := uvarint(zigzag(value − previous))
//   duration, bytes, comm  := uvarint
//
// "Previous" at the start of a pack is time 0, the header's rank,
// peer −1, tag −1, comm 0. Timestamps are monotone and rank, peer, tag
// and comm near-constant within a pack, so most rows are the head, a
// one- or two-byte time delta, the duration and the byte count.
// ---------------------------------------------------------------------

const FLAG_RANK: u8 = 0x01;
const FLAG_PEER: u8 = 0x02;
const FLAG_TAG: u8 = 0x04;
const FLAG_COMM: u8 = 0x08;
const FLAG_NO_DURATION: u8 = 0x10;
const FLAG_NO_BYTES: u8 = 0x20;
const FLAGS_RESERVED: u8 = 0xC0;
const HEAD_HAS_FLAGS: u8 = 0x80;

/// Smallest row: head, flags (duration and bytes absent), one-byte `dt`.
pub(crate) const DELTA_EVENT_MIN_WIRE_SIZE: usize = 3;
/// Largest row: head, flags, three 64-bit varints (`dt`, duration, bytes),
/// three zigzag deltas of 32-bit fields (33 bits) and a 32-bit `comm`.
pub(crate) const DELTA_EVENT_WORST_WIRE_SIZE: usize =
    2 + 3 * 64usize.div_ceil(7) + 3 * 33usize.div_ceil(7) + 32usize.div_ceil(7);
const _: () = assert!(DELTA_EVENT_WORST_WIRE_SIZE <= DELTA_EVENT_MAX_WIRE_SIZE);
// The head byte keeps 7 bits for the kind.
const _: () = assert!((EventKind::Marker as u16) < HEAD_HAS_FLAGS as u16);

/// Running per-pack state the delta codec threads between events.
#[derive(Debug, Clone, Copy)]
pub struct DeltaState {
    prev_time_ns: u64,
    prev_rank: u32,
    prev_peer: i32,
    prev_tag: i32,
    prev_comm: u32,
}

impl DeltaState {
    /// Starts a pack: the first event's rank deltas against the header's.
    pub fn new(header_rank: u32) -> DeltaState {
        DeltaState {
            prev_time_ns: 0,
            prev_rank: header_rank,
            prev_peer: -1,
            prev_tag: -1,
            prev_comm: 0,
        }
    }
}

/// `flag` where `cond` holds, else 0 — arithmetic, not a branch.
#[inline(always)]
const fn bit(cond: bool, flag: u8) -> u8 {
    cond as u8 * flag
}

/// Writes one delta-coded event at the front of `raw` and returns its
/// length: the producer hands in its window of the block the pack is
/// built in, sized for the worst case, and moves past the row.
#[inline]
pub fn encode_event_delta_at(
    e: &Event,
    st: &mut DeltaState,
    raw: &mut [u8; DELTA_EVENT_MAX_WIRE_SIZE],
) -> usize {
    let dt = e.time_ns.wrapping_sub(st.prev_time_ns) as i64;
    st.prev_time_ns = e.time_ns;
    // Compares OR-ed into a byte: what a row carries is data, not control
    // flow, up to the one branch that guards the four rarely-sent fields.
    let changed = bit(e.rank != st.prev_rank, FLAG_RANK)
        | bit(e.peer != st.prev_peer, FLAG_PEER)
        | bit(e.tag != st.prev_tag, FLAG_TAG)
        | bit(e.comm != st.prev_comm, FLAG_COMM);
    let flags =
        changed | bit(e.duration_ns == 0, FLAG_NO_DURATION) | bit(e.bytes == 0, FLAG_NO_BYTES);
    raw[0] = e.kind as u8 | bit(flags != 0, HEAD_HAS_FLAGS);
    raw[1] = flags;
    let mut at = 1 + (flags != 0) as usize;
    at = vint::write_uvarint(raw, at, vint::zigzag(dt));
    if e.duration_ns != 0 {
        at = vint::write_uvarint(raw, at, e.duration_ns);
    }
    if e.bytes != 0 {
        at = vint::write_uvarint(raw, at, e.bytes);
    }
    if changed != 0 {
        if changed & FLAG_RANK != 0 {
            let delta = e.rank as i64 - st.prev_rank as i64;
            at = vint::write_uvarint(raw, at, vint::zigzag(delta));
            st.prev_rank = e.rank;
        }
        if changed & FLAG_PEER != 0 {
            let delta = e.peer as i64 - st.prev_peer as i64;
            at = vint::write_uvarint(raw, at, vint::zigzag(delta));
            st.prev_peer = e.peer;
        }
        if changed & FLAG_TAG != 0 {
            let delta = e.tag as i64 - st.prev_tag as i64;
            at = vint::write_uvarint(raw, at, vint::zigzag(delta));
            st.prev_tag = e.tag;
        }
        if changed & FLAG_COMM != 0 {
            at = vint::write_uvarint(raw, at, e.comm as u64);
            st.prev_comm = e.comm;
        }
    }
    at
}

/// Appends one delta-coded event to `out` through
/// [`encode_event_delta_at`].
#[inline]
pub fn encode_event_delta(e: &Event, st: &mut DeltaState, out: &mut impl BufMut) {
    let mut raw = [0u8; DELTA_EVENT_MAX_WIRE_SIZE];
    let len = encode_event_delta_at(e, st, &mut raw);
    out.put_slice(&raw[..len]);
}

/// The byte at `buf[*at]`, moving `*at` past it.
#[inline(always)]
fn read_u8(buf: &[u8], at: &mut usize) -> Result<u8, CodecError> {
    let byte = *buf
        .get(*at)
        .ok_or(CodecError::Truncated { need: 1, have: 0 })?;
    *at += 1;
    Ok(byte)
}

/// Reads a zigzag delta at `buf[*at..]` and applies it to `prev`; a sum
/// outside `T` is a typed overflow of `field`, never a wrap.
#[inline(always)]
fn read_delta<T: TryFrom<i64>>(
    buf: &[u8],
    at: &mut usize,
    prev: i64,
    field: &'static str,
) -> Result<T, CodecError> {
    let delta = vint::unzigzag(vint::read_uvarint(buf, at)?);
    prev.checked_add(delta)
        .and_then(|v| T::try_from(v).ok())
        .ok_or(CodecError::FieldOverflow(field))
}

/// Decodes the delta-coded event at `buf[*at..]` and moves `*at` past it.
/// A pack's rows are read from one slice by offset: one bounds check per
/// byte, no re-slicing per field.
#[inline]
pub fn decode_event_delta(
    buf: &[u8],
    at: &mut usize,
    st: &mut DeltaState,
) -> Result<Event, CodecError> {
    let head = read_u8(buf, at)?;
    let kind_raw = (head & !HEAD_HAS_FLAGS) as u16;
    let kind = EventKind::from_u16(kind_raw).ok_or(CodecError::BadKind(kind_raw))?;
    let flags = if head & HEAD_HAS_FLAGS != 0 {
        read_u8(buf, at)?
    } else {
        0
    };
    if flags & FLAGS_RESERVED != 0 {
        return Err(CodecError::BadFlags(flags));
    }
    let dt = vint::unzigzag(vint::read_uvarint(buf, at)?);
    st.prev_time_ns = st.prev_time_ns.wrapping_add(dt as u64);
    let duration_ns = if flags & FLAG_NO_DURATION == 0 {
        vint::read_uvarint(buf, at)?
    } else {
        0
    };
    let bytes = if flags & FLAG_NO_BYTES == 0 {
        vint::read_uvarint(buf, at)?
    } else {
        0
    };
    if flags & FLAG_RANK != 0 {
        st.prev_rank = read_delta(buf, at, st.prev_rank as i64, "rank")?;
    }
    if flags & FLAG_PEER != 0 {
        st.prev_peer = read_delta(buf, at, st.prev_peer as i64, "peer")?;
    }
    if flags & FLAG_TAG != 0 {
        st.prev_tag = read_delta(buf, at, st.prev_tag as i64, "tag")?;
    }
    if flags & FLAG_COMM != 0 {
        st.prev_comm = u32::try_from(vint::read_uvarint(buf, at)?)
            .map_err(|_| CodecError::FieldOverflow("comm"))?;
    }
    Ok(Event {
        time_ns: st.prev_time_ns,
        duration_ns,
        kind,
        rank: st.prev_rank,
        peer: st.prev_peer,
        tag: st.prev_tag,
        comm: st.prev_comm,
        bytes,
    })
}

/// Appends a pack header to `out` (fixed-layout wire version 1).
pub fn encode_header(h: &PackHeader, out: &mut impl BufMut) {
    encode_header_versioned(h, VERSION, out);
}

/// Appends a pack header carrying an explicit wire version through
/// [`encode_header_at`].
pub fn encode_header_versioned(h: &PackHeader, version: u16, out: &mut impl BufMut) {
    let mut raw = [0u8; PACK_HEADER_SIZE];
    encode_header_at(h, version, &mut raw);
    out.put_slice(&raw);
}

/// Writes a pack header carrying an explicit wire version into `raw`.
pub fn encode_header_at(h: &PackHeader, version: u16, raw: &mut [u8; PACK_HEADER_SIZE]) {
    raw[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    raw[4..6].copy_from_slice(&version.to_le_bytes());
    raw[6..8].copy_from_slice(&h.app_id.to_le_bytes());
    raw[8..12].copy_from_slice(&h.rank.to_le_bytes());
    raw[12..16].copy_from_slice(&h.seq.to_le_bytes());
    raw[16..20].copy_from_slice(&h.count.to_le_bytes());
    raw[20..24].fill(0);
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
/// version so the caller can pick the matching event codec. Reads the
/// front chunk of `buf` (all of it, for the contiguous buffers this
/// workspace uses) and advances past the header on success.
pub fn decode_header_any(buf: &mut impl Buf) -> Result<(PackHeader, u16), CodecError> {
    let mut r = Reader::new(buf.chunk());
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != VERSION && version != VERSION_DELTA {
        return Err(CodecError::BadVersion(version));
    }
    let header = PackHeader {
        app_id: r.u16()?,
        rank: r.u32()?,
        seq: r.u32()?,
        count: r.u32()?,
    };
    let _pad = r.u32()?;
    buf.advance(PACK_HEADER_SIZE);
    Ok((header, version))
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
        let mut at = 0;
        for e in &events {
            assert_eq!(decode_event_delta(&buf, &mut at, &mut dec).unwrap(), *e);
        }
        assert_eq!(at, buf.len());
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

    /// A hand-built delta row: `head`, then `flags` when the head says one
    /// follows, then `fields` as raw varints.
    fn row(head: u8, flags: u8, fields: &[u64]) -> Vec<u8> {
        let mut buf = vec![head];
        if head & HEAD_HAS_FLAGS != 0 {
            buf.push(flags);
        }
        for &f in fields {
            vint::put_uvarint(&mut buf, f);
        }
        buf
    }

    fn decode_row(header_rank: u32, row: &[u8]) -> Result<Event, CodecError> {
        decode_event_delta(row, &mut 0, &mut DeltaState::new(header_rank))
    }

    const SEND: u8 = EventKind::Send as u8;

    #[test]
    fn delta_field_overflows_typed() {
        // Every row: dt = 0, duration and bytes absent, one changed field.
        let absent = FLAG_NO_DURATION | FLAG_NO_BYTES;
        let one = |flag: u8, rank: u32, field: u64| {
            decode_row(
                rank,
                &row(SEND | HEAD_HAS_FLAGS, absent | flag, &[0, field]),
            )
        };
        let z = vint::zigzag;
        // From the pack-start value of -1, the first deltas out of i32.
        const BELOW_I32: i64 = i32::MIN as i64;
        const ABOVE_I32: i64 = i32::MAX as i64 + 2;
        // Deltas that leave the field's range, at both ends and at the
        // ends of i64 (where `prev + delta` itself would wrap).
        for (flag, name, rank, deltas) in [
            (FLAG_RANK, "rank", 0, [-1, u32::MAX as i64 + 1, i64::MIN]),
            (FLAG_RANK, "rank", u32::MAX, [1, i64::MAX, i64::MIN]),
            (FLAG_PEER, "peer", 0, [BELOW_I32, ABOVE_I32, i64::MIN]),
            (FLAG_TAG, "tag", 0, [BELOW_I32, ABOVE_I32, i64::MIN]),
        ] {
            for d in deltas {
                assert_eq!(
                    one(flag, rank, z(d)),
                    Err(CodecError::FieldOverflow(name)),
                    "{name} {d:+} from a pack of rank {rank}"
                );
            }
        }
        assert_eq!(
            one(FLAG_COMM, 0, u32::MAX as u64 + 1),
            Err(CodecError::FieldOverflow("comm"))
        );
        // The last values still inside the range decode.
        assert_eq!(
            one(FLAG_RANK, 0, z(u32::MAX as i64)).unwrap().rank,
            u32::MAX
        );
        assert_eq!(one(FLAG_PEER, 0, z(BELOW_I32 + 1)).unwrap().peer, i32::MIN);
        assert_eq!(one(FLAG_TAG, 0, z(ABOVE_I32 - 1)).unwrap().tag, i32::MAX);
        assert_eq!(one(FLAG_COMM, 0, u32::MAX as u64).unwrap().comm, u32::MAX);
    }

    #[test]
    fn delta_head_and_flags_are_checked() {
        // Kinds the head's seven bits can hold but `EventKind` does not
        // define, with and without a flags byte.
        for kind in EventKind::Marker as u8 + 1..=0x7F {
            assert_eq!(
                decode_row(0, &row(kind, 0, &[0, 0, 0])),
                Err(CodecError::BadKind(kind as u16))
            );
            assert_eq!(
                decode_row(0, &row(kind | HEAD_HAS_FLAGS, 0x30, &[0])),
                Err(CodecError::BadKind(kind as u16))
            );
        }
        for flags in [0x40, 0x80, 0xC0, 0xFF, 0x40 | FLAG_TAG] {
            assert_eq!(
                decode_row(0, &row(SEND | HEAD_HAS_FLAGS, flags, &[0; 7])),
                Err(CodecError::BadFlags(flags))
            );
        }
        // Head, dt, duration and bytes is a whole row; so is a head that
        // announces an (empty) flags byte.
        let plain = decode_row(7, &row(SEND, 0, &[vint::zigzag(5), 6, 7])).unwrap();
        assert_eq!(
            decode_row(7, &row(SEND | HEAD_HAS_FLAGS, 0, &[vint::zigzag(5), 6, 7])),
            Ok(plain)
        );
        assert_eq!(
            plain,
            Event {
                time_ns: 5,
                duration_ns: 6,
                kind: EventKind::Send,
                rank: 7,
                peer: -1,
                tag: -1,
                comm: 0,
                bytes: 7,
            }
        );
    }

    #[test]
    fn delta_row_cut_at_every_byte_is_truncated() {
        // All six flags: everything changed, duration and bytes zero.
        let e = Event {
            time_ns: 1 << 40,
            duration_ns: 0,
            kind: EventKind::Marker,
            rank: 70_000,
            peer: i32::MAX,
            tag: i32::MIN,
            comm: 300,
            bytes: 0,
        };
        let mut buf = Vec::new();
        encode_event_delta(&e, &mut DeltaState::new(0), &mut buf);
        assert_eq!(buf[0], EventKind::Marker as u8 | HEAD_HAS_FLAGS);
        assert_eq!(buf[1], 0x3F);
        assert_eq!(decode_row(0, &buf), Ok(e));
        for cut in 0..buf.len() {
            assert!(
                matches!(
                    decode_row(0, &buf[..cut]),
                    Err(CodecError::Truncated { .. })
                ),
                "cut at {cut} of {}",
                buf.len()
            );
        }
    }

    #[test]
    fn delta_rows_accept_exactly_the_64_bit_varints() {
        // Head (no flags), then dt, duration and bytes as raw varint bytes.
        let send = |dt: &[u8], duration: &[u8]| {
            let mut buf = vec![SEND];
            buf.extend_from_slice(dt);
            buf.extend_from_slice(duration);
            buf.push(7);
            decode_row(0, &buf)
        };
        // Non-canonical: a continuation byte carrying nothing is still 0.
        let zero = send(&[0x80, 0x00], &[6]).unwrap();
        assert_eq!((zero.time_ns, zero.duration_ns, zero.bytes), (0, 6, 7));
        // Ten bytes hold a u64: nine full bytes and bit 63 in the tenth.
        let mut max = [0xFFu8; 10];
        max[9] = 0x01;
        assert_eq!(send(&[0], &max).unwrap().duration_ns, u64::MAX);
        // An eleventh byte cannot belong to a u64, even a zero one.
        let mut eleven = [0x80u8; 11];
        eleven[10] = 0x00;
        assert_eq!(send(&[0], &eleven), Err(CodecError::VarintOverflow));
        // Nor can a tenth byte carrying more than bit 63.
        let mut wide = max;
        wide[9] = 0x02;
        assert_eq!(send(&[0], &wide), Err(CodecError::VarintOverflow));
        assert_eq!(send(&wide, &[6]), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn smallest_delta_row_is_the_declared_minimum() {
        // Nothing changed, nothing to say but the time.
        let quiet = Event {
            time_ns: 60,
            duration_ns: 0,
            kind: EventKind::Marker,
            rank: 4,
            peer: -1,
            tag: -1,
            comm: 0,
            bytes: 0,
        };
        let mut buf = Vec::new();
        encode_event_delta(&quiet, &mut DeltaState::new(4), &mut buf);
        assert_eq!(buf.len(), DELTA_EVENT_MIN_WIRE_SIZE);
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
        // The strict v1 decoder refuses the delta version...
        assert_eq!(
            decode_header(&mut frozen.clone()),
            Err(CodecError::BadVersion(VERSION_DELTA))
        );
        // ...the version-dispatching one returns it.
        assert_eq!(
            decode_header_any(&mut frozen.clone()).unwrap(),
            (h, VERSION_DELTA)
        );
        // Unknown versions stay typed rejections — the retired version 2
        // among them.
        for version in [0, 2, 4, 9] {
            let mut buf = BytesMut::new();
            encode_header_versioned(&h, version, &mut buf);
            assert_eq!(
                decode_header_any(&mut buf.freeze()),
                Err(CodecError::BadVersion(version))
            );
        }
    }

    #[test]
    fn bad_kind_detected() {
        let mut raw = wire(&Event::basic(EventKind::Send, 0, 0, 0));
        raw[24] = 0xFF;
        raw[25] = 0xFF;
        assert_eq!(decode_event(&raw), Err(CodecError::BadKind(0xFFFF)));
    }
}
