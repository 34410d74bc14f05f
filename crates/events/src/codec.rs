//! Little-endian wire codec for events and packs.
//!
//! Layout (all little-endian):
//!
//! ```text
//! Fixed event (48 bytes, pack wire version 1):
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
//!
//! Delta event (3–47 bytes, pack wire version 4):
//!   head  lens  dt  duration  bytes  [peerΔ] [tagΔ] [ext [rankΔ] [comm]]
//!   lens holds the byte lengths of dt, duration and bytes; only the
//!   rare fields are varints (see the Delta section below)
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
/// Delta wire version: the length-coded row below. (Versions 2 and 3,
/// the varint rows it replaced, are a typed [`CodecError::BadVersion`].)
pub const VERSION_DELTA: u16 = 4;

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
    /// A delta row's ext byte has reserved bits set.
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

/// `N` bytes at `raw[at..]`, inside a fixed-size window.
#[inline(always)]
fn field<const W: usize, const N: usize>(raw: &[u8; W], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&raw[at..at + N]);
    out
}

/// The little-endian `u64` at `raw[at..]`: the one word load the Fixed
/// row's three 64-bit fields and the Delta row's three hot fields share.
#[inline(always)]
fn word<const W: usize>(raw: &[u8; W], at: usize) -> u64 {
    u64::from_le_bytes(field(raw, at))
}

/// Decodes one event from its 48-byte wire form.
#[inline]
pub fn decode_event(raw: &[u8; EVENT_WIRE_SIZE]) -> Result<Event, CodecError> {
    let kind_raw = u16::from_le_bytes(field(raw, 24));
    let kind = EventKind::from_u16(kind_raw).ok_or(CodecError::BadKind(kind_raw))?;
    Ok(Event {
        time_ns: word(raw, 0),
        duration_ns: word(raw, 8),
        kind,
        rank: u32::from_le_bytes(field(raw, 28)),
        peer: i32::from_le_bytes(field(raw, 32)),
        tag: i32::from_le_bytes(field(raw, 36)),
        comm: u32::from_le_bytes(field(raw, 40)),
        bytes: word(raw, 16),
    })
}

// ---------------------------------------------------------------------
// Delta event codec (pack wire version 4): a row is a head byte, a lens
// byte, the three hot fields at the byte lengths the lens byte names, and
// varints of the rare fields that changed.
//
//   event := head lens dt duration bytes [peerΔ] [tagΔ] [ext [rankΔ] [comm]]
//   head  := kind index (5 bits: position in `EventKind::ALL`)
//            | 0x20 peer changed | 0x40 tag changed | 0x80 ext follows
//   lens  := dt length code (bits 0–1: 1, 2, 4 or 8 bytes)
//            | duration length code (bits 2–4: 0–6 or 8 bytes)
//            | bytes length code (bits 5–7: 0–6 or 8 bytes)
//   dt, duration, bytes := little-endian, the coded number of bytes;
//            dt = zigzag(time − previous time)
//   ext   := 0x01 rank  0x02 comm   changed → field follows
//            any other bit                  → `BadFlags`
//   peerΔ, tagΔ, rankΔ := uvarint(zigzag(value − previous))
//   comm  := uvarint
//
// "Previous" at the start of a pack is time 0, the header's rank,
// peer −1, tag −1, comm 0. Every length of the hot part is in the lens
// byte, so the encoder stores each hot field as a whole 8-byte word and
// moves on by its length, and the decoder loads a word per field and
// masks it to its length: no per-byte loop on either side. Only the
// fields that seldom change stay varints.
// ---------------------------------------------------------------------

const HEAD_KIND: u8 = 0x1F;
const HEAD_PEER: u8 = 0x20;
const HEAD_TAG: u8 = 0x40;
const HEAD_EXT: u8 = 0x80;
const EXT_RANK: u8 = 0x01;
const EXT_COMM: u8 = 0x02;
const EXT_RESERVED: u8 = !(EXT_RANK | EXT_COMM);

/// The bytes a row's hot part (head, lens, three fields) can span: the
/// window the encoder's word stores and the decoder's word loads need.
const HOT_WINDOW: usize = 2 + 3 * 8;

/// Smallest row: head, lens, a one-byte `dt`, no duration, no bytes.
pub(crate) const DELTA_EVENT_MIN_WIRE_SIZE: usize = 3;
/// Largest row: head, lens, three 8-byte hot fields, zigzag deltas of
/// peer and tag (33 bits each), the ext byte, a zigzag rank delta and a
/// 32-bit `comm`.
pub(crate) const DELTA_EVENT_WORST_WIRE_SIZE: usize =
    HOT_WINDOW + 3 * 33usize.div_ceil(7) + 1 + 32usize.div_ceil(7);
const _: () = assert!(DELTA_EVENT_WORST_WIRE_SIZE <= DELTA_EVENT_MAX_WIRE_SIZE);
const _: () = assert!(HOT_WINDOW <= DELTA_EVENT_MAX_WIRE_SIZE);
// The head byte keeps five bits for the kind index.
const _: () = assert!(EventKind::ALL.len() <= HEAD_KIND as usize + 1);

/// `MASK[n]` keeps the low `n` bytes of a word.
const MASK: [u64; 9] = {
    let mut mask = [u64::MAX; 9];
    let mut n = 0;
    while n < 8 {
        mask[n] = (1u64 << (8 * n)) - 1;
        n += 1;
    }
    mask
};

/// Bytes `v` needs: 0 for 0, 8 for a value with its top byte set.
#[inline(always)]
const fn byte_len(v: u64) -> u32 {
    (u64::BITS - v.leading_zeros()).div_ceil(8)
}

/// `dt`'s 2-bit length code: lengths 1, 2, 4 and 8 are codes 0 to 3, and
/// a `dt` of 3, 5, 6 or 7 bytes takes the next of them.
#[inline(always)]
fn dt_code(v: u64) -> u8 {
    // ⌈log₂ n⌉ of the byte count n = 1..=8.
    (u32::BITS - (byte_len(v).max(1) - 1).leading_zeros()) as u8
}

/// The length of `dt` under the code in the low two bits of `lens`.
#[inline(always)]
const fn dt_len(lens: u8) -> usize {
    1 << (lens & 0x03)
}

/// A 3-bit length code of duration or bytes: lengths 0 to 6 are
/// themselves, 7 and 8 are code 7.
#[inline(always)]
fn wide_code(v: u64) -> u8 {
    byte_len(v).min(7) as u8
}

/// The length of duration or bytes under the code in the low three bits
/// of `code`.
#[inline(always)]
const fn wide_len(code: u8) -> usize {
    let code = (code & 0x07) as usize;
    code + (code == 7) as usize
}

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

/// Stores `v` as a whole little-endian word at `raw[at..]`; the caller
/// moves on by the field's length, and the next store overwrites the
/// rest.
#[inline(always)]
fn put_word(raw: &mut [u8; DELTA_EVENT_MAX_WIRE_SIZE], at: usize, v: u64) {
    raw[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Writes one delta-coded event at the front of `raw` and returns its
/// length: the producer hands in its window of the block the pack is
/// built in, sized for the worst case, and moves past the row. Bytes of
/// the window past the row may be overwritten.
#[inline]
pub fn encode_event_delta_at(
    e: &Event,
    st: &mut DeltaState,
    raw: &mut [u8; DELTA_EVENT_MAX_WIRE_SIZE],
) -> usize {
    let dt = vint::zigzag(e.time_ns.wrapping_sub(st.prev_time_ns) as i64);
    st.prev_time_ns = e.time_ns;
    // Compares OR-ed into bytes: what a row carries is data, not control
    // flow, up to the one branch that guards the rarely-sent fields.
    let ext = bit(e.rank != st.prev_rank, EXT_RANK) | bit(e.comm != st.prev_comm, EXT_COMM);
    let head = e.kind.index()
        | bit(e.peer != st.prev_peer, HEAD_PEER)
        | bit(e.tag != st.prev_tag, HEAD_TAG)
        | bit(ext != 0, HEAD_EXT);
    let lens = dt_code(dt) | wide_code(e.duration_ns) << 2 | wide_code(e.bytes) << 5;
    raw[0] = head;
    raw[1] = lens;
    let mut at = 2;
    put_word(raw, at, dt);
    at += dt_len(lens);
    put_word(raw, at, e.duration_ns);
    at += wide_len(lens >> 2);
    put_word(raw, at, e.bytes);
    at += wide_len(lens >> 5);
    if head & !HEAD_KIND != 0 {
        if head & HEAD_PEER != 0 {
            let delta = e.peer as i64 - st.prev_peer as i64;
            at = vint::write_uvarint(raw, at, vint::zigzag(delta));
            st.prev_peer = e.peer;
        }
        if head & HEAD_TAG != 0 {
            let delta = e.tag as i64 - st.prev_tag as i64;
            at = vint::write_uvarint(raw, at, vint::zigzag(delta));
            st.prev_tag = e.tag;
        }
        if ext != 0 {
            raw[at] = ext;
            at += 1;
            if ext & EXT_RANK != 0 {
                let delta = e.rank as i64 - st.prev_rank as i64;
                at = vint::write_uvarint(raw, at, vint::zigzag(delta));
                st.prev_rank = e.rank;
            }
            if ext & EXT_COMM != 0 {
                at = vint::write_uvarint(raw, at, e.comm as u64);
                st.prev_comm = e.comm;
            }
        }
    }
    at
}

/// A row's hot part, decoded.
struct Hot {
    head: u8,
    dt: u64,
    duration_ns: u64,
    bytes: u64,
    /// Bytes the hot part spans.
    len: usize,
}

/// Decodes the hot part at the front of `win`: one word load per field,
/// masked to the field's length.
#[inline(always)]
fn decode_hot(win: &[u8; HOT_WINDOW]) -> Hot {
    let (head, lens) = (win[0], win[1]);
    let (dt_len, duration_len, bytes_len) =
        (dt_len(lens), wide_len(lens >> 2), wide_len(lens >> 5));
    let at = 2 + dt_len;
    Hot {
        head,
        dt: word(win, 2) & MASK[dt_len],
        duration_ns: word(win, at) & MASK[duration_len],
        bytes: word(win, at + duration_len) & MASK[bytes_len],
        len: at + duration_len + bytes_len,
    }
}

/// The hot part of a row that starts less than a window before the end
/// of the pack: decoded from a zero-padded copy, then checked against
/// the bytes really there.
#[cold]
fn decode_hot_tail(rest: &[u8]) -> Result<Hot, CodecError> {
    if rest.len() < 2 {
        return Err(CodecError::Truncated {
            need: 2,
            have: rest.len(),
        });
    }
    let mut win = [0u8; HOT_WINDOW];
    let n = rest.len().min(HOT_WINDOW);
    win[..n].copy_from_slice(&rest[..n]);
    let hot = decode_hot(&win);
    if hot.len > rest.len() {
        return Err(CodecError::Truncated {
            need: hot.len,
            have: rest.len(),
        });
    }
    Ok(hot)
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

/// Decodes the rare fields a row's `head` announces at `buf[*at..]`.
#[inline]
fn decode_rare(
    buf: &[u8],
    at: &mut usize,
    head: u8,
    st: &mut DeltaState,
) -> Result<(), CodecError> {
    if head & HEAD_PEER != 0 {
        st.prev_peer = read_delta(buf, at, st.prev_peer as i64, "peer")?;
    }
    if head & HEAD_TAG != 0 {
        st.prev_tag = read_delta(buf, at, st.prev_tag as i64, "tag")?;
    }
    if head & HEAD_EXT != 0 {
        let ext = read_u8(buf, at)?;
        if ext & EXT_RESERVED != 0 {
            return Err(CodecError::BadFlags(ext));
        }
        if ext & EXT_RANK != 0 {
            st.prev_rank = read_delta(buf, at, st.prev_rank as i64, "rank")?;
        }
        if ext & EXT_COMM != 0 {
            st.prev_comm = u32::try_from(vint::read_uvarint(buf, at)?)
                .map_err(|_| CodecError::FieldOverflow("comm"))?;
        }
    }
    Ok(())
}

/// Decodes the delta-coded event at `buf[*at..]` and moves `*at` past it.
/// A pack's rows are read from one slice by offset: one bounds check for
/// a row's whole hot part, a checked padded copy only for the rows that
/// start within a window of the end.
#[inline]
pub fn decode_event_delta(
    buf: &[u8],
    at: &mut usize,
    st: &mut DeltaState,
) -> Result<Event, CodecError> {
    let rest = buf.get(*at..).unwrap_or_default();
    let hot = match rest.first_chunk::<HOT_WINDOW>() {
        Some(win) => decode_hot(win),
        None => decode_hot_tail(rest)?,
    };
    let index = hot.head & HEAD_KIND;
    let kind = *EventKind::ALL
        .get(index as usize)
        .ok_or(CodecError::BadKind(index as u16))?;
    *at += hot.len;
    st.prev_time_ns = st.prev_time_ns.wrapping_add(vint::unzigzag(hot.dt) as u64);
    if hot.head & !HEAD_KIND != 0 {
        decode_rare(buf, at, hot.head, st)?;
    }
    Ok(Event {
        time_ns: st.prev_time_ns,
        duration_ns: hot.duration_ns,
        kind,
        rank: st.prev_rank,
        peer: st.prev_peer,
        tag: st.prev_tag,
        comm: st.prev_comm,
        bytes: hot.bytes,
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

    /// Appends one delta-coded event to `out`.
    fn encode_event_delta(e: &Event, st: &mut DeltaState, out: &mut impl BufMut) {
        let mut raw = [0u8; DELTA_EVENT_MAX_WIRE_SIZE];
        let len = encode_event_delta_at(e, st, &mut raw);
        out.put_slice(&raw[..len]);
    }

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

    /// A hand-built delta row: `head`, `lens`, then `rest` (the hot
    /// fields' bytes and whatever follows them) verbatim.
    fn row(head: u8, lens: u8, rest: &[u8]) -> Vec<u8> {
        let mut buf = vec![head, lens];
        buf.extend_from_slice(rest);
        buf
    }

    /// `buf` with `values` appended as raw varints.
    fn varints(mut buf: Vec<u8>, values: &[u64]) -> Vec<u8> {
        for &v in values {
            vint::put_uvarint(&mut buf, v);
        }
        buf
    }

    fn decode_row(header_rank: u32, row: &[u8]) -> Result<Event, CodecError> {
        decode_event_delta(row, &mut 0, &mut DeltaState::new(header_rank))
    }

    const SEND: u8 = EventKind::Send.index();
    /// Lens byte of a row whose `dt` is one byte and duration and bytes
    /// are absent.
    const QUIET: u8 = 0;

    /// A lens byte from the three length codes.
    const fn lens(dt: u8, duration: u8, bytes: u8) -> u8 {
        dt | duration << 2 | bytes << 5
    }

    #[test]
    fn delta_field_overflows_typed() {
        // Every row: dt = 0, duration and bytes absent, one changed field.
        let one = |flag: u8, rank: u32, field: u64| {
            let buf = match flag {
                EXT_RANK | EXT_COMM => row(SEND | HEAD_EXT, QUIET, &[0, flag]),
                _ => row(SEND | flag, QUIET, &[0]),
            };
            decode_row(rank, &varints(buf, &[field]))
        };
        let z = vint::zigzag;
        // From the pack-start value of -1, the first deltas out of i32.
        const BELOW_I32: i64 = i32::MIN as i64;
        const ABOVE_I32: i64 = i32::MAX as i64 + 2;
        // Deltas that leave the field's range, at both ends and at the
        // ends of i64 (where `prev + delta` itself would wrap).
        for (flag, name, rank, deltas) in [
            (EXT_RANK, "rank", 0, [-1, u32::MAX as i64 + 1, i64::MIN]),
            (EXT_RANK, "rank", u32::MAX, [1, i64::MAX, i64::MIN]),
            (HEAD_PEER, "peer", 0, [BELOW_I32, ABOVE_I32, i64::MIN]),
            (HEAD_TAG, "tag", 0, [BELOW_I32, ABOVE_I32, i64::MIN]),
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
            one(EXT_COMM, 0, u32::MAX as u64 + 1),
            Err(CodecError::FieldOverflow("comm"))
        );
        // The last values still inside the range decode.
        assert_eq!(one(EXT_RANK, 0, z(u32::MAX as i64)).unwrap().rank, u32::MAX);
        assert_eq!(one(HEAD_PEER, 0, z(BELOW_I32 + 1)).unwrap().peer, i32::MIN);
        assert_eq!(one(HEAD_TAG, 0, z(ABOVE_I32 - 1)).unwrap().tag, i32::MAX);
        assert_eq!(one(EXT_COMM, 0, u32::MAX as u64).unwrap().comm, u32::MAX);
    }

    #[test]
    fn delta_head_and_flags_are_checked() {
        // Kind indices the head's five bits can hold but `EventKind::ALL`
        // does not reach, with and without the flags, whatever follows.
        for index in EventKind::ALL.len() as u8..=HEAD_KIND {
            for head in [index, index | HEAD_PEER | HEAD_TAG | HEAD_EXT] {
                assert_eq!(
                    decode_row(0, &row(head, QUIET, &[0; 40])),
                    Err(CodecError::BadKind(index as u16)),
                    "head {head:#04x}"
                );
            }
        }
        // Any ext bit but rank and comm is reserved.
        for ext in [0x04, 0x80, 0xFC, 0xFF, 0x04 | EXT_RANK] {
            assert_eq!(
                decode_row(0, &row(SEND | HEAD_EXT, QUIET, &[0, ext, 0, 0])),
                Err(CodecError::BadFlags(ext))
            );
        }
        // Head, lens, dt, duration and bytes is a whole row; so is one
        // whose head announces an (empty) ext byte.
        let lens = lens(0, 1, 1);
        let plain = decode_row(7, &row(SEND, lens, &[10, 6, 7])).unwrap();
        assert_eq!(
            decode_row(7, &row(SEND | HEAD_EXT, lens, &[10, 6, 7, 0])),
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
        // Every flag: everything changed, every hot field eight bytes.
        let e = Event {
            time_ns: 1 << 62,
            duration_ns: u64::MAX,
            kind: EventKind::Marker,
            rank: 70_000,
            peer: i32::MAX,
            tag: i32::MIN,
            comm: 300,
            bytes: 1 << 60,
        };
        let mut buf = Vec::new();
        encode_event_delta(&e, &mut DeltaState::new(0), &mut buf);
        assert_eq!(buf[0], EventKind::Marker.index() | 0xE0);
        assert_eq!(buf[1], 0xFF);
        assert_eq!(buf[HOT_WINDOW + 10], EXT_RANK | EXT_COMM);
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
    fn delta_hot_fields_take_exactly_their_coded_lengths() {
        // dt codes 0–3 are 1, 2, 4 and 8 bytes; duration and bytes codes
        // 0–6 are that many bytes and code 7 is 8.
        for (code, len) in [(0, 1), (1, 2), (2, 4), (3, 8)] {
            assert_eq!(dt_len(code), len);
        }
        for code in 0..8 {
            assert_eq!(wide_len(code), code as usize + (code == 7) as usize);
        }
        // Each field reads exactly its bytes, little-endian: the byte
        // after a field belongs to the next one.
        let hot = [0x02, 0x01, 0xAA, 0xBB, 0xCC, 0x11, 0x22];
        let e = decode_row(0, &row(SEND, lens(1, 3, 2), &hot)).unwrap();
        assert_eq!(e.time_ns, vint::unzigzag(0x0102) as u64);
        assert_eq!(e.duration_ns, 0xCC_BBAA);
        assert_eq!(e.bytes, 0x2211);
        // Eight bytes hold a u64, and a longer code than the value needs
        // still decodes (the encoder never writes one).
        let mut wide = row(SEND, lens(3, 7, 7), &[0xFF; 16]);
        wide.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 0]);
        let e = decode_row(0, &wide).unwrap();
        assert_eq!(
            (e.time_ns, e.duration_ns, e.bytes),
            (i64::MIN as u64, u64::MAX, 0)
        );
        let long = decode_row(0, &row(SEND, lens(3, 0, 0), &[10, 0, 0, 0, 0, 0, 0, 0])).unwrap();
        assert_eq!(long.time_ns, 5);
        // The encoder picks the shortest code, at every byte boundary.
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1] {
                let e = Event {
                    duration_ns: v,
                    bytes: v,
                    ..Event::basic(EventKind::Send, 0, 0, 0)
                };
                let mut buf = Vec::new();
                encode_event_delta(&e, &mut DeltaState::new(0), &mut buf);
                let need = (64 - v.leading_zeros() as usize).div_ceil(8);
                let len = need + (need == 7) as usize;
                assert_eq!(buf.len(), 3 + 2 * len, "{v:#x}");
                assert_eq!(decode_row(0, &buf), Ok(e));
                // dt: from time 0, zigzag(v) takes the next of 1, 2, 4, 8.
                let e = Event::basic(EventKind::Send, 0, v, 0);
                buf.clear();
                encode_event_delta(&e, &mut DeltaState::new(0), &mut buf);
                let z = vint::zigzag(v as i64);
                let need = (64 - z.leading_zeros() as usize).div_ceil(8).max(1);
                assert_eq!(buf.len(), 2 + need.next_power_of_two(), "dt {v:#x}");
                assert_eq!(decode_row(0, &buf), Ok(e));
            }
        }
        // The rare fields stay 64-bit varints: an eleventh byte is refused.
        let mut eleven = row(SEND | HEAD_PEER, QUIET, &[0]);
        eleven.extend_from_slice(&[0x80; 10]);
        eleven.push(0x00);
        assert_eq!(decode_row(0, &eleven), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn a_row_at_the_end_of_a_pack_decodes_as_one_in_its_middle() {
        // The last rows of a pack are read through the padded copy; the
        // same row with a window of bytes behind it through word loads.
        let e = Event {
            time_ns: 123_456,
            duration_ns: 40_000,
            kind: EventKind::PosixWrite,
            rank: 3,
            peer: 9,
            tag: -1,
            comm: 0,
            bytes: 1 << 20,
        };
        let mut buf = Vec::new();
        encode_event_delta(&e, &mut DeltaState::new(3), &mut buf);
        let len = buf.len();
        assert!(len < HOT_WINDOW);
        let mut at = 0;
        assert_eq!(
            decode_event_delta(&buf, &mut at, &mut DeltaState::new(3)),
            Ok(e)
        );
        assert_eq!(at, len);
        buf.extend_from_slice(&[0xEE; HOT_WINDOW]);
        let mut at = 0;
        assert_eq!(
            decode_event_delta(&buf, &mut at, &mut DeltaState::new(3)),
            Ok(e)
        );
        assert_eq!(at, len);
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
        // Unknown versions stay typed rejections — the retired varint
        // rows, versions 2 and 3, among them.
        for version in [0, 2, 3, 5, 9] {
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
