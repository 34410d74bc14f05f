//! Property tests: the wire codec is a lossless bijection on valid packs,
//! and every hostile derivative of a valid encoding — truncated, mutated,
//! mis-flagged, mis-sized — decodes to a *typed* error, never a panic.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_events::codec::CodecError;
use opmr_events::vint::put_uvarint;
use opmr_events::{decompress, Event, EventKind, EventPack, Lz4Encoder, PackEncoding, PackHeader};
use proptest::prelude::*;

/// An independent Delta row decoder, kept only as the oracle the
/// property below holds the library decoder to: same events, or the same
/// typed error. It reads every field a byte at a time, where the library
/// loads words and masks them.
mod reference {
    use opmr_events::codec::{self, CodecError};
    use opmr_events::vint::{unzigzag, MAX_UVARINT_LEN};
    use opmr_events::wire::Reader;
    use opmr_events::{Event, EventKind, PackHeader};

    const HEAD_KIND: u8 = 0x1F;
    const HEAD_PEER: u8 = 0x20;
    const HEAD_TAG: u8 = 0x40;
    const HEAD_EXT: u8 = 0x80;
    const EXT_RANK: u8 = 0x01;
    const EXT_COMM: u8 = 0x02;
    /// Byte lengths of `dt` by its 2-bit code.
    const DT_LEN: [usize; 4] = [1, 2, 4, 8];
    /// Byte lengths of duration and bytes by their 3-bit codes.
    const WIDE_LEN: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 8];
    /// The smallest Delta row: head, lens, a one-byte time delta.
    const MIN_ROW: usize = 3;

    struct State {
        time_ns: u64,
        rank: u32,
        peer: i32,
        tag: i32,
        comm: u32,
    }

    fn get_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
        let (&byte, rest) = buf
            .split_first()
            .ok_or(CodecError::Truncated { need: 1, have: 0 })?;
        *buf = rest;
        Ok(byte)
    }

    /// `len` little-endian bytes, a byte at a time.
    fn get_le(buf: &mut &[u8], len: usize) -> u64 {
        let mut v = 0u64;
        for i in 0..len {
            v |= (buf[i] as u64) << (8 * i);
        }
        *buf = &buf[len..];
        v
    }

    fn get_uvarint(buf: &mut &[u8]) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift: u32 = 0;
        for (i, &byte) in buf.iter().enumerate() {
            if i >= MAX_UVARINT_LEN {
                return Err(CodecError::VarintOverflow);
            }
            let payload = (byte & 0x7F) as u64;
            if shift == 63 && payload > 1 {
                return Err(CodecError::VarintOverflow);
            }
            v |= payload << shift;
            if byte & 0x80 == 0 {
                *buf = &buf[i + 1..];
                return Ok(v);
            }
            shift += 7;
        }
        Err(CodecError::Truncated {
            need: buf.len() + 1,
            have: buf.len(),
        })
    }

    fn get_delta<T: TryFrom<i64>>(
        buf: &mut &[u8],
        prev: i64,
        field: &'static str,
    ) -> Result<T, CodecError> {
        let delta = unzigzag(get_uvarint(buf)?);
        prev.checked_add(delta)
            .and_then(|v| T::try_from(v).ok())
            .ok_or(CodecError::FieldOverflow(field))
    }

    fn decode_row(buf: &mut &[u8], st: &mut State) -> Result<Event, CodecError> {
        // Head and lens, then the hot part's length, then the kind.
        if buf.len() < 2 {
            return Err(CodecError::Truncated {
                need: 2,
                have: buf.len(),
            });
        }
        let (head, lens) = (buf[0], buf[1]);
        let dt_len = DT_LEN[(lens & 0x03) as usize];
        let duration_len = WIDE_LEN[(lens >> 2 & 0x07) as usize];
        let bytes_len = WIDE_LEN[(lens >> 5) as usize];
        let hot = 2 + dt_len + duration_len + bytes_len;
        if buf.len() < hot {
            return Err(CodecError::Truncated {
                need: hot,
                have: buf.len(),
            });
        }
        let index = head & HEAD_KIND;
        let kind = *EventKind::ALL
            .get(index as usize)
            .ok_or(CodecError::BadKind(index as u16))?;
        *buf = &buf[2..];
        let dt = unzigzag(get_le(buf, dt_len));
        st.time_ns = st.time_ns.wrapping_add(dt as u64);
        let duration_ns = get_le(buf, duration_len);
        let bytes = get_le(buf, bytes_len);
        if head & HEAD_PEER != 0 {
            st.peer = get_delta(buf, st.peer as i64, "peer")?;
        }
        if head & HEAD_TAG != 0 {
            st.tag = get_delta(buf, st.tag as i64, "tag")?;
        }
        if head & HEAD_EXT != 0 {
            let ext = get_u8(buf)?;
            if ext & !(EXT_RANK | EXT_COMM) != 0 {
                return Err(CodecError::BadFlags(ext));
            }
            if ext & EXT_RANK != 0 {
                st.rank = get_delta(buf, st.rank as i64, "rank")?;
            }
            if ext & EXT_COMM != 0 {
                st.comm = u32::try_from(get_uvarint(buf)?)
                    .map_err(|_| CodecError::FieldOverflow("comm"))?;
            }
        }
        Ok(Event {
            time_ns: st.time_ns,
            duration_ns,
            kind,
            rank: st.rank,
            peer: st.peer,
            tag: st.tag,
            comm: st.comm,
            bytes,
        })
    }

    /// Decodes a whole pack the way `EventPack::decode_into` does, rows
    /// through the reference decoder; `None` when the header is not a
    /// Delta one (a mutation may turn it into a Fixed pack).
    pub fn decode_pack(data: &[u8]) -> Option<Result<(PackHeader, Vec<Event>), CodecError>> {
        let mut buf = data;
        let (header, version) = match codec::decode_header_any(&mut buf) {
            Ok(h) => h,
            Err(e) => return Some(Err(e)),
        };
        if version != codec::VERSION_DELTA {
            return None;
        }
        Some((|| {
            let count = Reader::new(buf).check_count(header.count as usize, MIN_ROW)?;
            let mut st = State {
                time_ns: 0,
                rank: header.rank,
                peer: -1,
                tag: -1,
                comm: 0,
            };
            let events = (0..count)
                .map(|_| decode_row(&mut buf, &mut st))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((header, events))
        })())
    }
}

/// The library decoder on `data`, in the reference's shape.
fn library_decode(data: &[u8]) -> Result<(PackHeader, Vec<Event>), CodecError> {
    let mut events = Vec::new();
    EventPack::decode_into(data, &mut events).map(|h| (h, events))
}

fn arb_kind() -> impl Strategy<Value = EventKind> {
    (0..EventKind::ALL.len()).prop_map(|i| EventKind::ALL[i])
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        any::<u64>(),
        any::<u64>(),
        arb_kind(),
        any::<u32>(),
        any::<i32>(),
        any::<i32>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(
            |(time_ns, duration_ns, kind, rank, peer, tag, comm, bytes)| Event {
                time_ns,
                duration_ns,
                kind,
                rank,
                peer,
                tag,
                comm,
                bytes,
            },
        )
}

/// One of `values`, uniformly.
fn one_of<T: Copy + 'static>(values: &'static [T]) -> impl Strategy<Value = T> {
    (0..values.len()).prop_map(move |i| values[i])
}

/// An event built from the ends of every field's range: next to each
/// other, two such events wrap `dt`, fill every hot field's eight bytes
/// and take peer and tag deltas out to ±(2³² − 1).
fn arb_extreme_event() -> impl Strategy<Value = Event> {
    const U64S: &[u64] = &[0, 1, 0xFF, 1 << 56, u64::MAX >> 8, 1 << 63, u64::MAX];
    const I32S: &[i32] = &[i32::MIN, i32::MIN + 1, -1, 0, i32::MAX];
    const U32S: &[u32] = &[0, 1, u32::MAX];
    (
        one_of(U64S),
        one_of(U64S),
        arb_kind(),
        one_of(U32S),
        one_of(I32S),
        one_of(I32S),
        one_of(U32S),
        one_of(U64S),
    )
        .prop_map(
            |(time_ns, duration_ns, kind, rank, peer, tag, comm, bytes)| Event {
                time_ns,
                duration_ns,
                kind,
                rank,
                peer,
                tag,
                comm,
                bytes,
            },
        )
}

/// A firehose-shaped event: small time steps, rank and comm fixed, so
/// most of its Delta row is one-byte varints.
fn arb_steady_event() -> impl Strategy<Value = Event> {
    (
        0u64..300,
        0u64..2000,
        arb_kind(),
        0u32..2,
        -1i32..2,
        0u64..5000,
    )
        .prop_map(|(time_ns, duration_ns, kind, rank, peer, bytes)| Event {
            time_ns,
            duration_ns,
            kind,
            rank,
            peer,
            tag: -1,
            comm: 0,
            bytes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pack_roundtrip(
        app_id in any::<u16>(),
        rank in any::<u32>(),
        seq in any::<u32>(),
        events in proptest::collection::vec(arb_event(), 0..200),
    ) {
        let pack = EventPack::new(app_id, rank, seq, events);
        let decoded = EventPack::decode(&pack.encode()).unwrap();
        prop_assert_eq!(decoded, pack);
    }

    #[test]
    fn every_truncation_is_detected(
        events in proptest::collection::vec(arb_event(), 1..20),
        cut in any::<proptest::sample::Index>(),
    ) {
        let pack = EventPack::new(1, 2, 3, events);
        let enc = pack.encode();
        let cut_at = cut.index(enc.len().max(2) - 1); // strictly shorter
        prop_assert!(EventPack::decode(&enc[..cut_at]).is_err());
    }

    #[test]
    fn wire_size_is_linear(n in 0usize..500) {
        let pack = EventPack::new(0, 0, 0,
            (0..n).map(|i| Event::basic(EventKind::Send, 0, i as u64, 1)).collect());
        prop_assert_eq!(pack.encode().len(),
            opmr_events::PACK_HEADER_SIZE + n * opmr_events::EVENT_WIRE_SIZE);
    }

    // -- delta/varint path ---------------------------------------------

    #[test]
    fn delta_pack_roundtrip(
        app_id in any::<u16>(),
        rank in any::<u32>(),
        seq in any::<u32>(),
        events in proptest::collection::vec(
            prop_oneof![arb_event(), arb_steady_event(), arb_extreme_event()], 0..200),
    ) {
        let pack = EventPack::new(app_id, rank, seq, events);
        let decoded = EventPack::decode(&pack.encode_with(PackEncoding::Delta)).unwrap();
        prop_assert_eq!(decoded, pack);
    }

    #[test]
    fn every_delta_truncation_is_detected(
        events in proptest::collection::vec(arb_event(), 1..20),
        cut in any::<proptest::sample::Index>(),
    ) {
        let pack = EventPack::new(1, 2, 3, events);
        let enc = pack.encode_with(PackEncoding::Delta);
        let cut_at = cut.index(enc.len().max(2) - 1); // strictly shorter
        prop_assert!(EventPack::decode(&enc[..cut_at]).is_err());
    }

    /// Any single byte mutation of a delta pack either still decodes (to
    /// *some* pack — the mutation hit payload bits) or fails typed.
    /// Either way: no panic, no unbounded allocation.
    #[test]
    fn delta_mutation_never_panics(
        events in proptest::collection::vec(arb_event(), 1..20),
        pos in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let pack = EventPack::new(1, 2, 3, events);
        let mut enc = pack.encode_with(PackEncoding::Delta).to_vec();
        let at = pos.index(enc.len());
        enc[at] ^= 1 << bit;
        if let Ok(p) = EventPack::decode(&enc) {
            prop_assert!(p.events.len() <= enc.len(), "decoded more events than bytes");
        }
    }

    // -- compressed path -----------------------------------------------

    #[test]
    fn compress_roundtrip_is_identity(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut enc = Lz4Encoder::new();
        let mut z = Vec::new();
        enc.compress(&data, &mut z);
        let back = decompress(&z, data.len().max(1)).unwrap();
        prop_assert_eq!(&back[..], &data[..]);
    }

    /// `decode(decompress(compress(enc))) == decode(enc)`: the compressed
    /// and uncompressed representations of one pack agree byte-for-byte
    /// after inflate, so the two wire paths cannot diverge.
    #[test]
    fn compressed_and_plain_decodes_agree(
        events in proptest::collection::vec(arb_event(), 0..50),
        delta in any::<bool>(),
    ) {
        let encoding = if delta { PackEncoding::Delta } else { PackEncoding::Fixed };
        let pack = EventPack::new(7, 1, 0, events);
        let plain = pack.encode_with(encoding);
        let mut z = Vec::new();
        Lz4Encoder::new().compress(&plain, &mut z);
        let inflated = decompress(&z, plain.len()).unwrap();
        prop_assert_eq!(&inflated[..], &plain[..], "inflate must be bit-exact");
        prop_assert_eq!(
            EventPack::decode(&inflated).unwrap(),
            EventPack::decode(&plain).unwrap()
        );
    }

    /// Any single byte mutation of a compressed block decompresses to a
    /// typed `CompressError` or to bounded output — never a panic, never
    /// more bytes than the block declared.
    #[test]
    fn compressed_mutation_never_panics(
        events in proptest::collection::vec(arb_event(), 1..30),
        pos in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let plain = EventPack::new(7, 1, 0, events).encode_with(PackEncoding::Delta);
        let mut z = Vec::new();
        Lz4Encoder::new().compress(&plain, &mut z);
        let at = pos.index(z.len());
        z[at] ^= 1 << bit;
        if let Ok(out) = decompress(&z, plain.len()) {
            prop_assert!(out.len() <= plain.len(), "inflate exceeded the declared cap");
        }
    }

    /// Tampering with the declared raw length (keeping the sequence bytes
    /// intact) is always a typed error: `SizeMismatch` when the declared
    /// and produced lengths diverge, `DeclaredTooLarge` when it blows the
    /// cap, `Truncated`/`BadOffset` when the shifted declared length makes
    /// the stream inconsistent.
    #[test]
    fn declared_size_mismatch_is_typed(
        events in proptest::collection::vec(arb_event(), 1..30),
        skew in prop_oneof![1u64..1000, 1_000_000u64..u64::MAX / 2],
        grow in any::<bool>(),
    ) {
        let plain = EventPack::new(7, 1, 0, events).encode_with(PackEncoding::Delta);
        let mut z = Vec::new();
        Lz4Encoder::new().compress(&plain, &mut z);
        // Split the block into [raw_len uvarint][sequences] and re-head
        // it with a lying declared length.
        let mut tail: &[u8] = &z;
        let declared = opmr_events::vint::get_uvarint(&mut tail).unwrap();
        let lied = if grow { declared.saturating_add(skew) } else { declared.saturating_sub(skew.min(declared)) };
        // skew >= 1 and declared >= PACK_HEADER_SIZE, so the lie is real.
        prop_assert!(lied != declared);
        let mut forged = Vec::with_capacity(z.len());
        put_uvarint(&mut forged, lied);
        forged.extend_from_slice(tail);
        prop_assert!(decompress(&forged, plain.len()).is_err(),
            "a lying declared size must never decode cleanly");
    }

    /// "Flag flipped off": compressed bytes handed to the plain pack
    /// decoder. The pack magic makes this a typed error (or, in the
    /// astronomically unlikely case the compressed stream forms a valid
    /// pack, a bounded decode) — never a panic.
    #[test]
    fn compressed_bytes_as_plain_pack_never_panic(
        events in proptest::collection::vec(arb_event(), 1..30),
    ) {
        let plain = EventPack::new(7, 1, 0, events).encode_with(PackEncoding::Delta);
        let mut z = Vec::new();
        Lz4Encoder::new().compress(&plain, &mut z);
        let _ = EventPack::decode(&z); // typed result either way
    }

    /// "Flag flipped on": plain bytes handed to the decompressor must be
    /// a typed error or bounded output, never a panic. (The stream layer
    /// counts this as a protocol violation; this pins the codec's own
    /// safety.)
    #[test]
    fn plain_bytes_as_compressed_never_panic(
        events in proptest::collection::vec(arb_event(), 1..30),
        delta in any::<bool>(),
    ) {
        let encoding = if delta { PackEncoding::Delta } else { PackEncoding::Fixed };
        let plain = EventPack::new(7, 1, 0, events).encode_with(encoding);
        if let Ok(out) = decompress(&plain, 1 << 20) {
            prop_assert!(out.len() <= 1 << 20);
        }
    }
}

proptest! {
    // Each case decodes every truncation and 256 mutations per byte.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The word-loading Delta decoder against the bytewise reference: on
    /// a valid pack, on every truncation of it and on every value of
    /// every single byte, both return the same events or the same typed
    /// error.
    #[test]
    fn delta_decoder_matches_the_reference(
        events in proptest::collection::vec(
            prop_oneof![arb_event(), arb_steady_event(), arb_extreme_event()], 1..8),
        rank in any::<u32>(),
    ) {
        let enc = EventPack::new(1, rank, 3, events).encode_with(PackEncoding::Delta).to_vec();
        let agree = |data: &[u8]| {
            if let Some(expected) = reference::decode_pack(data) {
                prop_assert_eq!(library_decode(data), expected, "on {:?}", data);
            }
        };
        prop_assert!(reference::decode_pack(&enc).is_some_and(|r| r.is_ok()));
        for cut in 0..=enc.len() {
            agree(&enc[..cut]);
        }
        let mut mutated = enc.clone();
        for at in 0..enc.len() {
            for value in 0..=u8::MAX {
                mutated[at] = value;
                agree(&mutated);
            }
            mutated[at] = enc[at];
        }
    }
}
