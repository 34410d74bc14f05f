//! LEB128 variable-length integers and zigzag signed mapping.
//!
//! The delta event codec (pack wire version 4) stores its hot fields —
//! time delta, duration, bytes — at lengths named in the row's lens byte;
//! only the rare fields, the peer, tag and rank deltas and the
//! communicator, stay varints here. (The LZ4 block header uses them too.)
//! Encoding is the usual base-128 little-endian scheme: seven payload bits
//! per byte, high bit set on every byte but the last; a `u64` therefore
//! takes at most [`MAX_UVARINT_LEN`] bytes. Signed values go through
//! [`zigzag`] first so small negative deltas stay short.

use crate::codec::CodecError;
use bytes::BufMut;

/// Longest encoding of a `u64` (10 × 7 bits ≥ 64 bits).
pub const MAX_UVARINT_LEN: usize = 10;

/// Writes `v` as a LEB128 varint at `dst[at..]` and returns the offset
/// just past it. The caller sizes `dst` for the worst case
/// ([`MAX_UVARINT_LEN`] bytes for an arbitrary `u64`).
#[inline]
pub fn write_uvarint(dst: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        dst[at] = (v as u8) | 0x80;
        at += 1;
        v >>= 7;
    }
    dst[at] = v as u8;
    at + 1
}

/// Appends `v` as a LEB128 varint (one append, whatever its length).
#[inline]
pub fn put_uvarint(out: &mut impl BufMut, v: u64) {
    let mut raw = [0u8; MAX_UVARINT_LEN];
    let len = write_uvarint(&mut raw, 0, v);
    out.put_slice(&raw[..len]);
}

/// Reads a LEB128 varint from the front of `*buf`, advancing it: a
/// wrapper over [`read_uvarint`].
#[inline]
pub fn get_uvarint(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut at = 0;
    let v = read_uvarint(buf, &mut at)?;
    *buf = buf.get(at..).unwrap_or_default();
    Ok(v)
}

/// Reads the LEB128 varint at `buf[*at..]` and moves `*at` just past it:
/// one `get` per byte, no re-slicing.
///
/// Fails with [`CodecError::Truncated`] when the slice ends inside a
/// varint and [`CodecError::VarintOverflow`] when the encoding spills past
/// 64 bits (an 11th byte, or a 10th byte carrying more than bit 63).
/// Non-canonical encodings up to 10 bytes (`0x80 0x00` for 0) decode.
#[inline(always)]
pub fn read_uvarint(buf: &[u8], at: &mut usize) -> Result<u64, CodecError> {
    let start = *at;
    let mut i = start;
    let mut v: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let Some(&byte) = buf.get(i) else {
            let have = buf.len().saturating_sub(start);
            return Err(CodecError::Truncated {
                need: have + 1,
                have,
            });
        };
        if i - start >= MAX_UVARINT_LEN {
            return Err(CodecError::VarintOverflow);
        }
        let payload = (byte & 0x7F) as u64;
        // The 10th byte may only carry the single remaining bit of a u64.
        if shift == 63 && payload > 1 {
            return Err(CodecError::VarintOverflow);
        }
        v |= payload << shift;
        i += 1;
        if byte & 0x80 == 0 {
            *at = i;
            return Ok(v);
        }
        shift += 7;
    }
}

/// Maps a signed value to an unsigned one with small absolute values
/// staying small: 0, -1, 1, -2 → 0, 1, 2, 3.
#[inline]
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use bytes::BytesMut;

    fn roundtrip(v: u64) -> (u64, usize) {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, v);
        let len = buf.len();
        let mut s: &[u8] = &buf;
        let got = get_uvarint(&mut s).unwrap();
        assert!(s.is_empty());
        (got, len)
    }

    #[test]
    fn uvarint_roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let (got, len) = roundtrip(v);
            assert_eq!(got, v);
            assert!(len <= MAX_UVARINT_LEN);
        }
        assert_eq!(roundtrip(u64::MAX).1, MAX_UVARINT_LEN);
        assert_eq!(roundtrip(0).1, 1);
    }

    #[test]
    fn truncated_uvarint_detected() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut s: &[u8] = &buf[..cut];
            assert!(matches!(
                get_uvarint(&mut s),
                Err(CodecError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn overlong_uvarint_rejected() {
        // 11 continuation bytes can never be a u64.
        let mut s: &[u8] = &[0x80u8; 11][..];
        assert_eq!(get_uvarint(&mut s), Err(CodecError::VarintOverflow));
        // 10 bytes whose last byte carries more than one bit overflows too.
        let mut over = vec![0xFFu8; 9];
        over.push(0x02);
        let mut s: &[u8] = &over;
        assert_eq!(get_uvarint(&mut s), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
