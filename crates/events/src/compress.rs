//! Dependency-free LZ4-class block compression.
//!
//! The stream layer optionally compresses whole blocks before framing.
//! The format is the classic byte-oriented LZ77 token scheme (greedy
//! hash-chain matcher, 64 KiB window), prefixed with the raw length:
//!
//! ```text
//! [raw_len: uvarint] [sequence]*
//! sequence: [token: u8] [lit_ext: u8*] [literals] [offset: u16 LE] [match_ext: u8*]
//! ```
//!
//! The token's high nibble is the literal run length, the low nibble the
//! match length minus [`MIN_MATCH`]; a nibble of 15 is extended by
//! 255-valued continuation bytes. The final sequence carries literals only
//! (the input simply ends after them — no offset follows). Matches copy
//! `offset` bytes back inside the *decompressed* output, so `offset == 1`
//! run-length-encodes a repeated byte.
//!
//! The decompressor trusts nothing: declared length is capped by the
//! caller, every read is bounds-checked, offsets must point inside the
//! bytes already produced, and the output must land exactly on the
//! declared length — each failure is a distinct typed [`CompressError`].

use crate::vint;
use bytes::{BufMut, BytesMut};

/// Shortest encodable match; shorter repeats are cheaper as literals.
pub const MIN_MATCH: usize = 4;
/// Match window: offsets are 16-bit, so 64 KiB back at most.
pub const MAX_OFFSET: usize = u16::MAX as usize;

const HASH_BITS: u32 = 13;
const NIL: u32 = u32::MAX;

/// Whether a stream writer compresses its blocks.
///
/// A writing stream's choice, not a negotiated one: each block it sends
/// carries its own LZ4 flag, so a reader decodes any mix of plain and
/// compressed frames without knowing the writer's setting. Nothing below
/// the stream compresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Compression {
    /// No compression: blocks travel verbatim.
    #[default]
    None,
    /// LZ4-class per-block compression.
    Lz4,
}

impl std::fmt::Display for Compression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Compression::None => write!(f, "none"),
            Compression::Lz4 => write!(f, "lz4"),
        }
    }
}

/// Decompression failures: every hostile or corrupt input maps to one of
/// these — the decompressor never panics and never over-allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// Input ended inside a token, literal run, offset or extension.
    Truncated,
    /// The declared raw length exceeds the caller's cap.
    DeclaredTooLarge { declared: u64, max: usize },
    /// A match reaches behind the start of the decompressed output.
    BadOffset { offset: usize, produced: usize },
    /// Output did not land exactly on the declared raw length.
    SizeMismatch { declared: usize, actual: usize },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed block truncated"),
            CompressError::DeclaredTooLarge { declared, max } => {
                write!(f, "declared raw length {declared} exceeds cap {max}")
            }
            CompressError::BadOffset { offset, produced } => {
                write!(
                    f,
                    "match offset {offset} with only {produced} bytes produced"
                )
            }
            CompressError::SizeMismatch { declared, actual } => {
                write!(f, "declared raw length {declared} but decoded {actual}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read_u32_at(data: &[u8], i: usize) -> u32 {
    // Callers guarantee i + 4 <= data.len(); the checked constructor keeps
    // the hot path branch-free for the optimizer while staying safe.
    match data.get(i..i + 4) {
        Some(w) => u32::from_le_bytes([w[0], w[1], w[2], w[3]]),
        None => 0,
    }
}

fn put_nibble_ext(out: &mut impl BufMut, mut v: usize) {
    // The nibble held min(v, 15); emit the remainder in 255-chunks.
    if v < 15 {
        return;
    }
    v -= 15;
    while v >= 255 {
        out.put_u8(255);
        v -= 255;
    }
    out.put_u8(v as u8);
}

fn emit_sequence(out: &mut impl BufMut, literals: &[u8], m: Option<(u16, usize)>) {
    let lit = literals.len();
    let ml = m.map(|(_, len)| len - MIN_MATCH).unwrap_or(0);
    let token = ((lit.min(15) as u8) << 4) | (ml.min(15) as u8);
    out.put_u8(token);
    put_nibble_ext(out, lit);
    out.put_slice(literals);
    if let Some((offset, _)) = m {
        out.put_u16_le(offset);
        put_nibble_ext(out, ml);
    }
}

/// Reusable compressor: the 32 KiB hash table is allocated once and kept
/// across blocks, so steady-state compression allocates nothing.
pub struct Lz4Encoder {
    table: Vec<u32>,
}

impl Default for Lz4Encoder {
    fn default() -> Self {
        Lz4Encoder::new()
    }
}

impl Lz4Encoder {
    /// Allocates the (reused) match table.
    pub fn new() -> Lz4Encoder {
        Lz4Encoder {
            table: vec![NIL; 1 << HASH_BITS],
        }
    }

    /// Appends the compressed form of `input` to `out`.
    ///
    /// Worst case (incompressible input) the output is the raw length
    /// prefix plus `input.len()` literal bytes plus one token byte per 270
    /// literals — bounded by [`max_compressed_len`].
    pub fn compress(&mut self, input: &[u8], out: &mut impl BufMut) {
        vint::put_uvarint(out, input.len() as u64);
        let n = input.len();
        // Too short to ever contain a match worth encoding.
        if n < MIN_MATCH + 4 {
            if n > 0 {
                emit_sequence(out, input, None);
            }
            return;
        }
        self.table.fill(NIL);
        let mut anchor = 0usize;
        let mut ip = 0usize;
        // Stop matching 4 bytes early so every u32 probe is in bounds.
        let limit = n - 4;
        while ip < limit {
            let v = read_u32_at(input, ip);
            let h = hash4(v);
            let cand = self.table[h];
            self.table[h] = ip as u32;
            let cand = cand as usize;
            if cand != NIL as usize && ip - cand <= MAX_OFFSET && read_u32_at(input, cand) == v {
                let mut mlen = MIN_MATCH;
                while ip + mlen < n && input[cand + mlen] == input[ip + mlen] {
                    mlen += 1;
                }
                emit_sequence(out, &input[anchor..ip], Some(((ip - cand) as u16, mlen)));
                ip += mlen;
                anchor = ip;
            } else {
                ip += 1;
            }
        }
        if anchor < n {
            emit_sequence(out, &input[anchor..], None);
        }
    }
}

/// Upper bound on [`Lz4Encoder::compress`] output for `raw_len` input
/// bytes: length prefix + literals + one token per ≤270-literal run.
pub const fn max_compressed_len(raw_len: usize) -> usize {
    vint::MAX_UVARINT_LEN + raw_len + raw_len / 255 + 2
}

fn get_ext(input: &[u8], pos: &mut usize) -> Result<usize, CompressError> {
    let mut v = 0usize;
    loop {
        let &b = input.get(*pos).ok_or(CompressError::Truncated)?;
        *pos += 1;
        v = v.saturating_add(b as usize);
        if b != 255 {
            return Ok(v);
        }
    }
}

/// Decompresses `input` (as produced by [`Lz4Encoder::compress`]) onto the
/// end of `out`, returning the number of raw bytes appended. `max_raw`
/// caps the declared length before any allocation happens.
pub fn decompress_into(
    input: &[u8],
    max_raw: usize,
    out: &mut BytesMut,
) -> Result<usize, CompressError> {
    let mut p: &[u8] = input;
    let declared = vint::get_uvarint(&mut p).map_err(|_| CompressError::Truncated)?;
    if declared > max_raw as u64 {
        return Err(CompressError::DeclaredTooLarge {
            declared,
            max: max_raw,
        });
    }
    let declared = declared as usize;
    let base = out.len();
    out.reserve(declared);
    let mut pos = 0usize;
    while pos < p.len() {
        let token = p[pos];
        pos += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            lit = lit.saturating_add(get_ext(p, &mut pos)?);
        }
        let lit_end = pos.saturating_add(lit);
        if lit_end > p.len() {
            return Err(CompressError::Truncated);
        }
        if out.len() - base + lit > declared {
            return Err(CompressError::SizeMismatch {
                declared,
                actual: out.len() - base + lit,
            });
        }
        out.put_slice(&p[pos..lit_end]);
        pos = lit_end;
        if pos == p.len() {
            break; // final, literals-only sequence
        }
        let off_bytes = p.get(pos..pos + 2).ok_or(CompressError::Truncated)?;
        let offset = u16::from_le_bytes([off_bytes[0], off_bytes[1]]) as usize;
        pos += 2;
        let mut mlen = (token & 0x0F) as usize;
        if mlen == 15 {
            mlen = mlen.saturating_add(get_ext(p, &mut pos)?);
        }
        mlen += MIN_MATCH;
        let produced = out.len() - base;
        if offset == 0 || offset > produced {
            return Err(CompressError::BadOffset { offset, produced });
        }
        if produced + mlen > declared {
            return Err(CompressError::SizeMismatch {
                declared,
                actual: produced + mlen,
            });
        }
        // Chunked back-copy: chunks never exceed the offset, so a chunk
        // never reads bytes it is itself writing (overlapping matches —
        // offset < length — replicate the pattern chunk by chunk).
        let mut remaining = mlen;
        let mut tmp = [0u8; 128];
        while remaining > 0 {
            let chunk = remaining.min(offset).min(tmp.len());
            let start = out.len() - offset;
            let src = out
                .get(start..start + chunk)
                .ok_or(CompressError::BadOffset {
                    offset,
                    produced: out.len() - base,
                })?;
            tmp[..chunk].copy_from_slice(src);
            out.put_slice(&tmp[..chunk]);
            remaining -= chunk;
        }
    }
    let actual = out.len() - base;
    if actual != declared {
        return Err(CompressError::SizeMismatch { declared, actual });
    }
    Ok(actual)
}

/// Convenience one-shot decompression into a fresh buffer.
pub fn decompress(input: &[u8], max_raw: usize) -> Result<BytesMut, CompressError> {
    let mut out = BytesMut::new();
    decompress_into(input, max_raw, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let mut enc = Lz4Encoder::new();
        let mut packed = BytesMut::new();
        enc.compress(data, &mut packed);
        assert!(packed.len() <= max_compressed_len(data.len()));
        let back = decompress(&packed, data.len()).unwrap();
        assert_eq!(&back[..], data);
        packed.len()
    }

    #[test]
    fn roundtrip_edge_shapes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
        roundtrip(&[0u8; 100_000]);
        roundtrip(b"abcdabcdabcdabcdabcdabcd");
        let mixed: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        roundtrip(&mixed);
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let data = vec![7u8; 1 << 16];
        let packed = roundtrip(&data);
        assert!(packed * 100 < data.len(), "{packed} vs {}", data.len());
    }

    #[test]
    fn incompressible_input_bounded() {
        // A seeded xorshift stream: no 4-byte repeats within the window to
        // speak of, so output stays within the documented bound.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let mut enc = Lz4Encoder::new();
        let mut packed = BytesMut::new();
        enc.compress(&data, &mut packed);
        assert!(packed.len() <= max_compressed_len(data.len()));
        let back = decompress(&packed, data.len()).unwrap();
        assert_eq!(&back[..], &data[..]);
    }

    #[test]
    fn declared_too_large_rejected() {
        let mut enc = Lz4Encoder::new();
        let mut packed = BytesMut::new();
        enc.compress(&[1u8; 1000], &mut packed);
        assert!(matches!(
            decompress(&packed, 999),
            Err(CompressError::DeclaredTooLarge { .. })
        ));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let data: Vec<u8> = (0..2000u32).flat_map(|i| (i / 7).to_le_bytes()).collect();
        let mut enc = Lz4Encoder::new();
        let mut packed = BytesMut::new();
        enc.compress(&data, &mut packed);
        for cut in 0..packed.len() {
            assert!(
                decompress(&packed[..cut], data.len()).is_err(),
                "cut at {cut} silently succeeded"
            );
        }
    }

    #[test]
    fn bad_offset_rejected() {
        // raw_len 8, then a token demanding a match before any output.
        let hostile = [8u8, 0x04, 1, 0, 0];
        assert!(matches!(
            decompress(&hostile, 64),
            Err(CompressError::BadOffset { .. })
        ));
    }

    #[test]
    fn size_mismatch_rejected() {
        // Declares 3 raw bytes but carries 4 literals.
        let hostile = [3u8, 0x40, b'a', b'b', b'c', b'd'];
        assert!(matches!(
            decompress(&hostile, 64),
            Err(CompressError::SizeMismatch { .. })
        ));
        // Declares 10 but the stream ends after 2.
        let hostile = [10u8, 0x20, b'a', b'b'];
        assert!(matches!(
            decompress(&hostile, 64),
            Err(CompressError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn mutated_blocks_never_panic() {
        let data: Vec<u8> = (0..512u32).flat_map(|i| (i % 11).to_le_bytes()).collect();
        let mut enc = Lz4Encoder::new();
        let mut packed = BytesMut::new();
        enc.compress(&data, &mut packed);
        for i in 0..packed.len() {
            for bit in 0..8 {
                let mut bad = packed.to_vec();
                bad[i] ^= 1 << bit;
                // Either decodes to *something* length-checked or errors;
                // must never panic or exceed the cap.
                if let Ok(out) = decompress(&bad, data.len()) {
                    assert!(out.len() <= data.len());
                }
            }
        }
    }
}
