//! Length-prefixed, checksummed framing for records travelling over
//! block streams.
//!
//! Byte streams deliver chunks whose boundaries do not follow record
//! boundaries: VMPI stream blocks depend on the writer's flush pattern,
//! socket reads on the kernel. The two record protocols on them — the
//! socket link's frames and the reduction overlay's partial sets going up
//! the TBON — therefore length-prefix each record with [`frame`] and
//! reassemble per source with [`FrameBuf`]. One framing implementation,
//! shared by both.
//!
//! # Wire format
//!
//! `[len: u32 LE][fnv1a32(payload): u32 LE][payload]`
//!
//! The checksum turns byte corruption into a typed
//! [`FrameError::Corrupt`] instead of a downstream decode failure (or,
//! worse, a silently wrong record). A length field above
//! [`MAX_FRAME_LEN`] is rejected as [`FrameError::Oversize`] *before* the
//! reassembly buffer would try to accumulate it, so a corrupted length
//! cannot make the reader buffer gigabytes waiting for a frame that will
//! never complete. Both errors poison the [`FrameBuf`]: framing has no
//! resynchronization marker, so after a corrupt header every later byte
//! offset is suspect and the stream must be torn down. The transport
//! underneath is reliable and non-overtaking (the socket link recovers a
//! severed connection itself), so a poisoned buffer means real
//! corruption, not loss.

use crate::wire::Reader;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Hard upper bound on a single frame payload. Big enough for any merged
/// partial set or socket envelope this workspace produces (full blocks
/// are ~1 MiB), small enough to reject corrupt lengths immediately.
pub const MAX_FRAME_LEN: usize = 1 << 28;

const HDR: usize = 8;

/// Typed framing failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length field exceeds [`MAX_FRAME_LEN`] — a corrupt or hostile
    /// header.
    Oversize { len: u64, max: usize },
    /// The payload failed its checksum.
    Corrupt { expected: u32, found: u32 },
    /// A payload handed to [`try_frame`] is too large to ever be read
    /// back (it would exceed [`MAX_FRAME_LEN`] on the wire).
    TooLarge { len: usize, max: usize },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            FrameError::Corrupt { expected, found } => {
                write!(
                    f,
                    "frame checksum mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds maximum {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a, 32-bit: tiny, dependency-free, adequate for detecting the
/// random corruption the chaos harness injects (this is an integrity
/// check, not an authenticity one).
pub fn fnv1a32(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Length-prefixes and checksums a payload for transport over a byte
/// stream whose block boundaries the encoding cannot rely on.
///
/// Returns [`FrameError::TooLarge`] when the payload exceeds
/// [`MAX_FRAME_LEN`] — a frame that big could never be read back. Use
/// this variant whenever the payload size is data-driven (merged partial
/// sets, snapshot responses).
pub fn try_frame(payload: &[u8]) -> Result<Bytes, FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge {
            len: payload.len(),
            max: MAX_FRAME_LEN,
        });
    }
    let mut out = BytesMut::with_capacity(HDR + payload.len());
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(fnv1a32(payload));
    out.put_slice(payload);
    Ok(out.freeze())
}

/// Infallible framing for payloads whose size the caller bounds itself.
///
/// Panics if the payload exceeds [`MAX_FRAME_LEN`] — producing an
/// unreadable frame is a programming error, not a runtime condition.
/// Prefer [`try_frame`] wherever the payload size is data-driven.
pub fn frame(payload: &[u8]) -> Bytes {
    match try_frame(payload) {
        Ok(b) => b,
        Err(e) => panic!("{e}"), // PANIC-OK: documented contract — caller bounds the size
    }
}

/// Per-source reassembly buffer for [`frame`]d records.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: BytesMut,
    poisoned: Option<FrameError>,
}

impl FrameBuf {
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends one received stream block.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.put_slice(chunk);
    }

    /// Pops the next complete frame payload.
    ///
    /// * `Ok(Some(payload))` — a complete, checksum-verified frame;
    /// * `Ok(None)` — no complete frame buffered yet;
    /// * `Err(_)` — corrupt header or payload. The error is sticky:
    ///   every later call returns it again, because a framing stream has
    ///   no resync point after a bad header.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        // A header or payload that has not fully arrived is "not yet".
        let mut r = Reader::new(&self.buf);
        let Ok(len) = r.u32() else {
            return Ok(None);
        };
        let len = len as usize;
        if len > MAX_FRAME_LEN {
            return Err(self.poison(FrameError::Oversize {
                len: len as u64,
                max: MAX_FRAME_LEN,
            }));
        }
        let (Ok(expected), Ok(payload)) = (r.u32(), r.bytes(len)) else {
            return Ok(None);
        };
        let found = fnv1a32(payload);
        if found != expected {
            return Err(self.poison(FrameError::Corrupt { expected, found }));
        }
        let mut record = self.buf.split_to(HDR + len).freeze();
        record.advance(HDR);
        Ok(Some(record))
    }

    fn poison(&mut self, e: FrameError) -> FrameError {
        self.poisoned = Some(e);
        e
    }

    /// Bytes buffered but not yet forming a complete frame.
    pub fn residual(&self) -> usize {
        self.buf.len()
    }

    /// The sticky error, if the buffer has seen one.
    pub fn poisoned(&self) -> Option<FrameError> {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_under_ragged_chunking() {
        let records: Vec<Vec<u8>> = (0..6usize)
            .map(|i| (0..i * 7 + 1).map(|b| (b * 31 + i) as u8).collect())
            .collect();
        let mut wire = BytesMut::new();
        for r in &records {
            wire.put_slice(&frame(r));
        }
        for chunk_len in [1, 3, 13, 64, wire.len()] {
            let mut fb = FrameBuf::new();
            let mut got: Vec<Bytes> = Vec::new();
            for chunk in wire.chunks(chunk_len) {
                fb.push(chunk);
                while let Some(payload) = fb.next_frame().unwrap() {
                    got.push(payload);
                }
            }
            assert_eq!(got.len(), records.len(), "chunk_len={chunk_len}");
            for (g, r) in got.iter().zip(&records) {
                assert_eq!(&g[..], &r[..]);
            }
            assert_eq!(fb.residual(), 0);
        }
    }

    #[test]
    fn empty_payload_frames_cleanly() {
        let f = frame(&[]);
        assert_eq!(f.len(), 8);
        let mut fb = FrameBuf::new();
        fb.push(&f);
        assert_eq!(fb.next_frame().unwrap().unwrap().len(), 0);
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn payload_corruption_is_typed_and_sticky() {
        let mut wire = BytesMut::new();
        wire.put_slice(&frame(b"hello frame"));
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        let mut fb = FrameBuf::new();
        fb.push(&wire);
        let err = fb.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::Corrupt { .. }));
        // Sticky: pushing a good frame afterwards cannot resurrect it.
        fb.push(&frame(b"good"));
        assert_eq!(fb.next_frame().unwrap_err(), err);
        assert_eq!(fb.poisoned(), Some(err));
    }

    #[test]
    fn oversize_length_is_rejected_before_buffering() {
        let mut wire = BytesMut::new();
        wire.put_u32_le(u32::MAX);
        wire.put_u32_le(0);
        let mut fb = FrameBuf::new();
        fb.push(&wire);
        assert!(matches!(
            fb.next_frame(),
            Err(FrameError::Oversize { len, .. }) if len == u32::MAX as u64
        ));
    }
}
