//! The checked reader under every wire decoder in the workspace.
//!
//! Every format that crosses a partition boundary — pack headers, frames,
//! analysis partials, metric series, reduce partial sets, serve requests,
//! responses and deltas, the socket handshake — is little-endian and is
//! decoded through [`Reader`]: a cursor whose every read is bounds-checked
//! and returns [`Truncated`] instead of panicking or over-reading. Element
//! counts come from [`Reader::count`], which refuses a count the remaining
//! bytes cannot hold, so a decoder may size an allocation by it: memory
//! reserved while decoding is bounded by the bytes actually present.
//!
//! The per-event kernels (`codec::decode_event*`, `vint::read_uvarint`, the
//! LZ4 block codec) keep their own hand-tuned reads; encoders write
//! through plain [`bytes::BufMut`]. [`check_decoder`] is the one
//! hostile-input check every decoder's tests run.

/// A read ran past the end of the buffer: `need` bytes wanted, `have` left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    pub need: usize,
    pub have: usize,
}

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "truncated buffer: need {} bytes, have {}",
            self.need, self.have
        )
    }
}

impl std::error::Error for Truncated {}

/// Width of an element count on the wire.
#[derive(Debug, Clone, Copy)]
pub enum Width {
    U16,
    U32,
}

/// A bounds-checked little-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

macro_rules! read_le {
    ($($name:ident -> $ty:ty),+ $(,)?) => {
        $(
            #[inline]
            pub fn $name(&mut self) -> Result<$ty, Truncated> {
                self.array().map(<$ty>::from_le_bytes)
            }
        )+
    };
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let (head, tail) = self.buf.split_first_chunk::<N>().ok_or(Truncated {
            need: N,
            have: self.buf.len(),
        })?;
        self.buf = tail;
        Ok(*head)
    }

    read_le!(
        u8 -> u8,
        u16 -> u16,
        u32 -> u32,
        u64 -> u64,
        i32 -> i32,
        i64 -> i64,
    );

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if n > self.buf.len() {
            return Err(Truncated {
                need: n,
                have: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Everything not yet read; the reader is empty afterwards.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// Reads an element count and checks it with [`Reader::check_count`].
    #[inline]
    pub fn count(&mut self, width: Width, min_item_bytes: usize) -> Result<usize, Truncated> {
        let n = match width {
            Width::U16 => self.u16()? as usize,
            Width::U32 => self.u32()? as usize,
        };
        self.check_count(n, min_item_bytes)
    }

    /// Accepts `n` as a count of elements that each take at least
    /// `min_item_bytes` (≥ 1) on the wire only if the remaining bytes can
    /// hold that many — the one rule that keeps an allocation sized by a
    /// count from the wire bounded by the bytes present.
    #[inline]
    pub fn check_count(&self, n: usize, min_item_bytes: usize) -> Result<usize, Truncated> {
        match n.checked_mul(min_item_bytes) {
            Some(need) if need <= self.buf.len() => Ok(n),
            need => Err(Truncated {
                need: need.unwrap_or(usize::MAX),
                have: self.buf.len(),
            }),
        }
    }
}

// ---------------------------------------------------------------------
// The hostile-input check every decoder's tests call.
// ---------------------------------------------------------------------

thread_local! {
    /// Largest allocation [`note_alloc`] saw on this thread since
    /// [`check_decoder`] last reset it.
    static LARGEST_ALLOC: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Reports one allocation of `size` bytes made by the calling thread. A
/// test binary's counting `#[global_allocator]` calls this from `alloc`
/// and `realloc` (see `tests/wire_hostile.rs`); without one,
/// [`check_decoder`]'s allocation bound is vacuous and it checks panics
/// and typed errors only.
pub fn note_alloc(size: usize) {
    // `try_with`: allocations during thread teardown have nowhere to report.
    let _ = LARGEST_ALLOC.try_with(|l| l.set(l.get().max(size)));
}

/// Test support: asserts that `decode` (returns whether it decoded)
/// survives hostile variants of the well-formed message `valid`. Every
/// strict prefix and every single-byte mutation must return without
/// panicking; a prefix shorter than `fixed_len` — the part of the message
/// no well-formed instance can lack — must be an error; and no decode may
/// make a single allocation above `64 × input length + 4 KiB`, which is
/// what a count from the wire sizing a `Vec` unchecked does.
pub fn check_decoder(what: &str, valid: &[u8], fixed_len: usize, decode: impl Fn(&[u8]) -> bool) {
    let bounded = |input: &[u8]| {
        LARGEST_ALLOC.with(|l| l.set(0));
        let ok = decode(input);
        let largest = LARGEST_ALLOC.with(|l| l.get());
        assert!(
            largest <= 64 * input.len() + 4096,
            "{what}: one allocation of {largest} B while decoding {} B",
            input.len()
        );
        ok
    };
    assert!(bounded(valid), "{what}: the well-formed message is refused");
    for cut in 0..valid.len() {
        let ok = bounded(&valid[..cut]);
        assert!(
            !ok || cut >= fixed_len,
            "{what}: decoded from {cut} of its {fixed_len} fixed bytes"
        );
    }
    let mut mutated = valid.to_vec();
    for at in 0..valid.len() {
        for flip in [0x01, 0x80, 0xFF] {
            mutated[at] = valid[at] ^ flip;
            bounded(&mutated);
        }
        mutated[at] = valid[at];
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn reads_are_little_endian_and_advance() {
        let bytes = [
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0xFF, 0xFF, 0xFF, 0xFF, 9, 8, 7,
        ];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(0x01));
        assert_eq!(r.u16(), Ok(0x0302));
        assert_eq!(r.u32(), Ok(0x0706_0504));
        assert_eq!(r.i32(), Ok(-1));
        assert_eq!(r.bytes(2), Ok(&[9u8, 8][..]));
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.rest(), &[7]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn a_short_read_is_typed_and_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(Truncated { need: 4, have: 3 }));
        assert_eq!(r.u64(), Err(Truncated { need: 8, have: 3 }));
        assert_eq!(r.i64(), Err(Truncated { need: 8, have: 3 }));
        assert_eq!(r.bytes(4), Err(Truncated { need: 4, have: 3 }));
        assert_eq!(r.bytes(3), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.u8(), Err(Truncated { need: 1, have: 0 }));
    }

    #[test]
    fn a_count_the_bytes_cannot_hold_is_refused() {
        // u16 count of 3 twelve-byte items with 36 bytes behind it: held.
        let mut wire = vec![3, 0];
        wire.extend_from_slice(&[0; 36]);
        assert_eq!(Reader::new(&wire).count(Width::U16, 12), Ok(3));
        // One byte short.
        assert_eq!(
            Reader::new(&wire[..37]).count(Width::U16, 12),
            Err(Truncated { need: 36, have: 35 })
        );
        // The hostile case: four bytes claiming 2³² − 1 elements.
        let lying = u32::MAX.to_le_bytes();
        let err = Reader::new(&lying).count(Width::U32, 504).unwrap_err();
        assert_eq!(err.have, 0);
        // A product that overflows `usize` is refused, not wrapped.
        assert!(Reader::new(&[0; 64])
            .check_count(usize::MAX / 2, 4)
            .is_err());
        assert_eq!(Reader::new(&[]).count(Width::U32, 1).unwrap_err().need, 4);
    }
}
