//! The link's frame kinds and their codecs. Every message is an
//! `opmr-events` frame (`[len u32][fnv1a32 u32][payload]`); payload byte
//! 0 is the kind.

use crate::envelope::{Context, Envelope, EnvelopeHeader};
use crate::CommId;
use bytes::{BufMut, Bytes, BytesMut};
use opmr_events::frame::fnv1a32;
use opmr_events::wire::{Reader, Truncated, Width};
use opmr_events::MAX_FRAME_LEN;

const MAGIC: u32 = 0x4F50_4D52; // "OPMR"
/// The one protocol version spoken. Any other version in a hello or a
/// link presentation is a typed rejection. Version 5: every pairwise
/// link comes up by a `K_RECONN` presentation from frame 0.
const VERSION: u16 = 5;

const K_HELLO: u8 = 1;
pub(super) const K_ENVELOPE: u8 = 2;
pub(super) const K_RANK_DONE: u8 = 3;
pub(super) const K_SHUTDOWN: u8 = 4;
pub(super) const K_PROC_DONE: u8 = 5;
const K_ROSTER: u8 = 6;
pub(super) const K_ACK: u8 = 7;
const K_RECONN: u8 = 8;
pub(super) const K_RECONN_OK: u8 = 9;
pub(super) const K_RECONN_NAK: u8 = 10;

/// `K_RECONN_NAK` reason codes.
pub(super) const NAK_STALE_EPOCH: u8 = 1;
pub(super) const NAK_UNKNOWN_LINK: u8 = 2;
pub(super) const NAK_LINK_LOST: u8 = 3;
pub(super) const NAK_BUSY: u8 = 4;

/// `[len u32][fnv1a32 u32]` ahead of every frame payload.
const FRAME_HEAD: usize = 8;
/// `[kind][ctx u8][tag i32][comm u64][src_local u32][src_world u32][dst u32]`.
const ENVELOPE_HEAD: usize = 26;
/// The largest envelope payload a link frame can carry.
pub(super) const MAX_ENVELOPE_PAYLOAD: usize = MAX_FRAME_LEN - ENVELOPE_HEAD;

fn ctx_to_u8(c: Context) -> u8 {
    match c {
        Context::Pt2pt => 0,
        Context::Coll => 1,
        Context::Stream => 2,
    }
}

fn ctx_from_u8(b: u8) -> Option<Context> {
    match b {
        0 => Some(Context::Pt2pt),
        1 => Some(Context::Coll),
        2 => Some(Context::Stream),
        _ => None,
    }
}

/// `[kind][ctx u8][tag i32][comm u64][src_local u32][src_world u32][dst u32][payload]`,
/// encoded straight into its link frame: the payload is copied once and
/// checksummed once, and the same bytes go out on send and on every
/// retransmit. `None` when the payload exceeds [`MAX_ENVELOPE_PAYLOAD`].
pub(super) fn envelope_frame(dst_world: usize, env: &Envelope) -> Option<Bytes> {
    if env.payload.len() > MAX_ENVELOPE_PAYLOAD {
        return None;
    }
    let h = &env.header;
    let len = ENVELOPE_HEAD + env.payload.len();
    let mut out = BytesMut::with_capacity(FRAME_HEAD + len);
    out.put_u32_le(len as u32);
    out.put_u32_le(0); // checksum, filled in below
    out.put_u8(K_ENVELOPE);
    out.put_u8(ctx_to_u8(h.ctx));
    out.put_i32_le(h.tag);
    out.put_u64_le(h.comm.0);
    out.put_u32_le(h.src_local as u32);
    out.put_u32_le(h.src_world as u32);
    out.put_u32_le(dst_world as u32);
    out.put_slice(&env.payload);
    let sum = fnv1a32(&out[FRAME_HEAD..]);
    out[4..FRAME_HEAD].copy_from_slice(&sum.to_le_bytes());
    Some(out.freeze())
}

pub(super) fn decode_envelope(p: &Bytes) -> Option<(usize, Envelope)> {
    let mut r = Reader::new(p);
    // The kind byte was matched by the caller.
    let _kind = r.u8().ok()?;
    let ctx = ctx_from_u8(r.u8().ok()?)?;
    let tag = r.i32().ok()?;
    let comm = r.u64().ok()?;
    let src_local = r.u32().ok()? as usize;
    let src_world = r.u32().ok()? as usize;
    let dst_world = r.u32().ok()? as usize;
    Some((
        dst_world,
        Envelope {
            header: EnvelopeHeader {
                ctx,
                comm: CommId(comm),
                src_local,
                src_world,
                tag,
            },
            payload: p.slice(p.len() - r.remaining()..),
        },
    ))
}

/// Why a hello or a link presentation was turned away.
#[derive(Debug)]
pub(super) struct HelloReject(pub(super) String);

impl From<Truncated> for HelloReject {
    fn from(_: Truncated) -> HelloReject {
        HelloReject("truncated handshake frame".to_string())
    }
}

impl std::fmt::Display for HelloReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// `[kind][magic u32][version u16]`, shared by a hello and a presentation.
fn put_head(out: &mut Vec<u8>, kind: u8) {
    out.push(kind);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
}

/// Reads and checks the head [`put_head`] writes.
fn check_head(r: &mut Reader<'_>, kind: u8) -> Result<(), HelloReject> {
    let got = r.u8()?;
    if got != kind {
        return Err(HelloReject(format!(
            "expected frame kind {kind}, got {got}"
        )));
    }
    if r.u32()? != MAGIC {
        return Err(HelloReject("bad protocol magic".to_string()));
    }
    match r.u16()? {
        VERSION => Ok(()),
        v => Err(HelloReject(format!("unsupported protocol version {v}"))),
    }
}

/// `[kind][magic u32][version u16][proc u16][topo_hash u64][addr]`
pub(super) fn encode_hello(proc_index: usize, topo_hash: u64, listen_addr: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(17 + listen_addr.len());
    put_head(&mut out, K_HELLO);
    out.extend_from_slice(&(proc_index as u16).to_le_bytes());
    out.extend_from_slice(&topo_hash.to_le_bytes());
    out.extend_from_slice(listen_addr.as_bytes());
    out
}

/// Returns `(proc_index, listen_addr)` or why not.
pub(super) fn decode_hello(p: &[u8], expect_hash: u64) -> Result<(usize, String), HelloReject> {
    let mut r = Reader::new(p);
    check_head(&mut r, K_HELLO)?;
    let proc = r.u16()? as usize;
    let hash = r.u64()?;
    if hash != expect_hash {
        return Err(HelloReject(format!(
            "topology mismatch (peer {hash:#018x}, local {expect_hash:#018x})"
        )));
    }
    let addr = String::from_utf8_lossy(r.rest()).into_owned();
    Ok((proc, addr))
}

/// `[kind][epoch u64][n u16]([len u16][addr bytes])*`
pub(super) fn encode_roster(epoch: u64, addrs: &[String]) -> Vec<u8> {
    let mut out = vec![K_ROSTER];
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(addrs.len() as u16).to_le_bytes());
    for a in addrs {
        out.extend_from_slice(&(a.len() as u16).to_le_bytes());
        out.extend_from_slice(a.as_bytes());
    }
    out
}

pub(super) fn decode_roster(p: &[u8]) -> Option<(u64, Vec<String>)> {
    let mut r = Reader::new(p);
    if r.u8().ok()? != K_ROSTER {
        return None;
    }
    let epoch = r.u64().ok()?;
    // No entry is shorter than its length prefix.
    let n = r.count(Width::U16, 2).ok()?;
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.u16().ok()? as usize;
        addrs.push(String::from_utf8_lossy(r.bytes(len).ok()?).into_owned());
    }
    Some((epoch, addrs))
}

/// `[kind][magic u32][version u16][proc u16][epoch u64][rx_seq u64]`:
/// the dialing side of a link presents the session epoch and how many
/// data frames it has received on the link so far (0 on a first
/// connection).
pub(super) fn encode_reconn(proc_index: usize, epoch: u64, rx_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(25);
    put_head(&mut out, K_RECONN);
    out.extend_from_slice(&(proc_index as u16).to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&rx_seq.to_le_bytes());
    out
}

/// Returns `(proc_index, epoch, rx_seq)` or why not.
pub(super) fn decode_reconn(p: &[u8]) -> Result<(usize, u64, u64), HelloReject> {
    let mut r = Reader::new(p);
    check_head(&mut r, K_RECONN)?;
    Ok((r.u16()? as usize, r.u64()?, r.u64()?))
}

/// `[kind][u64]`: a reconnect-ok (the acceptor's received count) or an
/// ack (cumulative data frames received on the link).
pub(super) fn encode_count(kind: u8, n: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(kind);
    out.extend_from_slice(&n.to_le_bytes());
    out
}

pub(super) fn decode_count(kind: u8, p: &[u8]) -> Option<u64> {
    let mut r = Reader::new(p);
    if r.u8().ok()? != kind {
        return None;
    }
    r.u64().ok()
}

/// `[kind][world_rank u32]`: the rank finished; ordered after its envelopes.
pub(super) fn encode_rank_done(world_rank: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.push(K_RANK_DONE);
    out.extend_from_slice(&(world_rank as u32).to_le_bytes());
    out
}

pub(super) fn decode_rank_done(p: &[u8]) -> Option<usize> {
    let mut r = Reader::new(p);
    if r.u8().ok()? != K_RANK_DONE {
        return None;
    }
    Some(r.u32().ok()? as usize)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
    use super::*;
    use crate::mailbox::make_envelope;
    use opmr_events::FrameBuf;

    fn envelope(payload_len: usize) -> Envelope {
        make_envelope(
            Context::Stream,
            CommId(0xDEAD_BEEF_0042),
            3,
            7,
            0x0500_0001,
            Bytes::from(vec![9u8; payload_len]),
        )
    }

    /// An envelope frame is a well-formed link frame: it reassembles,
    /// passes its checksum and decodes back to the envelope.
    #[test]
    fn envelope_frame_roundtrips_through_the_frame_reader() {
        let env = envelope(300);
        let mut fb = FrameBuf::new();
        fb.push(&envelope_frame(11, &env).unwrap());
        let payload = fb.next_frame().unwrap().unwrap();
        let (dst, back) = decode_envelope(&payload).unwrap();
        assert_eq!(dst, 11);
        assert_eq!(back.header, env.header);
        assert_eq!(back.payload, env.payload);
        assert_eq!(fb.residual(), 0);
    }

    /// The private handshake and envelope decoders under the workspace's
    /// one hostile-input check (`tests/wire_hostile.rs` runs the public
    /// decoders through the same function).
    #[test]
    fn socket_decoders_survive_hostile_bytes() {
        use opmr_events::wire::check_decoder;
        let env = make_envelope(
            Context::Coll,
            CommId(7),
            1,
            2,
            -3,
            Bytes::from(vec![5u8; 40]),
        );
        let framed = envelope_frame(11, &env).unwrap();
        check_decoder("decode_envelope", &framed[FRAME_HEAD..], 26, |b| {
            decode_envelope(&Bytes::copy_from_slice(b)).is_some()
        });
        let hello = encode_hello(3, 0xABCD, "unix:/tmp/x");
        check_decoder("decode_hello", &hello, 17, |b| {
            decode_hello(b, 0xABCD).is_ok()
        });
        let addrs = ["tcp:127.0.0.1:9000".to_string(), String::new()];
        let roster = encode_roster(0xFEED, &addrs);
        check_decoder("decode_roster", &roster, roster.len(), |b| {
            decode_roster(b).is_some()
        });
        check_decoder("decode_reconn", &encode_reconn(5, 0xE90C4, 1234), 25, |b| {
            decode_reconn(b).is_ok()
        });
        for kind in [K_RECONN_OK, K_ACK] {
            check_decoder("decode_count", &encode_count(kind, 987), 9, |b| {
                decode_count(kind, b).is_some()
            });
        }
        check_decoder("decode_rank_done", &encode_rank_done(6), 5, |b| {
            decode_rank_done(b).is_some()
        });
    }

    #[test]
    fn context_codes_are_stable() {
        for ctx in [Context::Pt2pt, Context::Coll, Context::Stream] {
            assert_eq!(ctx_from_u8(ctx_to_u8(ctx)), Some(ctx));
        }
        assert_eq!(ctx_from_u8(9), None);
    }

    #[test]
    fn hello_roundtrip_and_validation() {
        let wire = encode_hello(3, 0xABCD, "unix:/tmp/x");
        let (proc, addr) = decode_hello(&wire, 0xABCD).unwrap();
        assert_eq!((proc, addr.as_str()), (3, "unix:/tmp/x"));
        // Wrong topology hash is rejected with a description.
        let err = decode_hello(&wire, 0x1234).unwrap_err().to_string();
        assert!(err.contains("topology mismatch"), "{err}");
        // Garbage is rejected, not mis-decoded.
        assert!(decode_hello(b"\x01nonsense....................", 0xABCD).is_err());
    }

    /// Handshake frames of the retired versions 2, 3 and 4 are typed
    /// rejections, not peers on a compatibility path.
    #[test]
    fn retired_hello_and_reconnect_versions_are_typed_rejections() {
        for version in [2u16, 3, 4] {
            let mut hello = encode_hello(2, 0xABCD, "unix:/tmp/legacy");
            hello[5..7].copy_from_slice(&version.to_le_bytes());
            let err = decode_hello(&hello, 0xABCD).unwrap_err();
            assert!(
                err.to_string().contains(&format!("version {version}")),
                "{err}"
            );

            let mut reconn = encode_reconn(5, 0xE90C4, 1234);
            reconn[5..7].copy_from_slice(&version.to_le_bytes());
            let err = decode_reconn(&reconn).unwrap_err();
            assert!(
                err.to_string().contains(&format!("version {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn roster_roundtrips_with_epoch() {
        let addrs = vec![
            "tcp:127.0.0.1:9000".to_string(),
            String::new(),
            "unix:/tmp/a.sock".to_string(),
        ];
        let wire = encode_roster(0xFEED_F00D, &addrs);
        assert_eq!(decode_roster(&wire).unwrap(), (0xFEED_F00D, addrs.clone()));
        assert_eq!(decode_roster(b"\x07junk"), None);
        let mut cut = encode_roster(7, &addrs);
        cut.pop();
        assert_eq!(decode_roster(&cut), None);
    }

    #[test]
    fn reconn_frames_roundtrip_and_validate() {
        let wire = encode_reconn(5, 0xE90C4, 1234);
        assert_eq!(decode_reconn(&wire).unwrap(), (5, 0xE90C4, 1234));
        // Garbage magic is rejected with a description.
        let mut bad = encode_reconn(5, 1, 2);
        bad[1] ^= 0xFF;
        let err = decode_reconn(&bad).unwrap_err().to_string();
        assert!(err.contains("magic"), "{err}");
        let ok = encode_count(K_RECONN_OK, 987);
        assert_eq!(decode_count(K_RECONN_OK, &ok), Some(987));
        assert_eq!(decode_count(K_ACK, &ok), None, "the kind is checked");
        assert_eq!(decode_count(K_RECONN_OK, b"\x09abc"), None);

        assert_eq!(decode_count(K_ACK, &encode_count(K_ACK, 42)), Some(42));
        assert_eq!(decode_rank_done(&encode_rank_done(6)), Some(6));
        assert_eq!(decode_rank_done(b"\x03ab"), None);
    }
}
