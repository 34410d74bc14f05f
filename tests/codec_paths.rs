//! Acceptance for the compressed event hot path: every combination of
//! pack encoding (fixed / delta-varint) and block compression (none /
//! LZ4-class), over every transport shape, must produce a **byte
//! identical** analysis report — pinned by the timing-scrubbed
//! [`stable_digest`]. The chaos flavor additionally severs every busy
//! socket link mid-stream while the stream's blocks travel compressed,
//! proving the retransmit path resends bit-identical compressed frames.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;
use common::run_session_threads;

use opmr::analysis::report::stable_digest;
use opmr::core::{Coupling, Session, SessionBuilder};
use opmr::events::{Compression, PackEncoding};
use opmr::runtime::{Src, TagSel};

/// The seeded workload every run replays: a 4-rank ring with collectives
/// generating a deterministic event stream.
fn ring_session() -> SessionBuilder {
    Session::builder().analyzer_ranks(2).app("ring", 4, |imp| {
        let world = imp.comm_world();
        let (r, n) = (imp.rank(), imp.size());
        for round in 0..12 {
            let req = imp
                .isend(&world, (r + 1) % n, round, vec![r as u8; 1024])
                .expect("isend");
            imp.recv(&world, Src::Rank((r + n - 1) % n), TagSel::Tag(round))
                .expect("recv");
            imp.wait(req).expect("wait");
            if round % 4 == 0 {
                imp.barrier(&world).expect("barrier");
            }
        }
        imp.allreduce_sum(&world, &[r as u64]).expect("allreduce");
    })
}

/// Plain fixed-layout, delta-varint, and delta + LZ4 runs of the same
/// seeded workload: one digest. The encoding is a wire concern; if a
/// single event survives differently the digest moves.
#[test]
fn report_digest_is_identical_across_encodings_and_compression() {
    let plain = ring_session().run().expect("fixed/uncompressed session");
    let want = stable_digest(&plain.report);
    let ring_events = plain
        .report
        .apps
        .iter()
        .find(|a| a.name == "ring")
        .expect("ring chapter")
        .events;
    assert!(ring_events > 0, "workload must generate events");

    let delta = ring_session()
        .pack_encoding(PackEncoding::Delta)
        .run()
        .expect("delta session");
    assert_eq!(
        stable_digest(&delta.report),
        want,
        "delta-varint packs must decode to the identical analysis"
    );

    let compressed = ring_session()
        .pack_encoding(PackEncoding::Delta)
        .compression(Compression::Lz4)
        .run()
        .expect("delta+lz4 session");
    assert_eq!(
        stable_digest(&compressed.report),
        want,
        "block compression must be invisible to the analysis"
    );
}

/// The compressed hot path threads through the TBON overlay too: a
/// pass-through reduction tree carrying delta-encoded, LZ4-compressed
/// blocks delivers the byte-identical analysis of the plain direct run.
#[test]
fn compressed_tbon_passthrough_is_byte_identical() {
    let plain = ring_session().run().expect("direct session");
    let want = stable_digest(&plain.report);
    let tree = ring_session()
        .coupling(Coupling::Tbon { fanout: 2 })
        .pack_encoding(PackEncoding::Delta)
        .compression(Compression::Lz4)
        .run()
        .expect("compressed tbon session");
    assert_eq!(
        stable_digest(&tree.report),
        want,
        "the reduce tree must forward compressed delta packs losslessly"
    );
}

/// The compressed hot path actually moves fewer bytes: the stream layer's
/// `bytes_on_wire` counter grows by less than `bytes_logical` during a
/// compressed run (both grow equally when compression is off).
#[test]
fn compressed_stream_path_saves_wire_bytes() {
    let counter = |name: &str| opmr::obs::registry().counter(name).get();
    let logical0 = counter("vmpi_stream_bytes_logical_total");
    let wire0 = counter("vmpi_stream_bytes_on_wire_total");
    ring_session()
        .pack_encoding(PackEncoding::Delta)
        .compression(Compression::Lz4)
        .run()
        .expect("compressed session");
    let logical = counter("vmpi_stream_bytes_logical_total") - logical0;
    let wire = counter("vmpi_stream_bytes_on_wire_total") - wire0;
    assert!(logical > 0, "the session must stream event blocks");
    assert!(
        wire < logical,
        "lz4 must shave wire bytes (logical {logical}, wire {wire})"
    );
}

/// Chaos replay over the *compressed* socket path: every busy link is
/// severed once mid-stream while the stream's blocks travel
/// LZ4-compressed and packs are delta-encoded. The link retransmits the
/// exact compressed bytes, so the report digest cannot move a bit from
/// the plain in-process run.
#[test]
fn chaos_replay_over_compressed_socket_path_is_byte_identical() {
    let direct = ring_session().run().expect("in-process session");
    let want = stable_digest(&direct.report);

    let sock = run_session_threads(2, None, Some(5), || {
        ring_session()
            .pack_encoding(PackEncoding::Delta)
            .compression(Compression::Lz4)
    })
    .expect("compressed chaos session");

    assert_eq!(
        stable_digest(&sock.report),
        want,
        "chaos + compression must stay byte-identical to the plain run"
    );
}
