//! Acceptance for the compressed event hot path beyond the equivalence
//! oracle (`tests/replay.rs`, whose online column runs every catalogue
//! workload under every pack encoding and block compression, the TBON
//! pass-through included, to one digest): compression must save wire
//! bytes, and the chaos flavor severs every busy socket link mid-stream
//! while the stream's blocks travel compressed, proving the retransmit
//! path resends bit-identical compressed frames.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;
use common::run_session_threads;

use opmr::analysis::report::stable_digest;
use opmr::core::{Session, SessionBuilder};
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
