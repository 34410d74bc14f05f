//! Hostile bytes at every public decoder: one table, one check.
//!
//! `opmr::events::wire::check_decoder` feeds each decoder every strict
//! prefix and every single-byte mutation of a well-formed message and
//! asserts no panic, a typed error for a cut inside the fixed part, and —
//! through the counting allocator below — that no decode makes a single
//! allocation out of proportion to its input (the "count from the wire
//! sizes a `Vec`" bug class). The socket handshake codecs are private to
//! `opmr-runtime`; its unit tests run the same function over them.
//!
//! Its own test binary with one test: the allocator is process-wide.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use bytes::Bytes;
use opmr::analysis::waitstate::{RecvSide, SendSide, WaitStats};
use opmr::analysis::wire::{self, AppPartial};
use opmr::analysis::{MpiProfile, Topology};
use opmr::events::recording::{parse_sion, parse_trace};
use opmr::events::wire::{check_decoder, note_alloc, Reader};
use opmr::events::{frame, Event, EventKind, EventPack, FrameBuf, PackEncoding};
use opmr::metrics::MetricsSeries;
use opmr::reduce::{decode_partial_set, encode_partial_set, ReducePartial};
use opmr::runtime::collectives::{pack_parts, unpack_parts};
use opmr::serve::{apply_delta, delta_versions, encode_delta};
use std::alloc::{GlobalAlloc, Layout, System};

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; `note_alloc`
// touches one const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn events(n: u64) -> Vec<Event> {
    (0..n)
        .map(|i| Event {
            time_ns: i * 700,
            duration_ns: 40 + i % 7,
            kind: [EventKind::Send, EventKind::Recv, EventKind::Wait][(i % 3) as usize],
            rank: (i % 4) as u32,
            peer: ((i + 1) % 4) as i32,
            tag: (i % 2) as i32,
            comm: 0,
            bytes: 64 * (i % 5),
        })
        .collect()
}

fn waitstats() -> WaitStats {
    let mut w = WaitStats {
        matched: 9,
        unmatched: 1,
        total_late_sender_ns: 500,
        total_late_receiver_ns: 70,
        ..WaitStats::default()
    };
    w.late_sender_by_victim.insert(3, 500);
    w.late_sender_by_culprit.insert(1, 500);
    w.late_receiver_by_victim.insert(2, 70);
    let side = SendSide {
        start_ns: 5,
        end_ns: 9,
        bytes: 64,
    };
    w.pending_sends.push((0, 1, side));
    w.pending_recvs.push((1, 0, RecvSide { start_ns: 7 }));
    w
}

/// One application with every optional section present.
fn app(app_id: u16, n_events: u64) -> AppPartial {
    let events = events(n_events);
    let mut profile = MpiProfile::new();
    let mut topology = Topology::new();
    let mut metrics = MetricsSeries::new(1000);
    for e in &events {
        profile.add(e);
        topology.add(e);
        metrics.add(e);
    }
    AppPartial {
        app_id,
        packs: 3,
        wire_bytes: 4096,
        decode_errors: 0,
        profile,
        topology,
        waitstate: Some(waitstats()),
        metrics: Some(metrics),
    }
}

fn reduce_partial(app_id: u16) -> ReducePartial {
    let a = app(app_id, 30);
    let mut p = ReducePartial::new(app_id);
    for r in 0..4 {
        p.density.add_events(r, 7 + r as u64);
    }
    p.packs = a.packs;
    p.profile = a.profile;
    p.topology = a.topology;
    p.waitstate = a.waitstate;
    p.metrics = a.metrics;
    p
}

#[test]
fn every_public_decoder_survives_hostile_bytes() {
    // ---- events: packs in both encodings, frame reassembly.
    let pack = EventPack::new(2, 3, 99, events(40));
    for encoding in [PackEncoding::Fixed, PackEncoding::Delta] {
        let wire = pack.encode_with(encoding);
        // A pack is self-delimiting: no strict prefix decodes.
        check_decoder(
            &format!("EventPack::decode ({encoding})"),
            &wire,
            wire.len(),
            |b| EventPack::decode(b).is_ok(),
        );
    }
    // A cut frame is "not yet", not an error: only panics and allocations
    // are checked, plus that a damaged frame never pops as a payload.
    let payload: Vec<u8> = (0..200u8).collect();
    check_decoder("FrameBuf", &frame(&payload), 0, |b| {
        let mut fb = FrameBuf::new();
        fb.push(b);
        match fb.next_frame() {
            Ok(Some(got)) => {
                assert_eq!(&got[..], &payload[..], "a damaged frame was delivered");
                true
            }
            Ok(None) => true,
            Err(_) => false,
        }
    });

    // ---- analysis::wire: the component codecs and the snapshot layout.
    let a = app(3, 60);
    let mut buf = Vec::new();
    wire::encode_profile(&a.profile, &mut buf);
    check_decoder("decode_profile", &buf, buf.len(), |b| {
        wire::decode_profile(&mut Reader::new(b)).is_ok()
    });
    buf.clear();
    wire::encode_topology(&a.topology, &mut buf);
    check_decoder("decode_topology", &buf, buf.len(), |b| {
        wire::decode_topology(&mut Reader::new(b)).is_ok()
    });
    buf.clear();
    wire::encode_waitstats(&waitstats(), &mut buf);
    check_decoder("decode_waitstats", &buf, buf.len(), |b| {
        wire::decode_waitstats(&mut Reader::new(b)).is_ok()
    });
    buf.clear();
    wire::encode_app_body(&a, &mut buf);
    check_decoder("decode_app_body", &buf, buf.len(), |b| {
        wire::decode_app_body(3, &mut Reader::new(b)).is_ok()
    });
    let snapshot = wire::encode_partials(&[app(1, 20), a.clone()]);
    check_decoder("decode_partials", &snapshot, snapshot.len(), |b| {
        wire::decode_partials(b).is_ok()
    });

    // ---- metrics: a whole series and one window.
    let series = a.metrics.clone().unwrap();
    let image = series.encode();
    check_decoder("MetricsSeries::decode", &image, image.len(), |b| {
        MetricsSeries::decode(&mut Reader::new(b)).is_ok()
    });
    buf.clear();
    let (w, cells) = series.windows_from(0).next().unwrap();
    MetricsSeries::encode_window(w, cells, &mut buf);
    check_decoder("MetricsSeries::decode_window", &buf, buf.len(), |b| {
        MetricsSeries::decode_window(&mut Reader::new(b)).is_ok()
    });

    // ---- reduce: the partial set going up the tree.
    let set = encode_partial_set(&[reduce_partial(0), reduce_partial(3)]);
    check_decoder("decode_partial_set", &set, set.len(), |b| {
        decode_partial_set(b).is_ok()
    });

    // ---- serve: a delta carrying a sparse block and a full (new)
    // application.
    let from = vec![app(1, 40)];
    let to = vec![app(1, 55), app(4, 10)];
    let delta = encode_delta(6, &from, 7, &to).unwrap();
    check_decoder("apply_delta", &delta, delta.len(), |b| {
        apply_delta(&mut from.clone(), b).is_ok()
    });
    // The header alone answers `delta_versions`: magic, version, the two
    // snapshot versions and the app count.
    check_decoder("delta_versions", &delta, 24, |b| delta_versions(b).is_ok());

    // ---- runtime: the allgather payload. Every part is declared up
    // front, so no strict prefix decodes.
    let parts = [
        Bytes::from_static(b"alpha"),
        Bytes::new(),
        Bytes::from(vec![7u8; 100]),
    ];
    let packed = pack_parts(&parts);
    check_decoder("unpack_parts", &packed, packed.len(), |b| {
        unpack_parts(&Bytes::copy_from_slice(b)).is_ok()
    });

    // ---- instrument: the trace baselines read back from disk. A file cut
    // at a pack boundary is a shorter trace; the SION header is fixed.
    let packs = [
        pack.encode(),
        Bytes::new(),
        pack.encode_with(PackEncoding::Delta),
    ];
    let mut trace = Vec::new();
    for p in &packs {
        trace.extend_from_slice(&(p.len() as u32).to_le_bytes());
        trace.extend_from_slice(p);
    }
    check_decoder("parse_trace", &trace, 0, |b| parse_trace(b).is_ok());
    let mut sion = b"OPSN".to_vec();
    sion.extend_from_slice(&3u32.to_le_bytes());
    for (rank, p) in [2u32, 0, 2].iter().zip(&packs) {
        sion.extend_from_slice(&rank.to_le_bytes());
        sion.extend_from_slice(&(p.len() as u32).to_le_bytes());
        sion.extend_from_slice(p);
    }
    check_decoder("parse_sion", &sion, 8, |b| parse_sion(b).is_ok());
}
