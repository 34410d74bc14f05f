//! Poison suite: malformed, truncated and hostile inputs driven through
//! the *real* pipeline end to end — raw `send_ctx` traffic on the
//! protocols' reserved tags, garbage stream blocks, corrupt frames and
//! injected rank errors. Every scenario asserts two things:
//!
//! 1. The failure surfaces as a **typed error** (a [`VmpiError`] variant,
//!    a [`FrameError`], a counted `decode_errors`, or a
//!    `FailureKind::Errored` entry in [`LaunchError`]) — never a panic.
//!    Run with `RUST_BACKTRACE=1`: a panic anywhere fails the launcher
//!    with `FailureKind::Panicked`, which every test rejects via
//!    `any_panicked()` or by unwrapping a clean outcome.
//! 2. **Healthy ranks keep progressing**: honest peers in the same run
//!    complete their mapping, drain their streams, or finish their
//!    analysis with correct results despite the hostile participant.
//!
//! The hostile ranks speak the real protocols over the real transport by
//! recomputing the reserved tag spaces (`0x0400_0000 | master_pid << 12 |
//! slave_pid` for the map pivot, `0x0500_0000 | stream_id` for stream
//! data), exactly as a corrupted or malicious peer process would.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;

use opmr::analysis::{AnalysisEngine, EngineConfig};
use opmr::events::{try_frame, Event, EventKind, EventPack, FrameBuf, FrameError};
use opmr::runtime::{Context, FailureKind, Launcher, RankFailure, Src, TagSel};
use opmr::vmpi::map::map_partitions_directed;
use opmr::vmpi::{
    Map, MapPolicy, ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError, WriteStream,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The map protocol's reserved tag (see `crates/vmpi/src/map.rs`).
fn map_tag(master_pid: i32, slave_pid: i32) -> i32 {
    0x0400_0000 | (master_pid << 12) | slave_pid
}

/// The stream plane's reserved tag (see `crates/vmpi/src/stream.rs`).
fn stream_tag(stream_id: u16) -> i32 {
    0x0500_0000 | stream_id as i32
}

fn cfg() -> StreamConfig {
    // Every blocking read in this file carries a deadline so a liveness
    // bug fails the test instead of hanging the suite.
    StreamConfig::default().with_read_timeout(Duration::from_secs(10))
}

// ---------------------------------------------------------------------
// Scenario 1: a truncated pivot registration becomes an Errored rank
// failure in LaunchError — the process survives, nothing panics. Runs on
// both backends: over the socket mesh the 3 hostile bytes cross a real
// wire into another "process".
// ---------------------------------------------------------------------
fn truncated_registration_job() -> Launcher {
    Launcher::new()
        .partition("hostile", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let master = v.partition(1).unwrap().clone();
            // 3 bytes instead of one u64 world rank.
            v.mpi()
                .send_ctx(
                    Context::Stream,
                    &v.comm_universe(),
                    master.root_world_rank(),
                    map_tag(1, 0),
                    vec![0u8; 3],
                )
                .unwrap();
        })
        .partition_try("analyzer", 1, move |mpi| {
            let v = Vmpi::new(mpi)?;
            let mut map = Map::new();
            map_partitions_directed(&v, 0, 1, MapPolicy::RoundRobin, &mut map)?;
            Ok(())
        })
}

fn assert_truncated_registration_failures(failures: &[RankFailure]) {
    assert!(
        failures.iter().all(|f| f.kind != FailureKind::Panicked),
        "typed error paths must not unwind: {failures:?}"
    );
    assert_eq!(
        failures.len(),
        1,
        "only the decoding rank fails: {failures:?}"
    );
    let f = &failures[0];
    assert_eq!(f.partition, "analyzer");
    assert_eq!(f.kind, FailureKind::Errored);
    assert!(
        f.message.contains("malformed pivot message") && f.message.contains("3 bytes"),
        "failure carries the typed error's rendering: {}",
        f.message
    );
}

#[test]
fn truncated_registration_is_an_errored_rank_not_a_panic() {
    let err = truncated_registration_job()
        .run()
        .expect_err("the analyzer rank must fail");
    assert_truncated_registration_failures(&err.failures);
}

#[test]
fn socket_truncated_registration_is_the_same_typed_failure() {
    let failures = common::run_socket_threads(truncated_registration_job(), 2);
    assert_truncated_registration_failures(&failures);
}

// ---------------------------------------------------------------------
// Scenario 2: an oversized registration (u64 + trailing junk) is the
// same typed error with the observed length, not an over-read.
// ---------------------------------------------------------------------
#[test]
fn oversized_registration_is_malformed_not_an_over_read() {
    let err = Launcher::new()
        .partition("hostile", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let master = v.partition(1).unwrap().clone();
            v.mpi()
                .send_ctx(
                    Context::Stream,
                    &v.comm_universe(),
                    master.root_world_rank(),
                    map_tag(1, 0),
                    vec![0u8; 12],
                )
                .unwrap();
        })
        .partition_try("analyzer", 1, move |mpi| {
            let v = Vmpi::new(mpi)?;
            let mut map = Map::new();
            map_partitions_directed(&v, 0, 1, MapPolicy::RoundRobin, &mut map)?;
            Ok(())
        })
        .run()
        .expect_err("the analyzer rank must fail");

    assert!(!err.any_panicked(), "{err}");
    assert_eq!(err.failures[0].kind, FailureKind::Errored);
    assert!(
        err.failures[0].message.contains("got 12 bytes"),
        "length is reported: {}",
        err.failures[0].message
    );
}

// ---------------------------------------------------------------------
// Scenario 3: a hostile *pivot* answers the slave correctly but sends a
// truncated peer list to an honest master rank. The honest master gets
// MalformedPivotReply; the slave's mapping still completes correctly.
// ---------------------------------------------------------------------
#[test]
fn hostile_pivot_truncated_peer_list_is_typed_and_slave_progresses() {
    let master_hit: Arc<Mutex<Option<opmr::vmpi::Result<()>>>> = Arc::new(Mutex::new(None));
    let slave_map: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let m_hit = Arc::clone(&master_hit);
    let s_map = Arc::clone(&slave_map);

    Launcher::new()
        // Partition 0: one honest slave rank (world 0).
        .partition("slave", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            map_partitions_directed(&v, 1, 1, MapPolicy::RoundRobin, &mut map).unwrap();
            *s_map.lock().unwrap() = map.peers().to_vec();
        })
        // Partition 1: pivot (world 1, hostile) + honest master (world 2).
        .partition("master", 2, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let me = v.partition(1).unwrap().clone();
            let universe = v.comm_universe();
            let tag = map_tag(1, 0);
            if v.mpi().world_rank() == me.root_world_rank() {
                // Hostile pivot: run the registration exchange by hand,
                // assign the slave to the honest master rank, then hand
                // that master a 5-byte "peer list".
                let (_st, data) = v
                    .mpi()
                    .recv_ctx(Context::Stream, &universe, Src::Any, TagSel::Tag(tag))
                    .unwrap();
                let slave_world = opmr::runtime::pod::from_bytes::<u64>(&data).unwrap() as usize;
                let honest_master = me.first_world_rank + 1;
                v.mpi()
                    .send_ctx(
                        Context::Stream,
                        &universe,
                        slave_world,
                        tag,
                        opmr::runtime::pod::bytes_of(&(honest_master as u64)),
                    )
                    .unwrap();
                v.mpi()
                    .send_ctx(Context::Stream, &universe, honest_master, tag, vec![0u8; 5])
                    .unwrap();
            } else {
                let mut map = Map::new();
                let got = map_partitions_directed(&v, 0, 1, MapPolicy::RoundRobin, &mut map);
                assert!(map.is_empty(), "failed mapping must not grow the map");
                *m_hit.lock().unwrap() = Some(got);
            }
        })
        .run()
        .unwrap();

    let got = master_hit.lock().unwrap().take();
    match got {
        Some(Err(VmpiError::MalformedPivotReply {
            what: "peer list of whole u64s",
            len: 5,
        })) => {}
        other => panic!("expected MalformedPivotReply for the peer list, got {other:?}"),
    }
    assert_eq!(
        *slave_map.lock().unwrap(),
        vec![2],
        "the honest slave's mapping completed despite the hostile pivot"
    );
}

// ---------------------------------------------------------------------
// Scenario 4: a hostile writer injects a garbage block on the stream tag:
// a frame whose flags byte sets reserved bits, or an empty payload with
// no header at all. The reader reports one ProtocolViolation, isolates
// that source, drains the honest writer in full and terminates with
// Ok(None). Runs on both backends: over the socket mesh the reader
// decodes the hostile bytes after a wire hop.
// ---------------------------------------------------------------------
type GarbageOutcome = Arc<Mutex<(usize, Vec<VmpiError>)>>;

/// The hostile payloads, each with the violation it must produce:
/// `(bytes, expected, rendering of what the reader got)`.
const GARBAGE: [(&[u8], &str, &str); 2] = [
    (
        &[0x80, 0, 0, 0],
        "stream frame flags data, data|lz4 or fin",
        "0x80",
    ),
    (&[], "stream frame header of 1 byte", "0 bytes"),
];

fn garbage_stream_block_job(garbage: &'static [u8]) -> (Launcher, GarbageOutcome) {
    const STREAM_ID: u16 = 7;
    const HONEST_BYTES: usize = 768;

    let outcome: GarbageOutcome = Arc::new(Mutex::new((0, Vec::new())));
    let out = Arc::clone(&outcome);

    let launcher = Launcher::new()
        // Partition 0: writers (world 0 honest, world 1 hostile).
        .partition("writers", 2, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            map_partitions_directed(&v, 1, 1, MapPolicy::RoundRobin, &mut map).unwrap();
            if v.mpi().world_rank() == 0 {
                let mut st = WriteStream::open_map(&v, &map, cfg(), STREAM_ID).unwrap();
                st.write(&vec![0xAB; HONEST_BYTES]).unwrap();
                st.close().unwrap();
            } else {
                // Raw bytes on the stream tag, no well-formed frame.
                v.mpi()
                    .send_ctx(
                        Context::Stream,
                        &v.comm_universe(),
                        map.peers()[0],
                        stream_tag(STREAM_ID),
                        garbage,
                    )
                    .unwrap();
            }
        })
        // Partition 1: the reader (world 2).
        .partition("reader", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            map_partitions_directed(&v, 0, 1, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = ReadStream::open_map(&v, &map, cfg(), STREAM_ID).unwrap();
            let mut bytes = 0usize;
            let mut violations = Vec::new();
            loop {
                match st.read(ReadMode::Blocking) {
                    Ok(Some(b)) => bytes += b.data.len(),
                    Ok(None) => break,
                    Err(e @ VmpiError::ProtocolViolation { .. }) => violations.push(e),
                    Err(e) => panic!("unexpected stream error: {e}"),
                }
            }
            *out.lock().unwrap() = (bytes, violations);
        });
    (launcher, outcome)
}

fn assert_garbage_stream_outcome(outcome: &GarbageOutcome, want: (&str, &str)) {
    let (bytes, violations) = std::mem::take(&mut *outcome.lock().unwrap());
    assert_eq!(
        bytes, 768,
        "the honest writer's data must be delivered in full"
    );
    assert_eq!(violations.len(), 1, "exactly one source is poisoned");
    match &violations[0] {
        VmpiError::ProtocolViolation { expected, got } => {
            assert_eq!(
                (*expected, got.as_str()),
                want,
                "what was wrong is reported"
            );
        }
        other => panic!("expected ProtocolViolation, got {other:?}"),
    }
}

#[test]
fn garbage_stream_block_isolates_the_source_and_honest_data_survives() {
    for (garbage, expected, got) in GARBAGE {
        let (launcher, outcome) = garbage_stream_block_job(garbage);
        launcher.run().unwrap();
        assert_garbage_stream_outcome(&outcome, (expected, got));
    }
}

#[test]
fn socket_garbage_stream_block_is_typed_across_the_wire() {
    for (garbage, expected, got) in GARBAGE {
        let (launcher, outcome) = garbage_stream_block_job(garbage);
        let failures = common::run_socket_threads(launcher, 2);
        assert!(failures.is_empty(), "no rank may fail: {failures:?}");
        assert_garbage_stream_outcome(&outcome, (expected, got));
    }
}

// ---------------------------------------------------------------------
// Scenario 5: a hostile writer ships well-framed stream blocks whose
// payload is not an event pack. The analysis engine counts them as
// decode errors while the honest writer's events are fully analyzed.
// ---------------------------------------------------------------------
#[test]
fn garbage_event_pack_is_counted_while_honest_events_are_analyzed() {
    const STREAM_ID: u16 = 9;
    const HONEST_EVENTS: usize = 5;

    let outcome: Arc<Mutex<(u64, u64)>> = Arc::new(Mutex::new((0, 0)));
    let out = Arc::clone(&outcome);

    Launcher::new()
        .partition("writers", 2, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            map_partitions_directed(&v, 1, 1, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = WriteStream::open_map(&v, &map, cfg(), STREAM_ID).unwrap();
            if v.mpi().world_rank() == 0 {
                // One well-formed pack per block.
                for seq in 0..HONEST_EVENTS {
                    let ev = Event::basic(EventKind::Send, 0, seq as u64 * 100, 10);
                    let pack = EventPack::new(1, 0, seq as u32, vec![ev]).encode();
                    st.write(&pack).unwrap();
                    st.flush().unwrap();
                }
            } else {
                // A perfectly legal stream block that is not a pack.
                st.write(b"this is not an event pack at all").unwrap();
                st.flush().unwrap();
            }
            st.close().unwrap();
        })
        .partition("analyzer", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            map_partitions_directed(&v, 0, 1, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = ReadStream::open_map(&v, &map, cfg(), STREAM_ID).unwrap();
            let engine = AnalysisEngine::new(EngineConfig::default());
            engine.start();
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                engine.post_block(b.data);
            }
            let report = engine.finish();
            let decode_errors: u64 = report.apps.iter().map(|a| a.decode_errors).sum();
            let honest_events: u64 = report
                .apps
                .iter()
                .filter(|a| a.app_id == 1)
                .map(|a| a.events)
                .sum();
            *out.lock().unwrap() = (decode_errors, honest_events);
        })
        .run()
        .unwrap();

    let (decode_errors, honest_events) = *outcome.lock().unwrap();
    assert_eq!(decode_errors, 1, "the garbage block is counted, not fatal");
    assert_eq!(
        honest_events, HONEST_EVENTS as u64,
        "every honest event still reaches the profile"
    );
}

// ---------------------------------------------------------------------
// Scenario 6: a rank returning a typed error is reported as exactly one
// Errored failure; an unrelated healthy partition completes untouched.
// Runs on both backends: over the socket mesh the failure lives in a
// different "process" than the healthy partition, and its shutdown
// broadcast crosses the wire.
// ---------------------------------------------------------------------
fn injected_error_job() -> (Launcher, Arc<Mutex<usize>>) {
    let healthy = Arc::new(Mutex::new(0usize));
    let h2 = Arc::clone(&healthy);
    let launcher = Launcher::new()
        .partition_try("faulty", 2, move |mpi| {
            if mpi.world_rank() == 0 {
                return Err("injected failure".into());
            }
            Ok(())
        })
        .partition("healthy", 3, move |_mpi| {
            *h2.lock().unwrap() += 1;
        });
    (launcher, healthy)
}

fn assert_injected_error_failures(failures: &[RankFailure], healthy: &Arc<Mutex<usize>>) {
    assert!(
        failures.iter().all(|f| f.kind != FailureKind::Panicked),
        "{failures:?}"
    );
    assert_eq!(failures.len(), 1);
    let f = &failures[0];
    assert_eq!((f.partition.as_str(), f.world_rank), ("faulty", 0));
    assert_eq!(f.kind, FailureKind::Errored);
    assert_eq!(f.message, "injected failure");
    assert_eq!(*healthy.lock().unwrap(), 3, "healthy ranks all completed");
}

#[test]
fn injected_rank_error_is_isolated_from_healthy_partitions() {
    let (launcher, healthy) = injected_error_job();
    let err = launcher.run().expect_err("the faulty rank must surface");
    assert_injected_error_failures(&err.failures, &healthy);
}

#[test]
fn socket_injected_rank_error_is_isolated_across_processes() {
    let (launcher, healthy) = injected_error_job();
    let failures = common::run_socket_threads(launcher, 2);
    assert_injected_error_failures(&failures, &healthy);
}

// ---------------------------------------------------------------------
// Scenario 7: a corrupted framed record is a sticky typed error — the
// buffer refuses to resynchronise on garbage instead of mis-decoding.
// ---------------------------------------------------------------------
#[test]
fn corrupt_frame_is_a_sticky_typed_error() {
    let framed = try_frame(b"snapshot payload").unwrap();
    let mut wire = framed.to_vec();
    let last = wire.len() - 1;
    wire[last] ^= 0x40; // flip one payload bit; the checksum catches it

    let mut fb = FrameBuf::new();
    fb.push(&wire);
    match fb.next_frame() {
        Err(FrameError::Corrupt { expected, found }) => assert_ne!(expected, found),
        other => panic!("expected FrameError::Corrupt, got {other:?}"),
    }
    // Poisoned for good: even a subsequently pushed pristine frame must
    // not be trusted, because stream resynchronisation after corruption
    // is impossible.
    fb.push(&try_frame(b"pristine").unwrap());
    assert!(
        matches!(fb.next_frame(), Err(FrameError::Corrupt { .. })),
        "the poison must stick"
    );

    // A hostile length header is the other typed variant.
    let mut fb = FrameBuf::new();
    let mut huge = Vec::new();
    huge.extend_from_slice(&u32::MAX.to_le_bytes());
    huge.extend_from_slice(&0u32.to_le_bytes());
    fb.push(&huge);
    assert!(
        matches!(fb.next_frame(), Err(FrameError::Oversize { .. })),
        "a hostile length field is rejected before any allocation"
    );
}

/// A replayed directory is checked before any rank starts: a misnamed
/// trace file (such as a trace proxy's `app<N>_selected.opmr`), a rank
/// left out, a truncated file, a rank recorded twice or no recording at
/// all is a typed `SessionError::Recording` naming the file. A well-framed
/// pack of garbage travels like any other and is counted by the analyzer.
#[test]
fn a_bad_recording_is_a_typed_error_naming_the_file() {
    use opmr::core::{Session, SessionError};
    use opmr::events::recording::SionFile;
    use std::path::{Path, PathBuf};

    let root = std::env::temp_dir().join(format!("opmr_poison_replay_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // A directory holding `files` (name, bytes); an empty trace file is a
    // rank that recorded no pack.
    let dir = |tag: &str, files: &[(&str, &[u8])]| -> PathBuf {
        let d = root.join(tag);
        std::fs::create_dir_all(&d).unwrap();
        for (name, bytes) in files {
            std::fs::write(d.join(name), bytes).unwrap();
        }
        d
    };
    let named = |d: &Path, what: &str, want: &Path| match Session::replay(d).run() {
        Err(SessionError::Recording { path, what: got }) => {
            assert_eq!(path, want, "{what}: {got}");
            assert!(format!("{}", SessionError::Recording { path, what: got })
                .contains(&want.display().to_string()));
        }
        other => panic!("{what}: expected a recording error, got {:?}", other.err()),
    };

    let d = dir(
        "misnamed",
        &[("app0_rank0.opmr", b""), ("app0_selected.opmr", b"")],
    );
    named(&d, "misnamed", &d.join("app0_selected.opmr"));
    let d = dir("gap", &[("app0_rank0.opmr", b""), ("app0_rank2.opmr", b"")]);
    named(&d, "rank gap", &d.join("app0_rank1.opmr"));
    let d = dir("cut", &[("app0_rank0.opmr", &[9, 0, 0, 0, 1, 2])]);
    named(&d, "truncated", &d.join("app0_rank0.opmr"));
    let d = dir("empty", &[("notes.txt", b"not a recording")]);
    named(&d, "empty", &d);
    named(&root.join("absent"), "absent", &root.join("absent"));

    // A container leaving a rank out, and a rank in both a container and
    // a trace file.
    let d = dir("sion", &[]);
    let sion = SionFile::create(d.join("app0.sion"), 3).unwrap();
    for rank in [0, 2] {
        sion.write(rank, b"pack").unwrap();
        sion.close_rank().unwrap();
    }
    sion.close_rank().unwrap();
    named(&d, "sion gap", &d.join("app0.sion"));
    std::fs::write(d.join("app0_rank0.opmr"), b"").unwrap();
    named(&d, "twice", &d.join("app0_rank0.opmr"));

    // Garbage inside a well-framed pack replays and is counted.
    let d = dir(
        "garbage",
        &[("app0_rank0.opmr", &[5, 0, 0, 0, 1, 2, 3, 4, 5])],
    );
    let outcome = Session::replay(&d).run().unwrap();
    assert_eq!(outcome.report.apps[0].decode_errors, 1);
    std::fs::remove_dir_all(&root).unwrap();
}
