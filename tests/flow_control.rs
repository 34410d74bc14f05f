//! One flow-control rule, end to end: a block is done only when a buffer
//! downstream takes it, so a slow stage stalls the producer, and every hop
//! holds no more than its bound. Each test reads the bounds from the obs
//! registry (process-wide, so the tests here run one at a time).
//!
//! The chain: a writer's `NA` window (`vmpi_stream_blocks_in_flight`) →
//! the reader's `NA` posted receives → the root analyzer's board room
//! (`blackboard_jobs_outstanding`) → the board's workers; across
//! processes, the link's cap of unacknowledged frames
//! (`transport_socket_unacked_frames_peak`).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;

use common::{obs_counter, run_socket_threads_severed};
use opmr::analysis::report::stable_digest;
use opmr::analysis::EngineConfig;
use opmr::blackboard::{type_id, KnowledgeSource};
use opmr::core::session::ROOM_PER_CREDIT;
use opmr::core::Session;
use opmr::events::PackEncoding;
use opmr::runtime::{Launcher, Src, TagSel};
use opmr::vmpi::{Balance, ReadMode, ReadStream, StreamConfig, Vmpi, WriteStream};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Held by each test here: the gauges and counters it reads are shared by
/// the whole test binary.
static ALONE: Mutex<()> = Mutex::new(());

const RANKS: usize = 2;
const N_ASYNC: usize = 2;
const ROUNDS: usize = 1500;

fn gauge(name: &str) -> i64 {
    opmr::obs::registry().gauge(name).get()
}

/// The highest values the slow KS saw while it ran.
#[derive(Default)]
struct Peaks {
    outstanding: AtomicI64,
    in_flight: AtomicI64,
}

/// A two-rank ring under a one-worker engine; with `slow`, a KS that
/// sleeps per pack and samples the bounded gauges.
fn ring_session(slow: Option<(Duration, Arc<Peaks>)>) -> u64 {
    // Small blocks: several hundred packs, many more than the room.
    let cfg = StreamConfig::new(256, N_ASYNC, Balance::RoundRobin)
        .with_pack_encoding(PackEncoding::Delta);
    let mut b = Session::builder()
        .analyzer_ranks(1)
        .stream_config(cfg)
        .engine_config(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
    if let Some((nap, peaks)) = slow {
        b = b.engine_setup(move |engine| {
            engine.blackboard().register(KnowledgeSource::new(
                "slow",
                vec![type_id("app0", "events")],
                move |_bb, _entries| {
                    peaks
                        .outstanding
                        .fetch_max(gauge("blackboard_jobs_outstanding"), Ordering::Relaxed);
                    peaks
                        .in_flight
                        .fetch_max(gauge("vmpi_stream_blocks_in_flight"), Ordering::Relaxed);
                    std::thread::sleep(nap);
                },
            ));
        });
    }
    let outcome = b
        .app("ring", RANKS, |imp| {
            let w = imp.comm_world();
            let (n, r) = (imp.size(), imp.rank());
            for i in 0..ROUNDS {
                let req = imp.isend(&w, (r + 1) % n, 0, vec![i as u8; 64]).unwrap();
                imp.recv(&w, Src::Rank((r + n - 1) % n), TagSel::Tag(0))
                    .unwrap();
                imp.wait(req).unwrap();
            }
        })
        .run()
        .unwrap();
    stable_digest(&outcome.report)
}

/// A KS that sleeps per pack: the writers block on their windows, the
/// board holds at most its room, and the report is the fast run's.
#[test]
fn a_slow_ks_stalls_the_writers_within_every_bound() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let fast = ring_session(None);
    let peaks = Arc::new(Peaks::default());
    let waits = obs_counter("vmpi_stream_backpressure_waits_total");
    let slow = ring_session(Some((Duration::from_millis(1), Arc::clone(&peaks))));
    let waits = obs_counter("vmpi_stream_backpressure_waits_total") - waits;
    assert_eq!(slow, fast, "the slow run's report differs");
    assert!(waits > 0, "no writer blocked behind the slow KS");
    // The root posts while fewer than `room` jobs are outstanding; the one
    // worker's running dispatch adds the slow KS's job before it ends.
    let room = (RANKS * N_ASYNC * ROOM_PER_CREDIT) as i64;
    let outstanding = peaks.outstanding.load(Ordering::Relaxed);
    assert!(
        (1..=room + 1).contains(&outstanding),
        "{outstanding} board jobs outstanding, room {room}"
    );
    // Every writer's window holds at most NA blocks not yet taken.
    let in_flight = peaks.in_flight.load(Ordering::Relaxed);
    assert!(
        in_flight <= (RANKS * N_ASYNC) as i64,
        "{in_flight} blocks in flight over {RANKS} windows of {N_ASYNC}"
    );
    eprintln!(
        "slow KS: {waits} writer waits, peaks: {outstanding} jobs (room {room}), {in_flight} blocks in flight"
    );
}

const BLOCKS: u32 = 60_000;
/// `socket/machine.rs`'s `TX_CAP`: sixteen ack intervals of 32 frames.
const TX_CAP: i64 = 512;

/// A writer floods a link that a cut severs early: the link logs every
/// frame until the peer acknowledges it, so the writer, faster than the
/// peer's reader and stalled while the link recovers, fills the log to
/// its cap and waits; then every block arrives once, in order. (The
/// thread-hosted redial is quick: most waits come from the peer's reader
/// falling behind, which the cap answers the same way.)
#[test]
fn a_severed_link_holds_the_writer_at_its_cap_and_delivers_every_block_once() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = StreamConfig::new(64, N_ASYNC, Balance::None);
    let waits = obs_counter("transport_socket_send_waits_total");
    let launcher = Launcher::new()
        .partition("w", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], cfg, 31).unwrap();
            for i in 0..BLOCKS {
                st.write(&[i.to_le_bytes(); 16].concat()).unwrap();
            }
            st.close().unwrap();
        })
        .partition("r", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], cfg, 31).unwrap();
            let mut next = 0u32;
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                assert_eq!(b.data[..], [next.to_le_bytes(); 16].concat()[..]);
                next += 1;
            }
            assert_eq!(next, BLOCKS, "blocks lost");
        });
    let failures = run_socket_threads_severed(launcher, 2, 200);
    assert!(failures.is_empty(), "{failures:?}");
    let waits = obs_counter("transport_socket_send_waits_total") - waits;
    let peak = gauge("transport_socket_unacked_frames_peak");
    eprintln!("severed link: {waits} sends held at the cap, peak {peak} frames unacknowledged");
    assert!(waits > 0, "the writer never waited at the cap");
    assert!(peak <= TX_CAP, "{peak} frames unacknowledged, cap {TX_CAP}");
}
