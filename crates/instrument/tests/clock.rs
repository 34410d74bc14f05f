//! The real rank clock against the real `wtime_ns`: every 1 000th of 10⁶
//! reads is bracketed by two `wtime_ns` reads and must lie within 5 µs of
//! the bracket, and no read may be less than the one before. Preemption
//! only widens a bracket, so the check holds on a loaded machine; run
//! pinned to one CPU (`taskset -c 0`) it also drives the clock's
//! wide-bracket path. A second check holds every instrumented rank to the
//! job's one time origin.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_events::recording::RecordingFile;
use opmr_instrument::{InstrumentedMpi, PackSink, RankClock};
use opmr_runtime::Launcher;
use opmr_vmpi::StreamConfig;
use std::sync::{Arc, Mutex};

const READS: u32 = 1_000_000;
const SLACK_NS: u64 = 5_000;

#[test]
fn rank_clock_tracks_wtime_within_5_us_and_never_decreases() {
    let failures = Arc::new(Mutex::new(Vec::new()));
    let f2 = Arc::clone(&failures);
    Launcher::new()
        .partition("app", 1, move |mpi| {
            let mut clock = RankClock::new();
            let mut prev = 0;
            let mut out = Vec::new();
            for i in 0..READS {
                let t = if i % 1_000 == 0 {
                    let before = mpi.wtime_ns();
                    let t = clock.now(|| mpi.wtime_ns());
                    let after = mpi.wtime_ns();
                    if t + SLACK_NS < before || t > after + SLACK_NS {
                        out.push(format!("read {i}: {t} outside [{before}, {after}] ± 5 µs"));
                    }
                    t
                } else {
                    clock.now(|| mpi.wtime_ns())
                };
                if t < prev {
                    out.push(format!("read {i}: {t} < {prev}"));
                }
                prev = t;
            }
            f2.lock().unwrap().extend(out);
        })
        .run()
        .unwrap();
    let failures = failures.lock().unwrap();
    assert!(
        failures.is_empty(),
        "{} misses: {:?}",
        failures.len(),
        &failures[..failures.len().min(10)]
    );
}

/// Every rank of a job counts from the same zero, the job's start: after
/// a barrier, each rank's `now_ns` lies within 1 µs of a `wtime_ns`
/// bracket read on that rank, whenever the rank reached `init`.
#[test]
fn every_rank_counts_from_the_job_origin() {
    const RANKS: usize = 4;
    const SLACK_NS: u64 = 1_000;
    let dir = std::env::temp_dir().join(format!("opmr_origin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let failures = Arc::new(Mutex::new(Vec::new()));
    let (f2, d2) = (Arc::clone(&failures), dir.clone());
    let cfg = StreamConfig {
        block_size: 64 * 1024,
        ..StreamConfig::default()
    };
    Launcher::new()
        .partition("app", RANKS, move |mpi| {
            let imp = InstrumentedMpi::init(mpi, 0, cfg, |v| {
                let rank = v.rank() as u32;
                Ok(PackSink::file(RecordingFile::Rank { app: 0, rank }.path(&d2)).unwrap())
            })
            .unwrap();
            imp.barrier(&imp.comm_world()).unwrap();
            let wall = imp.vmpi().mpi();
            let before = wall.wtime_ns();
            let now = imp.now_ns();
            let after = wall.wtime_ns();
            if now + SLACK_NS < before || now > after + SLACK_NS {
                f2.lock().unwrap().push(format!(
                    "rank {}: now_ns {now} outside [{before}, {after}] ± 1 µs",
                    imp.rank()
                ));
            }
            imp.finalize().unwrap();
        })
        .run()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let failures = failures.lock().unwrap();
    assert!(failures.is_empty(), "{failures:?}");
}
