//! The real rank clock against the real `wtime_ns`: every 1 000th of 10⁶
//! reads is bracketed by two `wtime_ns` reads and must lie within 5 µs of
//! the bracket, and no read may be less than the one before. Preemption
//! only widens a bracket, so the check holds on a loaded machine; run
//! pinned to one CPU (`taskset -c 0`) it also drives the clock's
//! wide-bracket path.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_instrument::RankClock;
use opmr_runtime::Launcher;
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
