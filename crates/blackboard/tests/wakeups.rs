//! Targeted worker wake-ups: `enqueue` signals the condvar only when a
//! worker is parked, so a saturated engine makes almost no wake-up system
//! calls, while parked workers are still woken and `drain`/`stop` still
//! terminate.
//!
//! One test function in its own binary: the wake-up counter is
//! process-wide, so nothing else may enqueue while it is being read.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_blackboard::{type_id, Blackboard, BlackboardConfig, DataEntry, KnowledgeSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

#[test]
fn only_parked_workers_are_signalled() {
    let wakeups = opmr_obs::registry().counter("blackboard_worker_wakeups_total");
    let ty = type_id("wake", "job");
    let bb = Blackboard::new(BlackboardConfig {
        queues: 4,
        workers: 2,
    });
    let fired = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&fired);
    bb.register(KnowledgeSource::new("burn", vec![ty], move |_bb, es| {
        // Several microseconds of work per job: slower than a post even
        // in a debug build, so a tight posting loop keeps a backlog in
        // front of the workers.
        let mut h = es.len() as u64;
        for i in 0..5_000u64 {
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
        }
        std::hint::black_box(h);
        f.fetch_add(1, Ordering::Relaxed);
    }));
    bb.start();

    // Saturated: workers that always find a job never park, so nearly no
    // post has anyone to signal.
    const JOBS: u64 = 40_000;
    let before = wakeups.get();
    for i in 0..JOBS {
        bb.post(DataEntry::value(ty, i));
    }
    bb.drain();
    let saturated = wakeups.get() - before;
    assert_eq!(fired.load(Ordering::Relaxed), JOBS);
    assert!(
        saturated <= JOBS / 10,
        "{saturated} wake-ups for {JOBS} jobs on a saturated engine"
    );

    // Idle: give the workers time to park between posts; every job still
    // runs, and some post does find a parked worker to signal.
    let before = wakeups.get();
    for i in 0..50 {
        std::thread::sleep(Duration::from_millis(2));
        bb.post(DataEntry::value(ty, i));
    }
    bb.drain();
    assert_eq!(fired.load(Ordering::Relaxed), JOBS + 50);
    assert!(
        wakeups.get() > before,
        "no parked worker was ever signalled"
    );

    // `drain` with nothing outstanding and `stop` with every worker parked
    // both return (a watchdog turns a hang into a failure).
    std::thread::sleep(Duration::from_millis(5));
    let (done, watchdog) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        bb.drain();
        bb.stop();
        done.send(()).unwrap();
    });
    watchdog
        .recv_timeout(Duration::from_secs(10))
        .expect("drain/stop hung with workers parked");
    stopper.join().unwrap();
}
