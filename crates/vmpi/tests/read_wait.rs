//! A blocking stream read waits in the mailbox's one routine
//! (`Mailbox::wait_for`, through `Mpi::wait_delivery`) and nowhere else:
//! every read that finds nothing ready leaves an observation in
//! `runtime_mailbox_wait_ns`, even when its block comes a few
//! microseconds later. A binary of its own: the wait counters are
//! process-wide, so no other test may wait while this one counts.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_runtime::Launcher;
use opmr_vmpi::{Balance, ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError, WriteStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BLOCKS: u32 = 2_000;

/// The writer's pause before each block: far longer than a read of a
/// ready block takes, and short enough that a spin or yield loop of the
/// reader's own in front of the mailbox would sit it out and hide the
/// wait from the mailbox.
const PAUSE: Duration = Duration::from_micros(20);

/// Observations in the `runtime_mailbox_wait_ns` histogram: one per call
/// of the mailbox's waiting routine.
fn mailbox_waits() -> u64 {
    opmr_obs::registry()
        .snapshot()
        .histogram("runtime_mailbox_wait_ns")
        .map_or(0, |h| h.count)
}

#[test]
fn every_read_that_waits_waits_in_the_mailbox() {
    let cfg =
        StreamConfig::new(64, 3, Balance::RoundRobin).with_read_timeout(Duration::from_secs(10));
    let counted = Arc::new(Mutex::new(None));
    let out = Arc::clone(&counted);
    Launcher::new()
        .partition("app", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], cfg, 1).unwrap();
            for i in 0..=BLOCKS {
                let t0 = Instant::now();
                while t0.elapsed() < PAUSE {
                    std::hint::spin_loop();
                }
                st.write(&i.to_le_bytes()).unwrap();
                st.flush().unwrap();
            }
            st.close().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], cfg, 1).unwrap();
            // The writer's set-up is behind its first block: from here on
            // only this rank waits.
            st.read(ReadMode::Blocking).unwrap().unwrap();
            let before = mailbox_waits();
            let mut waited = 0u64;
            for i in 1..=BLOCKS {
                let block = match st.read(ReadMode::NonBlocking) {
                    Err(VmpiError::Again) => {
                        waited += 1;
                        st.read(ReadMode::Blocking)
                    }
                    ready => ready,
                };
                assert_eq!(block.unwrap().unwrap().data[..], i.to_le_bytes());
            }
            *out.lock().unwrap() = Some((waited, mailbox_waits() - before));
            assert!(st.read(ReadMode::Blocking).unwrap().is_none());
        })
        .run()
        .unwrap();
    let (waited, timed) = counted.lock().unwrap().take().expect("reader ran");
    assert!(
        waited >= u64::from(BLOCKS) / 10,
        "only {waited} of {BLOCKS} reads found nothing ready: the test shows nothing"
    );
    // A block can land between the `Again` and the blocking read, which
    // then needs no wait: a tenth of slack for that race.
    assert!(
        timed * 10 >= waited * 9,
        "{waited} reads found nothing ready, {timed} waited in the mailbox"
    );
}
