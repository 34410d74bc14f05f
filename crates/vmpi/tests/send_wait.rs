//! A stream writer blocked on a full window sleeps on its own send, and
//! that sleep is counted as a sender's (`runtime_send_parks_total`), not
//! as a receiver's park (`runtime_mailbox_parks_total`). A binary of its
//! own: the wait counters are process-wide, so no other test may wait
//! while this one counts.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_runtime::Launcher;
use opmr_vmpi::{Balance, ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError, WriteStream};
use std::time::Duration;

/// Far more blocks than the reader's posted receives and the writer's
/// window hold together, so the writer blocks.
const BLOCKS: u32 = 32;

/// `(sender sleeps, receiver parks)` so far in this process.
fn parks() -> (u64, u64) {
    let s = opmr_obs::registry().snapshot();
    (
        s.counter("runtime_send_parks_total").unwrap_or(0),
        s.counter("runtime_mailbox_parks_total").unwrap_or(0),
    )
}

#[test]
fn a_writer_blocked_on_a_full_window_counts_a_send_park_only() {
    let cfg = StreamConfig::new(64, 2, Balance::RoundRobin);
    let before = parks();
    Launcher::new()
        .partition("app", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], cfg, 1).unwrap();
            for i in 0..BLOCKS {
                st.write(&i.to_le_bytes()).unwrap();
                st.flush().unwrap();
            }
            st.close().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], cfg, 1).unwrap();
            // Only non-blocking reads, each miss followed by a sleep far
            // past the writer's yield: this rank never waits in its
            // mailbox, and the writer, finding its window full, sleeps.
            let mut next = 0u32;
            loop {
                match st.read(ReadMode::NonBlocking) {
                    Err(VmpiError::Again) => std::thread::sleep(Duration::from_millis(5)),
                    Ok(Some(block)) => {
                        assert_eq!(block.data[..], next.to_le_bytes());
                        next += 1;
                    }
                    Ok(None) => break,
                    Err(e) => panic!("read failed: {e}"),
                }
            }
            assert_eq!(next, BLOCKS);
        })
        .run()
        .unwrap();
    let after = parks();
    let (send, mailbox) = (after.0 - before.0, after.1 - before.1);
    assert!(send > 0, "the blocked writer never slept on its send");
    assert_eq!(mailbox, 0, "a sender's sleep was counted as a mailbox park");
}
