//! Lost wake-ups and mode flips of the mailbox's one waiting routine.
//!
//! Nothing here has a timeout: a deliverer that skips the signal while
//! its receiver sleeps hangs the test. The wait counters are process
//! globals, so the tests take turns. The mode assertions describe a box
//! with a core per rank; on an oversubscribed one spinning stops paying
//! and the mailboxes rightly park, so with two cores or fewer they only
//! ask that both kinds of wait occur, and nightly CI's
//! four-copies-at-once step runs the `no_wake_up_is_lost_*` tests alone.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_runtime::{Launcher, Mpi, Src, TagSel};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static TURN: Mutex<()> = Mutex::new(());

const SLEEP: Duration = Duration::from_micros(300);

/// True where two ranks keep a core each whatever else the box runs,
/// which is what the mode assertions describe.
fn roomy() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 2)
}

/// `at_least` of the waits went this way — or, on a small box, any did.
fn mostly(n: u64, at_least: u64) -> bool {
    n > if roomy() { at_least } else { 0 }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Waits {
    spin_hits: u64,
    parks: u64,
    /// Observations in the `runtime_mailbox_wait_ns` histogram.
    timed: u64,
}

impl Waits {
    fn now() -> Waits {
        let s = opmr_obs::registry().snapshot();
        Waits {
            spin_hits: s.counter("runtime_mailbox_spin_hits_total").unwrap_or(0),
            parks: s.counter("runtime_mailbox_parks_total").unwrap_or(0),
            timed: s
                .histogram("runtime_mailbox_wait_ns")
                .map_or(0, |h| h.count),
        }
    }
    fn since(self, before: Waits) -> Waits {
        Waits {
            spin_hits: self.spin_hits - before.spin_hits,
            parks: self.parks - before.parks,
            timed: self.timed - before.timed,
        }
    }
}

/// Two ranks ping-pong through `phases` of `(rounds, rank 1 sleeps before
/// each pong)`; returns what the wait counters moved by in each phase, as
/// rank 0 reads them between two rounds.
fn ping_pong(phases: &'static [(u64, bool)]) -> Vec<Waits> {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let moved = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&moved);
    Launcher::new()
        .partition("pp", 2, move |mpi: Mpi| {
            let w = mpi.world();
            let me = w.local_rank();
            let mut expect = 0u64;
            for &(rounds, sleepy) in phases {
                let before = Waits::now();
                for _ in 0..rounds {
                    if me == 0 {
                        mpi.send_t(&w, 1, 0, &[expect]).unwrap();
                        let (_, v) = mpi.recv_t::<u64>(&w, Src::Rank(1), TagSel::Tag(0)).unwrap();
                        assert_eq!(v, [expect + 1]);
                    } else {
                        let (_, v) = mpi.recv_t::<u64>(&w, Src::Rank(0), TagSel::Tag(0)).unwrap();
                        assert_eq!(v, [expect]);
                        if sleepy {
                            std::thread::sleep(SLEEP);
                        }
                        mpi.send_t(&w, 0, 0, &[expect + 1]).unwrap();
                    }
                    expect += 2;
                }
                if me == 0 {
                    out.lock().unwrap().push(Waits::now().since(before));
                }
            }
        })
        .run()
        .unwrap();
    let moved = moved.lock().unwrap().clone();
    moved
}

#[test]
fn back_to_back_rounds_are_caught_spinning() {
    let moved = ping_pong(&[(200_000, false)]);
    let w = moved[0];
    // Two waits per round. A loaded box parks some of them; a mailbox
    // that never spun would park them all.
    assert!(
        mostly(w.spin_hits, 200_000.max(2 * w.parks)),
        "short waits should be spin hits: {w:?}"
    );
    assert!(w.timed >= w.spin_hits, "every wait is timed: {w:?}");
}

#[test]
fn a_sleeping_peer_is_waited_for_parked() {
    let moved = ping_pong(&[(2_000, true)]);
    let w = moved[0];
    // Rank 0 waits ≥ 300 µs for every pong: after the first few, each of
    // those waits must go straight to sleep.
    assert!(mostly(w.parks, 1_799), "long waits should park: {w:?}");
}

#[test]
fn modes_follow_the_waits_when_sleeps_come_and_go() {
    let moved = ping_pong(&[
        (20_000, false),
        (500, true),
        (20_000, false),
        (500, true),
        (20_000, false),
        (500, true),
        (20_000, false),
    ]);
    for (i, w) in moved.iter().enumerate() {
        if i % 2 == 0 {
            assert!(
                mostly(w.spin_hits, 20_000.max(2 * w.parks)),
                "phase {i} (no sleeps) should have gone back to spinning: {moved:?}"
            );
        } else {
            assert!(
                mostly(w.parks, 399),
                "phase {i} (sleeps) should have parked: {moved:?}"
            );
        }
    }
}

#[test]
fn no_wake_up_is_lost_to_a_poller_of_the_delivery_count() {
    // What `ReadStream::read(Blocking)` does, without its spin and yield
    // legs in the way: read the count, poll the pre-posted receive, wait
    // for the count to move. One message a round into each mailbox and
    // nothing else, both ranks alive, so a count that moves before the
    // message can be seen leaves the poller asleep for good.
    const ROUNDS: u64 = 50_000;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    Launcher::new()
        .partition("poll", 2, |mpi: Mpi| {
            let w = mpi.world();
            let me = w.local_rank();
            let peer = 1 - me;
            let mut posted = mpi.irecv(&w, Src::Rank(peer), TagSel::Tag(0)).unwrap();
            mpi.barrier(&w).unwrap();
            for round in 0..ROUNDS {
                if me == 0 {
                    mpi.send_t(&w, peer, 0, &[round]).unwrap();
                }
                loop {
                    let seen = mpi.deliveries().unwrap();
                    if posted.is_complete() {
                        break;
                    }
                    mpi.wait_delivery(seen, None).unwrap();
                }
                // The next round's receive is up before the peer can send.
                let next = mpi.irecv(&w, Src::Rank(peer), TagSel::Tag(0)).unwrap();
                let (_, data) = std::mem::replace(&mut posted, next)
                    .wait()
                    .unwrap()
                    .unwrap();
                assert_eq!(data[..], round.to_ne_bytes());
                if me == 1 {
                    // Replies land anywhere from mid-spin to well after
                    // rank 0 has gone to sleep.
                    let pause = Duration::from_micros(round % 128);
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < pause {
                        std::hint::spin_loop();
                    }
                    mpi.send_t(&w, peer, 0, &[round]).unwrap();
                }
            }
        })
        .run()
        .unwrap();
}

#[test]
fn no_wake_up_is_lost_on_a_crowded_box() {
    // Every transition the other tests make, no claim about the modes:
    // returning at all is the assertion.
    let moved = ping_pong(&[(50_000, false), (300, true), (50_000, false), (300, true)]);
    assert!(moved.iter().all(|w| w.timed > 0));
}
