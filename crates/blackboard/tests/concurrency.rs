//! Concurrency tests for registry mutation racing the data path: external
//! `remove` while posters hammer the board, and knowledge sources that
//! register/remove *themselves* from inside their operation (the paper's
//! opportunistic-reasoning hook) while multiple workers execute jobs.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_blackboard::{type_id, Blackboard, BlackboardConfig, DataEntry, KnowledgeSource, KsId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

fn board(workers: usize) -> Blackboard {
    Blackboard::new(BlackboardConfig { queues: 4, workers })
}

fn counter_ks(name: &str, ty: u64, fired: &Arc<AtomicU64>) -> KnowledgeSource {
    let fired = Arc::clone(fired);
    KnowledgeSource::new(name, vec![ty], move |_bb, _es| {
        fired.fetch_add(1, Ordering::Relaxed);
    })
}

#[test]
fn remove_races_with_multithreaded_post() {
    let ty = type_id("race", "pack");
    let bb = board(4);
    let fired = Arc::new(AtomicU64::new(0));
    let victim = bb.register(counter_ks("victim", ty, &fired));
    let survivor_fired = Arc::new(AtomicU64::new(0));
    bb.register(counter_ks("survivor", ty, &survivor_fired));
    bb.start();

    const POSTERS: usize = 4;
    const PER_POSTER: u64 = 2_000;
    let gate = Arc::new(Barrier::new(POSTERS + 1));
    let posters: Vec<_> = (0..POSTERS)
        .map(|_| {
            let bb = bb.clone();
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                for i in 0..PER_POSTER {
                    bb.post(DataEntry::value(ty, i));
                }
            })
        })
        .collect();

    // Rip the victim out mid-flood, from a thread of its own.
    let remover = {
        let bb = bb.clone();
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            gate.wait();
            std::thread::yield_now();
            assert!(bb.remove(victim), "victim was registered");
            assert!(!bb.remove(victim), "second removal must report absence");
        })
    };
    for p in posters {
        p.join().unwrap();
    }
    remover.join().unwrap();
    bb.drain();
    bb.stop();

    let total = (POSTERS as u64) * PER_POSTER;
    assert_eq!(
        survivor_fired.load(Ordering::Relaxed),
        total,
        "the surviving KS must see every post"
    );
    assert!(
        fired.load(Ordering::Relaxed) <= total,
        "the removed KS cannot fire more often than entries were posted"
    );
    assert_eq!(bb.ks_count(), 1);
    assert_eq!(bb.stats().entries_posted, total);
}

#[test]
fn self_removing_ks_fires_boundedly_under_workers() {
    // A KS that removes *itself* from inside its operation: jobs already
    // queued at removal time may still run (documented semantics), but
    // entries posted *after* the removal is visible must never reach it.
    let ty = type_id("race", "self-remove");
    let bb = board(4);
    let fired = Arc::new(AtomicU64::new(0));
    let id_cell: Arc<Mutex<Option<KsId>>> = Arc::new(Mutex::new(None));
    let fired2 = Arc::clone(&fired);
    let cell2 = Arc::clone(&id_cell);
    let suicidal = KnowledgeSource::new("suicidal", vec![ty], move |bb, _es| {
        if fired2.fetch_add(1, Ordering::Relaxed) == 2 {
            let id = cell2.lock().unwrap().expect("id published before start");
            bb.remove(id);
        }
    });
    *id_cell.lock().unwrap() = Some(bb.register(suicidal));
    bb.start();

    // Feed the board until the self-removal lands (workers race us here).
    let mut posted_before = 0u64;
    while bb.ks_count() > 0 {
        bb.post(DataEntry::value(ty, posted_before));
        posted_before += 1;
        std::thread::yield_now();
    }
    // Everything posted from now on targets an empty registry.
    const AFTER: u64 = 4_000;
    for i in 0..AFTER {
        bb.post(DataEntry::value(ty, i));
    }
    bb.drain();
    bb.stop();

    let fired = fired.load(Ordering::Relaxed);
    assert!(fired >= 3, "the KS must reach its self-removal firing");
    assert!(
        fired <= posted_before,
        "post-removal entries must not fire the KS \
         ({fired} fired, {posted_before} posted before removal)"
    );
    assert_eq!(bb.ks_count(), 0);
    assert_eq!(bb.stats().entries_posted, posted_before + AFTER);
}

#[test]
fn ks_chain_registration_from_inside_operations() {
    // Opportunistic reasoning under load: a bootstrap KS registers a
    // second-stage KS from inside its operation while posts keep flowing;
    // the stage-2 KS must start firing for entries posted after its
    // registration, and churning register/remove in parallel must neither
    // deadlock nor corrupt counts.
    let trigger = type_id("chain", "trigger");
    let work = type_id("chain", "work");
    let bb = board(4);
    let stage2_fired = Arc::new(AtomicU64::new(0));

    let s2 = Arc::clone(&stage2_fired);
    let boot = KnowledgeSource::new("boot", vec![trigger], move |bb, _es| {
        let s2 = Arc::clone(&s2);
        bb.register(KnowledgeSource::new(
            "stage2",
            vec![work],
            move |_bb, _es| {
                s2.fetch_add(1, Ordering::Relaxed);
            },
        ));
    });
    let boot_id = bb.register(boot);
    bb.start();

    // Parallel churn: repeatedly register and remove throwaway KSs while
    // the chain is being exercised.
    let churn = {
        let bb = bb.clone();
        std::thread::spawn(move || {
            for _ in 0..500 {
                let id = bb.register(KnowledgeSource::new("churn", vec![work], |_bb, _es| {}));
                assert!(bb.remove(id));
            }
        })
    };

    bb.post(DataEntry::value(trigger, 0u64));
    bb.drain(); // stage2 is registered once the trigger job ran
    assert!(bb.ks_count() >= 2, "stage2 must be on the board");
    const WORK: u64 = 1_000;
    for i in 0..WORK {
        bb.post(DataEntry::value(work, i));
    }
    churn.join().unwrap();
    bb.drain();
    bb.stop();

    assert_eq!(
        stage2_fired.load(Ordering::Relaxed),
        WORK,
        "stage2 must see every post after its registration"
    );
    assert!(bb.remove(boot_id));
    assert_eq!(bb.ks_count(), 1, "only stage2 remains");
    let stats = bb.stats();
    assert_eq!(stats.entries_posted, 1 + WORK);
    assert!(stats.jobs_executed > WORK, "trigger + work jobs all ran");
}

/// `drain` has no timed wait: it sleeps until the last job wakes it. A
/// post→drain loop that lost one wake-up would hang here, so a watchdog
/// turns a lost wake-up into a failure.
#[test]
fn drain_is_woken_by_the_last_job_every_time() {
    const ROUNDS: u64 = 5_000;
    let ty = type_id("drain", "job");
    let bb = board(2);
    let fired = Arc::new(AtomicU64::new(0));
    bb.register(counter_ks("count", ty, &fired));
    bb.start();
    let (done, watchdog) = std::sync::mpsc::channel();
    let driver = {
        let (bb, fired) = (bb.clone(), Arc::clone(&fired));
        std::thread::spawn(move || {
            for i in 0..ROUNDS {
                bb.post(DataEntry::value(ty, i));
                bb.drain();
                assert_eq!(fired.load(Ordering::Relaxed), i + 1, "drained early");
            }
            done.send(()).unwrap();
        })
    };
    watchdog
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("drain hung: a wake-up was lost");
    driver.join().unwrap();
    bb.stop();
}
