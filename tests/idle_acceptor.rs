//! An idle socket session's acceptors sleep in `accept`: a process's
//! acceptor (the `sock-accept` thread, which admits redials for the whole
//! session) wakes only for a connection, not on a timer.
//!
//! A test binary of its own, so that every `sock-accept` thread in the
//! process is this session's.

#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr::runtime::{Launcher, Src, TagSel};
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;

/// `(threads, voluntary context switches)` summed over this process's
/// threads named `sock-accept` (`/proc/self/task/*/{comm,status}`).
fn acceptor_switches() -> (usize, u64) {
    let mut found = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim() != "sock-accept" {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .map(|v| v.trim().parse::<u64>().unwrap());
        if let Some(n) = switches {
            found = (found.0 + 1, found.1 + n);
        }
    }
    found
}

#[test]
fn an_idle_socket_sessions_acceptors_do_not_poll() {
    let window = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&window);
    let launcher = Launcher::new()
        .partition("idle", 1, move |mpi| {
            // The link is up once the peer's message arrived.
            let w = mpi.world();
            mpi.recv(&w, Src::Rank(1), TagSel::Tag(1)).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            let before = acceptor_switches();
            std::thread::sleep(Duration::from_secs(1));
            *sink.lock().unwrap() = Some((before, acceptor_switches()));
            mpi.send(&w, 1, 2, vec![0]).unwrap();
        })
        .partition("peer", 1, |mpi| {
            let w = mpi.world();
            mpi.send(&w, 0, 1, vec![0]).unwrap();
            mpi.recv(&w, Src::Rank(0), TagSel::Tag(2)).unwrap();
        });
    let failures = common::run_socket_threads(launcher, 2);
    assert!(failures.is_empty(), "{failures:?}");
    let ((threads, before), (threads_after, after)) = window.lock().unwrap().expect("rank 0 ran");
    assert_eq!((threads, threads_after), (2, 2), "one acceptor per process");
    let woke = after - before;
    eprintln!("sock-accept voluntary context switches over 1 s idle: {woke}");
    assert!(woke <= 5, "the acceptors woke {woke} times in 1 s of idle");
}
