//! Acceptance: a full `Session` split across OS processes over the
//! socket transport produces **byte-identical** analysis output to the
//! in-process run — proven by comparing the timing-scrubbed
//! [`stable_digest`] of the final report across three launch shapes:
//!
//! 1. plain in-process `run()`;
//! 2. two thread-hosted processes over a Unix-domain socket mesh;
//! 3. two genuine OS processes (the worker re-executes this binary).
//!
//! The placement policy is derived, not configured: the analyzer
//! partition, clients, and the `__obs` self-monitor stay in process 0
//! with the shared engine; user application ranks run in the workers, so
//! every event pack crosses a real wire before reduction.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;
use common::fresh_unix_endpoint;

use opmr::analysis::report::stable_digest;
use opmr::core::{Session, SessionBuilder, SessionError, SessionOutcome};
use opmr::runtime::{Endpoint, SocketConfig, Src, TagSel};
use std::time::Duration;

/// A quickstart-shaped job, sized for CI: a 4-rank ring with collectives
/// plus a 2-rank analyzer partition. Every process of a multi-process
/// session must build the identical session, so both the parent and the
/// re-executed worker call this.
fn demo_session() -> SessionBuilder {
    Session::builder().analyzer_ranks(2).app("ring", 4, |imp| {
        let world = imp.comm_world();
        let (r, n) = (imp.rank(), imp.size());
        for round in 0..10 {
            let req = imp
                .isend(&world, (r + 1) % n, round, vec![r as u8; 1024])
                .expect("isend");
            imp.recv(&world, Src::Rank((r + n - 1) % n), TagSel::Tag(round))
                .expect("recv");
            imp.wait(req).expect("wait");
            if round % 5 == 0 {
                imp.barrier(&world).expect("barrier");
            }
        }
        imp.allreduce_sum(&world, &[r as u64]).expect("allreduce");
    })
}

fn socket_cfg(endpoint: Endpoint) -> SocketConfig {
    SocketConfig::new(endpoint).connect_timeout(Duration::from_secs(20))
}

fn run_proc(endpoint: Endpoint, proc_index: usize) -> Result<SessionOutcome, SessionError> {
    demo_session().run_multiproc(socket_cfg(endpoint), proc_index, 2)
}

// ---------------------------------------------------------------------
// Shape 1 vs shape 2: in-process vs thread-hosted socket processes.
// ---------------------------------------------------------------------
#[test]
fn socket_session_report_is_byte_identical_to_inproc() {
    let direct = demo_session().run().expect("in-process session");
    let want = stable_digest(&direct.report);

    let endpoint = fresh_unix_endpoint("session");
    let worker = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || run_proc(endpoint, 1))
    };
    let sock = run_proc(endpoint, 0).expect("socket session, process 0");
    let remote = worker.join().unwrap().expect("socket session, process 1");

    assert_eq!(
        stable_digest(&sock.report),
        want,
        "the socket-transport report must be byte-identical to in-process"
    );
    assert_eq!(
        sock.report.apps.len(),
        direct.report.apps.len(),
        "same chapters in both reports"
    );
    // Every process pre-registers the app chapters by name, but only
    // process 0's engine ever receives packs: the worker's report is an
    // empty shell.
    assert!(
        remote
            .report
            .apps
            .iter()
            .all(|a| a.events == 0 && a.packs == 0),
        "only process 0 (which hosts the engine) observes events"
    );
}

// ---------------------------------------------------------------------
// Launcher-driven placement: an explicit placement vector (app partition
// i → process placement[i]) must not change a byte of the analysis, and
// invalid placements are typed configuration errors, not hangs.
// ---------------------------------------------------------------------
/// Runs a three-process job as threads; returns process 0's report digest.
fn three_procs(
    tag: &str,
    run: impl Fn(Endpoint, usize) -> Result<SessionOutcome, SessionError> + Clone + Send + 'static,
) -> u64 {
    let endpoint = fresh_unix_endpoint(tag);
    let workers: Vec<_> = (1..3)
        .map(|p| {
            let (endpoint, run) = (endpoint.clone(), run.clone());
            std::thread::spawn(move || run(endpoint, p))
        })
        .collect();
    let sock = run(endpoint, 0).expect("process 0");
    for w in workers {
        w.join().unwrap().expect("worker process");
    }
    stable_digest(&sock.report)
}

#[test]
fn explicit_placement_keeps_the_report_byte_identical() {
    let direct = demo_session().run().expect("in-process session");
    let want = stable_digest(&direct.report);

    // Three processes, but the single app partition is pinned to p2 —
    // the derived policy would have used p1, so this exercises a
    // genuinely different mesh shape.
    let pinned = three_procs("placed", |ep, p| {
        demo_session().run_multiproc_placed(socket_cfg(ep), p, 3, vec![2])
    });
    assert_eq!(
        pinned, want,
        "explicit placement must not change the analysis output"
    );

    // `run_multiproc` is `run_multiproc_placed` with the derived
    // placement: app partition i on process 1 + i % (procs - 1).
    let derived = three_procs("derived", |ep, p| {
        demo_session().run_multiproc(socket_cfg(ep), p, 3)
    });
    let placed = three_procs("derived-placed", |ep, p| {
        demo_session().run_multiproc_placed(socket_cfg(ep), p, 3, vec![1])
    });
    assert_eq!(derived, want);
    assert_eq!(placed, derived);
}

#[test]
fn invalid_placements_are_typed_config_errors() {
    // Wrong arity: one app, two placement entries.
    let endpoint = fresh_unix_endpoint("placed-arity");
    match demo_session().run_multiproc_placed(socket_cfg(endpoint), 0, 3, vec![1, 2]) {
        Err(SessionError::Config(msg)) => {
            assert!(msg.contains("placement"), "names the field: {msg}")
        }
        other => {
            let _ = other.map(|_| ());
            panic!("expected a Config error")
        }
    }
    // Out-of-range target: process 7 in a 3-process job.
    let endpoint = fresh_unix_endpoint("placed-range");
    match demo_session().run_multiproc_placed(socket_cfg(endpoint), 0, 3, vec![7]) {
        Err(SessionError::Config(msg)) => {
            assert!(msg.contains('7'), "names the bad target: {msg}")
        }
        other => {
            let _ = other.map(|_| ());
            panic!("expected a Config error")
        }
    }
}

// ---------------------------------------------------------------------
// Shape 3: two genuine OS processes. The worker half below re-executes
// this binary (inert unless the env var is set), exactly like a real
// multi-process deployment would launch one session per host.
// ---------------------------------------------------------------------
#[test]
fn session_worker() {
    let Ok(path) = std::env::var("OPMR_SMP_WORKER_SOCK") else {
        return; // not a worker invocation
    };
    run_proc(Endpoint::Unix(path.into()), 1).expect("worker session");
}

#[test]
fn session_spans_two_os_processes_with_identical_output() {
    let direct = demo_session().run().expect("in-process session");
    let want = stable_digest(&direct.report);

    let endpoint = fresh_unix_endpoint("osproc");
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!()
    };
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["--exact", "session_worker", "--test-threads=1"])
        .env("OPMR_SMP_WORKER_SOCK", path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    let sock = run_proc(endpoint.clone(), 0).expect("socket session, process 0");
    let status = child.wait().unwrap();
    assert!(status.success(), "worker process failed: {status}");

    assert_eq!(
        stable_digest(&sock.report),
        want,
        "analysis output across OS processes must be byte-identical"
    );
    let ring = sock
        .report
        .apps
        .iter()
        .find(|a| a.name == "ring")
        .expect("ring chapter present");
    assert_eq!(ring.ranks, 4);
    assert!(ring.events > 0 && ring.packs > 0);
}
