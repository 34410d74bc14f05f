//! Acceptance: a full `Session` split across OS processes over the
//! socket transport produces **byte-identical** analysis output to the
//! in-process run — proven by comparing the timing-scrubbed
//! [`stable_digest`] of the final report across three launch shapes:
//!
//! 1. plain in-process `run()`;
//! 2. two thread-hosted processes over a Unix-domain socket mesh;
//! 3. two genuine OS processes (the launch plane starts this binary as the
//!    worker).
//!
//! The placement policy is derived, not configured: the analyzer
//! partition, clients, and the `__obs` self-monitor stay in process 0
//! with the shared engine; user application ranks run in the workers, so
//! every event pack crosses a real wire before reduction.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;
use common::{fresh_unix_endpoint, launched_worker, run_os_peers, run_session_threads};

use opmr::analysis::report::stable_digest;
use opmr::core::{Session, SessionBuilder, SessionError};
use opmr::launch::JobSpec;
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

// ---------------------------------------------------------------------
// Shape 1 vs shape 2: in-process vs thread-hosted socket processes.
// ---------------------------------------------------------------------
#[test]
fn socket_session_report_is_byte_identical_to_inproc() {
    let direct = demo_session().run().expect("in-process session");
    // Every process pre-registers the app chapters by name, but only
    // process 0's engine ever receives packs: the helper checks that the
    // worker's report is an empty shell.
    let sock = run_session_threads(2, None, None, demo_session).expect("socket session");
    assert_eq!(
        stable_digest(&sock.report),
        stable_digest(&direct.report),
        "the socket-transport report must be byte-identical to in-process"
    );
    assert_eq!(
        sock.report.apps.len(),
        direct.report.apps.len(),
        "same chapters in both reports"
    );
}

// ---------------------------------------------------------------------
// Launcher-driven placement: an explicit placement vector (app partition
// i → process placement[i]) must not change a byte of the analysis, and
// invalid placements are typed configuration errors, not hangs.
// ---------------------------------------------------------------------
/// Process 0's report digest of a three-process job as threads.
fn three_procs(placement: Option<Vec<usize>>) -> u64 {
    let sock = run_session_threads(3, placement, None, demo_session).expect("socket session");
    stable_digest(&sock.report)
}

#[test]
fn explicit_placement_keeps_the_report_byte_identical() {
    let direct = demo_session().run().expect("in-process session");
    let want = stable_digest(&direct.report);

    // Three processes, but the single app partition is pinned to p2 —
    // the derived policy would have used p1, so this exercises a
    // genuinely different mesh shape.
    assert_eq!(
        three_procs(Some(vec![2])),
        want,
        "explicit placement must not change the analysis output"
    );

    // `run_multiproc` is `run_multiproc_placed` with the derived
    // placement: app partition i on process 1 + i % (procs - 1).
    let derived = three_procs(None);
    assert_eq!(derived, want);
    assert_eq!(three_procs(Some(vec![1])), derived);
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
// Shape 3: two genuine OS processes. The launch plane starts this
// binary as the worker half below (inert outside a launched job),
// exactly like a real multi-process deployment launches one session per
// host.
// ---------------------------------------------------------------------
#[test]
fn session_worker() {
    let Some((env, _hb)) = launched_worker() else {
        return;
    };
    demo_session()
        .run_multiproc(env.socket_config().unwrap(), env.proc_index, env.num_procs)
        .expect("worker session");
}

#[test]
fn session_spans_two_os_processes_with_identical_output() {
    let direct = demo_session().run().expect("in-process session");
    let want = stable_digest(&direct.report);

    let (sock, job) = run_os_peers(
        &JobSpec::new(2),
        |p| (p != 0).then_some("session_worker"),
        |cfg| demo_session().run_multiproc(cfg, 0, 2),
    );
    let job = job.expect("worker launches");
    assert!(job.success(), "worker process failed: {:?}", job.outcomes);
    let sock = sock.expect("socket session, process 0");

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
