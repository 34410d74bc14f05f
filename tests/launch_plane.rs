//! Launch & supervision plane acceptance: `run_job` drives real OS
//! worker processes (re-executions of this test binary) through the
//! full control-line protocol — spawn, heartbeat liveness, stat
//! aggregation, typed exit classification, kill-all teardown, the
//! restart-once policy — and every outcome is observable in the
//! `launch_*` counter family.
//!
//! Counters are process-global and tests run concurrently, so all
//! counter assertions are before/after deltas.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;
use common::{launched_worker, run_os_peers};

use opmr::launch::{
    parse_endpoint, run_job, stat_line, JobReport, JobSpec, LocalSpawner, WorkerCommand, WorkerEnv,
};
use opmr::runtime::{Endpoint, FailureKind};
use std::time::Duration;

fn counter(name: &str) -> u64 {
    opmr::obs::registry().snapshot().counter(name).unwrap_or(0)
}

/// Runs `spec` with every process a copy of this binary running the
/// worker test `worker(proc)` (the worker tests below, inert outside a
/// launched job).
fn launch(spec: &JobSpec, worker: impl Fn(usize) -> &'static str + Sync) -> JobReport {
    let ((), report) = run_os_peers(spec, |p| Some(worker(p)), |_| ());
    report.expect("job launches")
}

/// Heartbeats, a little work, one stat line, clean exit.
#[test]
fn launch_plane_worker() {
    let Some((_env, _hb)) = launched_worker() else {
        return;
    };
    println!("ordinary worker chatter");
    std::thread::sleep(Duration::from_millis(150));
    println!("{}", stat_line("lp_test_work_done_total", 7));
}

/// Still heartbeating when a sibling fails: teardown casualty.
#[test]
fn launch_plane_worker_ok_slow() {
    if let Some(_worker) = launched_worker() {
        std::thread::sleep(Duration::from_secs(30));
    }
}

/// Typed failure: non-zero exit code.
#[test]
fn launch_plane_worker_fail() {
    if let Some((env, _hb)) = launched_worker() {
        eprintln!("worker {} failing on purpose", env.proc_index);
        std::process::exit(3);
    }
}

/// Alive but mute: must be killed by the liveness watchdog.
#[test]
fn launch_plane_worker_silent() {
    if WorkerEnv::from_env().unwrap().is_some() {
        std::thread::sleep(Duration::from_secs(30));
    }
}

/// Fails on the first job attempt, succeeds on the restart: the first
/// attempt leaves a marker in the job's endpoint directory.
#[test]
fn launch_plane_worker_fail_first() {
    let Some((env, hb)) = launched_worker() else {
        return;
    };
    let Endpoint::Unix(mesh) = parse_endpoint(&env.endpoint).unwrap() else {
        unreachable!("the suite launches on Unix endpoints")
    };
    let marker = mesh.with_file_name("fail-first.marker");
    if !marker.exists() {
        std::fs::write(&marker, b"attempt 1").unwrap();
        drop(hb);
        std::process::exit(3);
    }
    std::thread::sleep(Duration::from_millis(50));
}

#[test]
fn three_local_workers_run_to_clean_exit_with_aggregated_stats() {
    let spawned0 = counter("launch_children_spawned_total");
    let clean0 = counter("launch_clean_exits_total");
    let beats0 = counter("launch_heartbeats_total");

    let mut spec = JobSpec::new(3);
    spec.heartbeat_timeout = Duration::from_secs(5);
    let report = launch(&spec, |_| "launch_plane_worker");

    assert!(report.success(), "all workers clean: {:?}", report.outcomes);
    assert_eq!(report.attempts, 1);
    assert_eq!(report.outcomes.len(), 3);
    assert!(report.outcomes.iter().all(|o| !o.torn_down));
    // The `@opmr-stat` lines of all three workers are summed.
    assert_eq!(
        report.stats.get("lp_test_work_done_total").copied(),
        Some(21),
        "3 workers x 7 units each"
    );
    assert_eq!(counter("launch_children_spawned_total") - spawned0, 3);
    assert_eq!(counter("launch_clean_exits_total") - clean0, 3);
    assert!(
        counter("launch_heartbeats_total") > beats0,
        "heartbeats must flow through the control-line protocol"
    );
}

#[test]
fn child_failure_is_classified_and_tears_down_the_survivors() {
    let failures0 = counter("launch_child_failures_total");
    let mut spec = JobSpec::new(3);
    spec.heartbeat_timeout = Duration::from_secs(5);
    // Process 1 exits 3 immediately; its siblings would happily run for
    // 30 s — the supervisor must not wait for them.
    let report = launch(&spec, |proc| match proc {
        1 => "launch_plane_worker_fail",
        _ => "launch_plane_worker_ok_slow",
    });

    assert!(!report.success());
    assert_eq!(report.attempts, 1, "no restart without the policy");
    // Exactly one root cause, typed as an error exit…
    let roots: Vec<_> = report.failures().collect();
    assert_eq!(roots.len(), 1, "one root cause: {:?}", report.outcomes);
    assert_eq!(roots[0].proc, 1);
    assert_eq!(roots[0].kind, Some(FailureKind::Errored));
    assert!(roots[0].message.contains("code 3"), "{}", roots[0].message);
    // …and the survivors were killed as teardown casualties, not
    // counted as independent failures.
    for o in &report.outcomes {
        if o.proc != 1 {
            assert!(o.torn_down, "p{} must be a teardown casualty", o.proc);
        }
    }
    assert!(counter("launch_child_failures_total") > failures0);
}

#[test]
fn stale_heartbeat_is_a_liveness_kill_classified_as_a_crash() {
    let timeouts0 = counter("launch_heartbeat_timeouts_total");
    let mut spec = JobSpec::new(2);
    spec.heartbeat_timeout = Duration::from_millis(400);
    let report = launch(&spec, |proc| match proc {
        1 => "launch_plane_worker_silent",
        _ => "launch_plane_worker_ok_slow",
    });

    assert!(!report.success());
    let roots: Vec<_> = report.failures().collect();
    assert_eq!(roots.len(), 1, "one root cause: {:?}", report.outcomes);
    assert_eq!(roots[0].proc, 1);
    assert_eq!(roots[0].kind, Some(FailureKind::Panicked));
    assert!(
        roots[0].message.contains("heartbeat"),
        "{}",
        roots[0].message
    );
    assert!(counter("launch_heartbeat_timeouts_total") > timeouts0);
}

#[test]
fn restart_once_relaunches_the_whole_job_exactly_once() {
    let restarts0 = counter("launch_restarts_total");
    let mut spec = JobSpec::new(2);
    spec.heartbeat_timeout = Duration::from_secs(5);
    spec.restart_once = true;
    let report = launch(&spec, |_| "launch_plane_worker_fail_first");

    assert_eq!(report.attempts, 2, "first attempt fails, restart succeeds");
    assert!(
        report.success(),
        "the restarted job must run clean: {:?}",
        report.outcomes
    );
    assert!(counter("launch_restarts_total") > restarts0);
}

#[test]
fn spawn_failure_is_a_typed_error_not_a_leaked_job() {
    let spec = JobSpec::new(2);
    let err = run_job(&spec, &LocalSpawner, &|_proc, _host| {
        Some(WorkerCommand::new(
            "/nonexistent/opmr-launch-no-such-binary",
        ))
    })
    .expect_err("spawning a missing binary cannot succeed");
    assert!(
        matches!(err, opmr::launch::LaunchPlaneError::Spawn { .. }),
        "{err}"
    );
}
