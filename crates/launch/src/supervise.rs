//! The supervisor: spawn, watch, classify, tear down.
//!
//! [`run_job`] spawns one worker per process index (slot-aware
//! round-robin over the hosts) — except an index the caller hosts in its
//! own process — reads every child's stdout for
//! heartbeat/stat control lines, and polls child exits. The first
//! failure — a non-zero exit, a signal death, or a heartbeat that goes
//! stale — kills the remaining children (counted, classified with the
//! runtime's [`FailureKind`]) and, under the restart-once policy,
//! relaunches the whole job a single time: a worker cannot rejoin a
//! live socket mesh, so the unit of restart is the job, not the
//! process.

use crate::hostfile::Host;
use crate::spawner::{Spawner, WorkerCommand};
use crate::{obs, parse_control_line, ControlLine, LaunchPlaneError};
use opmr_runtime::FailureKind;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::process::Child;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slot-aware placement: fill each host to its slot count in hostfile
/// order, then wrap the whole cycle for oversubscription. Returns the
/// host index for every process index.
pub fn place_procs(hosts: &[Host], procs: usize) -> Vec<usize> {
    let mut cycle = Vec::new();
    for (i, h) in hosts.iter().enumerate() {
        cycle.extend(std::iter::repeat_n(i, h.slots.max(1)));
    }
    if cycle.is_empty() {
        return Vec::new();
    }
    (0..procs).map(|p| cycle[p % cycle.len()]).collect()
}

/// Everything the supervisor needs besides the per-worker command.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Number of worker processes.
    pub procs: usize,
    /// Placement targets; a single `localhost` entry if no hostfile.
    pub hosts: Vec<Host>,
    /// Kill a worker whose heartbeat goes stale for this long. The
    /// window also covers startup (spawn → first beat).
    pub heartbeat_timeout: Duration,
    /// Relaunch the whole job once if the first attempt fails.
    pub restart_once: bool,
}

impl JobSpec {
    pub fn new(procs: usize) -> JobSpec {
        JobSpec {
            procs,
            hosts: vec![Host::new("localhost")],
            heartbeat_timeout: Duration::from_secs(10),
            restart_once: false,
        }
    }

    fn validate(&self) -> Result<(), LaunchPlaneError> {
        if self.procs == 0 {
            return Err(LaunchPlaneError::Config {
                what: "procs must be at least 1".to_string(),
            });
        }
        if self.hosts.is_empty() {
            return Err(LaunchPlaneError::Config {
                what: "no hosts to place workers on".to_string(),
            });
        }
        if self.heartbeat_timeout.is_zero() {
            return Err(LaunchPlaneError::Config {
                what: "heartbeat_timeout must be non-zero".to_string(),
            });
        }
        Ok(())
    }
}

/// How one worker ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildOutcome {
    pub proc: usize,
    pub host: String,
    /// `None` for a clean exit; otherwise the failure class
    /// ([`FailureKind::Errored`] for a non-zero exit code,
    /// [`FailureKind::Panicked`] for a signal death or stale heartbeat).
    pub kind: Option<FailureKind>,
    pub message: String,
    /// The supervisor killed this worker while tearing down after
    /// *another* worker's failure — not a root cause.
    pub torn_down: bool,
}

/// The supervised job's result.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Outcomes of the final attempt's spawned workers, ordered by
    /// process index (a caller-hosted index has none).
    pub outcomes: Vec<ChildOutcome>,
    /// Spawn rounds used (2 means the restart-once policy fired).
    pub attempts: u32,
    /// `@opmr-stat` counters summed across all workers of the final
    /// attempt.
    pub stats: BTreeMap<String, u64>,
}

impl JobReport {
    /// All workers of the final attempt exited cleanly.
    pub fn success(&self) -> bool {
        self.outcomes.iter().all(|o| o.kind.is_none())
    }

    /// Root-cause failures (teardown casualties excluded).
    pub fn failures(&self) -> impl Iterator<Item = &ChildOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.kind.is_some() && !o.torn_down)
    }
}

/// Kills every still-running child if dropped early (supervisor panic
/// or error path), so a failed launch never leaks worker processes.
struct KillGuard<'a> {
    children: &'a mut Vec<Worker>,
    disarmed: bool,
}

impl Drop for KillGuard<'_> {
    fn drop(&mut self) {
        if self.disarmed {
            return;
        }
        for w in self.children.iter_mut() {
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
    }
}

struct Shared {
    last_beat: Mutex<Instant>,
    stats: Mutex<Vec<(String, u64)>>,
}

struct Worker {
    proc: usize,
    host: String,
    child: Child,
    shared: Arc<Shared>,
    reader: Option<std::thread::JoinHandle<()>>,
    outcome: Option<ChildOutcome>,
}

/// Maps a worker's exit status to the runtime's failure taxonomy:
/// `None` for success, [`FailureKind::Errored`] for a non-zero exit
/// code, [`FailureKind::Panicked`] for a signal death.
fn classify_exit(status: std::process::ExitStatus) -> Option<(FailureKind, String)> {
    if status.success() {
        return None;
    }
    match status.code() {
        Some(code) => Some((FailureKind::Errored, format!("exited with code {code}"))),
        // No exit code on Unix means a signal death — same class as an
        // uncaught panic/abort in-process.
        None => Some((
            FailureKind::Panicked,
            format!("killed by signal ({status})"),
        )),
    }
}

fn spawn_round(
    spec: &JobSpec,
    spawner: &dyn Spawner,
    make_cmd: &dyn Fn(usize, &Host) -> Option<WorkerCommand>,
) -> Result<Vec<Worker>, LaunchPlaneError> {
    let placement = place_procs(&spec.hosts, spec.procs);
    let mut workers = Vec::with_capacity(spec.procs);
    let mut guard = KillGuard {
        children: &mut workers,
        disarmed: false,
    };
    for (proc, host_idx) in placement.iter().enumerate() {
        let host = &spec.hosts[*host_idx];
        let Some(cmd) = make_cmd(proc, host) else {
            continue; // the caller hosts this index itself
        };
        let mut child = spawner.spawn(host, &cmd)?;
        obs::m().spawned.inc();
        let shared = Arc::new(Shared {
            last_beat: Mutex::new(Instant::now()),
            stats: Mutex::new(Vec::new()),
        });
        let reader = child.stdout.take().map(|out| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("launch-rx-p{proc}"))
                .spawn(move || {
                    let rd = std::io::BufReader::new(out);
                    for line in rd.lines() {
                        let Ok(line) = line else { break };
                        match parse_control_line(&line) {
                            Some(ControlLine::Heartbeat { .. }) => {
                                obs::m().heartbeats.inc();
                                *shared.last_beat.lock() = Instant::now();
                            }
                            Some(ControlLine::Stat { name, value }) => {
                                shared.stats.lock().push((name, value));
                            }
                            None => {
                                // Ordinary worker output: forward it,
                                // attributed.
                                println!("[p{proc}] {line}");
                            }
                        }
                    }
                })
                .ok()
        });
        guard.children.push(Worker {
            proc,
            host: host.name.clone(),
            child,
            shared,
            reader: reader.flatten(),
            outcome: None,
        });
    }
    guard.disarmed = true;
    drop(guard);
    Ok(workers)
}

/// Watches one spawn round to completion. Returns the outcomes in
/// process order plus the summed worker stats.
fn supervise_round(spec: &JobSpec, workers: &mut Vec<Worker>) -> Result<(), LaunchPlaneError> {
    let mut guard = KillGuard {
        children: workers,
        disarmed: false,
    };
    let mut failure_seen = false;
    loop {
        let mut all_done = true;
        for w in guard.children.iter_mut() {
            if w.outcome.is_some() {
                continue;
            }
            match w.child.try_wait() {
                Ok(Some(status)) => {
                    let outcome = match classify_exit(status) {
                        None => {
                            obs::m().clean_exits.inc();
                            ChildOutcome {
                                proc: w.proc,
                                host: w.host.clone(),
                                kind: None,
                                message: "exited cleanly".to_string(),
                                torn_down: false,
                            }
                        }
                        Some((kind, message)) => {
                            obs::m().child_failures.inc();
                            ChildOutcome {
                                proc: w.proc,
                                host: w.host.clone(),
                                kind: Some(kind),
                                message,
                                torn_down: failure_seen,
                            }
                        }
                    };
                    let failed = outcome.kind.is_some() && !outcome.torn_down;
                    w.outcome = Some(outcome);
                    if failed {
                        failure_seen = true;
                    }
                }
                Ok(None) => {
                    all_done = false;
                    // Heartbeat staleness: kill and classify as a crash.
                    if w.shared.last_beat.lock().elapsed() > spec.heartbeat_timeout {
                        obs::m().heartbeat_timeouts.inc();
                        obs::m().child_failures.inc();
                        let _ = w.child.kill();
                        let _ = w.child.wait();
                        w.outcome = Some(ChildOutcome {
                            proc: w.proc,
                            host: w.host.clone(),
                            kind: Some(FailureKind::Panicked),
                            message: format!(
                                "no heartbeat for {:?} (liveness timeout)",
                                spec.heartbeat_timeout
                            ),
                            torn_down: failure_seen,
                        });
                        if !failure_seen {
                            failure_seen = true;
                        }
                    }
                }
                Err(e) => {
                    return Err(LaunchPlaneError::Io {
                        during: "child wait",
                        detail: e.to_string(),
                    });
                }
            }
        }
        if failure_seen {
            // Tear the rest of the job down: survivors cannot finish a
            // session whose mesh lost a member for good.
            for w in guard.children.iter_mut() {
                if w.outcome.is_none() {
                    let _ = w.child.kill();
                    let _ = w.child.wait();
                    w.outcome = Some(ChildOutcome {
                        proc: w.proc,
                        host: w.host.clone(),
                        kind: Some(FailureKind::Panicked),
                        message: "killed during job teardown".to_string(),
                        torn_down: true,
                    });
                }
            }
            break;
        }
        if all_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    for w in guard.children.iter_mut() {
        if let Some(h) = w.reader.take() {
            let _ = h.join();
        }
    }
    guard.disarmed = true;
    Ok(())
}

/// Launches and supervises the job. `make_cmd` builds the per-worker
/// command (typically: this binary in worker mode, the
/// [`WorkerEnv`](crate::WorkerEnv) contract in the environment). `None`
/// means the caller hosts that index in its own process, on a thread
/// running beside this call: nothing is spawned for it and the report
/// has no outcome for it. A restart relaunches only the spawned workers.
pub fn run_job(
    spec: &JobSpec,
    spawner: &dyn Spawner,
    make_cmd: &dyn Fn(usize, &Host) -> Option<WorkerCommand>,
) -> Result<JobReport, LaunchPlaneError> {
    spec.validate()?;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let mut workers = spawn_round(spec, spawner, make_cmd)?;
        supervise_round(spec, &mut workers)?;
        let mut outcomes: Vec<ChildOutcome> = workers
            .iter_mut()
            .filter_map(|w| w.outcome.take())
            .collect();
        outcomes.sort_by_key(|o| o.proc);
        let mut stats: BTreeMap<String, u64> = BTreeMap::new();
        for w in &workers {
            for (name, value) in w.shared.stats.lock().iter() {
                *stats.entry(name.clone()).or_insert(0) += value;
            }
        }
        let report = JobReport {
            outcomes,
            attempts,
            stats,
        };
        if report.success() || !spec.restart_once || attempts > 1 {
            return Ok(report);
        }
        obs::m().restarts.inc();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
    use super::*;

    #[test]
    fn placement_is_slot_aware_and_wraps() {
        let hosts = vec![
            Host {
                name: "a".to_string(),
                slots: 2,
            },
            Host {
                name: "b".to_string(),
                slots: 1,
            },
        ];
        // Cycle: a a b | a a b …
        assert_eq!(place_procs(&hosts, 7), vec![0, 0, 1, 0, 0, 1, 0]);
        assert_eq!(place_procs(&hosts, 0), Vec::<usize>::new());
        assert_eq!(place_procs(&[], 3), Vec::<usize>::new());
    }

    #[test]
    fn job_spec_validation_is_typed() {
        assert!(JobSpec::new(0).validate().is_err());
        let mut spec = JobSpec::new(2);
        spec.hosts.clear();
        assert!(matches!(
            spec.validate(),
            Err(LaunchPlaneError::Config { .. })
        ));
        let mut spec = JobSpec::new(2);
        spec.heartbeat_timeout = Duration::ZERO;
        assert!(matches!(
            spec.validate(),
            Err(LaunchPlaneError::Config { .. })
        ));
    }

    #[test]
    fn classify_exit_maps_codes_and_signals() {
        use std::process::Command;
        let ok = Command::new("/bin/sh")
            .args(["-c", "exit 0"])
            .status()
            .unwrap();
        assert_eq!(classify_exit(ok), None);
        let errored = Command::new("/bin/sh")
            .args(["-c", "exit 3"])
            .status()
            .unwrap();
        let (kind, msg) = classify_exit(errored).unwrap();
        assert_eq!(kind, FailureKind::Errored);
        assert!(msg.contains("code 3"), "{msg}");
        let signalled = Command::new("/bin/sh")
            .args(["-c", "kill -KILL $$"])
            .status()
            .unwrap();
        let (kind, msg) = classify_exit(signalled).unwrap();
        assert_eq!(kind, FailureKind::Panicked);
        assert!(msg.contains("signal"), "{msg}");
    }
}
