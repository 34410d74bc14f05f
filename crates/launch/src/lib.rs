//! Multi-host launch & supervision plane.
//!
//! An mpirun-style control plane for multi-process `opmr` jobs: parse a
//! [hostfile](hostfile::parse_hostfile), place one worker process per
//! job slot (slot-aware round-robin over the hosts), spawn them through
//! a pluggable [`Spawner`] (local `std::process::Command`, or an
//! ssh-command backend for remote hosts), then
//! [supervise](supervise::run_job) the children: heartbeat liveness over
//! a line protocol on each child's stdout, typed exit classification
//! reusing the runtime's [`FailureKind`], an optional restart-once
//! policy, and kill-all teardown on the first failure (a guard also
//! kills survivors if the supervisor itself unwinds). Ctrl-C teardown
//! rides on POSIX foreground-process-group semantics — the children are
//! spawned into the launcher's group, so the terminal delivers `SIGINT`
//! to the whole job.
//!
//! # Control-line protocol
//!
//! Workers speak to the supervisor over stdout lines:
//!
//! ```text
//! @opmr-hb <proc> <seq>        periodic heartbeat
//! @opmr-stat <name> <value>    end-of-run obs counter
//! ```
//!
//! Everything else is forwarded to the launcher's stdout prefixed with
//! the worker index. [`HeartbeatEmitter`] and [`emit_stats`] are the
//! worker-side halves.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub mod env;
pub mod hostfile;
pub mod spawner;
pub mod supervise;

pub use env::{parse_endpoint, WorkerEnv};
pub use hostfile::{parse_hostfile, Host};
pub use spawner::{ssh_argv, LocalSpawner, Spawner, SshSpawner, WorkerCommand};
pub use supervise::{place_procs, run_job, ChildOutcome, JobReport, JobSpec};

// Launch-plane metrics (the obs "launch" family).
pub(crate) mod obs {
    use opmr_obs::{registry, Counter};
    use std::sync::{Arc, OnceLock};

    pub(crate) struct LaunchMetrics {
        pub spawned: Arc<Counter>,
        pub clean_exits: Arc<Counter>,
        pub child_failures: Arc<Counter>,
        pub heartbeats: Arc<Counter>,
        pub heartbeat_timeouts: Arc<Counter>,
        pub restarts: Arc<Counter>,
    }

    pub(crate) fn m() -> &'static LaunchMetrics {
        static M: OnceLock<LaunchMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            LaunchMetrics {
                spawned: r.counter("launch_children_spawned_total"),
                clean_exits: r.counter("launch_clean_exits_total"),
                child_failures: r.counter("launch_child_failures_total"),
                heartbeats: r.counter("launch_heartbeats_total"),
                heartbeat_timeouts: r.counter("launch_heartbeat_timeouts_total"),
                restarts: r.counter("launch_restarts_total"),
            }
        })
    }
}

/// Typed launch-plane failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchPlaneError {
    /// A hostfile line could not be parsed.
    Hostfile { line: usize, what: String },
    /// Spawning a worker on a host failed.
    Spawn { host: String, detail: String },
    /// The job description itself is invalid.
    Config { what: String },
    /// I/O failure in the supervisor.
    Io {
        during: &'static str,
        detail: String,
    },
}

impl std::fmt::Display for LaunchPlaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchPlaneError::Hostfile { line, what } => {
                write!(f, "hostfile line {line}: {what}")
            }
            LaunchPlaneError::Spawn { host, detail } => {
                write!(f, "failed to spawn worker on {host}: {detail}")
            }
            LaunchPlaneError::Config { what } => write!(f, "invalid launch config: {what}"),
            LaunchPlaneError::Io { during, detail } => {
                write!(f, "launcher i/o during {during}: {detail}")
            }
        }
    }
}

impl std::error::Error for LaunchPlaneError {}

/// One parsed worker→supervisor control line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlLine {
    /// Periodic liveness beacon.
    Heartbeat { proc: usize, seq: u64 },
    /// End-of-run obs counter sample.
    Stat { name: String, value: u64 },
}

/// Renders a heartbeat line (without the trailing newline).
pub fn heartbeat_line(proc: usize, seq: u64) -> String {
    format!("@opmr-hb {proc} {seq}")
}

/// Renders a stat line (without the trailing newline).
pub fn stat_line(name: &str, value: u64) -> String {
    format!("@opmr-stat {name} {value}")
}

/// Parses one stdout line; `None` for ordinary output.
pub fn parse_control_line(line: &str) -> Option<ControlLine> {
    let mut parts = line.trim().split_ascii_whitespace();
    match parts.next() {
        Some("@opmr-hb") => {
            let proc = parts.next()?.parse().ok()?;
            let seq = parts.next()?.parse().ok()?;
            Some(ControlLine::Heartbeat { proc, seq })
        }
        Some("@opmr-stat") => {
            let name = parts.next()?.to_string();
            let value = parts.next()?.parse().ok()?;
            Some(ControlLine::Stat { name, value })
        }
        _ => None,
    }
}

/// Worker-side heartbeat thread: prints `@opmr-hb` lines on stdout at
/// the given interval until dropped. The first beat is emitted
/// immediately so the supervisor sees liveness before the interval
/// elapses.
pub struct HeartbeatEmitter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatEmitter {
    /// Starts beating for worker `proc` every `interval`.
    pub fn start(proc: usize, interval: Duration) -> HeartbeatEmitter {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("opmr-hb".to_string())
            .spawn(move || {
                let mut seq = 0u64;
                // Beat in small steps so drop latency stays low.
                let step = interval
                    .min(Duration::from_millis(50))
                    .max(Duration::from_millis(1));
                let mut since_beat = interval; // fire immediately
                while !stop2.load(Ordering::Acquire) {
                    if since_beat >= interval {
                        since_beat = Duration::ZERO;
                        let mut out = std::io::stdout().lock();
                        let _ = writeln!(out, "{}", heartbeat_line(proc, seq));
                        let _ = out.flush();
                        seq += 1;
                    }
                    std::thread::sleep(step);
                    since_beat += step;
                }
            })
            .ok();
        HeartbeatEmitter { stop, handle }
    }
}

impl Drop for HeartbeatEmitter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Worker-side end-of-run stats: prints one `@opmr-stat` line per obs
/// counter so the supervisor can aggregate the job's counters across
/// processes.
pub fn emit_stats<W: Write>(out: &mut W) -> std::io::Result<()> {
    for c in opmr_obs::registry().snapshot().counters {
        writeln!(out, "{}", stat_line(&c.name, c.value))?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
    use super::*;

    #[test]
    fn control_lines_roundtrip() {
        assert_eq!(
            parse_control_line(&heartbeat_line(3, 42)),
            Some(ControlLine::Heartbeat { proc: 3, seq: 42 })
        );
        assert_eq!(
            parse_control_line(&stat_line("launch_heartbeats_total", 7)),
            Some(ControlLine::Stat {
                name: "launch_heartbeats_total".to_string(),
                value: 7
            })
        );
        assert_eq!(parse_control_line("ordinary worker output"), None);
        assert_eq!(parse_control_line("@opmr-hb not-a-number 1"), None);
        assert_eq!(parse_control_line("@opmr-stat missing_value"), None);
        assert_eq!(parse_control_line(""), None);
    }

    #[test]
    fn heartbeat_emitter_starts_and_stops() {
        let hb = HeartbeatEmitter::start(0, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));
        drop(hb); // joins; must not hang or panic
    }

    #[test]
    fn emit_stats_writes_parseable_lines() {
        opmr_obs::registry()
            .counter("launch_test_probe_total")
            .inc();
        let mut buf = Vec::new();
        emit_stats(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut saw_probe = false;
        for line in text.lines() {
            match parse_control_line(line) {
                Some(ControlLine::Stat { name, value }) => {
                    if name == "launch_test_probe_total" {
                        assert!(value >= 1);
                        saw_probe = true;
                    }
                }
                other => panic!("non-stat line in emit_stats output: {line:?} -> {other:?}"),
            }
        }
        assert!(saw_probe);
    }
}
