//! Helpers shared by the backend-parameterized integration suites
//! (`transport_conformance`, `chaos`, `metrics_plane`, `poison`,
//! `socket_negative`), the suites that run sessions over sockets
//! (`replay`, `codec_paths`, `session_multiproc`) and the suites that
//! start real OS processes (`launch_plane`, `session_multiproc`).
//!
//! The central pieces are [`run_socket_threads`] and
//! [`run_session_threads`]: they run one job description, or one
//! session, on the socket backend with every "process" hosted as a
//! thread of the calling test process. Each thread executes a full
//! `run_multiproc` — bind/dial/handshake, framed envelopes, reader
//! threads, teardown — over a private Unix-domain mesh, exactly what N
//! separate OS processes would do, while keeping the test's
//! `Arc<Mutex<_>>` observation collectors addressable.

#![allow(dead_code)] // each test binary uses a subset of these helpers

use opmr::core::{SessionBuilder, SessionError, SessionOutcome};
use opmr::launch::{
    run_job, HeartbeatEmitter, Host, JobReport, JobSpec, LaunchPlaneError, LocalSpawner,
    WorkerCommand, WorkerEnv,
};
use opmr::runtime::{
    Endpoint, Launcher, LinkFault, MultiprocError, MultiprocTopology, RankFailure, SocketConfig,
};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

static JOB_SEQ: AtomicU64 = AtomicU64::new(0);

/// Fresh Unix-domain endpoint in a private temp directory.
pub fn fresh_unix_endpoint(tag: &str) -> Endpoint {
    let dir = std::env::temp_dir().join(format!(
        "opmr-sock-{}-{}-{}",
        std::process::id(),
        tag,
        JOB_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create test socket dir");
    Endpoint::Unix(dir.join("mesh.sock"))
}

/// A fresh path under the temp directory, private to this process and
/// `tag`, with nothing at it.
pub fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("opmr_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Runs one job across OS processes through the launch plane, on a fresh
/// Unix-domain endpoint. Every index `worker` names is a copy of this
/// test binary running that test (`--exact <worker test>`) with its
/// `OPMR_LAUNCH_*` contract. The index for which `worker` returns `None`
/// runs here: `hosted` gets its socket configuration and runs on the
/// calling thread while `run_job` supervises the others. Returns the
/// hosted half's result and the job's report.
pub fn run_os_peers<T>(
    spec: &JobSpec,
    worker: impl Fn(usize) -> Option<&'static str> + Sync,
    hosted: impl FnOnce(SocketConfig) -> T,
) -> (T, Result<JobReport, LaunchPlaneError>) {
    let exe = std::env::current_exe().expect("test binary path");
    let Endpoint::Unix(mesh) = fresh_unix_endpoint("os") else {
        unreachable!()
    };
    let mut job = WorkerEnv::new(0, spec.procs, format!("unix:{}", mesh.display()));
    job.connect_timeout = Some(Duration::from_secs(20));
    let make_cmd = |proc: usize, _host: &Host| {
        let env = WorkerEnv {
            proc_index: proc,
            ..job.clone()
        };
        let cmd = ["--exact", worker(proc)?, "--test-threads=1", "--nocapture"]
            .into_iter()
            .fold(WorkerCommand::new(&exe), WorkerCommand::arg);
        Some(env.vars().into_iter().fold(cmd, |c, (k, v)| c.env(k, v)))
    };
    let cfg = job.socket_config().expect("socket config");
    std::thread::scope(|s| {
        let supervisor = s.spawn(|| run_job(spec, &LocalSpawner, &make_cmd));
        let out = hosted(cfg);
        (out, supervisor.join().expect("supervisor thread"))
    })
}

/// The worker half of [`run_os_peers`]: this process's launch contract,
/// with heartbeats flowing until the emitter drops. `None` in a plain
/// test run, where a worker test does nothing.
pub fn launched_worker() -> Option<(WorkerEnv, HeartbeatEmitter)> {
    let env = WorkerEnv::from_env().expect("well-formed launch contract")?;
    let hb = HeartbeatEmitter::start(env.proc_index, Duration::from_millis(20));
    Some((env, hb))
}

/// Runs one job on the socket backend with `procs` thread-hosted
/// processes (round-robin partition assignment) and merges the
/// per-process rank failures into one list, sorted by world rank — the
/// same shape `Launcher::run` reports. Panics if the mesh itself fails
/// to assemble: conformance scenarios assert rank-level outcomes, and a
/// handshake failure would silently vacuate them.
pub fn run_socket_threads(launcher: Launcher, procs: usize) -> Vec<RankFailure> {
    run_socket_threads_with(launcher, procs, |_, cfg| cfg)
}

/// [`run_socket_threads`] with a per-process [`SocketConfig`] customizer
/// (`(proc_index, base_config) -> config`), e.g. to inject link faults.
pub fn run_socket_threads_with(
    launcher: Launcher,
    procs: usize,
    customize: impl Fn(usize, SocketConfig) -> SocketConfig,
) -> Vec<RankFailure> {
    let endpoint = fresh_unix_endpoint("job");
    // Round-robin placement: partition `i` on process `i % procs`.
    let placement: Vec<usize> = (0..launcher.partition_count()).map(|i| i % procs).collect();
    let mut handles = Vec::new();
    for p in 0..procs {
        let l = launcher.clone();
        let cfg = customize(
            p,
            SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_secs(20)),
        );
        let topo = MultiprocTopology::new(cfg, p, procs).placement(placement.clone());
        handles.push(
            std::thread::Builder::new()
                .name(format!("sock-proc{p}"))
                .spawn(move || l.run_multiproc(topo))
                .expect("spawn socket proc thread"),
        );
    }
    let mut failures = Vec::new();
    for h in handles {
        match h.join().expect("socket proc thread panicked") {
            Ok(()) => {}
            Err(MultiprocError::Launch(e)) => failures.extend(e.failures),
            Err(MultiprocError::Socket(e)) => panic!("socket mesh failed to assemble: {e}"),
        }
    }
    failures.sort_by_key(|f| f.world_rank);
    failures
}

/// Runs the session `session` builds as one socket job of `procs`
/// thread-hosted processes on a fresh Unix-domain mesh, each process
/// building its own copy as separate OS processes would. `placement`
/// places the applications (`None`: `run_multiproc`'s derived placement);
/// `sever` cuts every link once after that many data frames, under the
/// process-wide sever lock. Returns process 0's outcome, the one carrying
/// the report. Every other process must end cleanly with no event in its
/// own report: only process 0 hosts the analysis.
pub fn run_session_threads(
    procs: usize,
    placement: Option<Vec<usize>>,
    sever: Option<u64>,
    session: impl Fn() -> SessionBuilder + Sync,
) -> Result<SessionOutcome, SessionError> {
    let endpoint = fresh_unix_endpoint("session");
    let run = |p: usize| {
        let mut cfg = SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_secs(20));
        if let Some(k) = sever {
            cfg = cfg.link_fault(LinkFault {
                sever_after_frames: k,
            });
        }
        match &placement {
            Some(placement) => session().run_multiproc_placed(cfg, p, procs, placement.clone()),
            None => session().run_multiproc(cfg, p, procs),
        }
    };
    let job = || {
        std::thread::scope(|s| {
            let run = &run;
            let workers: Vec<_> = (1..procs)
                .map(|p| {
                    std::thread::Builder::new()
                        .name(format!("sock-proc{p}"))
                        .spawn_scoped(s, move || run(p))
                        .expect("spawn socket proc thread")
                })
                .collect();
            let outcome = run(0);
            for (p, w) in (1..).zip(workers) {
                match w.join().expect("socket proc thread panicked") {
                    Ok(o) => assert!(
                        o.report.apps.iter().all(|a| a.events == 0 && a.packs == 0),
                        "process {p} observed events: only process 0 hosts the analysis"
                    ),
                    // Process 0's own failure is the one to report.
                    Err(e) if outcome.is_ok() => panic!("process {p} failed: {e}"),
                    Err(_) => {}
                }
            }
            outcome
        })
    };
    match sever {
        Some(_) => severing(job),
        None => job(),
    }
}

/// The sever points of the link-chaos sweeps: every busy mesh link is cut
/// once after this many data frames — at the first frame, early and
/// mid-stream.
pub const SEVER_SWEEP: [u64; 3] = [1, 7, 50];

/// [`run_socket_threads`] with every link severed once after `k` data
/// frames ([`LinkFault`]): the loss the socket link recovers underneath
/// the transport.
pub fn run_socket_threads_severed(launcher: Launcher, procs: usize, k: u64) -> Vec<RankFailure> {
    severing(|| {
        run_socket_threads_with(launcher, procs, |_, c| {
            c.link_fault(LinkFault {
                sever_after_frames: k,
            })
        })
    })
}

/// Held by every severed run in this process, so that only one severs at
/// a time. The link counters [`LinkMoves`] reads are process-wide and the
/// test harness runs tests on parallel threads: without the lock, a sever
/// from one test could land inside another test's window while its
/// reconnect landed after that window closed.
static SEVERING: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread holds [`SEVERING`] (a measured window holds it
    /// around the severed run inside it).
    static HOLDS_SEVERING: Cell<bool> = const { Cell::new(false) };
}

/// Runs `run`, which severs links, under the process-wide sever lock.
/// Re-entrant on the calling thread.
fn severing<T>(run: impl FnOnce() -> T) -> T {
    if HOLDS_SEVERING.get() {
        return run();
    }
    struct Release;
    impl Drop for Release {
        fn drop(&mut self) {
            HOLDS_SEVERING.set(false);
        }
    }
    // A test that failed while holding the lock poisons it; the next one
    // may still sever.
    let _lock = SEVERING.lock().unwrap_or_else(PoisonError::into_inner);
    HOLDS_SEVERING.set(true);
    let _release = Release;
    run()
}

/// Current value of a process-wide obs counter.
pub fn obs_counter(name: &str) -> u64 {
    opmr::obs::registry().snapshot().counter(name).unwrap_or(0)
}

/// How far the link-chaos counters moved over one socket run. The
/// thread-hosted "processes" share this process's registry, so the deltas
/// cover the whole mesh; the window holds the sever lock, so no other
/// test's sever or reconnect lands in it.
#[derive(Debug, Clone, Copy)]
pub struct LinkMoves {
    pub severs: u64,
    pub reconnects: u64,
    pub retransmits: u64,
    pub lost: u64,
}

impl LinkMoves {
    fn read() -> [u64; 4] {
        [
            "transport_socket_chaos_severs_total",
            "transport_socket_reconnects_total",
            "transport_socket_frames_retransmitted_total",
            "transport_socket_peer_disconnects_total",
        ]
        .map(obs_counter)
    }

    /// Runs `run` under the sever lock and returns its result with the
    /// counters' movement.
    pub fn during<T>(run: impl FnOnce() -> T) -> (T, LinkMoves) {
        severing(|| {
            let before = Self::read();
            let out = run();
            let [severs, reconnects, retransmits, lost] = Self::read();
            let moves = LinkMoves {
                severs: severs - before[0],
                reconnects: reconnects - before[1],
                retransmits: retransmits - before[2],
                lost: lost - before[3],
            };
            (out, moves)
        })
    }

    /// A link was severed and every severed link reconnected. A recovered
    /// link is not a lost peer; the disconnect counter is allowed a delta
    /// bounded by the severs — under scheduler starvation a link severed
    /// on its final frames can race mesh teardown, where the redial finds
    /// the listener already gone, a benign post-delivery loss.
    pub fn assert_severed_and_reconnected(&self, what: &str) {
        assert!(self.severs > 0, "{what}: no link was severed: {self:?}");
        assert!(
            self.reconnects >= self.severs,
            "{what}: every severed link must reconnect: {self:?}"
        );
        assert!(
            self.lost <= self.severs,
            "{what}: peer losses beyond teardown races: {self:?}"
        );
    }
}
