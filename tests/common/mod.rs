//! Helpers shared by the backend-parameterized integration suites
//! (`transport_conformance`, `chaos`, `metrics_plane`, `poison`,
//! `socket_negative`).
//!
//! The central piece is [`run_socket_threads`]: it runs one job
//! description on the socket backend with every "process" hosted as a
//! thread of the calling test process. Each thread executes a full
//! `Launcher::run_multiproc` — bind/dial/handshake, framed envelopes,
//! reader threads, teardown — over a private Unix-domain mesh, exactly
//! what N separate OS processes would do, while keeping the test's
//! `Arc<Mutex<_>>` observation collectors addressable.

#![allow(dead_code)] // each test binary uses a subset of these helpers

use opmr::runtime::{
    Endpoint, Launcher, LinkFault, MultiprocError, MultiprocTopology, PartitionAssign, RankFailure,
    SocketConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
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
    let mut handles = Vec::new();
    for p in 0..procs {
        let l = launcher.clone();
        let cfg = customize(
            p,
            SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_secs(20)),
        );
        let topo = MultiprocTopology::new(cfg, p, procs).assign(PartitionAssign::RoundRobin);
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

/// The sever points of the link-chaos sweeps: every busy mesh link is cut
/// once after this many data frames — at the first frame, early and
/// mid-stream.
pub const SEVER_SWEEP: [u64; 3] = [1, 7, 50];

/// [`run_socket_threads`] with every link severed once after `k` data
/// frames ([`LinkFault`]): the loss the socket link recovers underneath
/// the transport.
pub fn run_socket_threads_severed(launcher: Launcher, procs: usize, k: u64) -> Vec<RankFailure> {
    run_socket_threads_with(launcher, procs, |_, c| {
        c.link_fault(LinkFault {
            sever_after_frames: k,
        })
    })
}

/// Current value of a process-wide obs counter.
pub fn obs_counter(name: &str) -> u64 {
    opmr::obs::registry().snapshot().counter(name).unwrap_or(0)
}

/// How far the link-chaos counters moved over one socket run. The
/// thread-hosted "processes" share this process's registry, so the deltas
/// cover the whole mesh (plus whatever a socket test running beside it
/// adds).
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

    /// Runs `run` and returns its result with the counters' movement.
    pub fn during<T>(run: impl FnOnce() -> T) -> (T, LinkMoves) {
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
