//! Socket transport backend: one job, N OS processes.
//!
//! Every process hosts a subset of the world's ranks (threads, exactly as
//! in the in-process backend) and reaches the others over Unix-domain or
//! TCP sockets, one full-duplex connection per process pair, carrying
//! checksummed `opmr-events` frames. The link moves bytes and nothing else
//! (compression belongs to the stream block). The mailbox matching engine,
//! the fault layer and the stream protocols sit *above* the
//! [`crate::Transport`] trait and are the same code as in the `InProc`
//! backend; `tests/transport_conformance.rs` runs the same assertions
//! against both.
//!
//! # Set-up
//!
//! Process 0 is the coordinator: every other process dials its
//! [`Endpoint`] with a `Hello` carrying the protocol magic/version, its
//! index and a hash of the topology; garbage or mismatched hellos are
//! rejected, typed and counted. The coordinator answers with a `Roster` of
//! listen addresses and a fresh session epoch (`handshake.rs`), and the
//! hello connections close. Every link then comes up the way a dropped one
//! comes back: the higher-indexed side presents the session epoch with "0
//! frames received" to the lower-indexed side's listener. Local ranks run
//! at once; a send waits only for the link it takes.
//!
//! # Link recovery
//!
//! Data frames (envelopes and the `RankDone`/`Shutdown`/`ProcDone` control
//! frames) are sequenced per link and logged until acknowledged; a dropped
//! connection is redialed and both sides retransmit exactly what the other
//! lacks, and only a spent budget or grace window degrades the link to the
//! typed `PeerLost` (`link.rs`). This is the job's one reliability layer:
//! nothing above [`crate::Transport`] numbers, resends or deduplicates.
//!
//! # Liveness and teardown
//!
//! "Once `rank_alive` turns false, every message the rank sent is in its
//! destination mailbox" holds across processes by ordering: a rank's
//! `RankDone` follows all its envelopes on each link, and one reader
//! thread reads each connection in order. After joining its local ranks a
//! process broadcasts `ProcDone`, waits for every peer's (or its loss),
//! and only then closes its sockets, so a normal close is never taken for
//! a crash. A lost link marks every rank of that process dead (ticking
//! `transport_socket_peer_disconnects_total`): blocked readers see
//! `PeerLost`.

mod handshake;
mod link;
mod machine;
mod wire;

use crate::envelope::Envelope;
use crate::launch::{spawn_and_join, LaunchError, Launcher, Universe};
use crate::mailbox::{Delivery, Mailbox};
use crate::transport::Transport;
use crate::{Result, RtError};
use handshake::{bind, coordinate, join, listen_endpoint, topology_hash};
use link::{wait_until, Link, LinkState};
use machine::{Input, LinkCore, Phase};
use opmr_events::frame;
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use wire::{encode_rank_done, envelope_frame, K_SHUTDOWN};

// Socket transport metrics (the obs "transport" family): registered once,
// cached handles, relaxed atomics on the hot path.
mod obs {
    use opmr_obs::{registry, Counter, Gauge};
    use std::sync::{Arc, OnceLock};

    pub(super) struct SocketMetrics {
        pub frames_sent: Arc<Counter>,
        pub frames_received: Arc<Counter>,
        pub bytes_sent: Arc<Counter>,
        pub bytes_received: Arc<Counter>,
        pub connect_timeouts: Arc<Counter>,
        pub handshake_rejected: Arc<Counter>,
        pub peer_disconnects: Arc<Counter>,
        pub reconnect_attempts: Arc<Counter>,
        pub reconnects: Arc<Counter>,
        pub reconnect_exhausted: Arc<Counter>,
        pub reconnect_stale_epoch: Arc<Counter>,
        pub frames_retransmitted: Arc<Counter>,
        pub chaos_severs: Arc<Counter>,
        /// Sends held because their link logged its cap of unacknowledged
        /// frames.
        pub send_waits: Arc<Counter>,
        /// The most frames any link has logged unacknowledged.
        pub unacked_peak: Arc<Gauge>,
    }

    pub(super) fn m() -> &'static SocketMetrics {
        static M: OnceLock<SocketMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            SocketMetrics {
                frames_sent: r.counter("transport_socket_frames_sent_total"),
                frames_received: r.counter("transport_socket_frames_received_total"),
                bytes_sent: r.counter("transport_socket_bytes_sent_total"),
                bytes_received: r.counter("transport_socket_bytes_received_total"),
                connect_timeouts: r.counter("transport_socket_connect_timeouts_total"),
                handshake_rejected: r.counter("transport_socket_handshake_rejected_total"),
                peer_disconnects: r.counter("transport_socket_peer_disconnects_total"),
                reconnect_attempts: r.counter("transport_socket_reconnect_attempts_total"),
                reconnects: r.counter("transport_socket_reconnects_total"),
                reconnect_exhausted: r.counter("transport_socket_reconnect_exhausted_total"),
                reconnect_stale_epoch: r.counter("transport_socket_reconnect_stale_epoch_total"),
                frames_retransmitted: r.counter("transport_socket_frames_retransmitted_total"),
                chaos_severs: r.counter("transport_socket_chaos_severs_total"),
                send_waits: r.counter("transport_socket_send_waits_total"),
                unacked_peak: r.gauge("transport_socket_unacked_frames_peak"),
            }
        })
    }
}

/// Where the job's coordinator (process 0) listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP address, e.g. `127.0.0.1:39000`. Non-coordinator processes
    /// listen on an ephemeral loopback port advertised via the handshake.
    Tcp(String),
    /// Unix-domain socket path. Non-coordinator process `i` listens on
    /// the same path suffixed with `.p{i}`.
    Unix(PathBuf),
}

impl Endpoint {
    fn describe(&self) -> String {
        match self {
            Endpoint::Tcp(a) => format!("tcp:{a}"),
            Endpoint::Unix(p) => format!("unix:{}", p.display()),
        }
    }
}

/// Deterministic link-chaos injection: the lower-indexed side of every
/// link severs it once after `sever_after_frames` data frames have been
/// sent *or received* on that link (whichever threshold is crossed
/// first), exercising the reconnect path end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFault {
    /// Sever each link once after this many data frames were sent on it.
    pub sever_after_frames: u64,
}

/// Socket-level configuration shared by every process of the job (the
/// redial policy is fixed: five attempts, 100 ms apart and doubling).
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Coordinator endpoint.
    pub endpoint: Endpoint,
    /// Budget for bringing every link up, dialing and accepting alike.
    /// Also bounds the post-join teardown drain.
    pub connect_timeout: Duration,
    /// Optional deterministic link-chaos injection.
    pub link_fault: Option<LinkFault>,
}

impl SocketConfig {
    /// Configuration with the default timeout.
    pub fn new(endpoint: Endpoint) -> Self {
        SocketConfig {
            endpoint,
            connect_timeout: Duration::from_secs(10),
            link_fault: None,
        }
    }

    /// Overrides the set-up/drain budget.
    pub fn connect_timeout(mut self, d: Duration) -> Self {
        self.connect_timeout = d;
        self
    }

    /// Enables deterministic link-chaos injection.
    pub fn link_fault(mut self, f: LinkFault) -> Self {
        self.link_fault = Some(f);
        self
    }

    /// Rejects zero or absurd values with a typed error before any
    /// socket is opened. An hour-plus timeout is a config bug, not a
    /// deployment choice.
    pub fn validate(&self) -> std::result::Result<(), SocketError> {
        const HOUR: Duration = Duration::from_secs(3600);
        let bad = |what: String| Err(SocketError::InvalidConfig { what });
        if self.connect_timeout.is_zero() || self.connect_timeout > HOUR {
            return bad(format!("connect_timeout {:?}", self.connect_timeout));
        }
        if self.link_fault.is_some_and(|f| f.sever_after_frames == 0) {
            return bad("link_fault.sever_after_frames 0".to_string());
        }
        Ok(())
    }
}

/// One process's view of a multi-process job.
#[derive(Debug, Clone)]
pub struct MultiprocTopology {
    /// Socket configuration (must be identical in every process).
    pub socket: SocketConfig,
    /// This process's index in `0..num_procs`.
    pub proc_index: usize,
    /// Total number of processes.
    pub num_procs: usize,
    /// `placement[p]` is the process hosting partition `p`: one entry per
    /// partition, identical in every process.
    pub placement: Vec<usize>,
}

impl MultiprocTopology {
    /// Topology with no placement yet; name one with
    /// [`placement`](Self::placement).
    pub fn new(socket: SocketConfig, proc_index: usize, num_procs: usize) -> Self {
        MultiprocTopology {
            socket,
            proc_index,
            num_procs,
            placement: Vec::new(),
        }
    }

    /// Sets the partition → process placement.
    pub fn placement(mut self, placement: Vec<usize>) -> Self {
        self.placement = placement;
        self
    }

    /// The benchmark harness's spelling of one partition per process,
    /// partition `p` on process `p`; kept until the harness names a
    /// [`placement`](Self::placement).
    pub fn assign(self, _: PartitionAssign) -> Self {
        let placement = (0..self.num_procs).collect();
        self.placement(placement)
    }
}

/// See [`MultiprocTopology::assign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionAssign {
    /// Partition `p` on process `p`.
    RoundRobin,
}

/// Typed socket-transport failures (set-up and configuration; runtime
/// data-plane loss surfaces through [`RtError`] and stream-level errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketError {
    /// Could not bind a listener.
    Bind { addr: String, detail: String },
    /// A peer did not answer within the connect budget.
    ConnectTimeout { addr: String, waited_ms: u64 },
    /// Expected peers never completed the handshake in time.
    AcceptTimeout { waited_ms: u64, missing: usize },
    /// A peer spoke garbage (or an incompatible topology) during the
    /// handshake.
    Handshake { addr: String, what: String },
    /// I/O failure outside the established data plane.
    Io {
        during: &'static str,
        detail: String,
    },
    /// The topology description itself is invalid.
    BadTopology { what: String },
    /// A `SocketConfig` field is zero or absurd.
    InvalidConfig { what: String },
}

impl std::fmt::Display for SocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketError::Bind { addr, detail } => write!(f, "failed to bind {addr}: {detail}"),
            SocketError::ConnectTimeout { addr, waited_ms } => {
                write!(f, "connect to {addr} timed out after {waited_ms} ms")
            }
            SocketError::AcceptTimeout { waited_ms, missing } => write!(
                f,
                "handshake timed out after {waited_ms} ms with {missing} peer(s) missing"
            ),
            SocketError::Handshake { addr, what } => {
                write!(f, "handshake with {addr} failed: {what}")
            }
            SocketError::Io { during, detail } => write!(f, "socket i/o during {during}: {detail}"),
            SocketError::BadTopology { what } => write!(f, "bad multiproc topology: {what}"),
            SocketError::InvalidConfig { what } => {
                write!(f, "invalid socket config: {what}")
            }
        }
    }
}

impl std::error::Error for SocketError {}

/// Failure of a multi-process launch: either the socket layer could not
/// assemble the mesh, or (exactly as in-process) some hosted ranks failed.
#[derive(Debug)]
pub enum MultiprocError {
    /// Set-up/configuration failure; it explains any rank failures it
    /// caused.
    Socket(SocketError),
    /// Rank failures among the ranks hosted by *this* process.
    Launch(LaunchError),
}

impl std::fmt::Display for MultiprocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiprocError::Socket(e) => write!(f, "socket transport: {e}"),
            MultiprocError::Launch(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for MultiprocError {}

impl From<SocketError> for MultiprocError {
    fn from(e: SocketError) -> Self {
        MultiprocError::Socket(e)
    }
}

impl From<LaunchError> for MultiprocError {
    fn from(e: LaunchError) -> Self {
        MultiprocError::Launch(e)
    }
}

/// Socket-backed [`Transport`]: local ranks use in-process mailboxes,
/// remote ranks are reached over framed byte streams with per-link
/// reconnect/retransmit recovery.
pub struct SocketTransport {
    /// `Some(mailbox)` for ranks hosted in this process.
    mailboxes: Vec<Option<Arc<Mailbox>>>,
    /// Liveness of *every* rank; remote flags flip on `RankDone` frames
    /// or on permanent peer loss.
    alive: Vec<AtomicBool>,
    /// Owning process of every world rank.
    rank_owner: Vec<usize>,
    proc_index: usize,
    /// The link to every other process, `Connecting` from the start.
    links: Vec<Option<Arc<Link>>>,
    /// Reader and recovery thread handles, joined at finalize.
    thread_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The acceptor, blocked in `accept` until finalize wakes it.
    acceptor: Mutex<Option<std::thread::JoinHandle<()>>>,
    shutdown_sent: AtomicBool,
    /// Chaos injection; `connect_timeout` also bounds the teardown drain.
    config: SocketConfig,
    /// Session epoch and every process's address, from the coordinator.
    session: OnceLock<(u64, Vec<String>)>,
    /// Why set-up failed: reported ahead of the rank failures it caused.
    failure: OnceLock<SocketError>,
    /// Finalize has begun: the acceptor loop exits.
    closing: AtomicBool,
}

impl SocketTransport {
    fn new(
        proc_index: usize,
        rank_owner: Vec<usize>,
        num_procs: usize,
        config: SocketConfig,
    ) -> Arc<Self> {
        let mailboxes = rank_owner
            .iter()
            .map(|&o| (o == proc_index).then(|| Arc::new(Mailbox::default())))
            .collect();
        let alive = rank_owner.iter().map(|_| AtomicBool::new(true)).collect();
        let chaos_at = config.link_fault.map(|f| f.sever_after_frames);
        Arc::new(SocketTransport {
            mailboxes,
            alive,
            rank_owner,
            proc_index,
            links: (0..num_procs)
                .map(|p| {
                    let core = LinkCore::new(proc_index > p, chaos_at);
                    (p != proc_index).then(|| Arc::new(Link::new(p, core)))
                })
                .collect(),
            thread_handles: Mutex::new(Vec::new()),
            acceptor: Mutex::new(None),
            shutdown_sent: AtomicBool::new(false),
            config,
            session: OnceLock::new(),
            failure: OnceLock::new(),
            closing: AtomicBool::new(false),
        })
    }

    /// The set-up thread: the coordinator exchange, then every link. This
    /// side dials each lower-indexed peer, the coordinator included, as a
    /// redial from frame 0, and the acceptor admits the higher-indexed
    /// ones.
    fn bring_up(
        self: &Arc<Self>,
        n: usize,
        topo_hash: u64,
    ) -> std::result::Result<(), SocketError> {
        let me = self.proc_index;
        let timeout = self.config.connect_timeout;
        let deadline = Instant::now() + timeout;
        let (listener, my_addr) = bind(&listen_endpoint(&self.config.endpoint, me))?;
        let session = if me == 0 {
            coordinate(&listener, my_addr, n, deadline, topo_hash)?
        } else {
            join(&self.config.endpoint, me, n, &my_addr, timeout, topo_hash)?
        };
        let roster = session.roster.clone();
        let _ = self.session.set((session.epoch, session.roster));
        self.spawn_acceptor(listener);
        for (j, addr) in roster.iter().enumerate().take(me) {
            let Some(link) = self.link(j) else { continue };
            if !self.dial_link(link, Some(deadline)) {
                obs::m().connect_timeouts.inc();
                return Err(SocketError::ConnectTimeout {
                    addr: addr.clone(),
                    waited_ms: timeout.as_millis() as u64,
                });
            }
        }
        let missing = (me + 1..n)
            .filter_map(|k| self.link(k))
            .filter(|link| {
                let mut st = link.state.lock();
                let connecting = |st: &LinkState| st.core.phase() == Phase::Connecting;
                while connecting(&st) && wait_until(&link.cv, &mut st, deadline) {}
                connecting(&st)
            })
            .count();
        if missing > 0 {
            obs::m().connect_timeouts.inc();
            return Err(SocketError::AcceptTimeout {
                waited_ms: timeout.as_millis() as u64,
                missing,
            });
        }
        Ok(())
    }

    /// Set-up failed: record the root cause, abandon every link, mark
    /// every remote rank dead at once (a connect timeout, not a
    /// disconnect) and release local ranks, so nothing blocks forever.
    fn setup_failed(&self, e: SocketError) {
        let _ = self.failure.set(e);
        for link in self.all_links() {
            link.state.lock().step(Input::Abandon);
            link.cv.notify_all();
        }
        self.mark_dead(|owner| owner != self.proc_index);
        self.shutdown_local();
    }

    fn link(&self, proc: usize) -> Option<&Arc<Link>> {
        self.links.get(proc).and_then(Option::as_ref)
    }

    fn all_links(&self) -> impl Iterator<Item = &Arc<Link>> {
        self.links.iter().flatten()
    }

    /// Spawns one of the link's threads, to be joined at finalize;
    /// `false` if the OS refused.
    fn spawn(&self, name: String, body: impl FnOnce() + Send + 'static) -> bool {
        match std::thread::Builder::new().name(name).spawn(body) {
            Ok(h) => {
                self.thread_handles.lock().push(h);
                true
            }
            Err(_) => false,
        }
    }

    /// Flips the liveness of every rank hosted by a process `dead` names
    /// and wakes whoever waits on one.
    fn mark_dead(&self, dead: impl Fn(usize) -> bool) {
        for (flag, &owner) in self.alive.iter().zip(&self.rank_owner) {
            if dead(owner) {
                flag.store(false, Ordering::Release);
            }
        }
        self.bump_local();
    }

    fn shutdown_local(&self) {
        for mb in self.mailboxes.iter().flatten() {
            mb.shutdown();
        }
    }

    /// After a liveness flag dropped: readers parked on a local mailbox
    /// re-check it now, not at a timeout.
    fn bump_local(&self) {
        for mb in self.mailboxes.iter().flatten() {
            mb.bump();
        }
    }
}

impl Transport for SocketTransport {
    fn world_size(&self) -> usize {
        self.rank_owner.len()
    }

    fn backend_name(&self) -> &'static str {
        "socket"
    }

    fn deliver(&self, dst_world: usize, env: Envelope) -> Result<Delivery> {
        if let Some(Some(mb)) = self.mailboxes.get(dst_world) {
            return mb.deliver(env);
        }
        let proc = *self
            .rank_owner
            .get(dst_world)
            .ok_or(RtError::Protocol("destination rank outside the world"))?;
        let link = self
            .link(proc)
            .ok_or(RtError::Protocol("no connection to destination process"))?;
        let frame = envelope_frame(dst_world, &env).ok_or(RtError::TooLarge {
            len: env.payload.len(),
            max: wire::MAX_ENVELOPE_PAYLOAD,
        })?;
        // A link still connecting holds the send until it is up; one lost
        // for good (set-up failed, redial budget spent) refuses it.
        self.send_data(link, frame)
            .map_err(|()| RtError::Unreachable { dst: dst_world })?;
        Ok(Delivery::Complete)
    }

    fn local_mailbox(&self, world_rank: usize) -> Option<&Arc<Mailbox>> {
        self.mailboxes.get(world_rank).and_then(|m| m.as_ref())
    }

    fn rank_alive(&self, world_rank: usize) -> bool {
        self.alive
            .get(world_rank)
            .is_some_and(|f| f.load(Ordering::Acquire))
    }

    fn mark_rank_done(&self, world_rank: usize) {
        self.alive[world_rank].store(false, Ordering::Release);
        if let Some(Some(mb)) = self.mailboxes.get(world_rank) {
            mb.retire();
        }
        self.bump_local();
        // Ordered after every envelope the rank wrote (same per-link
        // sequence, same connection): peers observing the flag flip
        // already have all of the rank's data in their mailboxes.
        self.broadcast(frame(&encode_rank_done(world_rank)));
    }

    fn shutdown_all(&self) {
        self.shutdown_local();
        if !self.shutdown_sent.swap(true, Ordering::AcqRel) {
            self.broadcast(frame(&[K_SHUTDOWN]));
        }
    }

    fn finalize_local(&self) {
        // 1. Announce clean completion of this process (a link still
        // connecting carries it once up; a lost one drops it)…
        self.broadcast_done();
        // 2. …wait until every link has finished (both sides' `ProcDone`
        // delivered and acknowledged) or is lost…
        let deadline = Instant::now() + self.config.connect_timeout;
        for link in self.all_links() {
            let mut st = link.state.lock();
            while !st.core.finished() && wait_until(&link.cv, &mut st, deadline) {}
        }
        // 3. …then close. Recovery threads and the acceptor stand down;
        // readers (ours and the peers') wake with EOF *after* ProcDone,
        // so nobody classifies this as a crash.
        self.closing.store(true, Ordering::Release);
        for link in self.all_links() {
            link.state.lock().step(Input::Close);
            link.cv.notify_all();
        }
        self.stop_acceptor();
        // Threads can push handles (a recovery spawning its reader)
        // while we drain, so sweep until the list stays empty.
        loop {
            let handles: Vec<_> = self.thread_handles.lock().drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Multi-process launch.
// ---------------------------------------------------------------------

impl Launcher {
    /// Runs this job as one of `topo.num_procs` cooperating OS processes.
    ///
    /// Every process must be handed the *same* job description (same
    /// partitions in the same order, same fault plan) and
    /// the same topology apart from `proc_index`; the handshake
    /// cross-checks a topology hash and rejects mismatches with a typed
    /// [`SocketError`]. Ranks of partitions placed on `proc_index` run
    /// here as threads; all other ranks are reached through the socket
    /// mesh. Set-up overlaps partition startup: local ranks begin
    /// executing immediately and a send waits only for its own link.
    /// Returns when all locally hosted ranks have finished and the mesh
    /// has drained; a set-up failure takes precedence over the rank
    /// failures it induced.
    pub fn run_multiproc(self, topo: MultiprocTopology) -> std::result::Result<(), MultiprocError> {
        assert!(!self.specs.is_empty(), "no partitions configured");
        topo.socket.validate()?;
        let bad = |what: String| MultiprocError::Socket(SocketError::BadTopology { what });
        if topo.num_procs == 0 || topo.proc_index >= topo.num_procs {
            return Err(bad(format!(
                "process index {} outside 0..{}",
                topo.proc_index, topo.num_procs
            )));
        }
        let infos = self.build_infos();
        let (placement, n) = (&topo.placement, topo.num_procs);
        if placement.len() != infos.len() || placement.iter().any(|&p| p >= n) {
            return Err(bad(format!(
                "placement {placement:?} does not put {} partitions on {n} processes",
                infos.len()
            )));
        }
        let rank_owner: Vec<usize> = infos
            .iter()
            .zip(placement)
            .flat_map(|(info, &owner)| std::iter::repeat_n(owner, info.size))
            .collect();
        let topo_hash = topology_hash(topo.num_procs, &rank_owner);

        let transport = SocketTransport::new(
            topo.proc_index,
            rank_owner.clone(),
            topo.num_procs,
            topo.socket.clone(),
        );

        // Set-up runs on its own thread while local ranks construct and
        // run; a remote send waits on its link until that link is up.
        let mesh_thread = if topo.num_procs == 1 {
            None
        } else {
            let t = Arc::clone(&transport);
            let n = topo.num_procs;
            let h = std::thread::Builder::new()
                .name("sock-mesh".to_string())
                .spawn(move || {
                    if let Err(e) = t.bring_up(n, topo_hash) {
                        t.setup_failed(e);
                    }
                })
                .map_err(handshake::io_err("mesh thread spawn"))?;
            Some(h)
        };

        let universe = Universe::with_transport(
            infos,
            self.fault_plan.clone(),
            Arc::clone(&transport) as Arc<dyn Transport>,
        );
        let me = topo.proc_index;
        let failures = spawn_and_join(&universe, &self.specs, self.stack_size, |world_rank| {
            rank_owner[world_rank] == me
        });
        universe.transport().finalize_local();
        if let Some(h) = mesh_thread {
            let _ = h.join();
        }
        // A set-up failure explains any rank failures it induced: surface
        // the root cause, not the symptoms.
        if let Some(e) = transport.failure.get() {
            return Err(MultiprocError::Socket(e.clone()));
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(LaunchError { failures }.into())
        }
    }
}

#[cfg(test)]
mod explore;

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
    use super::*;

    #[test]
    fn socket_config_validation_rejects_zero_and_absurd_values() {
        let ep = || Endpoint::Tcp("127.0.0.1:0".to_string());
        assert!(SocketConfig::new(ep()).validate().is_ok());
        let cases: Vec<SocketConfig> = vec![
            SocketConfig::new(ep()).connect_timeout(Duration::ZERO),
            SocketConfig::new(ep()).connect_timeout(Duration::from_secs(7200)),
            SocketConfig::new(ep()).link_fault(LinkFault {
                sever_after_frames: 0,
            }),
        ];
        for cfg in cases {
            assert!(
                matches!(cfg.validate(), Err(SocketError::InvalidConfig { .. })),
                "accepted invalid config: {cfg:?}"
            );
        }
    }

    /// A placement names one process in range per partition; anything
    /// else is a typed topology error before any socket is opened.
    #[test]
    fn placement_is_checked_before_any_io() {
        let job = || {
            Launcher::new()
                .partition("a", 1, |_| {})
                .partition("b", 2, |_| {})
        };
        let ep = Endpoint::Tcp("127.0.0.1:1".to_string());
        for placement in [vec![], vec![0], vec![0, 2], vec![0, 1, 1]] {
            let topo = MultiprocTopology::new(SocketConfig::new(ep.clone()), 0, 2)
                .placement(placement.clone());
            assert!(
                matches!(
                    job().run_multiproc(topo),
                    Err(MultiprocError::Socket(SocketError::BadTopology { .. }))
                ),
                "accepted placement {placement:?}"
            );
        }
    }
}
