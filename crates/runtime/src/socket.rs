//! Socket transport backend: one job, N OS processes.
//!
//! Every process hosts a subset of the world's ranks (threads, exactly as
//! in the in-process backend) and reaches the others over Unix-domain or
//! TCP sockets. Envelopes travel as length-prefixed, checksummed frames
//! (reusing the codec in `opmr-events`), multiplexed over one full-duplex
//! connection per process pair. The link moves bytes and nothing else:
//! compression belongs to the stream block (`StreamConfig::compression`
//! flags each frame), so an envelope crosses the wire exactly as it was
//! encoded. The mailbox matching engine, the fault
//! layer and the stream protocols all sit *above* the
//! [`crate::Transport`] trait and are byte-for-byte the same code as in
//! the `InProc` backend — `tests/transport_conformance.rs` runs the same
//! assertions against both.
//!
//! # Handshake
//!
//! Process 0 is the coordinator: it listens on the configured
//! [`Endpoint`]; every other process dials it and sends a `Hello` frame
//! carrying a protocol magic/version, its process index and a hash of the
//! topology (process count plus the rank→process map, which every process
//! derives from the same job description). The coordinator validates each
//! `Hello` — garbage or mismatched peers are rejected with a typed error
//! and an obs counter, without aborting the handshake — then answers with
//! a `Roster` of every process's listen address plus a fresh session
//! epoch. Process *i* then dials every process *j < i* and accepts
//! connections from every *k > i*, producing a full mesh. The handshake
//! runs concurrently with partition startup: locally hosted ranks begin
//! executing immediately and block on a mesh gate only at their first
//! remote operation.
//!
//! # Link recovery
//!
//! Each process retains its listener after the handshake. Data frames
//! (envelopes and the `RankDone`/`Shutdown`/`ProcDone` control frames)
//! are sequenced per link and buffered until acknowledged (`Ack` frames
//! every few received frames prune the buffer). When a connection drops
//! *before* the peer's `ProcDone`, the higher-indexed side redials the
//! lower-indexed side's retained listener with bounded exponential
//! backoff, presenting the session epoch and its received-frame count;
//! the acceptor answers with its own count and both sides retransmit
//! exactly the suffix the other never saw — the stream above observes an
//! uninterrupted exactly-once frame sequence. Only when the retry budget
//! (dialer) or the reconnect grace window (acceptor) is exhausted does
//! the link degrade to the same typed `PeerLost` a crashed in-process
//! writer produces. Attempts, successes, exhaustions and stale-epoch
//! rejections are all counted in `obs`. This is the job's one reliability
//! layer: nothing above the [`crate::Transport`] trait numbers, resends or
//! deduplicates, and a send over a link lost for good fails with
//! [`RtError::Unreachable`].
//!
//! # Liveness and teardown
//!
//! The in-process invariant "once `rank_alive` turns false, every message
//! the rank ever sent is already in its destination mailbox" is preserved
//! across processes by ordering: a rank's `RankDone` control frame is
//! written on each connection *after* all of that rank's envelope frames,
//! and each connection is read in order by a dedicated reader thread.
//! After a process has joined all its local ranks it broadcasts
//! `ProcDone`, waits for every peer's `ProcDone` (or disconnect), and
//! only then closes its sockets — so a normal close is never mistaken for
//! a crash. A connection that drops *without* `ProcDone` and exhausts the
//! reconnect policy marks every rank of that process dead (ticking
//! `transport_socket_peer_disconnects_total`), which blocked stream
//! readers surface as the same typed `PeerLost` error a crashed in-process
//! writer produces.

use crate::envelope::{Context, Envelope, EnvelopeHeader};
use crate::launch::{spawn_and_join, LaunchError, Launcher, Universe};
use crate::mailbox::{Delivery, Mailbox};
use crate::transport::Transport;
use crate::{CommId, Result, RtError};
use bytes::Bytes;
use opmr_events::wire::{Reader, Truncated, Width};
use opmr_events::{try_frame, FrameBuf};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime};

// Socket transport metrics (the obs "transport" family): registered once,
// cached handles, relaxed atomics on the hot path.
mod obs {
    use opmr_obs::{registry, Counter};
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

/// Per-connection budget for reading a single handshake frame (`Hello`
/// or a reconnect presentation), so a stalled rogue connection cannot eat
/// the whole handshake budget.
const HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// How long the lower-indexed (accepting) side of a dropped link waits
/// for the peer to redial before degrading to `PeerLost`.
const RECONNECT_GRACE: Duration = Duration::from_secs(3);

/// Socket-level configuration shared by every process of the job.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Coordinator endpoint.
    pub endpoint: Endpoint,
    /// Budget for the whole handshake, dialing and accepting peers alike.
    /// Also bounds the post-join teardown drain.
    pub connect_timeout: Duration,
    /// How many redial attempts the higher-indexed side of a dropped
    /// link makes before degrading to a typed `PeerLost`.
    pub retry_budget: u32,
    /// Backoff before redial attempt `k` is `backoff_base * 2^(k-1)`
    /// (the first attempt is immediate).
    pub backoff_base: Duration,
    /// Optional deterministic link-chaos injection.
    pub link_fault: Option<LinkFault>,
}

impl SocketConfig {
    /// Configuration with the default timeouts and retry policy.
    pub fn new(endpoint: Endpoint) -> Self {
        SocketConfig {
            endpoint,
            connect_timeout: Duration::from_secs(10),
            retry_budget: 5,
            backoff_base: Duration::from_millis(100),
            link_fault: None,
        }
    }

    /// Overrides the handshake/drain budget.
    pub fn connect_timeout(mut self, d: Duration) -> Self {
        self.connect_timeout = d;
        self
    }

    /// Overrides the redial retry budget.
    pub fn retry_budget(mut self, n: u32) -> Self {
        self.retry_budget = n;
        self
    }

    /// Overrides the redial backoff base.
    pub fn backoff_base(mut self, d: Duration) -> Self {
        self.backoff_base = d;
        self
    }

    /// Enables deterministic link-chaos injection.
    pub fn link_fault(mut self, f: LinkFault) -> Self {
        self.link_fault = Some(f);
        self
    }

    /// Rejects zero or absurd values with a typed error before any
    /// socket is opened. An hour-plus timeout or a 64+ redial budget is
    /// a config bug, not a deployment choice.
    pub fn validate(&self) -> std::result::Result<(), SocketError> {
        const HOUR: Duration = Duration::from_secs(3600);
        let bad = |what: String| Err(SocketError::InvalidConfig { what });
        if self.connect_timeout.is_zero() || self.connect_timeout > HOUR {
            return bad(format!("connect_timeout {:?}", self.connect_timeout));
        }
        if self.retry_budget == 0 || self.retry_budget > 64 {
            return bad(format!("retry_budget {}", self.retry_budget));
        }
        if self.backoff_base.is_zero() || self.backoff_base > Duration::from_secs(60) {
            return bad(format!("backoff_base {:?}", self.backoff_base));
        }
        if let Some(f) = self.link_fault {
            if f.sever_after_frames == 0 {
                return bad("link_fault.sever_after_frames 0".to_string());
            }
        }
        Ok(())
    }
}

/// How partitions are assigned to processes. Every process derives the
/// same map from the same job description; the handshake cross-checks a
/// hash of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionAssign {
    /// Contiguous blocks of partitions, evenly split (partition `p` of
    /// `n` goes to process `p * procs / n`).
    Block,
    /// Partition `p` goes to process `p % procs`.
    RoundRobin,
    /// Explicit partition→process map (one entry per partition).
    Explicit(Vec<usize>),
}

impl PartitionAssign {
    fn proc_of(
        &self,
        partition: usize,
        n_partitions: usize,
        num_procs: usize,
    ) -> std::result::Result<usize, SocketError> {
        let p = match self {
            PartitionAssign::Block => partition * num_procs / n_partitions,
            PartitionAssign::RoundRobin => partition % num_procs,
            PartitionAssign::Explicit(v) => {
                *v.get(partition).ok_or_else(|| SocketError::BadTopology {
                    what: format!(
                        "explicit assignment has {} entries for {} partitions",
                        v.len(),
                        n_partitions
                    ),
                })?
            }
        };
        if p >= num_procs {
            return Err(SocketError::BadTopology {
                what: format!("partition {partition} assigned to process {p} of {num_procs}"),
            });
        }
        Ok(p)
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
    /// Partition→process assignment (must be identical in every process).
    pub assign: PartitionAssign,
}

impl MultiprocTopology {
    /// Topology with block partition assignment.
    pub fn new(socket: SocketConfig, proc_index: usize, num_procs: usize) -> Self {
        MultiprocTopology {
            socket,
            proc_index,
            num_procs,
            assign: PartitionAssign::Block,
        }
    }

    /// Overrides the partition assignment.
    pub fn assign(mut self, assign: PartitionAssign) -> Self {
        self.assign = assign;
        self
    }
}

/// Typed socket-transport failures (handshake and configuration; runtime
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
    /// Handshake/configuration failure before any rank ran.
    Socket(SocketError),
    /// Rank failures among the ranks hosted by *this* process.
    Launch(LaunchError),
}

impl MultiprocError {
    /// The rank failures, when the mesh came up and ranks ran.
    pub fn into_launch(self) -> Option<LaunchError> {
        match self {
            MultiprocError::Launch(e) => Some(e),
            MultiprocError::Socket(_) => None,
        }
    }
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

// ---------------------------------------------------------------------
// Wire format. Every message is an `opmr-events` frame
// (`[len u32][fnv1a32 u32][payload]`); payload byte 0 is the kind.
// ---------------------------------------------------------------------

const MAGIC: u32 = 0x4F50_4D52; // "OPMR"
/// The one protocol version spoken. Any other version in a hello or
/// reconnect is a typed rejection.
const VERSION: u16 = 4;

const K_HELLO: u8 = 1;
const K_ENVELOPE: u8 = 2;
const K_RANK_DONE: u8 = 3;
const K_SHUTDOWN: u8 = 4;
const K_PROC_DONE: u8 = 5;
const K_ROSTER: u8 = 6;
const K_ACK: u8 = 7;
const K_RECONN: u8 = 8;
const K_RECONN_OK: u8 = 9;
const K_RECONN_NAK: u8 = 10;

/// `K_RECONN_NAK` reason codes.
const NAK_STALE_EPOCH: u8 = 1;
const NAK_UNKNOWN_LINK: u8 = 2;
const NAK_LINK_LOST: u8 = 3;
const NAK_BUSY: u8 = 4;

fn ctx_to_u8(c: Context) -> u8 {
    match c {
        Context::Pt2pt => 0,
        Context::Coll => 1,
        Context::Stream => 2,
    }
}

fn ctx_from_u8(b: u8) -> Option<Context> {
    match b {
        0 => Some(Context::Pt2pt),
        1 => Some(Context::Coll),
        2 => Some(Context::Stream),
        _ => None,
    }
}

/// `[kind][ctx u8][tag i32][comm u64][src_local u32][src_world u32][dst u32][payload]`
fn encode_envelope(dst_world: usize, env: &Envelope) -> Vec<u8> {
    let h = &env.header;
    let mut out = Vec::with_capacity(26 + env.payload.len());
    out.push(K_ENVELOPE);
    out.push(ctx_to_u8(h.ctx));
    out.extend_from_slice(&h.tag.to_le_bytes());
    out.extend_from_slice(&h.comm.0.to_le_bytes());
    out.extend_from_slice(&(h.src_local as u32).to_le_bytes());
    out.extend_from_slice(&(h.src_world as u32).to_le_bytes());
    out.extend_from_slice(&(dst_world as u32).to_le_bytes());
    out.extend_from_slice(&env.payload);
    out
}

fn decode_envelope(p: &Bytes) -> Option<(usize, Envelope)> {
    let mut r = Reader::new(p);
    // The kind byte was matched by the caller.
    let _kind = r.u8().ok()?;
    let ctx = ctx_from_u8(r.u8().ok()?)?;
    let tag = r.i32().ok()?;
    let comm = r.u64().ok()?;
    let src_local = r.u32().ok()? as usize;
    let src_world = r.u32().ok()? as usize;
    let dst_world = r.u32().ok()? as usize;
    Some((
        dst_world,
        Envelope {
            header: EnvelopeHeader {
                ctx,
                comm: CommId(comm),
                src_local,
                src_world,
                tag,
            },
            payload: p.slice(p.len() - r.remaining()..),
        },
    ))
}

/// Why a `Hello` (or a reconnect frame) was turned away.
#[derive(Debug)]
struct HelloReject(String);

impl From<Truncated> for HelloReject {
    fn from(_: Truncated) -> HelloReject {
        HelloReject("truncated handshake frame".to_string())
    }
}

impl std::fmt::Display for HelloReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// `[kind][magic u32][version u16][proc u16][topo_hash u64][addr]`
fn encode_hello(proc_index: usize, topo_hash: u64, listen_addr: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(17 + listen_addr.len());
    out.push(K_HELLO);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(proc_index as u16).to_le_bytes());
    out.extend_from_slice(&topo_hash.to_le_bytes());
    out.extend_from_slice(listen_addr.as_bytes());
    out
}

/// Returns `(proc_index, listen_addr)` or why not.
fn decode_hello(p: &Bytes, expect_hash: u64) -> std::result::Result<(usize, String), HelloReject> {
    let reject = |what: String| Err(HelloReject(what));
    let mut r = Reader::new(p);
    let kind = r.u8()?;
    if kind != K_HELLO {
        return reject(format!("first frame is not a hello (kind {kind})"));
    }
    if r.u32()? != MAGIC {
        return reject("bad protocol magic".to_string());
    }
    let version = r.u16()?;
    if version != VERSION {
        return reject(format!("unsupported protocol version {version}"));
    }
    let proc = r.u16()? as usize;
    let hash = r.u64()?;
    if hash != expect_hash {
        return reject(format!(
            "topology mismatch (peer {hash:#018x}, local {expect_hash:#018x})"
        ));
    }
    let addr = String::from_utf8_lossy(r.rest()).into_owned();
    Ok((proc, addr))
}

/// `[kind][epoch u64][n u16]([len u16][addr bytes])*`
fn encode_roster(epoch: u64, addrs: &[String]) -> Vec<u8> {
    let mut out = vec![K_ROSTER];
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(addrs.len() as u16).to_le_bytes());
    for a in addrs {
        out.extend_from_slice(&(a.len() as u16).to_le_bytes());
        out.extend_from_slice(a.as_bytes());
    }
    out
}

fn decode_roster(p: &Bytes) -> Option<(u64, Vec<String>)> {
    let mut r = Reader::new(p);
    if r.u8().ok()? != K_ROSTER {
        return None;
    }
    let epoch = r.u64().ok()?;
    // No entry is shorter than its length prefix.
    let n = r.count(Width::U16, 2).ok()?;
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.u16().ok()? as usize;
        addrs.push(String::from_utf8_lossy(r.bytes(len).ok()?).into_owned());
    }
    Some((epoch, addrs))
}

/// `[kind][magic u32][version u16][proc u16][epoch u64][rx_seq u64]`:
/// a redialing peer presents the session epoch and how many data frames
/// it has received on the link so far.
fn encode_reconn(proc_index: usize, epoch: u64, rx_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(25);
    out.push(K_RECONN);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(proc_index as u16).to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&rx_seq.to_le_bytes());
    out
}

/// Returns `(proc_index, epoch, rx_seq)` or why not.
fn decode_reconn(p: &Bytes) -> std::result::Result<(usize, u64, u64), HelloReject> {
    let reject = |what: String| Err(HelloReject(what));
    let mut r = Reader::new(p);
    let kind = r.u8()?;
    if kind != K_RECONN {
        return reject(format!("not a reconnect frame (kind {kind})"));
    }
    if r.u32()? != MAGIC {
        return reject("bad protocol magic".to_string());
    }
    let version = r.u16()?;
    if version != VERSION {
        return reject(format!("unsupported protocol version {version}"));
    }
    Ok((r.u16()? as usize, r.u64()?, r.u64()?))
}

/// `[kind][rx_seq u64]`: the acceptor's received-frame count.
fn encode_reconn_ok(rx_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(K_RECONN_OK);
    out.extend_from_slice(&rx_seq.to_le_bytes());
    out
}

fn decode_reconn_ok(p: &Bytes) -> Option<u64> {
    let mut r = Reader::new(p);
    if r.u8().ok()? != K_RECONN_OK {
        return None;
    }
    r.u64().ok()
}

/// `[kind][rx_seq u64]`: cumulative data frames received on this link.
fn encode_ack(rx_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(K_ACK);
    out.extend_from_slice(&rx_seq.to_le_bytes());
    out
}

fn decode_ack(p: &[u8]) -> Option<u64> {
    let mut r = Reader::new(p);
    if r.u8().ok()? != K_ACK {
        return None;
    }
    r.u64().ok()
}

/// `[kind][world_rank u32]`: the rank finished; ordered after its envelopes.
fn encode_rank_done(world_rank: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.push(K_RANK_DONE);
    out.extend_from_slice(&(world_rank as u32).to_le_bytes());
    out
}

fn decode_rank_done(p: &[u8]) -> Option<usize> {
    let mut r = Reader::new(p);
    if r.u8().ok()? != K_RANK_DONE {
        return None;
    }
    Some(r.u32().ok()? as usize)
}

/// Deterministic hash of the topology every process must agree on.
fn topology_hash(num_procs: usize, rank_owner: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = h.rotate_left(27).wrapping_mul(0x1000_0000_01B3);
    };
    mix(num_procs as u64);
    mix(rank_owner.len() as u64);
    for &o in rank_owner {
        mix(o as u64);
    }
    h
}

/// A fresh session epoch, unique enough to reject a redial from a stale
/// job that found the same endpoint: wall-clock nanoseconds mixed with
/// the coordinator's pid.
fn session_epoch() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED_5EED);
    let mut h = nanos ^ ((std::process::id() as u64) << 32);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    // Epoch 0 is reserved as "no session" so a zeroed frame never matches.
    if h == 0 {
        1
    } else {
        h
    }
}

// ---------------------------------------------------------------------
// Byte-stream plumbing: one enum over TCP / Unix sockets.
// ---------------------------------------------------------------------

enum SockStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl SockStream {
    fn try_clone(&self) -> std::io::Result<SockStream> {
        Ok(match self {
            SockStream::Tcp(s) => SockStream::Tcp(s.try_clone()?),
            SockStream::Unix(s) => SockStream::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.set_read_timeout(d),
            SockStream::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn shutdown_both(&self) {
        let _ = match self {
            SockStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            SockStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for SockStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.read(buf),
            SockStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for SockStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.write(buf),
            SockStream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.flush(),
            SockStream::Unix(s) => s.flush(),
        }
    }
}

enum SockListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl SockListener {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            SockListener::Tcp(l) => l.set_nonblocking(nb),
            SockListener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> std::io::Result<SockStream> {
        match self {
            SockListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                Ok(SockStream::Tcp(s))
            }
            SockListener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(SockStream::Unix(s))
            }
        }
    }
}

/// The address process `i` listens on, and how to advertise it.
fn listen_endpoint(endpoint: &Endpoint, proc_index: usize) -> Endpoint {
    if proc_index == 0 {
        return endpoint.clone();
    }
    match endpoint {
        // Ephemeral loopback port; the real address is advertised via Hello.
        Endpoint::Tcp(_) => Endpoint::Tcp("127.0.0.1:0".to_string()),
        Endpoint::Unix(p) => {
            let mut os = p.clone().into_os_string();
            os.push(format!(".p{proc_index}"));
            Endpoint::Unix(PathBuf::from(os))
        }
    }
}

fn bind(endpoint: &Endpoint) -> std::result::Result<(SockListener, String), SocketError> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr).map_err(|e| SocketError::Bind {
                addr: endpoint.describe(),
                detail: e.to_string(),
            })?;
            let advertised = l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.clone());
            Ok((SockListener::Tcp(l), format!("tcp:{advertised}")))
        }
        Endpoint::Unix(path) => {
            // A stale socket file from a previous run would fail the bind.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path).map_err(|e| SocketError::Bind {
                addr: endpoint.describe(),
                detail: e.to_string(),
            })?;
            Ok((SockListener::Unix(l), format!("unix:{}", path.display())))
        }
    }
}

/// One connect attempt, no retry loop (redials supply their own backoff).
fn dial_once(addr: &str) -> std::result::Result<SockStream, SocketError> {
    let attempt = if let Some(a) = addr.strip_prefix("tcp:") {
        TcpStream::connect(a).map(|s| {
            let _ = s.set_nodelay(true);
            SockStream::Tcp(s)
        })
    } else if let Some(p) = addr.strip_prefix("unix:") {
        UnixStream::connect(p).map(SockStream::Unix)
    } else {
        return Err(SocketError::Handshake {
            addr: addr.to_string(),
            what: "unparseable peer address in roster".to_string(),
        });
    };
    attempt.map_err(|e| SocketError::Io {
        during: "dial",
        detail: e.to_string(),
    })
}

fn dial(
    addr: &str,
    deadline: Instant,
    waited: Duration,
) -> std::result::Result<SockStream, SocketError> {
    loop {
        match dial_once(addr) {
            Ok(s) => return Ok(s),
            Err(e @ SocketError::Handshake { .. }) => return Err(e),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                obs::m().connect_timeouts.inc();
                return Err(SocketError::ConnectTimeout {
                    addr: addr.to_string(),
                    waited_ms: waited.as_millis() as u64,
                });
            }
        }
    }
}

/// Reads exactly one frame from a handshake-phase connection, keeping any
/// over-read bytes in `fb` for the subsequent reader thread.
fn read_one_frame(
    stream: &mut SockStream,
    fb: &mut FrameBuf,
    deadline: Instant,
    addr: &str,
) -> std::result::Result<Bytes, SocketError> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match fb.next_frame() {
            Ok(Some(p)) => return Ok(p),
            Ok(None) => {}
            Err(e) => {
                return Err(SocketError::Handshake {
                    addr: addr.to_string(),
                    what: format!("unframeable bytes on the wire: {e}"),
                })
            }
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(SocketError::Handshake {
                addr: addr.to_string(),
                what: "timed out waiting for a handshake frame".to_string(),
            });
        }
        let _ = stream.set_read_timeout(Some(deadline - now));
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(SocketError::Handshake {
                    addr: addr.to_string(),
                    what: "peer closed the connection during the handshake".to_string(),
                })
            }
            Ok(n) => fb.push(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(SocketError::Handshake {
                    addr: addr.to_string(),
                    what: "timed out waiting for a handshake frame".to_string(),
                })
            }
            Err(e) => {
                return Err(SocketError::Io {
                    during: "handshake read",
                    detail: e.to_string(),
                })
            }
        }
    }
}

fn write_frame(stream: &mut SockStream, payload: &[u8]) -> std::io::Result<()> {
    let framed = try_frame(payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    stream.write_all(&framed)?;
    obs::m().frames_sent.inc();
    obs::m().bytes_sent.add(framed.len() as u64);
    Ok(())
}

/// One fully-handshaken connection plus bytes over-read past the
/// handshake frames (they belong to the data plane).
struct PeerConn {
    proc: usize,
    stream: SockStream,
    residual: FrameBuf,
}

/// Everything `connect_mesh` produces: the per-peer connections, the
/// retained listener (redials land on it for the rest of the session),
/// the advertised address of every process and the session epoch.
struct Mesh {
    conns: Vec<PeerConn>,
    listener: SockListener,
    roster: Vec<String>,
    epoch: u64,
}

/// Accepts one handshaken connection from each process index in `admit`,
/// each with the listen address its hello advertised. Any other hello —
/// garbled, for another topology, outside `admit` or for an index already
/// admitted — is rejected, counted and closed, and the wait goes on until
/// `deadline`.
fn accept_hellos(
    listener: &SockListener,
    admit: Range<usize>,
    deadline: Instant,
    topo_hash: u64,
) -> std::result::Result<Vec<(PeerConn, String)>, SocketError> {
    let started = Instant::now();
    let mut admitted: Vec<(PeerConn, String)> = Vec::with_capacity(admit.len());
    listener
        .set_nonblocking(true)
        .map_err(|e| SocketError::Io {
            during: "listener setup",
            detail: e.to_string(),
        })?;
    while admitted.len() < admit.len() {
        match listener.accept() {
            Ok(mut s) => {
                let mut fb = FrameBuf::new();
                let hello_deadline = deadline.min(Instant::now() + HELLO_TIMEOUT);
                let hello = read_one_frame(&mut s, &mut fb, hello_deadline, "incoming")
                    .map_err(|e| HelloReject(e.to_string()))
                    .and_then(|p| decode_hello(&p, topo_hash));
                match hello {
                    Ok((proc, addr))
                        if admit.contains(&proc)
                            && !admitted.iter().any(|(c, _)| c.proc == proc) =>
                    {
                        let conn = PeerConn {
                            proc,
                            stream: s,
                            residual: fb,
                        };
                        admitted.push((conn, addr));
                    }
                    _ => {
                        obs::m().handshake_rejected.inc();
                        s.shutdown_both();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    obs::m().connect_timeouts.inc();
                    return Err(SocketError::AcceptTimeout {
                        waited_ms: started.elapsed().as_millis() as u64,
                        missing: admit.len() - admitted.len(),
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(SocketError::Io {
                    during: "accept",
                    detail: e.to_string(),
                })
            }
        }
    }
    Ok(admitted)
}

/// Establishes the full mesh for this process.
fn connect_mesh(
    topo: &MultiprocTopology,
    topo_hash: u64,
) -> std::result::Result<Mesh, SocketError> {
    let n = topo.num_procs;
    let me = topo.proc_index;
    let deadline = Instant::now() + topo.socket.connect_timeout;

    let (listener, my_addr) = bind(&listen_endpoint(&topo.socket.endpoint, me))?;

    if me == 0 {
        // Coordinator: collect a hello from every other process, then
        // broadcast the roster of listen addresses.
        let epoch = session_epoch();
        let mut roster = vec![String::new(); n];
        roster[0] = my_addr;
        let mut conns = Vec::with_capacity(n - 1);
        for (conn, addr) in accept_hellos(&listener, 1..n, deadline, topo_hash)? {
            roster[conn.proc] = addr;
            conns.push(conn);
        }
        let payload = encode_roster(epoch, &roster);
        for c in &mut conns {
            write_frame(&mut c.stream, &payload).map_err(|e| SocketError::Io {
                during: "roster broadcast",
                detail: e.to_string(),
            })?;
        }
        return Ok(Mesh {
            conns,
            listener,
            roster,
            epoch,
        });
    }

    // Non-coordinator: dial the coordinator, learn the roster, dial every
    // lower-indexed peer, accept every higher-indexed one.
    let coord_addr = match &topo.socket.endpoint {
        Endpoint::Tcp(a) => format!("tcp:{a}"),
        Endpoint::Unix(p) => format!("unix:{}", p.display()),
    };
    let mut coord = dial(&coord_addr, deadline, topo.socket.connect_timeout)?;
    write_frame(&mut coord, &encode_hello(me, topo_hash, &my_addr)).map_err(|e| {
        SocketError::Io {
            during: "hello send",
            detail: e.to_string(),
        }
    })?;
    let mut coord_fb = FrameBuf::new();
    let roster_frame = read_one_frame(&mut coord, &mut coord_fb, deadline, &coord_addr)?;
    let (epoch, roster) = decode_roster(&roster_frame).ok_or_else(|| {
        obs::m().handshake_rejected.inc();
        SocketError::Handshake {
            addr: coord_addr.clone(),
            what: "coordinator sent an invalid roster".to_string(),
        }
    })?;
    if roster.len() != n {
        return Err(SocketError::Handshake {
            addr: coord_addr.clone(),
            what: format!("roster lists {} processes, expected {n}", roster.len()),
        });
    }
    let mut conns = vec![PeerConn {
        proc: 0,
        stream: coord,
        residual: coord_fb,
    }];

    for (j, addr) in roster.iter().enumerate().take(me).skip(1) {
        let mut s = dial(addr, deadline, topo.socket.connect_timeout)?;
        write_frame(&mut s, &encode_hello(me, topo_hash, "")).map_err(|e| SocketError::Io {
            during: "hello send",
            detail: e.to_string(),
        })?;
        conns.push(PeerConn {
            proc: j,
            stream: s,
            residual: FrameBuf::new(),
        });
    }
    let accepted = accept_hellos(&listener, me + 1..n, deadline, topo_hash)?;
    conns.extend(accepted.into_iter().map(|(conn, _)| conn));

    Ok(Mesh {
        conns,
        listener,
        roster,
        epoch,
    })
}

// ---------------------------------------------------------------------
// The transport itself.
// ---------------------------------------------------------------------

/// How many received data frames between acknowledgements. Bounds the
/// sender's retransmit buffer to roughly this many frames plus whatever
/// is in flight.
const ACK_INTERVAL: u64 = 32;

/// Per-link state guarded by one mutex: the write half, the retransmit
/// buffer and the stream-generation bookkeeping the reconnect protocol
/// needs.
struct LinkState {
    /// Write half; `None` while the link is down or after loss.
    writer: Option<SockStream>,
    /// Data frames appended to this link (sent or buffered).
    tx_seq: u64,
    /// Sequence number of the front of `tx_buf` (last acked frame count).
    tx_base: u64,
    /// Unacknowledged data-frame payloads, sequences `tx_base..tx_seq`.
    tx_buf: VecDeque<Vec<u8>>,
    /// Stream generation: bumped every time a new stream is installed.
    /// A reader thread carries the generation it was spawned for, so a
    /// stale reader's exit cannot tear down its successor.
    generation: u64,
    /// Highest generation whose reader thread has fully drained and
    /// exited. A redial is answered only once the current generation's
    /// reader settled, so `rx_seq` is final.
    settled_gen: u64,
    /// A recovery (redial or grace watchdog) is in flight.
    recovering: bool,
    /// Chaos: this side already severed the link once.
    severed: bool,
}

struct Link {
    proc: usize,
    state: Mutex<LinkState>,
    /// Signalled on every state transition (stream installed, reader
    /// settled, link lost).
    cv: Condvar,
    /// Data frames received on this link, written by the reader thread.
    rx_seq: AtomicU64,
    /// The peer announced clean completion (`ProcDone`).
    done: AtomicBool,
    /// The link degraded permanently (retry budget / grace exhausted).
    lost: AtomicBool,
}

impl Link {
    fn new(proc: usize) -> Self {
        Link {
            proc,
            state: Mutex::new(LinkState {
                writer: None,
                tx_seq: 0,
                tx_base: 0,
                tx_buf: VecDeque::new(),
                generation: 0,
                settled_gen: 0,
                recovering: false,
                severed: false,
            }),
            cv: Condvar::new(),
            rx_seq: AtomicU64::new(0),
            done: AtomicBool::new(false),
            lost: AtomicBool::new(false),
        }
    }
}

/// The mesh handshake runs concurrently with partition startup; remote
/// operations block on this gate until the mesh is up (or failed).
enum MeshState {
    Pending,
    Ready,
    Failed(SocketError),
}

struct MeshGate {
    state: Mutex<MeshState>,
    cv: Condvar,
}

impl MeshGate {
    fn new() -> Self {
        MeshGate {
            state: Mutex::new(MeshState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the mesh resolved; `true` iff it came up.
    fn wait_ready(&self) -> bool {
        let mut g = self.state.lock();
        while matches!(*g, MeshState::Pending) {
            self.cv.wait(&mut g);
        }
        matches!(*g, MeshState::Ready)
    }

    fn set_ready(&self) {
        *self.state.lock() = MeshState::Ready;
        self.cv.notify_all();
    }

    fn set_failed(&self, e: SocketError) {
        let mut g = self.state.lock();
        if matches!(*g, MeshState::Pending) {
            *g = MeshState::Failed(e);
        }
        self.cv.notify_all();
    }

    fn take_error(&self) -> Option<SocketError> {
        match &*self.state.lock() {
            MeshState::Failed(e) => Some(e.clone()),
            _ => None,
        }
    }
}

struct Teardown {
    state: Mutex<()>,
    cv: Condvar,
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
    /// This process's index.
    proc_index: usize,
    /// Slot per process; set once during `start`, before the gate opens.
    links: Vec<OnceLock<Arc<Link>>>,
    /// Reader + recovery + acceptor thread handles, joined at finalize.
    thread_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    shutdown_sent: AtomicBool,
    teardown: Teardown,
    /// Redial policy and chaos injection; `connect_timeout` also bounds
    /// the teardown drain.
    config: SocketConfig,
    gate: MeshGate,
    /// Session epoch + advertised address of every process; set by
    /// `start` together with the links.
    session: OnceLock<(u64, Vec<String>)>,
    /// Finalize has begun: recovery threads stand down, the acceptor
    /// loop exits.
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
        Arc::new(SocketTransport {
            mailboxes,
            alive,
            rank_owner,
            proc_index,
            links: (0..num_procs).map(|_| OnceLock::new()).collect(),
            thread_handles: Mutex::new(Vec::new()),
            shutdown_sent: AtomicBool::new(false),
            teardown: Teardown {
                state: Mutex::new(()),
                cv: Condvar::new(),
            },
            config,
            gate: MeshGate::new(),
            session: OnceLock::new(),
            closing: AtomicBool::new(false),
        })
    }

    /// Installs the handshaken connections, spawns one reader thread per
    /// peer plus the redial acceptor, and opens the mesh gate. Called
    /// exactly once, from the mesh thread.
    fn start(self: &Arc<Self>, mesh: Mesh) {
        let _ = self.session.set((mesh.epoch, mesh.roster));
        for conn in mesh.conns {
            let link = Arc::new(Link::new(conn.proc));
            if let Some(slot) = self.links.get(conn.proc) {
                let _ = slot.set(Arc::clone(&link));
            }
            let gen = {
                let mut st = link.state.lock();
                st.generation += 1;
                match conn.stream.try_clone() {
                    Ok(w) => st.writer = Some(w),
                    Err(_) => {
                        // Cloning the descriptor failed: the peer is
                        // unreachable for writes from the start.
                        drop(st);
                        self.finish_lost(&link);
                        continue;
                    }
                }
                st.generation
            };
            self.spawn_reader(conn.proc, conn.stream, conn.residual, gen);
        }
        self.spawn_acceptor(mesh.listener);
        self.gate.set_ready();
    }

    /// The mesh never came up: fail the gate, release local ranks and
    /// mark every remote rank dead so nothing blocks forever.
    fn mesh_failed(&self, e: SocketError) {
        self.gate.set_failed(e);
        for (r, &o) in self.rank_owner.iter().enumerate() {
            if o != self.proc_index {
                self.alive[r].store(false, Ordering::Release);
            }
        }
        self.bump_local();
        self.shutdown_local();
        let _g = self.teardown.state.lock();
        self.teardown.cv.notify_all();
    }

    fn link(&self, proc: usize) -> Option<&Arc<Link>> {
        self.links.get(proc).and_then(|slot| slot.get())
    }

    fn all_links(&self) -> impl Iterator<Item = &Arc<Link>> {
        self.links.iter().filter_map(|slot| slot.get())
    }

    fn spawn_reader(self: &Arc<Self>, proc: usize, stream: SockStream, fb: FrameBuf, gen: u64) {
        let this = Arc::clone(self);
        let h = std::thread::Builder::new()
            .name(format!("sock-rx-p{proc}"))
            .spawn(move || this.reader_loop(proc, stream, fb, gen));
        match h {
            Ok(h) => self.thread_handles.lock().push(h),
            Err(_) => {
                if let Some(link) = self.link(proc) {
                    let link = Arc::clone(link);
                    {
                        let mut st = link.state.lock();
                        st.settled_gen = st.settled_gen.max(gen);
                    }
                    self.finish_lost(&link);
                }
            }
        }
    }

    /// Sends one *data* frame on a link: sequenced, buffered for
    /// retransmission, written through if the stream is up — silently
    /// queued while a reconnect is in flight.
    fn send_data(&self, link: &Arc<Link>, payload: &[u8]) -> std::result::Result<(), ()> {
        if link.lost.load(Ordering::Acquire) {
            return Err(());
        }
        let mut st = link.state.lock();
        st.tx_seq += 1;
        st.tx_buf.push_back(payload.to_vec());
        if st.writer.is_some() {
            let severed_now = self.chaos_should_sever(link.proc, &mut st);
            let write_failed = match st.writer.as_mut() {
                Some(w) => write_frame(w, payload).is_err(),
                None => false,
            };
            if write_failed || severed_now {
                // Shut the stream down and let the reader thread drive
                // recovery once it has drained everything in flight.
                if let Some(w) = st.writer.take() {
                    w.shutdown_both();
                }
            }
        }
        Ok(())
    }

    /// Chaos hook, send side: the lower-indexed side of each link severs
    /// it once after the configured number of sent data frames.
    fn chaos_should_sever(&self, peer_proc: usize, st: &mut LinkState) -> bool {
        let Some(fault) = self.config.link_fault else {
            return false;
        };
        if self.proc_index > peer_proc || st.severed || st.tx_seq < fault.sever_after_frames {
            return false;
        }
        st.severed = true;
        obs::m().chaos_severs.inc();
        true
    }

    /// Chaos hook, receive side: a link's heavy direction may be inbound
    /// (the analyzer process mostly receives), so the lower-indexed side
    /// also severs once after *receiving* the configured number of data
    /// frames. Shares the once-per-link `severed` flag with the send
    /// hook.
    fn chaos_maybe_sever_rx(&self, link: &Arc<Link>) {
        let Some(fault) = self.config.link_fault else {
            return;
        };
        if self.proc_index > link.proc
            || link.rx_seq.load(Ordering::Acquire) < fault.sever_after_frames
        {
            return;
        }
        let mut st = link.state.lock();
        if st.severed {
            return;
        }
        st.severed = true;
        obs::m().chaos_severs.inc();
        // Shutting the socket down makes both readers see EOF; the
        // normal recovery path (grace watchdog here, redial on the
        // peer) takes it from there.
        if let Some(w) = st.writer.take() {
            w.shutdown_both();
        }
    }

    /// Sends one *link* frame (ack / reconnect control): unsequenced,
    /// never buffered, errors ignored (the reader notices real loss).
    fn send_link_frame(&self, link: &Arc<Link>, payload: &[u8]) {
        let mut st = link.state.lock();
        if let Some(w) = st.writer.as_mut() {
            if write_frame(w, payload).is_err() {
                if let Some(w) = st.writer.take() {
                    w.shutdown_both();
                }
            }
        }
    }

    fn broadcast(&self, payload: &[u8]) {
        for link in self.all_links() {
            let _ = self.send_data(link, payload);
        }
    }

    /// Prunes the retransmit buffer up to the peer's acknowledged count.
    fn prune_acked(&self, link: &Arc<Link>, acked: u64) {
        let mut st = link.state.lock();
        while st.tx_base < acked {
            if st.tx_buf.pop_front().is_none() {
                break;
            }
            st.tx_base += 1;
        }
    }

    /// Permanent link loss: flips rank liveness, ticks the disconnect
    /// counter exactly once, wakes everything waiting on the link.
    fn finish_lost(&self, link: &Arc<Link>) {
        if link.lost.swap(true, Ordering::AcqRel) {
            return;
        }
        obs::m().peer_disconnects.inc();
        {
            let mut st = link.state.lock();
            if let Some(w) = st.writer.take() {
                w.shutdown_both();
            }
            st.recovering = false;
        }
        link.cv.notify_all();
        for (r, &o) in self.rank_owner.iter().enumerate() {
            if o == link.proc {
                self.alive[r].store(false, Ordering::Release);
            }
        }
        self.bump_local();
        let _g = self.teardown.state.lock();
        self.teardown.cv.notify_all();
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

    fn handle_frame(&self, proc: usize, payload: &Bytes) -> bool {
        match payload.first().copied() {
            Some(K_ENVELOPE) => {
                if let Some((dst, env)) = decode_envelope(payload) {
                    if let Some(Some(mb)) = self.mailboxes.get(dst) {
                        // Remote deliveries are always eager: the socket's
                        // flow control *is* the back-pressure. A Shutdown
                        // error here just means the job is tearing down.
                        let _ = mb.deliver(env, usize::MAX);
                    }
                }
                true
            }
            Some(K_RANK_DONE) => {
                if let Some(r) = decode_rank_done(payload) {
                    if let Some(flag) = self.alive.get(r) {
                        flag.store(false, Ordering::Release);
                        self.bump_local();
                    }
                }
                true
            }
            Some(K_SHUTDOWN) => {
                // A remote rank failed: release every local blocked rank,
                // exactly like the in-process teardown.
                self.shutdown_local();
                true
            }
            Some(K_PROC_DONE) => {
                if let Some(link) = self.link(proc) {
                    link.done.store(true, Ordering::Release);
                }
                let _g = self.teardown.state.lock();
                self.teardown.cv.notify_all();
                true
            }
            // Unknown or handshake-phase frame on the data plane: the
            // peer is off-protocol. Treat the connection as lost.
            _ => false,
        }
    }

    fn reader_loop(
        self: Arc<Self>,
        proc: usize,
        mut stream: SockStream,
        mut fb: FrameBuf,
        gen: u64,
    ) {
        let _ = stream.set_read_timeout(None);
        let mut buf = vec![0u8; 64 * 1024];
        let link = self.link(proc).map(Arc::clone);
        let mut unacked: u64 = 0;
        let clean = 'conn: loop {
            loop {
                match fb.next_frame() {
                    Ok(Some(p)) => {
                        obs::m().frames_received.inc();
                        match p.first().copied() {
                            Some(K_ACK) => {
                                if let (Some(link), Some(acked)) = (link.as_ref(), decode_ack(&p)) {
                                    self.prune_acked(link, acked);
                                }
                            }
                            Some(K_ENVELOPE) | Some(K_RANK_DONE) | Some(K_SHUTDOWN)
                            | Some(K_PROC_DONE) => {
                                if let Some(link) = link.as_ref() {
                                    link.rx_seq.fetch_add(1, Ordering::AcqRel);
                                    unacked += 1;
                                    if unacked >= ACK_INTERVAL {
                                        unacked = 0;
                                        let rx = link.rx_seq.load(Ordering::Acquire);
                                        self.send_link_frame(link, &encode_ack(rx));
                                    }
                                    self.chaos_maybe_sever_rx(link);
                                }
                                if !self.handle_frame(proc, &p) {
                                    break 'conn false;
                                }
                            }
                            _ => break 'conn false,
                        }
                    }
                    Ok(None) => break,
                    // Corrupt framing: no resync is possible, the
                    // connection is unusable.
                    Err(_) => break 'conn false,
                }
            }
            match stream.read(&mut buf) {
                Ok(0) => break 'conn true,
                Ok(n) => {
                    obs::m().bytes_received.add(n as u64);
                    fb.push(&buf[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break 'conn true,
            }
        };
        self.reader_exited(proc, gen, clean);
    }

    /// Classifies a reader thread's exit: clean completion, stale
    /// generation, teardown — or a mid-session drop that starts the
    /// reconnect protocol for the link.
    fn reader_exited(self: &Arc<Self>, proc: usize, gen: u64, clean: bool) {
        let Some(link) = self.link(proc).map(Arc::clone) else {
            return;
        };
        let start_recovery = {
            let mut st = link.state.lock();
            st.settled_gen = st.settled_gen.max(gen);
            link.cv.notify_all();
            let peer_done = link.done.load(Ordering::Acquire);
            let stale = gen != st.generation;
            let off_protocol = !clean;
            if stale || link.lost.load(Ordering::Acquire) || st.recovering {
                false
            } else if peer_done && !off_protocol {
                // Normal close after ProcDone: nothing to recover.
                false
            } else if self.closing.load(Ordering::Acquire) {
                // Our own finalize shut the streams down.
                false
            } else if peer_done && off_protocol {
                // Garbage after a clean ProcDone: data is complete, the
                // peer is settled either way.
                false
            } else {
                // EOF/garbage without ProcDone: the stream dropped
                // mid-session. Take the link down and recover.
                if let Some(w) = st.writer.take() {
                    w.shutdown_both();
                }
                st.recovering = true;
                true
            }
        };
        if !start_recovery {
            let _g = self.teardown.state.lock();
            self.teardown.cv.notify_all();
            return;
        }
        let this = Arc::clone(self);
        let l = Arc::clone(&link);
        let name = format!("sock-rec-p{proc}");
        let spawned = std::thread::Builder::new().name(name).spawn(move || {
            if this.proc_index > l.proc {
                this.redial_loop(&l);
            } else {
                this.grace_watchdog(&l);
            }
        });
        match spawned {
            Ok(h) => self.thread_handles.lock().push(h),
            Err(_) => self.finish_lost(&link),
        }
    }

    /// Dialer-side recovery: bounded exponential-backoff redials of the
    /// peer's retained listener.
    fn redial_loop(self: &Arc<Self>, link: &Arc<Link>) {
        let mut backoff = self.config.backoff_base;
        for attempt in 0..self.config.retry_budget {
            if self.closing.load(Ordering::Acquire) || link.lost.load(Ordering::Acquire) {
                return;
            }
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            obs::m().reconnect_attempts.inc();
            match self.redial_once(link) {
                Ok(()) => {
                    obs::m().reconnects.inc();
                    return;
                }
                Err(fatal) if fatal => break,
                Err(_) => {}
            }
        }
        obs::m().reconnect_exhausted.inc();
        self.finish_lost(link);
    }

    /// One redial attempt. `Err(true)` is fatal (stale epoch / lost),
    /// `Err(false)` is retryable.
    fn redial_once(self: &Arc<Self>, link: &Arc<Link>) -> std::result::Result<(), bool> {
        let Some((epoch, roster)) = self.session.get() else {
            return Err(true);
        };
        let Some(addr) = roster.get(link.proc) else {
            return Err(true);
        };
        let mut s = dial_once(addr).map_err(|_| false)?;
        let rx = link.rx_seq.load(Ordering::Acquire);
        write_frame(&mut s, &encode_reconn(self.proc_index, *epoch, rx)).map_err(|_| false)?;
        // The acceptor may hold the reply until its own reader drained,
        // bounded by its grace window.
        let deadline = Instant::now() + RECONNECT_GRACE + HELLO_TIMEOUT;
        let mut fb = FrameBuf::new();
        let reply = read_one_frame(&mut s, &mut fb, deadline, addr).map_err(|_| false)?;
        match reply.first().copied() {
            Some(K_RECONN_OK) => {
                let Some(peer_rx) = decode_reconn_ok(&reply) else {
                    return Err(false);
                };
                self.install_stream(link, s, fb, peer_rx)
            }
            Some(K_RECONN_NAK) => {
                let reason = reply.get(1).copied().unwrap_or(0);
                if reason == NAK_STALE_EPOCH {
                    obs::m().reconnect_stale_epoch.inc();
                }
                // Stale epoch or lost link: no future attempt can
                // succeed. Busy/unknown may be a race; retry.
                Err(reason == NAK_STALE_EPOCH || reason == NAK_LINK_LOST)
            }
            _ => Err(false),
        }
    }

    /// Installs a re-established stream on a link: retransmits the
    /// suffix the peer never received, swaps the writer in and spawns
    /// the next-generation reader. Shared by both sides.
    fn install_stream(
        self: &Arc<Self>,
        link: &Arc<Link>,
        stream: SockStream,
        residual: FrameBuf,
        peer_rx: u64,
    ) -> std::result::Result<(), bool> {
        let mut s = stream;
        let gen = {
            let mut st = link.state.lock();
            if link.lost.load(Ordering::Acquire) {
                return Err(true);
            }
            // The peer acknowledged everything up to `peer_rx`; drop it
            // from the buffer, resend the rest in order.
            while st.tx_base < peer_rx {
                if st.tx_buf.pop_front().is_none() {
                    break;
                }
                st.tx_base += 1;
            }
            for payload in st.tx_buf.iter() {
                if write_frame(&mut s, payload).is_err() {
                    return Err(false);
                }
                obs::m().frames_retransmitted.inc();
            }
            let writer = s.try_clone().map_err(|_| false)?;
            st.writer = Some(writer);
            st.generation += 1;
            st.recovering = false;
            st.generation
        };
        link.cv.notify_all();
        self.spawn_reader(link.proc, s, residual, gen);
        Ok(())
    }

    /// Acceptor-side recovery: wait for the peer to redial within the
    /// grace window; degrade to `PeerLost` if it never does. A dead
    /// peer's redials fail instantly, so the dialer's budget is usually
    /// exhausted well inside this window.
    fn grace_watchdog(self: &Arc<Self>, link: &Arc<Link>) {
        let deadline = Instant::now() + RECONNECT_GRACE;
        let mut st = link.state.lock();
        loop {
            if !st.recovering || link.lost.load(Ordering::Acquire) {
                return; // redial landed (or loss already recorded)
            }
            if self.closing.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            link.cv.wait_for(&mut st, deadline - now);
        }
        drop(st);
        obs::m().reconnect_exhausted.inc();
        self.finish_lost(link);
    }

    /// The redial acceptor: owns the retained listener for the rest of
    /// the session and splices re-established streams back into links.
    fn spawn_acceptor(self: &Arc<Self>, listener: SockListener) {
        if listener.set_nonblocking(true).is_err() {
            return;
        }
        let this = Arc::clone(self);
        let h = std::thread::Builder::new()
            .name("sock-accept".to_string())
            .spawn(move || loop {
                if this.closing.load(Ordering::Acquire) {
                    return;
                }
                match listener.accept() {
                    Ok(s) => this.handle_redial(s),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            });
        if let Ok(h) = h {
            self.thread_handles.lock().push(h);
        }
    }

    /// Validates one incoming redial: protocol magic, session epoch and
    /// link identity, then answers with our received count and resumes
    /// the stream.
    fn handle_redial(self: &Arc<Self>, mut s: SockStream) {
        let mut fb = FrameBuf::new();
        let deadline = Instant::now() + HELLO_TIMEOUT;
        let frame = match read_one_frame(&mut s, &mut fb, deadline, "redial") {
            Ok(f) => f,
            Err(_) => {
                obs::m().handshake_rejected.inc();
                s.shutdown_both();
                return;
            }
        };
        let (proc, peer_epoch, peer_rx) = match decode_reconn(&frame) {
            Ok(t) => t,
            Err(_) => {
                obs::m().handshake_rejected.inc();
                s.shutdown_both();
                return;
            }
        };
        let nak = |mut s: SockStream, reason: u8| {
            let _ = write_frame(&mut s, &[K_RECONN_NAK, reason]);
            s.shutdown_both();
        };
        let Some((epoch, _)) = self.session.get() else {
            nak(s, NAK_BUSY);
            return;
        };
        if peer_epoch != *epoch {
            obs::m().reconnect_stale_epoch.inc();
            nak(s, NAK_STALE_EPOCH);
            return;
        }
        if proc <= self.proc_index {
            obs::m().handshake_rejected.inc();
            nak(s, NAK_UNKNOWN_LINK);
            return;
        }
        let Some(link) = self.link(proc).map(Arc::clone) else {
            obs::m().handshake_rejected.inc();
            nak(s, NAK_UNKNOWN_LINK);
            return;
        };
        if link.lost.load(Ordering::Acquire) {
            nak(s, NAK_LINK_LOST);
            return;
        }
        // Wait until our reader for the dying stream has fully drained,
        // so `rx_seq` is final and the retransmit suffix is exact. The
        // redial itself proves the old stream is gone, so force it shut
        // to unblock that reader.
        {
            let grace_deadline = Instant::now() + RECONNECT_GRACE;
            let mut st = link.state.lock();
            if let Some(w) = st.writer.take() {
                w.shutdown_both();
            }
            while st.settled_gen < st.generation {
                if link.lost.load(Ordering::Acquire) {
                    drop(st);
                    nak(s, NAK_LINK_LOST);
                    return;
                }
                let now = Instant::now();
                if now >= grace_deadline {
                    drop(st);
                    nak(s, NAK_BUSY);
                    return;
                }
                link.cv.wait_for(&mut st, grace_deadline - now);
            }
            // Claim the recovery so a late grace watchdog stands down.
            st.recovering = false;
        }
        link.cv.notify_all();
        let rx = link.rx_seq.load(Ordering::Acquire);
        if write_frame(&mut s, &encode_reconn_ok(rx)).is_err() {
            s.shutdown_both();
            return;
        }
        if self.install_stream(&link, s, fb, peer_rx).is_ok() {
            obs::m().reconnects.inc();
        }
    }

    fn peers_settled(&self) -> bool {
        self.all_links()
            .all(|l| l.done.load(Ordering::Acquire) || l.lost.load(Ordering::Acquire))
    }
}

impl Transport for SocketTransport {
    fn world_size(&self) -> usize {
        self.rank_owner.len()
    }

    fn backend_name(&self) -> &'static str {
        "socket"
    }

    fn deliver(&self, dst_world: usize, env: Envelope, eager_limit: usize) -> Result<Delivery> {
        if let Some(Some(mb)) = self.mailboxes.get(dst_world) {
            return mb.deliver(env, eager_limit);
        }
        // First remote operation blocks here until the overlapped mesh
        // handshake resolves.
        let unreachable = RtError::Unreachable { dst: dst_world };
        if !self.gate.wait_ready() {
            return Err(unreachable);
        }
        let proc = *self
            .rank_owner
            .get(dst_world)
            .ok_or(RtError::Protocol("destination rank outside the world"))?;
        let link = self
            .link(proc)
            .ok_or(RtError::Protocol("no connection to destination process"))?;
        let payload = encode_envelope(dst_world, &env);
        // A link lost past its redial budget.
        self.send_data(link, &payload).map_err(|()| unreachable)?;
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
        self.bump_local();
        // Ordered after every envelope the rank wrote (same per-link
        // sequence, same connection): peers observing the flag flip
        // already have all of the rank's data in their mailboxes.
        if self.gate.wait_ready() {
            self.broadcast(&encode_rank_done(world_rank));
        }
    }

    fn shutdown_all(&self) {
        self.shutdown_local();
        if !self.shutdown_sent.swap(true, Ordering::AcqRel) && self.gate.wait_ready() {
            self.broadcast(&[K_SHUTDOWN]);
        }
    }

    fn finalize_local(&self) {
        // 0. If the mesh never came up there is nothing to drain.
        if !self.gate.wait_ready() {
            self.closing.store(true, Ordering::Release);
            return;
        }
        // 1. Announce clean completion of this process…
        self.broadcast(&[K_PROC_DONE]);
        // 2. …wait until every peer has done the same (or vanished)…
        let deadline = Instant::now() + self.config.connect_timeout;
        {
            let mut g = self.teardown.state.lock();
            while !self.peers_settled() {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                self.teardown.cv.wait_for(&mut g, deadline - now);
            }
        }
        // 3. …then close. Recovery threads and the acceptor stand down;
        // readers (ours and the peers') wake with EOF *after* ProcDone,
        // so nobody classifies this as a crash.
        self.closing.store(true, Ordering::Release);
        for link in self.all_links() {
            let st = link.state.lock();
            if let Some(w) = st.writer.as_ref() {
                w.shutdown_both();
            }
            drop(st);
            link.cv.notify_all();
        }
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
    /// partitions in the same order, same fault plan and eager limit) and
    /// the same topology apart from `proc_index`; the handshake
    /// cross-checks a topology hash and rejects mismatches with a typed
    /// [`SocketError`]. Ranks of partitions assigned to `proc_index` run
    /// here as threads; all other ranks are reached through the socket
    /// mesh. The mesh handshake overlaps partition startup: local ranks
    /// begin executing immediately and block only at their first remote
    /// operation. Returns when all locally hosted ranks have finished and
    /// the mesh has drained; a handshake failure takes precedence over
    /// the rank failures it induced.
    pub fn run_multiproc(self, topo: MultiprocTopology) -> std::result::Result<(), MultiprocError> {
        assert!(!self.specs.is_empty(), "no partitions configured");
        topo.socket.validate()?;
        if topo.num_procs == 0 || topo.proc_index >= topo.num_procs {
            return Err(SocketError::BadTopology {
                what: format!(
                    "process index {} outside 0..{}",
                    topo.proc_index, topo.num_procs
                ),
            }
            .into());
        }
        let infos = self.build_infos();
        let n_partitions = infos.len();
        let mut rank_owner = Vec::new();
        for info in &infos {
            let owner = topo
                .assign
                .proc_of(info.id, n_partitions, topo.num_procs)
                .map_err(MultiprocError::Socket)?;
            rank_owner.extend(std::iter::repeat_n(owner, info.size));
        }
        let topo_hash = topology_hash(topo.num_procs, &rank_owner);

        let transport = SocketTransport::new(
            topo.proc_index,
            rank_owner.clone(),
            topo.num_procs,
            topo.socket.clone(),
        );

        // Overlap the coordinator handshake with partition startup: the
        // mesh assembles on its own thread while local ranks construct
        // and run; the transport's gate serializes only the first remote
        // operation against handshake completion.
        let mesh_thread = if topo.num_procs == 1 {
            transport.gate.set_ready();
            None
        } else {
            let t = Arc::clone(&transport);
            let topo2 = topo.clone();
            let h = std::thread::Builder::new()
                .name("sock-mesh".to_string())
                .spawn(move || match connect_mesh(&topo2, topo_hash) {
                    Ok(mesh) => t.start(mesh),
                    Err(e) => t.mesh_failed(e),
                })
                .map_err(|e| SocketError::Io {
                    during: "mesh thread spawn",
                    detail: e.to_string(),
                })?;
            Some(h)
        };

        let universe = Universe::with_transport(
            infos,
            self.eager_limit,
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
        // A mesh failure explains any rank failures it induced: surface
        // the root cause, not the symptoms.
        if let Some(e) = transport.gate.take_error() {
            return Err(MultiprocError::Socket(e));
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(LaunchError { failures }.into())
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
    use super::*;
    use crate::mailbox::make_envelope;

    #[test]
    fn envelope_roundtrips_on_the_wire() {
        let env = make_envelope(
            Context::Stream,
            CommId(0xDEAD_BEEF_0042),
            3,
            7,
            0x0500_0001,
            Bytes::from(vec![9u8; 300]),
        );
        let wire = Bytes::from(encode_envelope(11, &env));
        let (dst, back) = decode_envelope(&wire).unwrap();
        assert_eq!(dst, 11);
        assert_eq!(back.header, env.header);
        assert_eq!(back.payload, env.payload);
    }

    /// The private handshake and envelope decoders under the workspace's
    /// one hostile-input check (`tests/wire_hostile.rs` runs the public
    /// decoders through the same function).
    #[test]
    fn socket_decoders_survive_hostile_bytes() {
        use opmr_events::wire::check_decoder;
        let env = make_envelope(
            Context::Coll,
            CommId(7),
            1,
            2,
            -3,
            Bytes::from(vec![5u8; 40]),
        );
        check_decoder("decode_envelope", &encode_envelope(11, &env), 26, |b| {
            decode_envelope(&Bytes::copy_from_slice(b)).is_some()
        });
        let hello = encode_hello(3, 0xABCD, "unix:/tmp/x");
        check_decoder("decode_hello", &hello, 17, |b| {
            decode_hello(&Bytes::copy_from_slice(b), 0xABCD).is_ok()
        });
        let addrs = ["tcp:127.0.0.1:9000".to_string(), String::new()];
        let roster = encode_roster(0xFEED, &addrs);
        check_decoder("decode_roster", &roster, roster.len(), |b| {
            decode_roster(&Bytes::copy_from_slice(b)).is_some()
        });
        check_decoder("decode_reconn", &encode_reconn(5, 0xE90C4, 1234), 25, |b| {
            decode_reconn(&Bytes::copy_from_slice(b)).is_ok()
        });
        check_decoder("decode_reconn_ok", &encode_reconn_ok(987), 9, |b| {
            decode_reconn_ok(&Bytes::copy_from_slice(b)).is_some()
        });
        check_decoder("decode_ack", &encode_ack(42), 9, |b| {
            decode_ack(b).is_some()
        });
        check_decoder("decode_rank_done", &encode_rank_done(6), 5, |b| {
            decode_rank_done(b).is_some()
        });
    }

    #[test]
    fn context_codes_are_stable() {
        for ctx in [Context::Pt2pt, Context::Coll, Context::Stream] {
            assert_eq!(ctx_from_u8(ctx_to_u8(ctx)), Some(ctx));
        }
        assert_eq!(ctx_from_u8(9), None);
    }

    #[test]
    fn hello_roundtrip_and_validation() {
        let wire = Bytes::from(encode_hello(3, 0xABCD, "unix:/tmp/x"));
        let (proc, addr) = decode_hello(&wire, 0xABCD).unwrap();
        assert_eq!((proc, addr.as_str()), (3, "unix:/tmp/x"));
        // Wrong topology hash is rejected with a description.
        let err = decode_hello(&wire, 0x1234).unwrap_err().to_string();
        assert!(err.contains("topology mismatch"), "{err}");
        // Garbage is rejected, not mis-decoded.
        let garbage = Bytes::from_static(b"\x01nonsense....................");
        assert!(decode_hello(&garbage, 0xABCD).is_err());
    }

    /// Handshake frames of the retired versions 2 and 3 are typed
    /// rejections, not peers on a compatibility path.
    #[test]
    fn retired_hello_and_reconnect_versions_are_typed_rejections() {
        for version in [2u16, 3] {
            let mut hello = encode_hello(2, 0xABCD, "unix:/tmp/legacy");
            hello[5..7].copy_from_slice(&version.to_le_bytes());
            let err = decode_hello(&Bytes::from(hello), 0xABCD).unwrap_err();
            assert!(
                err.to_string().contains(&format!("version {version}")),
                "{err}"
            );

            let mut reconn = encode_reconn(5, 0xE90C4, 1234);
            reconn[5..7].copy_from_slice(&version.to_le_bytes());
            let err = decode_reconn(&Bytes::from(reconn)).unwrap_err();
            assert!(
                err.to_string().contains(&format!("version {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn roster_roundtrips_with_epoch() {
        let addrs = vec![
            "tcp:127.0.0.1:9000".to_string(),
            String::new(),
            "unix:/tmp/a.sock".to_string(),
        ];
        let wire = Bytes::from(encode_roster(0xFEED_F00D, &addrs));
        assert_eq!(decode_roster(&wire).unwrap(), (0xFEED_F00D, addrs.clone()));
        assert_eq!(decode_roster(&Bytes::from_static(b"\x07junk")), None);
        let mut cut = encode_roster(7, &addrs);
        cut.pop();
        assert_eq!(decode_roster(&Bytes::from(cut)), None);
    }

    /// One accept loop for the coordinator and the peers: each index in
    /// `admit` is admitted once; a duplicate or out-of-range hello is
    /// rejected, counted and closed while the loop keeps waiting.
    #[test]
    fn accept_loop_admits_each_index_once_and_rejects_the_rest() {
        let path = std::env::temp_dir().join(format!("opmr-accept-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = SockListener::Unix(UnixListener::bind(&path).unwrap());
        let dial_path = path.clone();
        let peers = std::thread::spawn(move || {
            [2usize, 2, 9, 1].map(|proc| {
                let mut s = UnixStream::connect(&dial_path).unwrap();
                let hello = encode_hello(proc, 0xABCD, &format!("unix:/p{proc}"));
                s.write_all(&try_frame(&hello).unwrap()).unwrap();
                s
            })
        });
        let rejected0 = obs::m().handshake_rejected.get();
        let deadline = Instant::now() + Duration::from_secs(10);
        let admitted = accept_hellos(&listener, 1..3, deadline, 0xABCD).unwrap();
        let _conns = peers.join().unwrap();
        let _ = std::fs::remove_file(&path);
        let got: Vec<(usize, &str)> = admitted
            .iter()
            .map(|(c, addr)| (c.proc, addr.as_str()))
            .collect();
        assert_eq!(got, vec![(2, "unix:/p2"), (1, "unix:/p1")]);
        assert_eq!(obs::m().handshake_rejected.get() - rejected0, 2);
    }

    #[test]
    fn reconn_frames_roundtrip_and_validate() {
        let wire = Bytes::from(encode_reconn(5, 0xE90C4, 1234));
        assert_eq!(decode_reconn(&wire).unwrap(), (5, 0xE90C4, 1234));
        // Garbage magic is rejected with a description.
        let mut bad = encode_reconn(5, 1, 2);
        bad[1] ^= 0xFF;
        let err = decode_reconn(&Bytes::from(bad)).unwrap_err().to_string();
        assert!(err.contains("magic"), "{err}");
        let ok = Bytes::from(encode_reconn_ok(987));
        assert_eq!(decode_reconn_ok(&ok), Some(987));
        assert_eq!(decode_reconn_ok(&Bytes::from_static(b"\x09abc")), None);

        assert_eq!(decode_ack(&encode_ack(42)), Some(42));
        assert_eq!(decode_ack(b"\x07abc"), None);
        assert_eq!(decode_rank_done(&encode_rank_done(6)), Some(6));
        assert_eq!(decode_rank_done(b"\x03ab"), None);
    }

    #[test]
    fn session_epochs_are_nonzero_and_distinct_across_time() {
        let a = session_epoch();
        assert_ne!(a, 0);
        // Two calls in a row *may* collide within clock resolution, but
        // a sample of many must produce at least two distinct values.
        let distinct: std::collections::HashSet<u64> = (0..64)
            .map(|_| {
                std::thread::sleep(Duration::from_micros(50));
                session_epoch()
            })
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn topology_hash_is_order_sensitive() {
        let a = topology_hash(2, &[0, 0, 1]);
        let b = topology_hash(2, &[0, 1, 0]);
        let c = topology_hash(3, &[0, 0, 1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, topology_hash(2, &[0, 0, 1]));
    }

    #[test]
    fn partition_assign_maps_and_validates() {
        // Block: 4 partitions over 2 procs → [0,0,1,1].
        let block: Vec<usize> = (0..4)
            .map(|p| PartitionAssign::Block.proc_of(p, 4, 2).unwrap())
            .collect();
        assert_eq!(block, vec![0, 0, 1, 1]);
        let rr: Vec<usize> = (0..4)
            .map(|p| PartitionAssign::RoundRobin.proc_of(p, 4, 2).unwrap())
            .collect();
        assert_eq!(rr, vec![0, 1, 0, 1]);
        assert_eq!(
            PartitionAssign::Explicit(vec![1, 0])
                .proc_of(1, 2, 2)
                .unwrap(),
            0
        );
        assert!(matches!(
            PartitionAssign::Explicit(vec![5]).proc_of(0, 1, 2),
            Err(SocketError::BadTopology { .. })
        ));
        assert!(matches!(
            PartitionAssign::Explicit(vec![]).proc_of(0, 1, 2),
            Err(SocketError::BadTopology { .. })
        ));
    }

    #[test]
    fn socket_config_validation_rejects_zero_and_absurd_values() {
        let ep = || Endpoint::Tcp("127.0.0.1:0".to_string());
        assert!(SocketConfig::new(ep()).validate().is_ok());
        let cases: Vec<SocketConfig> = vec![
            SocketConfig::new(ep()).connect_timeout(Duration::ZERO),
            SocketConfig::new(ep()).connect_timeout(Duration::from_secs(7200)),
            SocketConfig::new(ep()).retry_budget(0),
            SocketConfig::new(ep()).retry_budget(65),
            SocketConfig::new(ep()).backoff_base(Duration::ZERO),
            SocketConfig::new(ep()).backoff_base(Duration::from_secs(90)),
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
}
