//! # opmr-serve — live report serving over VMPI streams
//!
//! The paper's whole premise is that analysis results exist *while the
//! application runs* (online coupling, Sections II-A/III-B); this crate
//! makes them observable mid-run. The analyzer becomes a queryable
//! service:
//!
//! * [`store::SnapshotStore`] / [`store::ShardedStore`] — the engine
//!   publishes **versioned report snapshots** at window boundaries (every
//!   N unpacked packs) into a lock-light store: a swap-on-publish current
//!   pointer plus a bounded ring of recent versions, sharded by
//!   `app_id % shards` so publishes and point queries scale across
//!   threads (per-shard version vectors, cross-shard snapshot assembled
//!   on read);
//! * [`delta`] — **delta encoding** between consecutive versions reusing
//!   the `analysis::wire` codecs: changed `(rank, kind)` profile cells,
//!   changed topology edges and changed wait-state blocks travel as full
//!   replacement values, so applying the delta chain to a base snapshot
//!   reconstructs every later snapshot *byte-identically*;
//! * [`proto`] — the length-prefixed request/response + subscription
//!   protocol (framing shared with the reduction overlay via
//!   `opmr_events::frame`): point queries for profile / topology /
//!   wait-state / density by rank range and version, and subscriptions
//!   that deliver one full snapshot followed by incremental deltas;
//! * [`server`] — the `EAGAIN`-aware serving loop run by analyzer ranks:
//!   drains instrumentation streams into the engine while answering
//!   client traffic. Every serving rank delivers to its own subscribers
//!   straight from the shared store, writing each version's delta as the
//!   store framed it — once per `(shard, version)`, however many
//!   subscribers read it. Slow consumers are handled with
//!   **credit-based flow control**: a subscriber with no credits left is
//!   simply tracked, not buffered for; when it acks again and has fallen
//!   off the delta ring it receives a typed snapshot **resync** (counted
//!   in [`server::ServeStats::resyncs`]) instead of an unbounded backlog;
//! * [`client`] — the client-partition side: maps round-robin onto the
//!   serving ranks via the VMPI Map pivot protocol, opens a duplex stream
//!   and exposes queries plus a subscription iterator (folding one delta
//!   chain per shard);
//! * [`quota`] — **per-tenant admission control** on client partitions:
//!   subscription caps, query-rate and delta-byte token buckets with
//!   typed, counted rejections.
//!
//! `opmr-core` wires this into sessions as `Coupling::Serving` with
//! `SessionBuilder::client(...)` partitions; `serve_bench` measures query
//! throughput and subscription lag under concurrent clients.

pub mod client;
pub mod delta;
pub mod proto;
pub mod quota;
pub mod server;
pub mod store;

use opmr_vmpi::{StreamConfig, VmpiError};
use std::time::Instant;

pub use client::{ClientReport, ServeClient, Update};
pub use delta::{apply_delta, delta_versions, encode_delta, EncodeError};
pub use proto::{QueryKind, QuotaKind, Request, Response, VersionInfo, SERVE_STREAM_ID};
pub use quota::{TenantBook, TenantQuota, TenantState};
pub use server::{run_server, ServeStats};
pub use store::{ShardedStore, SnapshotEntry, SnapshotStore, StoreStats};

/// Serve-plane failures.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure in the coupling layer.
    Vmpi(VmpiError),
    /// Malformed payload (shares the analysis wire error type).
    Wire(opmr_analysis::wire::WireError),
    /// Corrupt framing on the serve stream (checksum or length failure).
    Frame(opmr_events::frame::FrameError),
    /// Peer violated the serve protocol.
    ProtocolViolation { expected: &'static str, got: String },
    /// A query could not be answered; see [`proto::NotFoundReason`].
    NotFound(proto::NotFoundReason),
    /// A snapshot exceeded the wire format's entry-count caps.
    Encode(EncodeError),
    /// The server refused the request under a tenant quota.
    QuotaExceeded(QuotaKind),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Vmpi(e) => write!(f, "serve transport failed: {e}"),
            ServeError::Wire(e) => write!(f, "serve payload malformed: {e}"),
            ServeError::Frame(e) => write!(f, "serve framing corrupt: {e}"),
            ServeError::ProtocolViolation { expected, got } => {
                write!(
                    f,
                    "serve protocol violation: expected {expected}, got {got}"
                )
            }
            ServeError::NotFound(r) => write!(f, "query not answerable: {r:?}"),
            ServeError::Encode(e) => write!(f, "snapshot not encodable: {e}"),
            ServeError::QuotaExceeded(k) => write!(f, "tenant quota exceeded: {k:?}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EncodeError> for ServeError {
    fn from(e: EncodeError) -> Self {
        ServeError::Encode(e)
    }
}

impl From<VmpiError> for ServeError {
    fn from(e: VmpiError) -> Self {
        ServeError::Vmpi(e)
    }
}

impl From<opmr_analysis::wire::WireError> for ServeError {
    fn from(e: opmr_analysis::wire::WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl From<opmr_events::wire::Truncated> for ServeError {
    fn from(e: opmr_events::wire::Truncated) -> Self {
        ServeError::Wire(e.into())
    }
}

impl From<opmr_events::frame::FrameError> for ServeError {
    fn from(e: opmr_events::frame::FrameError) -> Self {
        ServeError::Frame(e)
    }
}

/// Result alias for the serve plane.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Serve-plane configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Publish a snapshot version every N unpacked event packs (the
    /// serve-plane window boundary).
    pub publish_every_packs: u64,
    /// Recent versions (and their deltas) kept in each shard's snapshot
    /// ring; a subscriber lagging further than this is resynced with a
    /// full snapshot.
    pub ring: usize,
    /// Flow-control credits per subscriber: the server sends at most this
    /// many unacknowledged updates before going quiet on that client.
    pub subscriber_credits: u32,
    /// Snapshot store shards; apps are routed `app_id % shards`. 1 (the
    /// default) reproduces the single-store serve plane exactly.
    pub shards: usize,
    /// Default per-tenant quota (zero fields = unlimited).
    pub quota: TenantQuota,
    /// Per-tenant quota overrides by client partition name.
    pub tenant_quotas: Vec<(String, TenantQuota)>,
    /// Stream configuration of the serve plane (small blocks: the traffic
    /// is request/response, not bulk instrumentation).
    pub stream: StreamConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            publish_every_packs: 16,
            ring: 32,
            subscriber_credits: 2,
            shards: 1,
            quota: TenantQuota::default(),
            tenant_quotas: Vec::new(),
            stream: StreamConfig::new(16 * 1024, 4, opmr_vmpi::Balance::None),
        }
    }
}

/// Nanoseconds since the process-wide serve epoch (first use). Publication
/// timestamps and subscription-lag measurements share this clock; it is
/// meaningful within one process (the in-process runtime's deployment
/// unit), not across machines.
pub fn mono_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}
