//! # opmr-serve — live report serving from a shared snapshot store
//!
//! The paper's whole premise is that analysis results exist *while the
//! application runs* (online coupling, Sections II-A/III-B); this crate
//! makes them observable mid-run. The analyzer becomes a queryable
//! service:
//!
//! * [`store::SnapshotStore`] / [`store::ShardedStore`] — the engine
//!   publishes **versioned report snapshots** at window boundaries (every
//!   N folded packs) into a lock-light store: a swap-on-publish current
//!   pointer plus a bounded ring of recent versions, sharded by
//!   `app_id % shards` so publishes and point queries scale across
//!   threads (per-shard version vectors, cross-shard snapshot assembled
//!   on read);
//! * [`delta`] — **delta encoding** between consecutive versions reusing
//!   the `analysis::wire` codecs: changed `(rank, kind)` profile cells,
//!   changed topology edges and changed wait-state blocks travel as full
//!   replacement values, so applying the delta chain to a base snapshot
//!   reconstructs every later snapshot *byte-identically*;
//! * [`client`] — the client-partition side, run on the client's own
//!   rank against the shared store: point queries for profile / topology
//!   / wait-state / metrics / density by rank range and version, and a
//!   subscription that folds one full snapshot followed by incremental
//!   deltas, one chain per shard. A subscriber selects its next update
//!   when it asks for it, so nothing is selected or buffered on its
//!   behalf; when it has fallen off the delta ring it takes the **newest
//!   version** as a typed snapshot **resync** (counted in
//!   [`ServeStats::resyncs`]) instead of a backlog. A client with nothing
//!   to consume parks on its rank's mailbox until a publish lands;
//! * [`proto`] — the query vocabulary: typed not-found reasons, quota
//!   kinds and the aggregated version info;
//! * [`quota`] — **per-tenant admission control** on client partitions:
//!   subscription caps, query-rate and delta-byte token buckets with
//!   typed, counted rejections, one book per session.
//!
//! `opmr-core` wires this into sessions as `Coupling::Serving` with
//! `SessionBuilder::client(...)` partitions; `serve_bench` measures query
//! throughput and subscription lag under concurrent clients.

pub mod client;
pub mod delta;
pub mod proto;
mod query;
pub mod quota;
pub mod store;

use opmr_runtime::RtError;
use std::time::Instant;

pub use client::{ClientReport, ServeClient, ServeStats, Update};
pub use delta::{apply_delta, delta_versions, encode_delta, EncodeError};
pub use proto::{QuotaKind, VersionInfo};
pub use quota::{TenantBook, TenantQuota, TenantState};
pub use store::{ShardedStore, SnapshotEntry, SnapshotStore, StoreStats};

/// Serve-plane failures.
#[derive(Debug)]
pub enum ServeError {
    /// Runtime failure: the client's rank was torn down while it waited.
    Runtime(RtError),
    /// Malformed payload (shares the analysis wire error type).
    Wire(opmr_analysis::wire::WireError),
    /// A delta or update did not extend the held report.
    ProtocolViolation { expected: &'static str, got: String },
    /// A query could not be answered; see [`proto::NotFoundReason`].
    NotFound(proto::NotFoundReason),
    /// A snapshot exceeded the wire format's entry-count caps.
    Encode(EncodeError),
    /// The request was refused under a tenant quota.
    QuotaExceeded(QuotaKind),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Runtime(e) => write!(f, "serve runtime failed: {e}"),
            ServeError::Wire(e) => write!(f, "serve payload malformed: {e}"),
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

impl From<RtError> for ServeError {
    fn from(e: RtError) -> Self {
        ServeError::Runtime(e)
    }
}

/// Result alias for the serve plane.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Serve-plane configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Publish a snapshot version every N folded event packs (the
    /// serve-plane window boundary). Recorders close a pack when its bytes
    /// fill the stream block, so N counts full blocks (under Delta, ≈ 530
    /// events each at 4 KiB).
    pub publish_every_packs: u64,
    /// Recent versions (and their deltas) kept in each shard's snapshot
    /// ring; a subscriber lagging further than this is resynced with a
    /// full snapshot.
    pub ring: usize,
    /// Read by nothing: a subscriber selects one update per
    /// [`ServeClient::next_update`] call and holds none ahead of it. Kept
    /// until the benchmark stops setting it (ROADMAP 1(a)).
    pub subscriber_credits: u32,
    /// Snapshot store shards; apps are routed `app_id % shards`. 1 (the
    /// default) reproduces the single-store serve plane exactly.
    pub shards: usize,
    /// Default per-tenant quota (zero fields = unlimited).
    pub quota: TenantQuota,
    /// Per-tenant quota overrides by client partition name.
    pub tenant_quotas: Vec<(String, TenantQuota)>,
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
