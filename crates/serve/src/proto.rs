//! The serve plane's query vocabulary: what a client asks for and the
//! typed answers it gets back instead of a value.

/// `rank_hi` value meaning "no upper bound".
pub const ALL_RANKS: u32 = u32::MAX;

/// Why a query produced no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotFoundReason {
    /// Nothing published yet.
    NoSnapshot,
    /// The requested version aged out of the ring (or never existed).
    VersionGone,
    /// The snapshot has no such application.
    UnknownApp,
}

/// Which tenant quota refused a request (see [`crate::quota`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaKind {
    /// Concurrent-subscription cap.
    Subscriptions,
    /// Point-query rate limit.
    QueryRate,
    /// Subscription delta-bytes/s limit (throttles delivery, never a
    /// rejection).
    DeltaRate,
}

/// The store's version vector, aggregated: `current` is the max over
/// shards, `oldest` the min over non-empty shards, `apps` the total, and
/// `finished` holds once every shard published its final version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionInfo {
    pub current: u64,
    pub oldest: u64,
    pub apps: u16,
    pub finished: bool,
}
