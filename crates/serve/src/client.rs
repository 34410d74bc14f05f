//! The client-partition side of the serve plane.
//!
//! A [`ServeClient`] runs on its own rank and reads the session's shared
//! [`ShardedStore`] directly. Point queries look the version up, filter by
//! rank range and return the value. A subscription folds one
//! snapshot-then-deltas chain per store shard into locally held
//! [`ClientReport`]s. Because deltas carry replacement values and the wire
//! codecs encode deterministically, a folded shard report encodes to bytes
//! identical to the store's shard snapshot at every version; the
//! acceptance tests assert exactly that. The held bytes are a
//! [`SnapshotImage`] the client patches from each delta the same way the
//! store patched its own, so holding them costs what the delta changed.
//!
//! Nothing is selected for a subscriber until it asks:
//! [`ServeClient::next_update`] picks one update per call, visiting the
//! shards round-robin from the one after the last served. For a shard it
//! holds, that is the next delta of the chain while that version is still
//! in the store's ring, and otherwise a typed snapshot **resync** to the
//! current version (counted in [`ServeStats::resyncs`]). So a slow
//! subscriber applies the newest version there is when it asks, not one
//! chosen before it slept, and a stalled one costs nothing: no queue grows
//! and no version is held on its behalf while the ring advances. A publish
//! that lands a version only bumps each attached client's mailbox; a
//! client with nothing to consume parks on it.
//!
//! Each client partition is a tenant of the session-wide
//! [`TenantBook`]; quota refusals surface as [`ServeError::QuotaExceeded`].

use crate::delta::{apply_delta_changes, build_image, delta_versions, patch_image};
use crate::proto::{NotFoundReason, QuotaKind, VersionInfo};
use crate::query::{
    answer_query, density, filter_profile, filter_topology, filter_waitstats, in_range,
};
use crate::quota::TenantBook;
use crate::store::{ShardedStore, SnapshotEntry};
use crate::{mono_ns, ServeError};
use bytes::Bytes;
use opmr_analysis::profiler::MpiProfile;
use opmr_analysis::topology::Topology;
use opmr_analysis::waitstate::WaitStats;
use opmr_analysis::wire::{decode_partials, AppPartial, SnapshotImage, WireError};
use opmr_runtime::mailbox::Mailbox;
use opmr_runtime::Mpi;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

// Serve-plane metrics: the lag from a version's publish to its selection
// at the subscriber's call, and the counters mirrored from [`ServeStats`]
// that the self-monitor streams back into the engine.
mod obs {
    use opmr_obs::{registry, Counter, Histogram};
    use std::sync::{Arc, OnceLock};

    pub(super) struct ServeMetrics {
        pub queries: Arc<Counter>,
        pub deltas_sent: Arc<Counter>,
        pub snapshots_sent: Arc<Counter>,
        pub resyncs: Arc<Counter>,
        pub quota_rejections: Arc<Counter>,
        pub quota_throttles: Arc<Counter>,
        pub deliver_lag: Arc<Histogram>,
    }

    pub(super) fn m() -> &'static ServeMetrics {
        static M: OnceLock<ServeMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            ServeMetrics {
                queries: r.counter("serve_queries_total"),
                deltas_sent: r.counter("serve_deltas_sent_total"),
                snapshots_sent: r.counter("serve_snapshots_sent_total"),
                resyncs: r.counter("serve_resyncs_total"),
                quota_rejections: r.counter("serve_quota_rejections_total"),
                quota_throttles: r.counter("serve_quota_throttles_total"),
                deliver_lag: r.histogram("serve_publish_to_deliver_lag_ns"),
            }
        })
    }
}

/// How long a subscriber held back by its tenant's delta-byte budget
/// sleeps before it looks again (no publish need come to wake it).
const THROTTLE_RECHECK: Duration = Duration::from_millis(1);

/// Per-client serving counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// 1 per client.
    pub clients: u64,
    /// Point queries answered (including not-found answers).
    pub queries: u64,
    /// Subscriptions opened.
    pub subscribes: u64,
    /// Full snapshots selected (subscription openers and resyncs).
    pub snapshots_sent: u64,
    /// Incremental deltas selected.
    pub deltas_sent: u64,
    /// Slow-consumer degradations: a subscriber fell off the delta ring
    /// and was resynced with a full snapshot instead of a backlog.
    pub resyncs: u64,
    /// Always 0: clients send no requests that could fail to parse.
    pub bad_requests: u64,
    /// Client bodies that returned an error before closing.
    pub clients_lost: u64,
    /// Requests refused under a tenant quota.
    pub quota_rejections: u64,
    /// Subscription updates delayed by a tenant's delta-byte budget.
    pub quota_throttles: u64,
}

/// The report a subscribed client currently holds for one store shard.
pub struct ClientReport {
    /// Shard version this report corresponds to.
    pub version: u64,
    /// Decoded per-application reports.
    pub parts: Vec<AppPartial>,
    /// `encode_partials` bytes of the held report — byte-identical to the
    /// store's shard snapshot of the same version.
    pub encoded: SnapshotImage,
}

impl ClientReport {
    /// The report a full snapshot (a subscription opener or a resync)
    /// carries.
    pub fn from_snapshot(version: u64, payload: &[u8]) -> Result<ClientReport, WireError> {
        let parts = decode_partials(payload)?;
        let encoded = build_image(&parts);
        Ok(ClientReport {
            version,
            parts,
            encoded,
        })
    }

    /// Folds the delta payload of an update to `version`: applies it to
    /// the parts and patches the held bytes from what it changed. A delta
    /// that does not lead from the held version to `version` is refused
    /// untouched. A malformed one yields the typed error and may leave the
    /// parts half-applied under the old version number — the bytes are
    /// then re-encoded from them, so the two never disagree.
    pub fn apply_delta(&mut self, version: u64, payload: &[u8]) -> crate::Result<()> {
        let (from, to) = delta_versions(payload)?;
        if from != self.version || to != version {
            return Err(ServeError::ProtocolViolation {
                expected: "a delta extending the held shard version",
                got: format!("delta {from}->{to} against held version {}", self.version),
            });
        }
        match apply_delta_changes(&mut self.parts, payload) {
            Ok(changes) => patch_image(&mut self.encoded, &self.parts, &changes),
            Err(e) => {
                self.encoded = build_image(&self.parts);
                return Err(e.into());
            }
        }
        self.version = version;
        Ok(())
    }
}

/// One consumed subscription update.
#[derive(Debug, Clone, Copy)]
pub struct Update {
    /// Store shard this update advanced.
    pub shard: u16,
    /// Version the client now holds for that shard.
    pub version: u64,
    /// Store publication timestamp ([`crate::mono_ns`] clock).
    pub publish_ns: u64,
    /// Publication-to-consumption lag on the shared in-process clock.
    pub lag_ns: u64,
    /// This update was a full-snapshot resync after falling off the
    /// store's delta ring (the typed slow-consumer signal).
    pub resync: bool,
    /// This update arrived as an incremental delta.
    pub delta: bool,
    /// This update carried its shard's final version.
    pub shard_final: bool,
    /// Every shard has delivered its final version: the subscription is
    /// complete.
    pub finished: bool,
}

/// How a selected update folds into the held report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The store-retained delta from the held version.
    Delta,
    /// A full per-shard snapshot: the opener, or a resync.
    Snapshot { resync: bool },
}

/// Picks the next update for shard `s` of a subscriber holding version
/// `synced_to` (0 = nothing): the next version's delta from the store's
/// chain, degrading to a snapshot resync when that version left the ring
/// or carries no delta. `None` while the subscriber holds the current
/// version.
fn next_shard_update(
    store: &ShardedStore,
    s: usize,
    synced_to: u64,
) -> Option<(Arc<SnapshotEntry>, Step)> {
    let shard = store.shard(s);
    let cur = shard.current().filter(|cur| cur.version > synced_to)?;
    if synced_to == 0 {
        return Some((cur, Step::Snapshot { resync: false }));
    }
    match shard.get(synced_to + 1) {
        Some(next) if next.delta.is_some() => Some((next, Step::Delta)),
        // The chain left the ring, or no delta expresses the step: full
        // snapshot (a *resync* because the subscriber had state).
        _ => Some((cur, Step::Snapshot { resync: true })),
    }
}

/// What one selection found.
enum Selection {
    /// The next update of a shard, already charged to the tenant.
    Update(u16, Arc<SnapshotEntry>, Step),
    /// The tenant's delta-byte budget held the next update back.
    Throttled,
    /// Every shard's held version is current.
    Idle,
}

/// A serve-plane client: one per client-partition rank.
pub struct ServeClient {
    store: Arc<ShardedStore>,
    /// This rank's mailbox: every publish that lands a version bumps it.
    mailbox: Arc<Mailbox>,
    book: Arc<Mutex<TenantBook>>,
    /// Tenant name: the client partition's name.
    tenant: String,
    stats: ServeStats,
    /// A subscription is open (admitted under the tenant's quota).
    subscribed: bool,
    /// The shard the next selection looks at first: the one after the
    /// last served.
    next_shard: usize,
    /// A subscription the tenant's quota refused, not yet surfaced.
    refused: Option<QuotaKind>,
    /// Held report per shard.
    reports: BTreeMap<u16, ClientReport>,
    /// Shards whose final version has been folded.
    final_shards: BTreeSet<u16>,
}

impl ServeClient {
    /// A client on `mpi`'s rank reading `store` as `tenant`, admitted by
    /// the session's quota `book`.
    pub fn new(
        mpi: &Mpi,
        store: Arc<ShardedStore>,
        book: Arc<Mutex<TenantBook>>,
        tenant: &str,
    ) -> crate::Result<ServeClient> {
        Ok(ServeClient::attached(mpi.mailbox()?, store, book, tenant))
    }

    /// A client woken through `mailbox`, which it attaches to `store`.
    fn attached(
        mailbox: Arc<Mailbox>,
        store: Arc<ShardedStore>,
        book: Arc<Mutex<TenantBook>>,
        tenant: &str,
    ) -> ServeClient {
        store.attach(Arc::clone(&mailbox));
        ServeClient {
            store,
            mailbox,
            book,
            tenant: tenant.to_string(),
            stats: ServeStats {
                clients: 1,
                ..ServeStats::default()
            },
            subscribed: false,
            next_shard: 0,
            refused: None,
            reports: BTreeMap::new(),
            final_shards: BTreeSet::new(),
        }
    }

    /// Charges one point query to the tenant's quota.
    fn admit_query(&mut self) -> crate::Result<()> {
        let admitted = self.book.lock().state(&self.tenant).try_query(mono_ns());
        if let Err(kind) = admitted {
            self.stats.quota_rejections += 1;
            obs::m().quota_rejections.inc();
            return Err(ServeError::QuotaExceeded(kind));
        }
        self.stats.queries += 1;
        obs::m().queries.inc();
        Ok(())
    }

    /// What versions does the store currently hold? With a sharded store
    /// the answer aggregates: max current, min non-empty oldest, total
    /// apps, all-shards finished.
    pub fn version_info(&mut self) -> crate::Result<VersionInfo> {
        self.admit_query()?;
        Ok(crate::query::version_info(&self.store))
    }

    /// Blocks until the store published at least `min` versions (or
    /// finished), parked between publishes.
    pub fn wait_version(&mut self, min: u64) -> crate::Result<VersionInfo> {
        loop {
            let seen = self.mailbox.deliveries();
            let info = self.version_info()?;
            if info.current >= min || info.finished {
                return Ok(info);
            }
            self.mailbox.wait_delivery(seen, None)?;
        }
    }

    /// Evaluates `f` on `app_id`'s report at `version` (0 = current) under
    /// the tenant's query quota.
    fn query<T>(
        &mut self,
        app_id: u16,
        version: u64,
        f: impl FnOnce(&AppPartial) -> T,
    ) -> crate::Result<(u64, T)> {
        self.admit_query()?;
        answer_query(&self.store, app_id, version, f).map_err(ServeError::NotFound)
    }

    /// The rank-filtered MPI profile of `app_id` at `version` (0 =
    /// current). Returns the answering version alongside.
    pub fn query_profile(
        &mut self,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    ) -> crate::Result<(u64, MpiProfile)> {
        self.query(app_id, version, |a| {
            filter_profile(&a.profile, in_range(rank_lo, rank_hi))
        })
    }

    /// The source-rank-filtered communication topology.
    pub fn query_topology(
        &mut self,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    ) -> crate::Result<(u64, Topology)> {
        self.query(app_id, version, |a| {
            filter_topology(&a.topology, in_range(rank_lo, rank_hi))
        })
    }

    /// The rank-filtered wait-state report, when the analyzer ran the
    /// wait-state KS.
    pub fn query_waitstate(
        &mut self,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    ) -> crate::Result<(u64, Option<WaitStats>)> {
        self.query(app_id, version, |a| {
            a.waitstate
                .as_ref()
                .map(|w| filter_waitstats(w, in_range(rank_lo, rank_hi)))
        })
    }

    /// The rank-filtered time-resolved metrics series, when the analyzer
    /// ran the metrics KS.
    pub fn query_metrics(
        &mut self,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    ) -> crate::Result<(u64, Option<opmr_metrics::MetricsSeries>)> {
        self.query(app_id, version, |a| {
            a.metrics
                .as_ref()
                .map(|m| m.filter_ranks(in_range(rank_lo, rank_hi)))
        })
    }

    /// Per-rank event counts over the rank range: `(version, first rank,
    /// counts)`.
    pub fn query_density(
        &mut self,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    ) -> crate::Result<(u64, u32, Vec<u64>)> {
        let (v, (lo, counts)) = self.query(app_id, version, |a| density(a, rank_lo, rank_hi))?;
        Ok((v, lo, counts))
    }

    /// Starts the snapshot-then-deltas subscription (one chain per
    /// shard); consume it with [`ServeClient::next_update`]. A refusal
    /// under the tenant's subscription quota surfaces there.
    pub fn subscribe(&mut self) -> crate::Result<()> {
        let mut book = self.book.lock();
        let tenant = book.state(&self.tenant);
        if std::mem::take(&mut self.subscribed) {
            // Re-subscribing replaces the old chains (and slot).
            tenant.release_subscription();
        }
        self.refused = None;
        self.reports.clear();
        self.final_shards.clear();
        match tenant.try_subscribe() {
            Ok(()) => {
                self.stats.subscribes += 1;
                self.subscribed = true;
            }
            Err(kind) => {
                self.stats.quota_rejections += 1;
                obs::m().quota_rejections.inc();
                self.refused = Some(kind);
            }
        }
        Ok(())
    }

    /// Blocks until there is an update to select, then selects and folds
    /// it into the held per-shard report: the newest version's, unless
    /// the next delta of a shard's chain is still in the ring. `None`
    /// without a subscription or once every shard's final version was
    /// consumed; a typed [`ServeError::QuotaExceeded`] if the
    /// subscription was refused.
    pub fn next_update(&mut self) -> crate::Result<Option<Update>> {
        if let Some(kind) = self.refused.take() {
            return Err(ServeError::QuotaExceeded(kind));
        }
        loop {
            if !self.subscribed || self.all_final() {
                return Ok(None);
            }
            let seen = self.mailbox.deliveries();
            let throttled = match self.select() {
                Selection::Update(shard, entry, step) => {
                    return self.fold(shard, &entry, step).map(Some)
                }
                Selection::Throttled => true,
                Selection::Idle => false,
            };
            let deadline = throttled.then(|| Instant::now() + THROTTLE_RECHECK);
            self.mailbox.wait_delivery(seen, deadline)?;
        }
    }

    /// The one place an update is selected. Visits the shards round-robin
    /// from the one after the last served and takes the first that has an
    /// update for the held version, charged to the tenant's delta-byte
    /// budget.
    fn select(&mut self) -> Selection {
        let n = self.store.shards();
        for s in (0..n).map(|i| (self.next_shard + i) % n) {
            let held = self.reports.get(&(s as u16)).map_or(0, |r| r.version);
            let Some((entry, step)) = next_shard_update(&self.store, s, held) else {
                continue;
            };
            let cost = match step {
                Step::Delta => entry.delta.as_ref().map_or(0, Bytes::len),
                Step::Snapshot { .. } => entry.encoded.len(),
            };
            let budget = self
                .book
                .lock()
                .state(&self.tenant)
                .try_delta_bytes(cost as u64, mono_ns());
            if budget.is_err() {
                self.stats.quota_throttles += 1;
                obs::m().quota_throttles.inc();
                return Selection::Throttled;
            }
            match step {
                Step::Delta => {
                    self.stats.deltas_sent += 1;
                    obs::m().deltas_sent.inc();
                }
                Step::Snapshot { resync } => {
                    self.stats.snapshots_sent += 1;
                    obs::m().snapshots_sent.inc();
                    if resync {
                        self.stats.resyncs += 1;
                        obs::m().resyncs.inc();
                    }
                }
            }
            obs::m()
                .deliver_lag
                .record(mono_ns().saturating_sub(entry.publish_ns));
            self.next_shard = (s + 1) % n;
            return Selection::Update(s as u16, entry, step);
        }
        Selection::Idle
    }

    /// True once every shard folded its final version.
    fn all_final(&self) -> bool {
        self.final_shards.len() >= self.store.shards()
    }

    fn fold(&mut self, shard: u16, entry: &SnapshotEntry, step: Step) -> crate::Result<Update> {
        match step {
            Step::Delta => {
                let (Some(report), Some(delta)) =
                    (self.reports.get_mut(&shard), entry.delta.as_ref())
                else {
                    return Err(ServeError::ProtocolViolation {
                        expected: "a held shard report and a retained delta",
                        got: format!("delta to version {} of shard {shard}", entry.version),
                    });
                };
                report.apply_delta(entry.version, delta)?;
            }
            Step::Snapshot { .. } => {
                let report = ClientReport::from_snapshot(entry.version, &entry.encoded)?;
                self.reports.insert(shard, report);
            }
        }
        if entry.is_final {
            self.final_shards.insert(shard);
        }
        Ok(Update {
            shard,
            version: entry.version,
            publish_ns: entry.publish_ns,
            lag_ns: mono_ns().saturating_sub(entry.publish_ns),
            resync: step == Step::Snapshot { resync: true },
            delta: step == Step::Delta,
            shard_final: entry.is_final,
            finished: self.all_final(),
        })
    }

    /// Shard 0's held report — the whole report under a single-shard
    /// store (the pre-sharding callers' view).
    pub fn report(&self) -> Option<&ClientReport> {
        self.reports.get(&0)
    }

    /// The held report of one shard.
    pub fn shard_report(&self, shard: u16) -> Option<&ClientReport> {
        self.reports.get(&shard)
    }

    /// All held per-shard reports, in shard order.
    pub fn reports(&self) -> impl Iterator<Item = (u16, &ClientReport)> {
        self.reports.iter().map(|(&s, r)| (s, r))
    }

    /// Ends the client and returns its counters; dropping it (which this
    /// does) releases its subscription slot.
    pub fn close(self) -> ServeStats {
        self.stats
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        if self.subscribed {
            self.book.lock().state(&self.tenant).release_subscription();
        }
    }
}

/// Convenience for tests and examples: queries keep working after the run
/// finished, so "not found" answers stay typed rather than fatal.
pub fn is_not_found(e: &ServeError, reason: NotFoundReason) -> bool {
    matches!(e, ServeError::NotFound(r) if *r == reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::tests::partials_with;

    /// A client of `store` woken through a mailbox of its own, under no
    /// quota.
    fn client(store: &Arc<ShardedStore>) -> ServeClient {
        let book = Arc::new(Mutex::new(TenantBook::default()));
        ServeClient::attached(Arc::new(Mailbox::default()), Arc::clone(store), book, "t")
    }

    /// Publishes one single-app version per `hits` value.
    fn publish(store: &ShardedStore, hits: impl IntoIterator<Item = u64>) {
        for h in hits {
            store.publish(vec![partials_with(0, &[h])]).unwrap();
        }
    }

    #[test]
    fn a_publish_only_wakes_the_client() {
        let store = Arc::new(ShardedStore::new(1, 4, 1));
        let mut c = client(&store);
        c.subscribe().unwrap();
        let woken_selected = |c: &ServeClient| {
            let selected = c.stats.snapshots_sent + c.stats.deltas_sent;
            (c.mailbox.deliveries(), selected)
        };
        // A landing publish wakes the client and selects nothing for it.
        publish(&store, [1]);
        assert_eq!(woken_selected(&c), (1, 0));
        publish(&store, [2]);
        assert_eq!(woken_selected(&c), (2, 0));
        // A publish that lands no version wakes nobody.
        publish(&store, [2]);
        assert_eq!(woken_selected(&c), (2, 0));
        // The final version wakes too.
        store.publish_final(vec![partials_with(0, &[3])]).unwrap();
        assert_eq!(woken_selected(&c), (3, 0));
        // The subscriber's own call selects: the final version, at once.
        let u = c.next_update().unwrap().unwrap();
        assert_eq!((u.version, u.resync, u.finished), (3, false, true));
        assert_eq!(woken_selected(&c), (3, 1));
        assert!(c.next_update().unwrap().is_none());
    }

    #[test]
    fn a_subscriber_behind_the_ring_takes_the_newest_version() {
        let store = Arc::new(ShardedStore::new(1, 2, 1));
        let mut c = client(&store);
        c.subscribe().unwrap();
        publish(&store, [1]);
        assert_eq!(c.next_update().unwrap().unwrap().version, 1);
        publish(&store, 2..=6);
        let u = c.next_update().unwrap().unwrap();
        assert_eq!((u.version, u.resync, u.delta), (6, true, false));
        let held = &c.report().unwrap().encoded;
        assert_eq!(held[..], store.current().unwrap().encoded[..]);
    }

    #[test]
    fn an_evicted_version_is_freed_before_its_subscriber_asks() {
        let store = Arc::new(ShardedStore::new(1, 2, 1));
        let mut c = client(&store);
        c.subscribe().unwrap();
        publish(&store, [1]);
        c.next_update().unwrap().unwrap();
        publish(&store, [2]);
        let v2 = Arc::downgrade(&store.get(2).unwrap());
        publish(&store, [3, 4]);
        assert!(
            store.get(2).is_none(),
            "the two-deep ring evicted version 2"
        );
        assert!(
            v2.upgrade().is_none(),
            "version 2 outlived the ring for a subscriber that had not asked"
        );
        assert_eq!(c.next_update().unwrap().unwrap().version, 4);
    }

    #[test]
    fn store_chain_gaps_resync() {
        let store = ShardedStore::new(1, 2, 1);
        for i in 1..=6u64 {
            store.publish(vec![partials_with(0, &[i])]).unwrap();
        }
        let step = |synced_to| next_shard_update(&store, 0, synced_to).map(|(e, s)| (e.version, s));
        // Synced to 4: version 5 is still in the ring -> its delta.
        assert_eq!(step(4), Some((5, Step::Delta)));
        // Synced to 1: version 2 left the two-deep ring -> resync.
        assert_eq!(step(1), Some((6, Step::Snapshot { resync: true })));
        // A fresh subscriber opens with the current snapshot.
        assert_eq!(step(0), Some((6, Step::Snapshot { resync: false })));
        // Synced to current: nothing to select.
        assert_eq!(step(6), None);
    }
}
