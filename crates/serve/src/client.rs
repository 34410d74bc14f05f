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
//! Subscriptions use credit-based flow control: a subscriber holds
//! `ServeConfig::subscriber_credits` credits, selecting an update into its
//! pending queue spends one, and consuming it in
//! [`ServeClient::next_update`] returns it and selects again. Selection
//! also happens at publish: the store hands every attached client inbox
//! each version it lands, so a subscriber with a free credit gets the next
//! version when it is published, not when it next asks. A stalled
//! consumer therefore costs nothing: no queue grows on its behalf, the
//! store's ring advances, and when it consumes again it either continues
//! down the retained delta chain or, having fallen off the ring, selects a
//! typed snapshot **resync** (counted in [`ServeStats::resyncs`]). A client
//! with nothing to consume parks on its rank's mailbox, which every publish
//! that lands a version bumps.
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
use crate::{mono_ns, ServeConfig, ServeError};
use bytes::Bytes;
use opmr_analysis::profiler::MpiProfile;
use opmr_analysis::topology::Topology;
use opmr_analysis::waitstate::WaitStats;
use opmr_analysis::wire::{decode_partials, AppPartial, SnapshotImage, WireError};
use opmr_runtime::mailbox::Mailbox;
use opmr_runtime::Mpi;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

// Serve-plane metrics: per-subscriber credit level at each selection,
// publish-to-select lag of every update, and the counters mirrored from
// [`ServeStats`] that the self-monitor streams back into the engine.
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
        pub credits: Arc<Histogram>,
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
                credits: r.histogram("serve_subscriber_credits"),
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
    /// Updates consumed, each returning a flow-control credit.
    pub acks: u64,
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

struct Subscription {
    /// Last version selected per shard (0 = nothing yet).
    synced_to: Vec<u64>,
    credits: u32,
    /// Selected, not yet consumed updates, oldest first.
    pending: VecDeque<(u16, Arc<SnapshotEntry>, Step)>,
}

/// What a client's rank and the store's publishers share.
struct Delivery {
    sub: Option<Subscription>,
    stats: ServeStats,
}

/// The part of a client the store reaches. Every publish that lands a
/// version selects for the subscription what its credits allow — so a
/// subscriber with a free credit is handed the next version when it is
/// published, not when it next asks — and then bumps the client's
/// mailbox.
pub(crate) struct Inbox {
    mailbox: Arc<Mailbox>,
    book: Arc<Mutex<TenantBook>>,
    /// Tenant name: the client partition's name.
    tenant: String,
    max_credits: u32,
    delivery: Mutex<Delivery>,
}

impl Inbox {
    /// Called by the store after each publish that lands a version.
    pub(crate) fn on_publish(&self, store: &ShardedStore) {
        self.refill(&mut self.delivery.lock(), store);
        self.mailbox.bump();
    }

    /// Selects updates into the pending queue while credits last, shard
    /// by shard. Returns true when the tenant's delta-byte budget held
    /// one back.
    fn refill(&self, d: &mut Delivery, store: &ShardedStore) -> bool {
        let Some(sub) = d.sub.as_mut() else {
            return false;
        };
        obs::m().credits.record(sub.credits as u64);
        for s in 0..store.shards() {
            while sub.credits > 0 {
                let Some((entry, step)) = next_shard_update(store, s, sub.synced_to[s]) else {
                    break;
                };
                let cost = match step {
                    Step::Delta => entry.delta.as_ref().map_or(0, Bytes::len),
                    Step::Snapshot { .. } => entry.encoded.len(),
                };
                if self
                    .book
                    .lock()
                    .state(&self.tenant)
                    .try_delta_bytes(cost as u64, mono_ns())
                    .is_err()
                {
                    d.stats.quota_throttles += 1;
                    obs::m().quota_throttles.inc();
                    return true;
                }
                match step {
                    Step::Delta => {
                        d.stats.deltas_sent += 1;
                        obs::m().deltas_sent.inc();
                    }
                    Step::Snapshot { resync } => {
                        d.stats.snapshots_sent += 1;
                        obs::m().snapshots_sent.inc();
                        if resync {
                            d.stats.resyncs += 1;
                            obs::m().resyncs.inc();
                        }
                    }
                }
                obs::m()
                    .deliver_lag
                    .record(mono_ns().saturating_sub(entry.publish_ns));
                sub.synced_to[s] = entry.version;
                sub.credits -= 1;
                sub.pending.push_back((s as u16, entry, step));
            }
        }
        false
    }
}

/// A serve-plane client: one per client-partition rank.
pub struct ServeClient {
    store: Arc<ShardedStore>,
    inbox: Arc<Inbox>,
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
        cfg: &ServeConfig,
    ) -> crate::Result<ServeClient> {
        let inbox = Arc::new(Inbox {
            mailbox: mpi.mailbox()?,
            book,
            tenant: tenant.to_string(),
            max_credits: cfg.subscriber_credits.max(1),
            delivery: Mutex::new(Delivery {
                sub: None,
                stats: ServeStats {
                    clients: 1,
                    ..ServeStats::default()
                },
            }),
        });
        store.attach(Arc::clone(&inbox));
        Ok(ServeClient {
            store,
            inbox,
            refused: None,
            reports: BTreeMap::new(),
            final_shards: BTreeSet::new(),
        })
    }

    /// Charges one point query to the tenant's quota.
    fn admit_query(&self) -> crate::Result<()> {
        let admitted = self
            .inbox
            .book
            .lock()
            .state(&self.inbox.tenant)
            .try_query(mono_ns());
        let mut d = self.inbox.delivery.lock();
        if let Err(kind) = admitted {
            d.stats.quota_rejections += 1;
            obs::m().quota_rejections.inc();
            return Err(ServeError::QuotaExceeded(kind));
        }
        d.stats.queries += 1;
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
            let seen = self.inbox.mailbox.deliveries();
            let info = self.version_info()?;
            if info.current >= min || info.finished {
                return Ok(info);
            }
            self.inbox.mailbox.wait_delivery(seen, None)?;
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
        let inbox = &self.inbox;
        let mut d = inbox.delivery.lock();
        let mut book = inbox.book.lock();
        let tenant = book.state(&inbox.tenant);
        if d.sub.take().is_some() {
            // Re-subscribing replaces the old chains (and slot).
            tenant.release_subscription();
        }
        self.refused = None;
        self.final_shards.clear();
        match tenant.try_subscribe() {
            Ok(()) => {
                d.stats.subscribes += 1;
                d.sub = Some(Subscription {
                    synced_to: vec![0; self.store.shards()],
                    credits: inbox.max_credits,
                    pending: VecDeque::new(),
                });
            }
            Err(kind) => {
                d.stats.quota_rejections += 1;
                obs::m().quota_rejections.inc();
                self.refused = Some(kind);
            }
        }
        drop(book);
        inbox.refill(&mut d, &self.store);
        Ok(())
    }

    /// Blocks until the next subscription update, folds it into the held
    /// per-shard report and returns its credit, selecting again at once.
    /// `None` without a subscription or once every shard's final version
    /// was consumed; a typed [`ServeError::QuotaExceeded`] if the
    /// subscription was refused.
    pub fn next_update(&mut self) -> crate::Result<Option<Update>> {
        if let Some(kind) = self.refused.take() {
            return Err(ServeError::QuotaExceeded(kind));
        }
        loop {
            let seen = self.inbox.mailbox.deliveries();
            let mut d = self.inbox.delivery.lock();
            let Some(sub) = d.sub.as_mut() else {
                return Ok(None);
            };
            if let Some((shard, entry, step)) = sub.pending.pop_front() {
                drop(d);
                let update = self.fold(shard, &entry, step)?;
                // The credit comes back once the update is folded, as an
                // acknowledgement would.
                let mut d = self.inbox.delivery.lock();
                if let Some(sub) = d.sub.as_mut() {
                    sub.credits = (sub.credits + 1).min(self.inbox.max_credits);
                }
                d.stats.acks += 1;
                self.inbox.refill(&mut d, &self.store);
                return Ok(Some(update));
            }
            if self.all_final() {
                return Ok(None);
            }
            let throttled = self.inbox.refill(&mut d, &self.store);
            if d.sub.as_ref().is_some_and(|s| !s.pending.is_empty()) {
                continue;
            }
            drop(d);
            let deadline = throttled.then(|| Instant::now() + THROTTLE_RECHECK);
            self.inbox.mailbox.wait_delivery(seen, deadline)?;
        }
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
        self.inbox.delivery.lock().stats
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        let subscribed = self.inbox.delivery.lock().sub.take().is_some();
        if subscribed {
            let inbox = &self.inbox;
            inbox
                .book
                .lock()
                .state(&inbox.tenant)
                .release_subscription();
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

    #[test]
    fn a_landing_publish_selects_within_credit_and_wakes() {
        let store = ShardedStore::new(1, 4, 1);
        let inbox = Arc::new(Inbox {
            mailbox: Arc::new(Mailbox::default()),
            book: Arc::new(Mutex::new(TenantBook::default())),
            tenant: String::new(),
            max_credits: 1,
            delivery: Mutex::new(Delivery {
                sub: Some(Subscription {
                    synced_to: vec![0],
                    credits: 1,
                    pending: VecDeque::new(),
                }),
                stats: ServeStats::default(),
            }),
        });
        store.attach(Arc::clone(&inbox));
        let pending = || {
            let d = inbox.delivery.lock();
            let sub = d.sub.as_ref().unwrap();
            (sub.pending.len(), sub.credits, inbox.mailbox.deliveries())
        };
        // The opener is chosen at publish, spending the one credit.
        store.publish(vec![partials_with(0, &[1])]).unwrap();
        assert_eq!(pending(), (1, 0, 1));
        // Out of credit: nothing more is chosen, but the client is woken.
        store.publish(vec![partials_with(0, &[2])]).unwrap();
        assert_eq!(pending(), (1, 0, 2));
        // A publish that lands no version wakes nobody.
        store.publish(vec![partials_with(0, &[2])]).unwrap();
        assert_eq!(pending(), (1, 0, 2));
        // The final version wakes too.
        store.publish_final(vec![partials_with(0, &[3])]).unwrap();
        assert_eq!(pending(), (1, 0, 3));
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
