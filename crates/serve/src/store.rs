//! The versioned report snapshot store.
//!
//! Writers (engine workers hitting a publication boundary) serialize on
//! an internal mutex; readers (clients answering their own queries and
//! selecting subscription updates) take only a read lock on the ring of
//! retained versions to clone an `Arc` out of it. A publish does its diff,
//! patch and copy under the writer mutex alone and write-locks the ring
//! just to push the new version and evict the oldest, so a reader never
//! waits behind O(snapshot) work. The newest ring entry is `current`.
//!
//! Publishing costs what changed, not what is held. The store diffs the
//! new partials against the previous version's (metrics chunks the two
//! still share are skipped by pointer), and then does to its own
//! [`SnapshotImage`] exactly what a subscriber does with that delta:
//! patches the bytes in place. An all-unchanged delta is the "nothing to
//! publish" test. The image is encoded in full only where that is the
//! definition — the first version, or a version no delta can express (the
//! app set shrank, a count overflowed), which subscribers cross by resync.
//!
//! Each ring entry keeps the version's contiguous bytes (one copy of the
//! image per version: a resync payload in O(1), and what the byte-identity
//! audits read), the delta from its predecessor, and the decoded partials
//! behind an `Arc` for point queries — cheap to retain, since consecutive
//! versions share every metrics chunk that did not change. A subscriber
//! inside the ring advances by deltas; one outside it resyncs from
//! `current`.
//!
//! Clients read this store on their own ranks. Each attaches its inbox,
//! and every publish that lands a version hands each attached subscription
//! what its credits allow and then bumps the client's mailbox, so a
//! client with nothing to consume parks instead of polling.

use crate::client::Inbox;
use crate::delta::{checked_u16, encode_delta_changes, patch_image, EncodeError};
use crate::mono_ns;
use bytes::Bytes;
use opmr_analysis::wire::{AppChange, AppPartial, SnapshotImage};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::Arc;

// Store publication metrics for the self-monitoring snapshot.
mod obs {
    use opmr_obs::{registry, Counter};
    use std::sync::{Arc, OnceLock};

    pub(super) struct StoreMetrics {
        pub publishes: Arc<Counter>,
        pub evictions: Arc<Counter>,
        pub shard_skips: Arc<Counter>,
    }

    pub(super) fn m() -> &'static StoreMetrics {
        static M: OnceLock<StoreMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            StoreMetrics {
                publishes: r.counter("serve_publishes_total"),
                evictions: r.counter("serve_evictions_total"),
                shard_skips: r.counter("serve_shard_publish_skips_total"),
            }
        })
    }
}

/// One published report version.
pub struct SnapshotEntry {
    /// Monotonically increasing version, starting at 1.
    pub version: u64,
    /// Publication timestamp on the process-wide serve clock
    /// ([`crate::mono_ns`]); subscription lag is measured against it.
    pub publish_ns: u64,
    /// True for the final snapshot published after every instrumentation
    /// stream closed and the engine drained.
    pub is_final: bool,
    /// Applications in the snapshot.
    pub apps: u16,
    /// The full snapshot: `analysis::wire::encode_partials` bytes.
    pub encoded: Bytes,
    /// Delta from `version - 1` (absent on the first version, and where no
    /// delta can express the step).
    pub delta: Option<Bytes>,
    /// The snapshot `encoded` encodes, sorted by `app_id`: what point
    /// queries read and the next version is diffed against.
    pub parts: Arc<Vec<AppPartial>>,
}

/// Store counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Versions published.
    pub published: u64,
    /// Versions that aged out of the ring.
    pub evicted: u64,
}

/// What a publish landed (`None`: skipped as unchanged) and the version
/// it aged out of the ring.
type Published = (Option<u64>, Option<Arc<SnapshotEntry>>);

/// Writer-side state, serialized by the publish mutex.
struct Inner {
    /// The newest version's bytes, patched from version to version.
    image: SnapshotImage,
    next_version: u64,
    evicted: u64,
}

/// Versioned snapshot store shared by the engine's publication hook and
/// the clients reading it.
pub struct SnapshotStore {
    ring_cap: usize,
    inner: Mutex<Inner>,
    /// The retained versions, newest (`current`) at the back. Readers take
    /// only this lock, which a publish holds just to push and evict —
    /// never across its diff, patch and copy.
    ring: RwLock<VecDeque<Arc<SnapshotEntry>>>,
}

impl SnapshotStore {
    /// A store retaining `ring` recent versions.
    pub fn new(ring: usize) -> SnapshotStore {
        SnapshotStore {
            ring_cap: ring.max(1),
            inner: Mutex::new(Inner {
                image: SnapshotImage::default(),
                next_version: 1,
                evicted: 0,
            }),
            ring: RwLock::new(VecDeque::new()),
        }
    }

    /// Publishes a version and returns its number (`None` when skipped
    /// as unchanged) with the version it aged out of the ring, if any. The
    /// last reference to an evicted version owns its whole snapshot, so a
    /// caller with subscribers to tell drops it after telling them.
    fn publish_inner(
        &self,
        parts: Vec<AppPartial>,
        is_final: bool,
        skip_unchanged: bool,
    ) -> Result<Published, EncodeError> {
        let mut inner = self.inner.lock();
        // Writers are serialized by `inner`, so the newest version cannot
        // change under us.
        let prev = self.current();
        if prev.as_ref().is_some_and(|e| e.is_final) {
            // The final version is by definition the last one.
            return Ok((Some(inner.next_version - 1), None));
        }
        let apps = checked_u16(parts.len(), EncodeError::TooManyApps(parts.len()))?;
        let version = inner.next_version;
        // A delta that cannot be encoded (count overflow or a vanished
        // app, already counted at the failure site) degrades to a counted
        // resync for subscribers instead of poisoning the whole version.
        let (delta, changes) = match prev
            .map(|prev| encode_delta_changes(version - 1, &prev.parts, version, &parts))
        {
            Some(Ok((delta, changes))) => (Some(delta), changes),
            _ => (None, Vec::new()),
        };
        if skip_unchanged
            && !is_final
            && delta.is_some()
            && changes.iter().all(|(_, c)| *c == AppChange::Unchanged)
        {
            obs::m().shard_skips.inc();
            return Ok((None, None));
        }
        // With no delta there is no change set to line up with `parts`,
        // and the patch is a full encode.
        patch_image(&mut inner.image, &parts, &changes);
        // The one O(snapshot) step left per version, taken before the
        // publication timestamp like the full encode it replaces.
        let encoded = Bytes::copy_from_slice(&inner.image);
        inner.next_version += 1;
        let entry = Arc::new(SnapshotEntry {
            version,
            publish_ns: mono_ns(),
            is_final,
            apps,
            encoded,
            delta,
            parts: Arc::new(parts),
        });
        let evicted = {
            let mut ring = self.ring.write();
            ring.push_back(entry);
            if ring.len() > self.ring_cap {
                ring.pop_front()
            } else {
                None
            }
        };
        obs::m().publishes.inc();
        if evicted.is_some() {
            inner.evicted += 1;
            obs::m().evictions.inc();
        }
        Ok((Some(version), evicted))
    }

    fn force_publish(&self, parts: Vec<AppPartial>, is_final: bool) -> Result<u64, EncodeError> {
        // `skip_unchanged: false` always yields a version number; the
        // evicted version is freed here, outside both locks.
        Ok(self.publish_inner(parts, is_final, false)?.0.unwrap_or(0))
    }

    /// Publishes a new version; returns its number. Fails (typed, counted)
    /// when the snapshot exceeds the wire format's `u16` app count.
    pub fn publish(&self, parts: Vec<AppPartial>) -> Result<u64, EncodeError> {
        self.force_publish(parts, false)
    }

    /// Like [`SnapshotStore::publish`] but skips the version bump when the
    /// snapshot equals the current one (its delta changes nothing),
    /// returning `None`. Sharded publishes route every engine snapshot at every
    /// shard; a shard whose apps saw no new packs would otherwise spam
    /// each subscriber with an empty delta per engine publication.
    pub fn publish_if_changed(&self, parts: Vec<AppPartial>) -> Result<Option<u64>, EncodeError> {
        Ok(self.publish_inner(parts, false, true)?.0)
    }

    /// Publishes the final version (after the engine drained). Later
    /// publish calls become no-ops.
    pub fn publish_final(&self, parts: Vec<AppPartial>) -> Result<u64, EncodeError> {
        self.force_publish(parts, true)
    }

    /// The latest published version, if any.
    pub fn current(&self) -> Option<Arc<SnapshotEntry>> {
        self.ring.read().back().cloned()
    }

    /// A specific version, while it is still in the ring.
    pub fn get(&self, version: u64) -> Option<Arc<SnapshotEntry>> {
        let ring = self.ring.read();
        let front = ring.front()?.version;
        if version < front {
            return None;
        }
        ring.get((version - front) as usize).cloned()
    }

    /// `(oldest retained, newest)` versions; `(0, 0)` before any publish.
    pub fn version_span(&self) -> (u64, u64) {
        let ring = self.ring.read();
        match (ring.front(), ring.back()) {
            (Some(f), Some(b)) => (f.version, b.version),
            _ => (0, 0),
        }
    }

    /// True once the final version is published.
    pub fn finished(&self) -> bool {
        self.ring.read().back().is_some_and(|e| e.is_final)
    }

    /// Publication counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            published: inner.next_version - 1,
            evicted: inner.evicted,
        }
    }
}

/// The sharded serve store: one [`SnapshotStore`] per shard, apps routed
/// by `app_id % shards`. Each shard carries its own version sequence,
/// ring and swap-on-publish current pointer, so publishes to one shard
/// and point queries against another never contend on the same mutex.
/// A cross-shard snapshot is assembled on read ([`ShardedStore::assemble_current`]);
/// subscription delivery runs one delta chain per shard.
///
/// With `shards == 1` every accessor reduces exactly to the single-store
/// behavior, which is why the shard-0 delegates ([`ShardedStore::current`],
/// [`ShardedStore::get`], [`ShardedStore::version_span`]) exist: the
/// single-shard callers that predate sharding keep reading the same view.
pub struct ShardedStore {
    shards: Vec<SnapshotStore>,
    writers: usize,
    writers_done: Mutex<usize>,
    shard_publishes: Vec<Arc<opmr_obs::Counter>>,
    /// The attached clients, told of every publish that lands a version.
    inboxes: RwLock<Vec<Arc<Inbox>>>,
}

impl ShardedStore {
    /// A store of `shards` shards, each retaining `ring` recent versions,
    /// fed by `writers` analyzer ranks (each must call
    /// [`ShardedStore::mark_writer_done`] once).
    pub fn new(shards: usize, ring: usize, writers: usize) -> ShardedStore {
        let n = shards.max(1);
        let r = opmr_obs::registry();
        ShardedStore {
            shards: (0..n).map(|_| SnapshotStore::new(ring)).collect(),
            writers: writers.max(1),
            writers_done: Mutex::new(0),
            shard_publishes: (0..n)
                .map(|s| r.counter(&format!("serve_shard_publishes_total{{shard=\"{s}\"}}")))
                .collect(),
            inboxes: RwLock::new(Vec::new()),
        }
    }

    /// Attaches a client's inbox for every later publish that lands a
    /// version.
    pub(crate) fn attach(&self, inbox: Arc<Inbox>) {
        self.inboxes.write().push(inbox);
    }

    fn tell_inboxes(&self) {
        for inbox in self.inboxes.read().iter() {
            inbox.on_publish(self);
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's store.
    pub fn shard(&self, shard: usize) -> &SnapshotStore {
        &self.shards[shard]
    }

    /// The shard an application's report lives in.
    pub fn shard_of_app(&self, app_id: u16) -> usize {
        app_id as usize % self.shards.len()
    }

    fn split(&self, parts: Vec<AppPartial>) -> Vec<Vec<AppPartial>> {
        let mut by_shard: Vec<Vec<AppPartial>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for p in parts {
            let s = self.shard_of_app(p.app_id);
            by_shard[s].push(p);
        }
        by_shard
    }

    /// Publishes one engine snapshot across the shards. A shard whose
    /// slice equals its current version is skipped (counted)
    /// rather than version-bumped; a shard with no apps at all is left
    /// untouched until [`ShardedStore::publish_final`].
    pub fn publish(&self, parts: Vec<AppPartial>) -> Result<(), EncodeError> {
        let mut landed = false;
        // Evicted versions are freed once the subscribers have been told:
        // the first frees of a process can take a `munmap` each.
        let mut evicted = Vec::new();
        for (s, shard_parts) in self.split(parts).into_iter().enumerate() {
            if shard_parts.is_empty() {
                continue;
            }
            let (version, old) = self.shards[s].publish_inner(shard_parts, false, true)?;
            evicted.extend(old);
            if version.is_some() {
                self.shard_publishes[s].inc();
                landed = true;
            }
        }
        if landed {
            self.tell_inboxes();
        }
        drop(evicted);
        Ok(())
    }

    /// Publishes the final version on *every* shard — including empty
    /// ones, so [`ShardedStore::finished`] means all shards finished and a
    /// subscriber's per-shard chains all terminate.
    pub fn publish_final(&self, parts: Vec<AppPartial>) -> Result<(), EncodeError> {
        let mut evicted = Vec::new();
        for (s, shard_parts) in self.split(parts).into_iter().enumerate() {
            evicted.extend(self.shards[s].publish_inner(shard_parts, true, false)?.1);
            self.shard_publishes[s].inc();
        }
        self.tell_inboxes();
        drop(evicted);
        Ok(())
    }

    /// Records that one analyzer rank's instrumentation streams all closed;
    /// returns true for the last rank (which then drains the engine and
    /// calls [`ShardedStore::publish_final`]).
    pub fn mark_writer_done(&self) -> bool {
        let mut done = self.writers_done.lock();
        *done += 1;
        *done == self.writers
    }

    /// True once every shard published its final version.
    pub fn finished(&self) -> bool {
        self.shards.iter().all(|s| s.finished())
    }

    /// Per-shard current version numbers (0 before a shard's first
    /// publish) — the store's version vector.
    pub fn versions(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.current().map_or(0, |e| e.version))
            .collect()
    }

    /// Assembles the cross-shard current snapshot on read: merges the app
    /// partials of each shard's current version back into one
    /// `app_id`-sorted report. Returns the partials plus the per-shard
    /// version vector they were assembled from.
    pub fn assemble_current(&self) -> (Vec<AppPartial>, Vec<u64>) {
        let mut parts = Vec::new();
        let mut versions = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            match s.current() {
                Some(e) => {
                    versions.push(e.version);
                    parts.extend(e.parts.iter().cloned());
                }
                None => versions.push(0),
            }
        }
        parts.sort_by_key(|p| p.app_id);
        (parts, versions)
    }

    /// Aggregated publication counters across shards.
    pub fn stats(&self) -> StoreStats {
        let mut agg = StoreStats::default();
        for s in &self.shards {
            let st = s.stats();
            agg.published += st.published;
            agg.evicted += st.evicted;
        }
        agg
    }

    /// Shard 0's latest version — the whole store's latest when
    /// `shards == 1` (the pre-sharding callers' view).
    pub fn current(&self) -> Option<Arc<SnapshotEntry>> {
        self.shards[0].current()
    }

    /// Shard 0's view of a specific version (see [`ShardedStore::current`]).
    pub fn get(&self, version: u64) -> Option<Arc<SnapshotEntry>> {
        self.shards[0].get(version)
    }

    /// Shard 0's `(oldest, newest)` span (see [`ShardedStore::current`]).
    pub fn version_span(&self) -> (u64, u64) {
        self.shards[0].version_span()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::apply_delta;
    use opmr_analysis::profiler::MpiProfile;
    use opmr_analysis::topology::Topology;
    use opmr_analysis::wire::{decode_partials, encode_partials};
    use opmr_events::EventKind;

    fn parts(hits: u64) -> Vec<AppPartial> {
        let mut profile = MpiProfile::new();
        profile.absorb_stats(0, EventKind::Send, hits, hits * 10, hits * 64, 10, 10);
        vec![AppPartial {
            app_id: 0,
            packs: hits,
            wire_bytes: hits * 48,
            decode_errors: 0,
            profile,
            topology: Topology::new(),
            waitstate: None,
            metrics: None,
        }]
    }

    #[test]
    fn shrinking_app_set_degrades_delta_to_resync() {
        // A publish that drops an app cannot ride the delta chain (no
        // tombstones on the wire); the version still lands, but carries
        // no delta so subscribers resync from the full snapshot.
        let store = SnapshotStore::new(4);
        let mut two = parts(3);
        let mut extra = parts(5);
        extra[0].app_id = 7;
        two.append(&mut extra);
        store.publish(two).unwrap();
        let v = store.publish(parts(4)).unwrap();
        let entry = store.get(v).unwrap();
        assert!(entry.delta.is_none(), "removal must not encode as a delta");
        let v3 = store.publish(parts(6)).unwrap();
        assert!(
            store.get(v3).unwrap().delta.is_some(),
            "chain resumes once the app set is stable again"
        );
    }

    #[test]
    fn versions_are_monotone_and_ring_bounded() {
        let store = SnapshotStore::new(3);
        assert!(store.current().is_none());
        assert_eq!(store.version_span(), (0, 0));
        for i in 1..=10u64 {
            assert_eq!(store.publish(parts(i)).unwrap(), i);
        }
        assert_eq!(store.current().unwrap().version, 10);
        assert_eq!(store.version_span(), (8, 10));
        assert!(store.get(7).is_none(), "evicted");
        assert_eq!(store.get(9).unwrap().version, 9);
        let s = store.stats();
        assert_eq!(s.published, 10);
        assert_eq!(s.evicted, 7);
    }

    #[test]
    fn a_publish_hands_back_the_version_it_evicts() {
        // The caller frees it, after telling the subscribers: until then
        // the store holds no reference to it.
        let store = SnapshotStore::new(2);
        for i in 1..=2u64 {
            assert_eq!(
                store.publish_inner(parts(i), false, false).unwrap().0,
                Some(i)
            );
        }
        let (version, evicted) = store.publish_inner(parts(3), false, false).unwrap();
        assert_eq!(version, Some(3));
        let evicted = evicted.expect("version 1 aged out");
        assert_eq!(evicted.version, 1);
        assert_eq!(Arc::strong_count(&evicted), 1);
        assert!(store.get(1).is_none());
        assert_eq!(store.stats().evicted, 1);
        // A skipped publish evicts nothing.
        assert!(matches!(
            store.publish_inner(parts(3), false, true),
            Ok((None, None))
        ));
    }

    #[test]
    fn ring_deltas_chain_to_every_retained_version() {
        let store = SnapshotStore::new(8);
        for i in 1..=6u64 {
            store.publish(parts(i * 3)).unwrap();
        }
        let base = store.get(1).unwrap();
        let mut live = decode_partials(&base.encoded).unwrap();
        for v in 2..=6u64 {
            let e = store.get(v).unwrap();
            let (f, t) = apply_delta(&mut live, e.delta.as_ref().unwrap()).unwrap();
            assert_eq!((f, t), (v - 1, v));
            assert_eq!(encode_partials(&live), e.encoded, "version {v}");
        }
    }

    #[test]
    fn final_publish_wins_and_sticks() {
        let store = SnapshotStore::new(4);
        store.publish(parts(1)).unwrap();
        let v = store.publish_final(parts(2)).unwrap();
        assert!(store.finished());
        assert!(store.current().unwrap().is_final);
        // Publishes after the final one are ignored.
        assert_eq!(store.publish(parts(9)).unwrap(), v);
        assert_eq!(store.current().unwrap().version, v);
    }

    #[test]
    fn unchanged_publish_is_skipped_only_on_the_if_changed_path() {
        let store = SnapshotStore::new(4);
        assert_eq!(store.publish_if_changed(parts(1)).unwrap(), Some(1));
        assert_eq!(store.publish_if_changed(parts(1)).unwrap(), None);
        assert_eq!(store.publish_if_changed(parts(2)).unwrap(), Some(2));
        // The unconditional path still bumps on identical snapshots.
        assert_eq!(store.publish(parts(2)).unwrap(), 3);
        assert_eq!(store.stats().published, 3);
    }

    fn multi_parts(hits: u64, app_ids: &[u16]) -> Vec<AppPartial> {
        app_ids
            .iter()
            .flat_map(|&id| {
                let mut p = parts(hits + id as u64);
                p[0].app_id = id;
                p
            })
            .collect()
    }

    #[test]
    fn sharded_store_routes_apps_and_skips_idle_shards() {
        let store = ShardedStore::new(2, 4, 1);
        assert_eq!(store.shards(), 2);
        assert_eq!(store.shard_of_app(0), 0);
        assert_eq!(store.shard_of_app(3), 1);
        store.publish(multi_parts(1, &[0, 1])).unwrap();
        assert_eq!(store.versions(), vec![1, 1]);
        // Only app 1 (shard 1) changes: shard 0's slice is byte-identical
        // and must not bump its version.
        let mut next = multi_parts(1, &[0, 1]);
        next[1].packs += 5;
        store.publish(next).unwrap();
        assert_eq!(store.versions(), vec![1, 2]);
        // Per-shard rings hold per-shard slices.
        assert_eq!(store.shard(0).current().unwrap().apps, 1);
        assert_eq!(store.shard(1).current().unwrap().apps, 1);
    }

    #[test]
    fn sharded_final_reaches_every_shard_even_empty_ones() {
        // 3 shards but only apps 0 and 1: shard 2 sees nothing until the
        // final publish, which must still terminate its chain.
        let store = ShardedStore::new(3, 4, 2);
        store.publish(multi_parts(1, &[0, 1])).unwrap();
        assert!(!store.finished());
        assert!(!store.mark_writer_done());
        assert!(store.mark_writer_done());
        store.publish_final(multi_parts(2, &[0, 1])).unwrap();
        assert!(store.finished());
        assert_eq!(store.versions(), vec![2, 2, 1]);
        let empty_final = store.shard(2).current().unwrap();
        assert!(empty_final.is_final);
        assert_eq!(empty_final.apps, 0);
        // Publishes after the final are no-ops on every shard.
        store.publish(multi_parts(9, &[0, 1, 2])).unwrap();
        assert_eq!(store.versions(), vec![2, 2, 1]);
    }

    #[test]
    fn cross_shard_snapshot_assembles_sorted_on_read() {
        let store = ShardedStore::new(2, 4, 1);
        store.publish(multi_parts(3, &[2, 0, 1, 3])).unwrap();
        let (parts, versions) = store.assemble_current();
        assert_eq!(versions, vec![1, 1]);
        assert_eq!(
            parts.iter().map(|p| p.app_id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // Re-encoding the assembly matches encoding the sorted originals.
        let mut sorted = multi_parts(3, &[2, 0, 1, 3]);
        sorted.sort_by_key(|p| p.app_id);
        assert_eq!(encode_partials(&parts), encode_partials(&sorted));
    }

    #[test]
    fn single_shard_delegates_match_shard_zero() {
        let store = ShardedStore::new(1, 3, 1);
        for i in 1..=5u64 {
            store.publish(multi_parts(i, &[0])).unwrap();
        }
        assert_eq!(store.current().unwrap().version, 5);
        assert_eq!(store.version_span(), (3, 5));
        assert_eq!(store.get(4).unwrap().version, 4);
        assert_eq!(store.stats().published, 5);
        assert_eq!(store.stats().evicted, 2);
    }
}
