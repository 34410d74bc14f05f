//! Point queries, answered on the asking client's rank straight from the
//! shared [`ShardedStore`]: look up the version, find the application,
//! filter by rank range. Nothing is encoded on the way; the caller gets
//! the filtered value itself.

use crate::proto::{NotFoundReason, VersionInfo};
use crate::store::ShardedStore;
use opmr_analysis::profiler::MpiProfile;
use opmr_analysis::topology::Topology;
use opmr_analysis::waitstate::WaitStats;
use opmr_analysis::wire::AppPartial;

/// Aggregates the store's per-shard version vector into one answer:
/// `current` is the max over shards, `oldest` the min over non-empty
/// shards, `apps` the total, `finished` only when every shard finished.
pub(crate) fn version_info(store: &ShardedStore) -> VersionInfo {
    let mut current = 0u64;
    let mut oldest = 0u64;
    let mut apps = 0u16;
    for s in 0..store.shards() {
        let shard = store.shard(s);
        let (o, c) = shard.version_span();
        current = current.max(c);
        if o > 0 {
            oldest = if oldest == 0 { o } else { oldest.min(o) };
        }
        apps = apps.saturating_add(shard.current().map_or(0, |e| e.apps));
    }
    VersionInfo {
        current,
        oldest,
        apps,
        finished: store.finished(),
    }
}

/// Evaluates `f` on `app_id`'s report at `version` (0 = current) and
/// returns the version it read alongside. Versions are per shard; the app
/// id names the shard to look in.
pub(crate) fn answer_query<T>(
    store: &ShardedStore,
    app_id: u16,
    version: u64,
    f: impl FnOnce(&AppPartial) -> T,
) -> Result<(u64, T), NotFoundReason> {
    let shard = store.shard(store.shard_of_app(app_id));
    let entry = if version == 0 {
        shard.current().ok_or(NotFoundReason::NoSnapshot)?
    } else {
        shard.get(version).ok_or(NotFoundReason::VersionGone)?
    };
    let app = entry
        .parts
        .iter()
        .find(|a| a.app_id == app_id)
        .ok_or(NotFoundReason::UnknownApp)?;
    Ok((entry.version, f(app)))
}

/// The rank filter of a `[rank_lo, rank_hi)` query.
pub(crate) fn in_range(rank_lo: u32, rank_hi: u32) -> impl Fn(u32) -> bool {
    move |rank| rank >= rank_lo && rank < rank_hi
}

/// Per-rank event counts of `app` over `[rank_lo, rank_hi)` clipped to
/// its ranks: `(first rank, counts)`.
pub(crate) fn density(app: &AppPartial, rank_lo: u32, rank_hi: u32) -> (u32, Vec<u64>) {
    let ranks = app.profile.ranks();
    let (lo, hi) = (rank_lo.min(ranks), rank_hi.min(ranks));
    let kinds = app.profile.kinds();
    let counts = (lo..hi)
        .map(|rank| {
            kinds
                .iter()
                .filter_map(|&k| app.profile.rank_kind(rank, k))
                .map(|s| s.hits)
                .sum()
        })
        .collect();
    (lo, counts)
}

pub(crate) fn filter_profile(p: &MpiProfile, in_range: impl Fn(u32) -> bool) -> MpiProfile {
    let mut out = MpiProfile::new();
    for kind in p.kinds() {
        for rank in (0..p.ranks()).filter(|&r| in_range(r)) {
            if let Some(s) = p.rank_kind(rank, kind) {
                out.absorb_stats(rank, kind, s.hits, s.time_ns, s.bytes, s.min_ns, s.max_ns);
            }
        }
    }
    out.absorb_span(p.span_ns());
    out
}

/// Keeps edges whose *source* rank is in range (the "what does this rank
/// slice send" view).
pub(crate) fn filter_topology(t: &Topology, in_range: impl Fn(u32) -> bool) -> Topology {
    let mut out = Topology::new();
    for ((s, d), w) in t.sorted_edges() {
        if in_range(s) {
            out.add_weighted(s, d, w.hits, w.bytes, w.time_ns);
        }
    }
    out
}

/// Keeps per-rank attributions whose rank is in range and dangling halves
/// touching the range; the scalar totals stay global.
pub(crate) fn filter_waitstats(w: &WaitStats, in_range: impl Fn(u32) -> bool) -> WaitStats {
    let keep = |m: &std::collections::HashMap<u32, u64>| {
        m.iter()
            .filter(|(&r, _)| in_range(r))
            .map(|(&r, &v)| (r, v))
            .collect()
    };
    WaitStats {
        matched: w.matched,
        unmatched: w.unmatched,
        total_late_sender_ns: w.total_late_sender_ns,
        total_late_receiver_ns: w.total_late_receiver_ns,
        late_sender_by_victim: keep(&w.late_sender_by_victim),
        late_sender_by_culprit: keep(&w.late_sender_by_culprit),
        late_receiver_by_victim: keep(&w.late_receiver_by_victim),
        pending_sends: w
            .pending_sends
            .iter()
            .filter(|&&(s, d, _)| in_range(s) || in_range(d))
            .copied()
            .collect(),
        pending_recvs: w
            .pending_recvs
            .iter()
            .filter(|&&(s, d, _)| in_range(s) || in_range(d))
            .copied()
            .collect(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::proto::ALL_RANKS;
    use opmr_events::EventKind;

    pub(crate) fn partials_with(app_id: u16, hits_per_rank: &[u64]) -> AppPartial {
        let mut profile = MpiProfile::new();
        let mut topology = Topology::new();
        for (rank, &hits) in hits_per_rank.iter().enumerate() {
            profile.absorb_stats(
                rank as u32,
                EventKind::Send,
                hits,
                hits * 5,
                hits * 64,
                5,
                5,
            );
            topology.add_weighted(
                rank as u32,
                ((rank + 1) % hits_per_rank.len()) as u32,
                hits,
                0,
                0,
            );
        }
        AppPartial {
            app_id,
            packs: 1,
            wire_bytes: 10,
            decode_errors: 0,
            profile,
            topology,
            waitstate: None,
            metrics: Some({
                let mut m = opmr_metrics::MetricsSeries::new(1000);
                for rank in 0..hits_per_rank.len() as u32 {
                    m.add(&opmr_events::Event::basic(
                        EventKind::Send,
                        rank,
                        rank as u64 * 100,
                        50,
                    ));
                }
                m
            }),
        }
    }

    fn store_with(hits_per_rank: &[u64]) -> ShardedStore {
        let store = ShardedStore::new(1, 4, 1);
        store
            .publish(vec![partials_with(2, hits_per_rank)])
            .unwrap();
        store
    }

    #[test]
    fn queries_filter_by_rank_range() {
        let store = store_with(&[10, 20, 30, 40]);
        let (_, (lo, counts)) = answer_query(&store, 2, 0, |a| density(a, 1, 3)).unwrap();
        assert_eq!((lo, counts), (1, vec![20, 30]));

        let (_, p) = answer_query(&store, 2, 0, |a| {
            filter_profile(&a.profile, in_range(2, ALL_RANKS))
        })
        .unwrap();
        assert_eq!(p.events(), 70);
    }

    #[test]
    fn metrics_query_filters_by_rank_range() {
        let store = store_with(&[10, 20, 30, 40]);
        let (_, m) = answer_query(&store, 2, 0, |a| {
            a.metrics.as_ref().map(|m| m.filter_ranks(in_range(1, 3)))
        })
        .unwrap();
        let m = m.expect("series present");
        assert_eq!(m.window_ns(), 1000);
        let ranks: Vec<u32> = m.cells().map(|(_, r, _)| r).collect();
        assert_eq!(ranks, vec![1, 2], "only ranks in [1, 3) survive");
    }

    #[test]
    fn missing_things_are_typed() {
        let empty = ShardedStore::new(1, 2, 1);
        assert_eq!(
            answer_query(&empty, 0, 0, |_| ()),
            Err(NotFoundReason::NoSnapshot)
        );
        let store = store_with(&[1, 2]);
        assert_eq!(
            answer_query(&store, 0, 0, |_| ()),
            Err(NotFoundReason::UnknownApp)
        );
        assert_eq!(
            answer_query(&store, 2, 99, |_| ()),
            Err(NotFoundReason::VersionGone)
        );
    }

    #[test]
    fn queries_route_to_the_apps_shard() {
        // Apps 0 and 1 land in different shards with independent version
        // sequences; a query for app 1 must read shard 1's ring.
        let store = ShardedStore::new(2, 4, 1);
        store
            .publish(vec![
                partials_with(0, &[1, 1]),
                partials_with(1, &[10, 20, 30]),
            ])
            .unwrap();
        let (version, (lo, counts)) =
            answer_query(&store, 1, 0, |a| density(a, 0, ALL_RANKS)).unwrap();
        assert_eq!((version, lo, counts.len()), (1, 0, 3));
        // An app the shard never held is typed as unknown, not a shard
        // routing error.
        assert_eq!(
            answer_query(&store, 3, 0, |_| ()),
            Err(NotFoundReason::UnknownApp)
        );
    }

    #[test]
    fn version_info_aggregates_the_shard_vector() {
        let store = ShardedStore::new(2, 4, 1);
        store
            .publish(vec![partials_with(0, &[1]), partials_with(1, &[2])])
            .unwrap();
        // Advance only shard 1 (app 1 changes, app 0 is byte-identical).
        store
            .publish(vec![partials_with(0, &[1]), partials_with(1, &[3])])
            .unwrap();
        let info = version_info(&store);
        assert_eq!(info.current, 2, "max over shards");
        assert_eq!(info.oldest, 1, "min over non-empty shards");
        assert_eq!(info.apps, 2, "total across shards");
        assert!(!info.finished);
    }
}
