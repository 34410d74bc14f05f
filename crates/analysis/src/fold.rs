//! The pack fold: one decoded pack's events into one application's
//! aggregates — the only place in the tree where events meet the profile,
//! the topology and the order-dependent series. The engine's dispatcher
//! knowledge source and the reduce tree's frontier nodes both call
//! [`fold_pack`].
//!
//! Every event of a streamed pack has the pack's rank and one of 26 kinds,
//! so the hash-keyed aggregates are not touched per event: the pack is
//! first summed into [`PackSums`] with no lock held and no hashing, and
//! only the cells it touched are merged into the maps under the lock.

use crate::profiler::{CallStats, MpiProfile};
use crate::timeline::AdaptiveTimeline;
use crate::topology::{EdgeWeight, Topology};
use crate::waitstate::WaitStateAnalysis;
use opmr_events::{Event, EventKind, PackHeader};
use opmr_metrics::MetricsSeries;
use std::ops::DerefMut;

/// How far back [`PackSums`] looks for an edge it already holds before it
/// appends a duplicate (merging adds duplicates up, so this bounds the
/// scan, not the exactness). A rank of a ring, halo or stencil pattern
/// sends to fewer peers than this.
const EDGE_LOOKBACK: usize = 8;

/// What one pack adds to the hash-keyed aggregates.
#[derive(Debug, Default)]
pub struct PackSums {
    /// One cell per kind seen in each run of same-rank events.
    cells: Vec<(u32, EventKind, CallStats)>,
    /// Send-side point-to-point transfers, per `(src, dst)`.
    edges: Vec<((u32, u32), EdgeWeight)>,
    last_end_ns: u64,
}

impl PackSums {
    /// Sums `events` in one pass. A run ends wherever `rank` changes, so
    /// packs mixing ranks (trace replays, hand-built packs) stay exact.
    fn of(events: &[Event]) -> PackSums {
        let mut sums = PackSums::default();
        let mut table = [CallStats::default(); EventKind::Marker as usize + 1];
        let mut rank = events.first().map_or(0, |e| e.rank);
        for e in events {
            if e.rank != rank {
                sums.close_run(rank, &mut table);
                rank = e.rank;
            }
            table[e.kind as usize].add(e);
            sums.last_end_ns = sums.last_end_ns.max(e.end_ns());
            if let Some(edge) = Topology::edge_of(e) {
                let mut recent = sums.edges.iter_mut().rev().take(EDGE_LOOKBACK);
                match recent.find(|(k, _)| *k == edge) {
                    Some((_, w)) => w.add(e),
                    None => {
                        let mut w = EdgeWeight::default();
                        w.add(e);
                        sums.edges.push((edge, w));
                    }
                }
            }
        }
        sums.close_run(rank, &mut table);
        sums
    }

    fn close_run(&mut self, rank: u32, table: &mut [CallStats]) {
        for kind in EventKind::ALL {
            let cell = &mut table[kind as usize];
            if cell.hits > 0 {
                self.cells.push((rank, kind, std::mem::take(cell)));
            }
        }
    }

    /// Events per rank, one item per cell (a rank may repeat).
    pub fn rank_events(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.cells.iter().map(|(rank, _, cell)| (*rank, cell.hits))
    }
}

/// One application's aggregates, borrowed for the duration of a fold.
pub struct Aggregates<'a> {
    pub packs: &'a mut u64,
    pub wire_bytes: &'a mut u64,
    pub profile: &'a mut MpiProfile,
    pub topology: &'a mut Topology,
    pub timeline: Option<&'a mut AdaptiveTimeline>,
    pub waitstate: Option<&'a mut WaitStateAnalysis>,
    pub metrics: Option<&'a mut MetricsSeries>,
}

/// Whatever holds an application's aggregates (the engine's per-app slot,
/// a reduce node's open window).
pub trait FoldTarget {
    fn aggregates(&mut self) -> Aggregates<'_>;
}

/// Folds one pack's events (an [`opmr_events::EventPack`]'s or a decode
/// buffer's), which arrived under `header` as `wire_len` encoded bytes,
/// into the target `lock` yields. `lock` is called once, after the pack
/// has been summed, and its guard is held until every aggregate has the
/// pack: a reader taking the same lock sees whole packs only, the same
/// ones in every aggregate.
pub fn fold_pack<G>(
    header: &PackHeader,
    events: &[Event],
    wire_len: usize,
    lock: impl FnOnce() -> G,
) -> PackSums
where
    G: DerefMut,
    G::Target: FoldTarget,
{
    let sums = PackSums::of(events);
    let mut target = lock();
    let agg = target.aggregates();
    *agg.packs += 1;
    *agg.wire_bytes += wire_len as u64;
    for (rank, kind, cell) in &sums.cells {
        agg.profile.absorb_cell(*rank, *kind, cell);
    }
    agg.profile.absorb_span(sums.last_end_ns);
    for ((src, dst), w) in &sums.edges {
        agg.topology
            .add_weighted(*src, *dst, w.hits, w.bytes, w.time_ns);
    }
    // The order-dependent folds see the events themselves.
    if let Some(timeline) = agg.timeline {
        for e in events {
            timeline.add(e);
        }
    }
    if let Some(waitstate) = agg.waitstate {
        waitstate.add_pack(header.rank, header.seq, events);
    }
    if let Some(metrics) = agg.metrics {
        metrics.fold_pack(events);
    }
    sums
}
