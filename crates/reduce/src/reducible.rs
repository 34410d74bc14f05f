//! What a reduction node can merge: the [`Reducible`] trait over the
//! analysis wire partials, plus the event-count density aggregate.
//!
//! `merge_from` must be commutative and associative over disjoint inputs —
//! the tree merges partials in arrival order, and the property tests in
//! `tests/prop_reduce.rs` pin tree-merge ≡ flat-merge for arbitrary
//! shapes. `encoded_size` mirrors the `analysis::wire` encodings byte for
//! byte, so nodes can budget upward block writes without serializing.

use opmr_analysis::profiler::MpiProfile;
use opmr_analysis::topology::Topology;
use opmr_analysis::waitstate::WaitStats;
use opmr_analysis::wire::merge_waitstats;
use opmr_analysis::DensityMap;

/// A partial aggregate that reduction nodes can fold upward.
pub trait Reducible {
    /// Merges `other` into `self` (order-insensitive over disjoint sets).
    fn merge_from(&mut self, other: &Self);
    /// Exact serialized size under the `analysis::wire` codecs, bytes.
    fn encoded_size(&self) -> usize;
}

impl Reducible for MpiProfile {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn encoded_size(&self) -> usize {
        let mut entries = 0usize;
        for rank in 0..self.ranks() {
            for kind in self.kinds() {
                if self.rank_kind(rank, kind).is_some() {
                    entries += 1;
                }
            }
        }
        // Header (count, ranks, span) + per-entry (rank, kind, 5 counters).
        16 + entries * (4 + 2 + 5 * 8)
    }
}

impl Reducible for Topology {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn encoded_size(&self) -> usize {
        8 + self.edge_count() * (8 + 3 * 8)
    }
}

impl Reducible for WaitStats {
    fn merge_from(&mut self, other: &Self) {
        merge_waitstats(self, other);
    }

    fn encoded_size(&self) -> usize {
        let map = |m: &std::collections::HashMap<u32, u64>| 4 + m.len() * 12;
        32 + map(&self.late_sender_by_victim)
            + map(&self.late_sender_by_culprit)
            + map(&self.late_receiver_by_victim)
            + 4
            + self.pending_sends.len() * (8 + 3 * 8)
            + 4
            + self.pending_recvs.len() * (8 + 8)
    }
}

/// Per-rank event counts — the cheapest density the overlay can keep at
/// full reduction (ρ → 0) while still feeding the report's heat maps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventDensity {
    counts: Vec<u64>,
}

impl EventDensity {
    pub fn new() -> EventDensity {
        EventDensity::default()
    }

    /// Rebuilds a density from decoded per-rank counts.
    pub fn from_counts(counts: Vec<u64>) -> EventDensity {
        EventDensity { counts }
    }

    /// Counts one event issued by `rank`.
    pub fn add_event(&mut self, rank: u32) {
        self.add_events(rank, 1);
    }

    /// Counts `n` events issued by `rank`.
    pub fn add_events(&mut self, rank: u32, n: u64) {
        let idx = rank as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// Events counted for `rank`.
    pub fn count(&self, rank: u32) -> u64 {
        self.counts.get(rank as usize).copied().unwrap_or(0)
    }

    /// Total events across all ranks.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of ranks observed (highest rank + 1).
    pub fn ranks(&self) -> u32 {
        self.counts.len() as u32
    }

    /// Raw per-rank counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Renders the counts as a report density map.
    pub fn to_density_map(&self) -> DensityMap {
        DensityMap::new(
            "events per rank",
            self.counts.iter().map(|&c| c as f64).collect(),
        )
    }
}

impl Reducible for EventDensity {
    fn merge_from(&mut self, other: &Self) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (into, add) in self.counts.iter_mut().zip(&other.counts) {
            *into += add;
        }
    }

    fn encoded_size(&self) -> usize {
        4 + self.counts.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use opmr_analysis::wire::{encode_profile, encode_topology, encode_waitstats};
    use opmr_events::{Event, EventKind};

    fn event(rank: u32, kind: EventKind) -> Event {
        Event {
            time_ns: 100 * rank as u64,
            duration_ns: 10,
            kind,
            rank,
            peer: -1,
            tag: -1,
            comm: 0,
            bytes: 64,
        }
    }

    #[test]
    fn profile_encoded_size_matches_codec() {
        let mut p = MpiProfile::new();
        for r in 0..5 {
            p.add(&event(r, EventKind::Send));
            p.add(&event(r, EventKind::Recv));
        }
        let mut buf = BytesMut::new();
        encode_profile(&p, &mut buf);
        assert_eq!(p.encoded_size(), buf.len());
    }

    #[test]
    fn topology_encoded_size_matches_codec() {
        let mut t = Topology::new();
        t.add_weighted(0, 1, 2, 128, 20);
        t.add_weighted(1, 2, 1, 64, 10);
        let mut buf = BytesMut::new();
        encode_topology(&t, &mut buf);
        assert_eq!(t.encoded_size(), buf.len());
    }

    #[test]
    fn waitstats_encoded_size_matches_codec() {
        let mut w = WaitStats {
            matched: 3,
            total_late_sender_ns: 100,
            ..Default::default()
        };
        w.late_sender_by_victim.insert(1, 100);
        w.pending_sends.push((
            0,
            1,
            opmr_analysis::waitstate::SendSide {
                start_ns: 5,
                end_ns: 9,
                bytes: 64,
            },
        ));
        let mut buf = BytesMut::new();
        encode_waitstats(&w, &mut buf);
        assert_eq!(w.encoded_size(), buf.len());
    }

    #[test]
    fn density_merges_elementwise() {
        let mut a = EventDensity::new();
        a.add_event(0);
        a.add_event(2);
        let mut b = EventDensity::new();
        b.add_event(2);
        b.add_event(5);
        a.merge_from(&b);
        assert_eq!(a.count(0), 1);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(5), 1);
        assert_eq!(a.total(), 4);
        assert_eq!(a.ranks(), 6);
        assert_eq!(a.to_density_map().len(), 6);
    }
}
