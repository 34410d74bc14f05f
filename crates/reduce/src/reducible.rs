//! What a reduction node can merge: the [`Reducible`] trait over the
//! analysis wire partials, plus the event-count density aggregate.
//!
//! `merge_from` must be commutative and associative over disjoint inputs —
//! the tree merges partials in arrival order, and the property tests in
//! `tests/prop_reduce.rs` pin tree-merge ≡ flat-merge for arbitrary
//! shapes.

use opmr_analysis::profiler::MpiProfile;
use opmr_analysis::topology::Topology;
use opmr_analysis::waitstate::WaitStats;
use opmr_analysis::wire::merge_waitstats;
use opmr_analysis::DensityMap;

/// A partial aggregate that reduction nodes can fold upward.
pub trait Reducible {
    /// Merges `other` into `self` (order-insensitive over disjoint sets).
    fn merge_from(&mut self, other: &Self);
}

impl Reducible for MpiProfile {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl Reducible for Topology {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl Reducible for WaitStats {
    fn merge_from(&mut self, other: &Self) {
        merge_waitstats(self, other);
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
