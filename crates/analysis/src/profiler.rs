//! MPI interface profile: per-call and per-rank aggregates.

use opmr_events::{Event, EventKind};
use std::collections::HashMap;

/// Aggregate statistics for one call kind (or one `(rank, kind)` pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallStats {
    pub hits: u64,
    pub time_ns: u64,
    pub bytes: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl Default for CallStats {
    fn default() -> Self {
        CallStats {
            hits: 0,
            time_ns: 0,
            bytes: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl CallStats {
    pub(crate) fn add(&mut self, e: &Event) {
        self.hits += 1;
        self.time_ns += e.duration_ns;
        self.bytes += e.bytes;
        self.min_ns = self.min_ns.min(e.duration_ns);
        self.max_ns = self.max_ns.max(e.duration_ns);
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &CallStats) {
        self.hits += other.hits;
        self.time_ns += other.time_ns;
        self.bytes += other.bytes;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean call duration, ns.
    pub fn mean_ns(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.time_ns as f64 / self.hits as f64
        }
    }
}

/// The MPI profile of one application.
#[derive(Debug, Clone, Default)]
pub struct MpiProfile {
    per_kind: HashMap<EventKind, CallStats>,
    per_rank_kind: HashMap<(u32, EventKind), CallStats>,
    /// Highest rank seen + 1.
    ranks: u32,
    /// Latest event end timestamp (application wall proxy).
    last_end_ns: u64,
    /// Total events folded in.
    events: u64,
}

impl MpiProfile {
    pub fn new() -> MpiProfile {
        MpiProfile::default()
    }

    /// Folds one event into the profile.
    pub fn add(&mut self, e: &Event) {
        self.per_kind.entry(e.kind).or_default().add(e);
        self.per_rank_kind
            .entry((e.rank, e.kind))
            .or_default()
            .add(e);
        self.ranks = self.ranks.max(e.rank + 1);
        self.last_end_ns = self.last_end_ns.max(e.end_ns());
        self.events += 1;
    }

    /// Folds a batch.
    pub fn add_all<'a>(&mut self, events: impl IntoIterator<Item = &'a Event>) {
        for e in events {
            self.add(e);
        }
    }

    /// Injects a pre-aggregated `(rank, kind)` cell (wire decoding).
    #[allow(clippy::too_many_arguments)]
    pub fn absorb_stats(
        &mut self,
        rank: u32,
        kind: EventKind,
        hits: u64,
        time_ns: u64,
        bytes: u64,
        min_ns: u64,
        max_ns: u64,
    ) {
        self.absorb_cell(
            rank,
            kind,
            &CallStats {
                hits,
                time_ns,
                bytes,
                min_ns,
                max_ns,
            },
        );
    }

    /// Merges a pre-aggregated `(rank, kind)` cell (the pack fold).
    pub(crate) fn absorb_cell(&mut self, rank: u32, kind: EventKind, cell: &CallStats) {
        self.per_kind.entry(kind).or_default().merge(cell);
        self.per_rank_kind
            .entry((rank, kind))
            .or_default()
            .merge(cell);
        self.ranks = self.ranks.max(rank + 1);
        self.events += cell.hits;
    }

    /// Raises the observed span (wire decoding).
    pub fn absorb_span(&mut self, span_ns: u64) {
        self.last_end_ns = self.last_end_ns.max(span_ns);
    }

    /// Merges a partial profile (e.g. from another analyzer rank).
    pub fn merge(&mut self, other: &MpiProfile) {
        for (k, s) in &other.per_kind {
            self.per_kind.entry(*k).or_default().merge(s);
        }
        for (k, s) in &other.per_rank_kind {
            self.per_rank_kind.entry(*k).or_default().merge(s);
        }
        self.ranks = self.ranks.max(other.ranks);
        self.last_end_ns = self.last_end_ns.max(other.last_end_ns);
        self.events += other.events;
    }

    /// Aggregate for a call kind.
    pub fn kind(&self, kind: EventKind) -> Option<&CallStats> {
        self.per_kind.get(&kind)
    }

    /// Aggregate for one rank and call kind.
    pub fn rank_kind(&self, rank: u32, kind: EventKind) -> Option<&CallStats> {
        self.per_rank_kind.get(&(rank, kind))
    }

    /// All kinds seen, sorted for stable output.
    pub fn kinds(&self) -> Vec<EventKind> {
        let mut v: Vec<EventKind> = self.per_kind.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of application ranks observed.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Events folded in.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Latest event end (proxy for instrumented wall time), ns.
    pub fn span_ns(&self) -> u64 {
        self.last_end_ns
    }

    /// Total time spent inside MPI calls, ns (across ranks).
    pub fn total_mpi_ns(&self) -> u64 {
        self.per_kind
            .iter()
            .filter(|(k, _)| k.is_mpi())
            .map(|(_, s)| s.time_ns)
            .sum()
    }

    /// Total payload bytes moved by MPI calls.
    pub fn total_mpi_bytes(&self) -> u64 {
        self.per_kind
            .iter()
            .filter(|(k, _)| k.is_mpi())
            .map(|(_, s)| s.bytes)
            .sum()
    }

    /// Per-rank value of a metric for one call kind (density-map source).
    pub fn rank_metric(&self, kind: EventKind, metric: Metric) -> Vec<f64> {
        (0..self.ranks)
            .map(|r| {
                self.rank_kind(r, kind)
                    .map(|s| match metric {
                        Metric::Hits => s.hits as f64,
                        Metric::TimeNs => s.time_ns as f64,
                        Metric::Bytes => s.bytes as f64,
                    })
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// Per-rank total time over a class of calls (e.g. all collectives).
    pub fn rank_class_time(&self, pred: impl Fn(EventKind) -> bool) -> Vec<f64> {
        let mut v = vec![0.0; self.ranks as usize];
        for ((r, k), s) in &self.per_rank_kind {
            if pred(*k) {
                v[*r as usize] += s.time_ns as f64;
            }
        }
        v
    }
}

/// Density-map metric selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    Hits,
    TimeNs,
    Bytes,
}

impl Metric {
    pub fn name(self) -> &'static str {
        match self {
            Metric::Hits => "hits",
            Metric::TimeNs => "time",
            Metric::Bytes => "size",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: u32, kind: EventKind, dur: u64, bytes: u64) -> Event {
        Event {
            time_ns: 100,
            duration_ns: dur,
            kind,
            rank,
            peer: -1,
            tag: 0,
            comm: 0,
            bytes,
        }
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let mut p = MpiProfile::new();
        p.add(&ev(0, EventKind::Send, 10, 100));
        p.add(&ev(0, EventKind::Send, 30, 200));
        p.add(&ev(1, EventKind::Send, 20, 50));
        p.add(&ev(1, EventKind::Recv, 5, 50));
        let s = p.kind(EventKind::Send).unwrap();
        assert_eq!(s.hits, 3);
        assert_eq!(s.time_ns, 60);
        assert_eq!(s.bytes, 350);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.mean_ns(), 20.0);
        assert_eq!(p.rank_kind(0, EventKind::Send).unwrap().hits, 2);
        assert_eq!(p.ranks(), 2);
        assert_eq!(p.events(), 4);
    }

    #[test]
    fn merge_equals_bulk_fold() {
        let events: Vec<Event> = (0..50)
            .map(|i| {
                ev(
                    i % 4,
                    EventKind::ALL[i as usize % 6 + 2],
                    i as u64,
                    i as u64 * 3,
                )
            })
            .collect();
        let mut whole = MpiProfile::new();
        whole.add_all(&events);
        let mut a = MpiProfile::new();
        let mut b = MpiProfile::new();
        a.add_all(&events[..20]);
        b.add_all(&events[20..]);
        a.merge(&b);
        for k in whole.kinds() {
            assert_eq!(whole.kind(k), a.kind(k), "{}", k.name());
        }
        assert_eq!(whole.events(), a.events());
        assert_eq!(whole.total_mpi_ns(), a.total_mpi_ns());
    }

    #[test]
    fn class_time_filters() {
        let mut p = MpiProfile::new();
        p.add(&ev(0, EventKind::Barrier, 100, 0));
        p.add(&ev(0, EventKind::Send, 10, 1));
        p.add(&ev(1, EventKind::Allreduce, 200, 8));
        let coll = p.rank_class_time(|k| k.is_collective());
        assert_eq!(coll, vec![100.0, 200.0]);
    }

    #[test]
    fn rank_metric_fills_gaps_with_zero() {
        let mut p = MpiProfile::new();
        p.add(&ev(2, EventKind::Send, 10, 7));
        assert_eq!(
            p.rank_metric(EventKind::Send, Metric::Bytes),
            vec![0.0, 0.0, 7.0]
        );
        assert_eq!(
            p.rank_metric(EventKind::Send, Metric::Hits),
            vec![0.0, 0.0, 1.0]
        );
    }

    #[test]
    fn posix_excluded_from_mpi_totals() {
        let mut p = MpiProfile::new();
        p.add(&ev(0, EventKind::PosixWrite, 100, 4096));
        p.add(&ev(0, EventKind::Send, 10, 64));
        assert_eq!(p.total_mpi_ns(), 10);
        assert_eq!(p.total_mpi_bytes(), 64);
    }
}
