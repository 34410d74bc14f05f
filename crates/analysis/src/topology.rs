//! Topological module: communication graphs and matrices (Figure 17).
//!
//! For every point-to-point transfer the module accumulates a directed
//! edge weighted in hits, total size and total time; outputs are a dense
//! text matrix and a Graphviz DOT graph, both weighted by a selectable
//! [`WeightKind`] — exactly what the paper feeds to Graphviz.

use opmr_events::Event;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Which weight a rendering uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightKind {
    Hits,
    Bytes,
    TimeNs,
}

impl WeightKind {
    pub fn name(self) -> &'static str {
        match self {
            WeightKind::Hits => "hits",
            WeightKind::Bytes => "total size",
            WeightKind::TimeNs => "total time",
        }
    }
}

/// Accumulated weights of one directed edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeWeight {
    pub hits: u64,
    pub bytes: u64,
    pub time_ns: u64,
}

impl EdgeWeight {
    pub fn get(&self, kind: WeightKind) -> u64 {
        match kind {
            WeightKind::Hits => self.hits,
            WeightKind::Bytes => self.bytes,
            WeightKind::TimeNs => self.time_ns,
        }
    }

    pub fn merge(&mut self, other: &EdgeWeight) {
        self.hits += other.hits;
        self.bytes += other.bytes;
        self.time_ns += other.time_ns;
    }

    pub(crate) fn add(&mut self, e: &Event) {
        self.hits += 1;
        self.bytes += e.bytes;
        self.time_ns += e.duration_ns;
    }
}

/// The communication topology of one application.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    edges: HashMap<(u32, u32), EdgeWeight>,
    ranks: u32,
}

impl Topology {
    pub fn new() -> Topology {
        Topology::default()
    }

    /// The directed edge an event contributes to: point-to-point *send
    /// sides* only (receive sides would double-count the transfer).
    pub(crate) fn edge_of(e: &Event) -> Option<(u32, u32)> {
        (e.kind.is_p2p_send() && e.peer >= 0).then_some((e.rank, e.peer as u32))
    }

    /// Folds one event into the matrix.
    pub fn add(&mut self, e: &Event) {
        let Some((src, dst)) = Topology::edge_of(e) else {
            return;
        };
        self.edges.entry((src, dst)).or_default().add(e);
        self.ranks = self.ranks.max(src + 1).max(dst + 1);
    }

    /// Folds a batch.
    pub fn add_all<'a>(&mut self, events: impl IntoIterator<Item = &'a Event>) {
        for e in events {
            self.add(e);
        }
    }

    /// Adds a pre-aggregated directed edge (used when the pattern is known
    /// statically, e.g. when rendering paper-scale topologies without
    /// materializing events).
    pub fn add_weighted(&mut self, src: u32, dst: u32, hits: u64, bytes: u64, time_ns: u64) {
        let w = self.edges.entry((src, dst)).or_default();
        w.hits += hits;
        w.bytes += bytes;
        w.time_ns += time_ns;
        self.ranks = self.ranks.max(src + 1).max(dst + 1);
    }

    /// Merges a partial topology.
    pub fn merge(&mut self, other: &Topology) {
        for (k, w) in &other.edges {
            self.edges.entry(*k).or_default().merge(w);
        }
        self.ranks = self.ranks.max(other.ranks);
    }

    /// Number of ranks covered.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Weight of a directed edge.
    pub fn edge(&self, src: u32, dst: u32) -> Option<&EdgeWeight> {
        self.edges.get(&(src, dst))
    }

    /// Edges sorted by (src, dst) for stable output.
    pub fn sorted_edges(&self) -> Vec<((u32, u32), EdgeWeight)> {
        let mut v: Vec<_> = self.edges.iter().map(|(k, w)| (*k, *w)).collect();
        v.sort_unstable_by_key(|(k, _)| *k);
        v
    }

    /// True when every edge has a reverse edge with identical hits — halo
    /// patterns are symmetric, pipelines are not.
    pub fn is_symmetric_in_hits(&self) -> bool {
        self.edges
            .iter()
            .all(|(&(s, d), w)| self.edges.get(&(d, s)).is_some_and(|r| r.hits == w.hits))
    }

    /// Mean number of communication partners per communicating rank.
    pub fn mean_degree(&self) -> f64 {
        if self.ranks == 0 {
            return 0.0;
        }
        let mut partners: HashMap<u32, u64> = HashMap::new();
        for &(s, _) in self.edges.keys() {
            *partners.entry(s).or_default() += 1;
        }
        if partners.is_empty() {
            0.0
        } else {
            partners.values().sum::<u64>() as f64 / partners.len() as f64
        }
    }

    /// Dense communication matrix as text: `ranks` lines of `ranks`
    /// weights (Figure 17a's matrix form). Suitable for small rank counts
    /// or piping into plotting tools.
    pub fn matrix_text(&self, kind: WeightKind) -> String {
        let n = self.ranks as usize;
        let mut out = String::with_capacity(n * n * 4);
        let _ = writeln!(out, "# communication matrix ({}), {} ranks", kind.name(), n);
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let w = self.edge(s, d).map(|w| w.get(kind)).unwrap_or(0);
                let sep = if d + 1 == n as u32 { "\n" } else { " " };
                let _ = write!(out, "{w}{sep}");
            }
        }
        out
    }

    /// Graphviz DOT rendering with pen widths scaled by weight (what the
    /// paper pipes into Graphviz for Figure 17b-e).
    pub fn to_dot(&self, name: &str, kind: WeightKind) -> String {
        let max_w = self
            .edges
            .values()
            .map(|w| w.get(kind))
            .max()
            .unwrap_or(1)
            .max(1);
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  // edge weight: {}", kind.name());
        let _ = writeln!(out, "  node [shape=point];");
        for ((s, d), w) in self.sorted_edges() {
            let value = w.get(kind);
            let width = 0.3 + 4.0 * value as f64 / max_w as f64;
            let _ = writeln!(
                out,
                "  {s} -> {d} [penwidth={width:.2}, label=\"{value}\"];"
            );
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// Per-rank outbound weights (spatial imbalance view).
    pub fn rank_out(&self, kind: WeightKind) -> Vec<u64> {
        let mut v = vec![0u64; self.ranks as usize];
        for (&(s, _), w) in &self.edges {
            v[s as usize] += w.get(kind);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_events::EventKind;

    fn send(rank: u32, peer: i32, bytes: u64, dur: u64) -> Event {
        Event {
            time_ns: 0,
            duration_ns: dur,
            kind: EventKind::Send,
            rank,
            peer,
            tag: 0,
            comm: 0,
            bytes,
        }
    }

    fn recv(rank: u32, peer: i32, bytes: u64) -> Event {
        Event {
            kind: EventKind::Recv,
            ..send(rank, peer, bytes, 1)
        }
    }

    #[test]
    fn only_send_sides_count() {
        let mut t = Topology::new();
        t.add(&send(0, 1, 100, 5));
        t.add(&recv(1, 0, 100));
        assert_eq!(t.edge_count(), 1);
        let w = t.edge(0, 1).unwrap();
        assert_eq!((w.hits, w.bytes, w.time_ns), (1, 100, 5));
    }

    #[test]
    fn weights_accumulate() {
        let mut t = Topology::new();
        t.add(&send(0, 1, 100, 5));
        t.add(&send(0, 1, 50, 3));
        t.add(&send(1, 0, 10, 1));
        let w = t.edge(0, 1).unwrap();
        assert_eq!((w.hits, w.bytes, w.time_ns), (2, 150, 8));
        assert!(!t.is_symmetric_in_hits(), "hits 2 vs 1");
    }

    #[test]
    fn ring_is_detected_symmetric() {
        let mut t = Topology::new();
        for r in 0..4u32 {
            t.add(&send(r, ((r + 1) % 4) as i32, 10, 1));
            t.add(&send(r, ((r + 3) % 4) as i32, 10, 1));
        }
        assert!(t.is_symmetric_in_hits());
        assert_eq!(t.mean_degree(), 2.0);
    }

    #[test]
    fn matrix_text_is_dense_and_ordered() {
        let mut t = Topology::new();
        t.add(&send(0, 2, 7, 1));
        let m = t.matrix_text(WeightKind::Bytes);
        let lines: Vec<&str> = m.lines().skip(1).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "0 0 7");
        assert_eq!(lines[1], "0 0 0");
    }

    #[test]
    fn dot_output_contains_every_edge() {
        let mut t = Topology::new();
        t.add(&send(0, 1, 10, 1));
        t.add(&send(1, 2, 30, 1));
        let dot = t.to_dot("cg", WeightKind::Bytes);
        assert!(dot.starts_with("digraph \"cg\""));
        assert!(dot.contains("0 -> 1"));
        assert!(dot.contains("1 -> 2"));
        assert!(dot.contains("label=\"30\""));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn merge_is_union_with_sum() {
        let mut a = Topology::new();
        a.add(&send(0, 1, 10, 1));
        let mut b = Topology::new();
        b.add(&send(0, 1, 5, 1));
        b.add(&send(2, 0, 1, 1));
        a.merge(&b);
        assert_eq!(a.edge(0, 1).unwrap().bytes, 15);
        assert_eq!(a.edge_count(), 2);
        assert_eq!(a.ranks(), 3);
    }

    #[test]
    fn rank_out_sums_outbound() {
        let mut t = Topology::new();
        t.add(&send(0, 1, 10, 1));
        t.add(&send(0, 2, 20, 1));
        t.add(&send(1, 0, 5, 1));
        assert_eq!(t.rank_out(WeightKind::Bytes), vec![30, 5, 0]);
    }

    #[test]
    fn negative_peer_ignored() {
        let mut t = Topology::new();
        t.add(&send(0, -1, 10, 1));
        assert_eq!(t.edge_count(), 0);
    }
}
