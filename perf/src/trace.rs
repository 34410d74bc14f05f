//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends. Nothing here runs inside the
//! program under test: a span brackets a public-API call from outside.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span; 0 means "no parent".
pub type SpanId = u32;

/// One bracketed call (or batch of calls) into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// The event pack the work belongs to: `(producer rank, pack seq)`.
    pub pack: (u32, u32),
}

/// Collector shared by every thread of a traced run. Threads buffer their
/// spans locally and hand them over once, so tracing adds two clock reads
/// per span and no lock on the hot path.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created (the trace's clock).
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a long-lived span (a root, or a phase other threads parent
    /// their spans to) and returns its id; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.now();
        let mut g = self.spans.lock();
        g.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            pack: (0, 0),
        });
        g.len() as SpanId
    }

    pub fn end(&self, id: SpanId) {
        let now = self.now();
        if let Some(s) = self.spans.lock().get_mut(id as usize - 1) {
            s.end_ns = now;
        }
    }

    /// Hands over a thread's locally buffered spans.
    pub fn extend(&self, local: Vec<Span>) {
        self.spans.lock().extend(local);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }
}

/// Per-layer totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Σ (duration − the part of it child spans cover).
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            total += e - s;
            edge = e;
        }
    }
    total
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover (children on parallel threads count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            match children.get_mut(&(i as SpanId + 1)) {
                Some(kids) => dur - covered(kids, s.start_ns, s.end_ns),
                None => dur,
            }
        })
        .collect()
}

/// Totals by span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += self_ns;
    }
    out
}

/// Share of the root spans' time (those named `root`, or all of them) in
/// which no traced layer was active: Σ root self time ÷ Σ root duration.
/// Launch, teardown and whatever runs where the benchmark cannot bracket it
/// (KS execution inside the engine's workers while nothing else is in
/// flight) land here.
pub fn unattributed_share(spans: &[Span], root: Option<&str>) -> f64 {
    let selfs = self_times(spans);
    let (mut root_self, mut root_total) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.parent == 0 && root.is_none_or(|name| s.name == name) {
            root_self += self_ns;
            root_total += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    if root_total == 0 {
        0.0
    } else {
        root_self as f64 / root_total as f64
    }
}

/// Renders the trace: a per-layer summary, then every span as a row
/// `[name index, start_ns, end_ns, parent id, rank, seq]` (ids are 1-based
/// row positions; the column names are in `"columns"`).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let totals = layer_totals(spans);
    let names: Vec<&'static str> = totals.keys().copied().collect();
    let mut out = String::with_capacity(64 + spans.len() * 40);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unattributed_share\": {:.6},\n \"layers\": {{",
        unattributed_share(spans, None)
    );
    for (i, (name, t)) in totals.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("\n },\n \"names\": [");
    for (i, n) in names.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{n}\"");
    }
    out.push_str(
        "],\n \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"rank\", \"seq\"],\n \"spans\": [",
    );
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let name = names.binary_search(&s.name).unwrap_or(0);
        let _ = write!(
            out,
            "{sep}  [{name}, {}, {}, {}, {}, {}]",
            s.start_ns, s.end_ns, s.parent, s.pack.0, s.pack.1
        );
    }
    out.push_str("\n ]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pack: (0, 0),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, 0),
            // Two overlapping children on parallel threads cover 10..60.
            span("a", 10, 50, 1),
            span("b", 30, 60, 1),
            // A grandchild only reduces its own parent.
            span("c", 35, 40, 3),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 25, 5]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["root"].self_ns, 50);
        assert_eq!(totals["b"].total_ns, 30);
        assert!((unattributed_share(&spans, None) - 0.5).abs() < 1e-12);
        assert_eq!(unattributed_share(&spans, Some("other")), 0.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [span("root", 10, 20, 0), span("late", 15, 40, 1)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn json_lists_every_span_and_layer() {
        let t = Tracer::new();
        let root = t.begin("run", 0);
        t.extend(vec![Span {
            name: "vmpi.write",
            start_ns: 1,
            end_ns: 2,
            parent: root,
            pack: (3, 4),
        }]);
        t.end(root);
        let json = to_json("w", 7, &t.spans());
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(v.get("spans").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("layers").unwrap().get("vmpi.write").is_some());
    }
}
