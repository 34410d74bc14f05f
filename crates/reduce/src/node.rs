//! Windowed streaming reduction nodes.
//!
//! Every rank of the tree partition runs [`run_node`]: it opens one VMPI
//! read stream across its children (internal tree nodes below it plus any
//! instrumented leaves the map pivot assigned to it) and, unless it is the
//! root, one write stream to its parent. Incoming blocks are folded
//! according to the configured [`ReduceOp`]:
//!
//! * **PassThrough** (ρ = 1) — every block is forwarded unchanged, one
//!   block per incoming block, so the root receives the exact event packs
//!   the leaves emitted and can feed the ordinary analysis engine;
//! * **Filter** (ρ = 1/k) — a deterministic 1-in-k sample of blocks
//!   survives each hop (the MRNet-style filter regime of the capacity
//!   model);
//! * **Aggregate** (ρ → 0) — frontier nodes decode event packs into
//!   per-application [`ReducePartial`]s, merge a window's worth, and ship
//!   the merged partial upward; inner nodes merge their children's
//!   partials again. Only aggregates ever reach the root.
//!
//! Upward writes go through the stream layer's bounded async window, so
//! back-pressure propagates down the tree exactly as it does for direct
//! partition mapping. All per-node activity is counted in [`ReduceStats`].
//!
//! Direct partition mapping is the depth-0 tree (`Tree::new(0, n)`): every
//! node is a root with only leaf children, so `run_node` is the one read
//! loop of every analyzer rank — it drains its share of the writers into
//! `on_root_block` (the shared engine under pass-through) or, under
//! Aggregate, into the partials it returns for the session to merge.

use crate::partial::{decode_partial_set, encode_partial_set, try_frame, FrameBuf, ReducePartial};
use crate::reducible::Reducible;
use crate::tree::Tree;
use bytes::Bytes;
use opmr_analysis::fold::{fold_pack, Aggregates, FoldTarget};
use opmr_analysis::waitstate::WaitStateAnalysis;
use opmr_events::{Event, EventPack, PackHeader};
use opmr_metrics::MetricsSeries;
use opmr_vmpi::{ReadMode, ReadStream, Result, StreamConfig, Vmpi, VmpiError, WriteStream};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// Tree-overlay metrics. The tree-wide handles are cached process-wide; the
// per-level byte counters are resolved once per `run_node` call (labelled
// by the node's tree level) and passed down to the hot helpers.
struct NodeMetrics {
    windows_closed: Arc<opmr_obs::Counter>,
    window_latency: Arc<opmr_obs::Histogram>,
    merges: Arc<opmr_obs::Counter>,
    decode_errors: Arc<opmr_obs::Counter>,
    peers_lost: Arc<opmr_obs::Counter>,
}

fn node_metrics() -> &'static NodeMetrics {
    static M: OnceLock<NodeMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = opmr_obs::registry();
        NodeMetrics {
            windows_closed: r.counter("reduce_windows_closed_total"),
            window_latency: r.histogram("reduce_window_merge_latency_ns"),
            merges: r.counter("reduce_merges_total"),
            decode_errors: r.counter("reduce_decode_errors_total"),
            peers_lost: r.counter("reduce_peers_lost_total"),
        }
    })
}

fn level_counters(level: usize) -> (Arc<opmr_obs::Counter>, Arc<opmr_obs::Counter>) {
    let r = opmr_obs::registry();
    (
        r.counter(&format!(
            "reduce_bytes_forwarded_total{{level=\"{level}\"}}"
        )),
        r.counter(&format!(
            "reduce_bytes_aggregated_total{{level=\"{level}\"}}"
        )),
    )
}

/// What a node does to a window of incoming data before forwarding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReduceOp {
    /// Forward every block unchanged (ρ = 1, full event streaming).
    PassThrough,
    /// Forward one block in `keep_one_in`, drop the rest (ρ = 1/k).
    Filter { keep_one_in: u32 },
    /// Merge windows into [`ReducePartial`]s and forward only those.
    Aggregate,
}

impl ReduceOp {
    /// The per-hop reduction ratio ρ the netsim capacity model assigns to
    /// this operator; `None` for aggregation (ρ is data-dependent there —
    /// measure it from [`ReduceStats`] instead).
    pub fn model_ratio(&self) -> Option<f64> {
        match self {
            ReduceOp::PassThrough => Some(1.0),
            ReduceOp::Filter { keep_one_in } => Some(1.0 / (*keep_one_in).max(1) as f64),
            ReduceOp::Aggregate => None,
        }
    }
}

/// Node configuration: the operator, the merge-window size, and whether
/// frontier nodes run wait-state matching while aggregating.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    pub op: ReduceOp,
    /// Incoming blocks absorbed per window before it closes (Aggregate).
    pub window_blocks: usize,
    /// Run wait-state analysis over aggregated events at the frontier.
    pub waitstate: bool,
    /// The frontier's series width, adaptive when `None`. Folds and merges
    /// commute, so any tree shape reduces to the same series.
    pub metrics: Option<opmr_metrics::MetricsConfig>,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            op: ReduceOp::PassThrough,
            window_blocks: 8,
            waitstate: false,
            metrics: None,
        }
    }
}

/// Lightweight per-node counters, snapshotted when the node drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Blocks received from children.
    pub blocks_in: u64,
    /// Blocks (or framed windows) forwarded upward / delivered at root.
    pub blocks_forwarded: u64,
    /// Bytes received from children.
    pub bytes_in: u64,
    /// Bytes forwarded upward / delivered at root.
    pub bytes_out: u64,
    /// Merge operations applied (pack absorptions + partial merges).
    pub merges: u64,
    /// Aggregation windows closed.
    pub windows_closed: u64,
    /// Children lost mid-stream (typed `PeerLost`).
    pub peers_lost: u64,
    /// Incoming blocks that failed to decode.
    pub decode_errors: u64,
}

impl ReduceStats {
    /// Accumulates another node's counters (for whole-tree totals).
    pub fn absorb(&mut self, o: &ReduceStats) {
        self.blocks_in += o.blocks_in;
        self.blocks_forwarded += o.blocks_forwarded;
        self.bytes_in += o.bytes_in;
        self.bytes_out += o.bytes_out;
        self.merges += o.merges;
        self.windows_closed += o.windows_closed;
        self.peers_lost += o.peers_lost;
        self.decode_errors += o.decode_errors;
    }

    /// Measured per-node reduction ratio (bytes out / bytes in).
    pub fn measured_ratio(&self) -> f64 {
        if self.bytes_in == 0 {
            1.0
        } else {
            self.bytes_out as f64 / self.bytes_in as f64
        }
    }
}

/// What a finished node hands back.
#[derive(Debug, Default)]
pub struct NodeOutcome {
    pub stats: ReduceStats,
    /// Root under [`ReduceOp::Aggregate`]: the fully merged per-application
    /// partials, ascending `app_id`. Empty everywhere else.
    pub partials: Vec<ReducePartial>,
}

/// An empty window partial for `app_id`, its series fixed-width under
/// `metrics` and adaptive without.
fn window_partial(app_id: u16, metrics: Option<opmr_metrics::MetricsConfig>) -> ReducePartial {
    ReducePartial {
        metrics: Some(MetricsSeries::for_level(metrics)),
        ..ReducePartial::new(app_id)
    }
}

/// Folds one leaf pack into a window partial.
fn absorb_pack(partial: &mut ReducePartial, header: &PackHeader, events: &[Event], len: usize) {
    let sums = fold_pack(header, events, len, || &mut *partial);
    for (rank, events) in sums.rank_events() {
        partial.density.add_events(rank, events);
    }
}

/// A window folds everything but wait states: those are matched over the
/// node's whole run and ship once, at EOF (see [`run_node`]).
impl FoldTarget for ReducePartial {
    fn aggregates(&mut self) -> Aggregates<'_> {
        Aggregates {
            packs: &mut self.packs,
            wire_bytes: &mut self.wire_bytes,
            profile: &mut self.profile,
            topology: &mut self.topology,
            waitstate: None,
            metrics: self.metrics.get_or_insert_with(Default::default),
        }
    }
}

/// Runs one tree node to completion on the calling rank.
///
/// `leaf_children` are the world ranks of instrumented leaves the map
/// pivot assigned to this node (empty for inner nodes); internal children
/// are derived from `tree` and the caller's partition-local rank. A root
/// (node 0, or every node of a fanout-0 tree) delivers surviving raw
/// blocks to `on_root_block` (PassThrough / Filter) or returns merged
/// partials (Aggregate). A child lost mid-stream is counted in
/// `peers_lost` and the survivors drain on.
pub fn run_node(
    v: &Vmpi,
    tree: &Tree,
    leaf_children: &[usize],
    cfg: StreamConfig,
    stream_id: u16,
    node_cfg: &NodeConfig,
    mut on_root_block: impl FnMut(Bytes),
) -> Result<NodeOutcome> {
    let me = v.rank();
    let part = v.my_partition().clone();
    let internal: Vec<usize> = tree
        .internal_children(me)
        .map(|c| part.world_rank_of(c))
        .collect();
    let leaves: HashSet<usize> = leaf_children.iter().copied().collect();
    let mut sources: Vec<usize> = internal.clone();
    sources.extend(leaf_children);
    let is_root = tree.parent(me).is_none();
    let (fwd_bytes, agg_bytes) = level_counters(tree.level_of(me));

    let mut tx = match tree.parent(me) {
        Some(p) => Some(WriteStream::open_to(
            v,
            vec![part.world_rank_of(p)],
            cfg,
            stream_id,
        )?),
        None => None,
    };

    let mut out = NodeOutcome::default();
    if sources.is_empty() {
        // Childless node (more tree nodes than leaves): just complete the
        // close protocol so the parent reaches EOF.
        if let Some(tx) = tx {
            tx.close()?;
        }
        return Ok(out);
    }

    let mut rx = ReadStream::open_from(v, sources, cfg, stream_id)?;
    let aggregate = matches!(node_cfg.op, ReduceOp::Aggregate);
    // Aggregate state: open windows per app, frame reassembly per child.
    let mut window: BTreeMap<u16, ReducePartial> = BTreeMap::new();
    let mut frames: BTreeMap<usize, FrameBuf> = BTreeMap::new();
    let mut final_accum: BTreeMap<u16, ReducePartial> = BTreeMap::new();
    // Wait states, per app, for the whole run: a matcher restarted per
    // window would pair a receive with the wrong send once the earlier
    // send had gone upward as a dangling half.
    let mut matchers: BTreeMap<u16, WaitStateAnalysis> = BTreeMap::new();
    let mut window_fill = 0usize;
    // Leaf packs decode into one buffer, reused block after block.
    let mut events: Vec<Event> = Vec::new();

    loop {
        let block = match rx.read(ReadMode::Blocking) {
            Ok(Some(b)) => b,
            Ok(None) => break,
            Err(VmpiError::PeerLost { rank: _ }) => {
                out.stats.peers_lost += 1;
                node_metrics().peers_lost.inc();
                continue;
            }
            Err(e) => return Err(e),
        };
        out.stats.blocks_in += 1;
        out.stats.bytes_in += block.data.len() as u64;

        match node_cfg.op {
            ReduceOp::PassThrough => {
                forward(
                    &mut out.stats,
                    &fwd_bytes,
                    &mut tx,
                    &mut on_root_block,
                    block.data,
                )?;
            }
            ReduceOp::Filter { keep_one_in } => {
                let k = keep_one_in.max(1) as u64;
                if (out.stats.blocks_in - 1) % k == 0 {
                    forward(
                        &mut out.stats,
                        &fwd_bytes,
                        &mut tx,
                        &mut on_root_block,
                        block.data,
                    )?;
                }
            }
            ReduceOp::Aggregate => {
                if leaves.contains(&block.source) {
                    // Leaf traffic: one raw event pack per block.
                    match EventPack::decode_into(&block.data, &mut events) {
                        Ok(header) => {
                            let app = header.app_id;
                            let partial = window
                                .entry(app)
                                .or_insert_with(|| window_partial(app, node_cfg.metrics));
                            absorb_pack(partial, &header, &events, block.data.len());
                            if node_cfg.waitstate {
                                let ws = matchers.entry(app).or_default();
                                ws.add_pack(header.rank, header.seq, &events);
                            }
                            out.stats.merges += 1;
                            node_metrics().merges.inc();
                            window_fill += 1;
                        }
                        Err(_) => {
                            out.stats.decode_errors += 1;
                            node_metrics().decode_errors.inc();
                        }
                    }
                } else {
                    // Inner traffic: framed partial sets from a child node.
                    let fb = frames.entry(block.source).or_default();
                    if fb.poisoned().is_some() {
                        // A corrupt frame already poisoned this child's
                        // reassembly; its stream has no resync point, so
                        // later blocks are undecodable and counted once at
                        // poisoning time, not per block.
                        continue;
                    }
                    fb.push(&block.data);
                    loop {
                        let payload = match fb.next_frame() {
                            Ok(Some(p)) => p,
                            Ok(None) => break,
                            Err(_) => {
                                out.stats.decode_errors += 1;
                                node_metrics().decode_errors.inc();
                                break;
                            }
                        };
                        match decode_partial_set(&payload) {
                            Ok(parts) => {
                                for mut p in parts {
                                    if let Some(w) = p.waitstate.take() {
                                        matchers.entry(p.app_id).or_default().absorb(&w);
                                    }
                                    window
                                        .entry(p.app_id)
                                        .or_insert_with(|| {
                                            window_partial(p.app_id, node_cfg.metrics)
                                        })
                                        .merge_from(&p);
                                    out.stats.merges += 1;
                                    node_metrics().merges.inc();
                                }
                                window_fill += 1;
                            }
                            Err(_) => {
                                out.stats.decode_errors += 1;
                                node_metrics().decode_errors.inc();
                            }
                        }
                    }
                }
                if window_fill >= node_cfg.window_blocks.max(1) {
                    close_window(
                        &mut out.stats,
                        &agg_bytes,
                        &mut window,
                        &mut final_accum,
                        &mut tx,
                        is_root,
                    )?;
                    window_fill = 0;
                }
            }
        }
    }

    if aggregate {
        // EOF: flush whatever the last window holds, and the finished
        // wait states with it.
        for (app, mut ws) in matchers {
            window
                .entry(app)
                .or_insert_with(|| window_partial(app, node_cfg.metrics))
                .waitstate = Some(ws.finish().clone());
        }
        if !window.is_empty() {
            close_window(
                &mut out.stats,
                &agg_bytes,
                &mut window,
                &mut final_accum,
                &mut tx,
                is_root,
            )?;
        }
        if is_root {
            out.partials = final_accum.into_values().collect();
        }
    }
    if let Some(tx) = tx {
        tx.close()?;
    }
    Ok(out)
}

/// Forwards one surviving raw block: up the tree, or into the root sink.
fn forward(
    stats: &mut ReduceStats,
    fwd_bytes: &opmr_obs::Counter,
    tx: &mut Option<WriteStream>,
    on_root_block: &mut impl FnMut(Bytes),
    data: Bytes,
) -> Result<()> {
    stats.blocks_forwarded += 1;
    stats.bytes_out += data.len() as u64;
    fwd_bytes.add(data.len() as u64);
    match tx {
        Some(tx) => {
            // Write-then-flush keeps the one-pack-per-block invariant at
            // every hop, so the root sees exactly the leaf framing.
            tx.write(&data)?;
            tx.flush()?;
        }
        None => on_root_block(data),
    }
    Ok(())
}

/// Closes the open aggregation window: merge into the root accumulator,
/// or encode + frame + forward to the parent.
fn close_window(
    stats: &mut ReduceStats,
    agg_bytes: &opmr_obs::Counter,
    window: &mut BTreeMap<u16, ReducePartial>,
    final_accum: &mut BTreeMap<u16, ReducePartial>,
    tx: &mut Option<WriteStream>,
    is_root: bool,
) -> Result<()> {
    if window.is_empty() {
        return Ok(());
    }
    let t0 = Instant::now();
    stats.windows_closed += 1;
    let closed: Vec<ReducePartial> = std::mem::take(window).into_values().collect();
    if is_root {
        for p in &closed {
            final_accum
                .entry(p.app_id)
                .or_insert_with(|| ReducePartial::new(p.app_id))
                .merge_from(p);
            stats.merges += 1;
            node_metrics().merges.inc();
        }
    } else if let Some(tx) = tx {
        let encoded = encode_partial_set(&closed);
        let framed = try_frame(&encoded).map_err(|_| VmpiError::ProtocolViolation {
            expected: "an aggregated partial set within the frame size limit",
            got: format!("{} bytes", encoded.len()),
        })?;
        stats.blocks_forwarded += 1;
        stats.bytes_out += framed.len() as u64;
        agg_bytes.add(framed.len() as u64);
        tx.write(&framed)?;
        tx.flush()?;
    }
    let m = node_metrics();
    m.windows_closed.inc();
    m.window_latency.record(t0.elapsed().as_nanos() as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use opmr_analysis::wire::encode_partials;
    use opmr_analysis::{AnalysisEngine, EngineConfig};
    use opmr_events::{EventKind, PackEncoding};
    use opmr_metrics::MetricsConfig;

    /// A frontier window and an engine are the same fold: fed the same
    /// blocks they hold byte-equal partials, and the window's density is
    /// the profile's per-rank event count.
    #[test]
    fn a_frontier_accum_and_an_engine_fed_the_same_packs_yield_equal_partials() {
        let metrics = MetricsConfig { window_ns: 1000 };
        let engine = AnalysisEngine::new(EngineConfig {
            workers: 0,
            ..EngineConfig::default()
        });
        engine.enable_waitstate();
        engine.enable_metrics(metrics);
        let mut reduced = window_partial(4, Some(metrics));
        let mut ws = WaitStateAnalysis::new();

        let kinds = [
            EventKind::Isend,
            EventKind::Recv,
            EventKind::Wait,
            EventKind::Allreduce,
            EventKind::PosixWrite,
            EventKind::Sendrecv,
        ];
        let mut per_rank = [0u64; 3];
        for seq in 0..30u32 {
            let rank = seq % 3;
            let events: Vec<Event> = (0..seq % 7)
                .map(|i| Event {
                    time_ns: 400 * seq as u64 + 37 * i as u64,
                    duration_ns: 90 * (i as u64 % 4),
                    kind: kinds[(seq + i) as usize % kinds.len()],
                    // Every fifth pack carries another rank's events too.
                    rank: if seq % 5 == 0 { (rank + i) % 3 } else { rank },
                    peer: ((rank + 1 + i % 2) % 3) as i32,
                    tag: i as i32,
                    comm: 0,
                    bytes: 8 << (i % 5),
                })
                .collect();
            for e in &events {
                per_rank[e.rank as usize] += 1;
            }
            let encoding = [PackEncoding::Fixed, PackEncoding::Delta][seq as usize % 2];
            let block = EventPack::new(4, rank, seq, events).encode_with(encoding);
            let pack = EventPack::decode(&block).unwrap();
            absorb_pack(&mut reduced, &pack.header, &pack.events, block.len());
            ws.add_pack(rank, seq, &pack.events);
            engine.post_block(block);
            engine.blackboard().run_inline();
        }

        reduced.waitstate = Some(ws.finish().clone());
        assert_eq!(reduced.density.counts(), &per_rank[..]);
        let served = engine.finish().to_partials();
        assert_eq!(
            encode_partials(&[reduced.to_app_partial()]),
            encode_partials(&served)
        );
    }
}
