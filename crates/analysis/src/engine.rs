//! The analysis engine: blackboard wiring of the stock knowledge sources.
//!
//! Data flow (Figures 4 and 5):
//!
//! ```text
//! raw block ──▶ KS dispatcher ──▶ fold_pack ──▶ the level's aggregates
//!                (routes by header,   │           (then ticks the publisher)
//!                 decodes into the    │
//!                 worker's buffer;    └──▶ <level>/events ──▶ plug-in KSs
//!                 wires the level on       (only while one is registered)
//!                 first sight of an app)
//! ```
//!
//! Each instrumented application gets its own blackboard *level* (type ids
//! are hashed over the level name), so identical knowledge sources coexist
//! per application and one engine concurrently profiles any number of
//! programs into a single multi-chapter report.
//!
//! A pack is one job. The dispatcher decodes the block into a buffer its
//! worker thread reuses and hands the events to [`fold_pack`], which takes
//! the application's lock once and updates every aggregate and the pack
//! accounting under it, so whatever [`AnalysisEngine::snapshot_partials`]
//! sees is a whole number of packs, the same ones in every aggregate.
//! `<level>/events` (an owned [`EventPack`]) is the plug-in point: while a
//! KS is registered on it (the trace proxy, `examples/custom_ks.rs`) the
//! dispatcher posts every decoded pack there after the fold.

use crate::density::DensityMap;
use crate::fold::{fold_pack, Aggregates, FoldTarget};
use crate::profiler::{Metric, MpiProfile};
use crate::topology::Topology;
use crate::trace_proxy::{Selection, TraceProxy};
use crate::waitstate::{WaitStateAnalysis, WaitStats};
use crate::wire::AppPartial;
use bytes::Bytes;
use opmr_blackboard::{type_id, Blackboard, BlackboardConfig, DataEntry, KnowledgeSource, TypeId};
use opmr_events::recording::RecordingFile;
use opmr_events::{codec, Event, EventKind, EventPack};
use opmr_metrics::{MetricsConfig, MetricsSeries};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Engine sizing.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Blackboard worker threads.
    pub workers: usize,
    /// Lock-striped job FIFOs.
    pub queues: usize,
    /// Read by nothing: the temporal map is drawn from the level's metrics
    /// series, at most [`opmr_metrics::ADAPTIVE_WINDOWS`] columns wide.
    pub timeline_bins: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queues: 8,
            timeline_bins: 64,
        }
    }
}

#[derive(Default)]
struct AppData {
    profile: MpiProfile,
    topology: Topology,
    waitstate: Option<WaitStateAnalysis>,
    metrics: MetricsSeries,
    proxy: Option<TraceProxy>,
    packs: u64,
    wire_bytes: u64,
    decode_errors: u64,
}

impl AppData {
    /// The level's aggregates as a mergeable partial.
    fn partial(&self, app_id: u16) -> AppPartial {
        AppPartial {
            app_id,
            packs: self.packs,
            wire_bytes: self.wire_bytes,
            decode_errors: self.decode_errors,
            profile: self.profile.clone(),
            topology: self.topology.clone(),
            waitstate: self.waitstate.as_ref().map(|ws| ws.snapshot_stats()),
            metrics: Some(self.metrics.clone()),
        }
    }
}

impl FoldTarget for AppData {
    fn aggregates(&mut self) -> Aggregates<'_> {
        Aggregates {
            packs: &mut self.packs,
            wire_bytes: &mut self.wire_bytes,
            profile: &mut self.profile,
            topology: &mut self.topology,
            waitstate: self.waitstate.as_mut(),
            metrics: &mut self.metrics,
        }
    }
}

struct AppSlot {
    app_id: u16,
    /// Type id of the level's `events` entries.
    ty_events: TypeId,
    name: Mutex<String>,
    data: Mutex<AppData>,
    /// Set once the level's aggregates and plug-in KSs are set up, to the
    /// publisher its packs tick. `OnceLock` (rather than a flag) so racing
    /// dispatchers *block* until the wiring is done instead of folding
    /// into aggregates not yet enabled, or posting events no KS is
    /// sensitive to yet.
    wired: OnceLock<Option<Publisher>>,
}

/// The per-application chapter of a finished report.
pub struct AppReport {
    pub app_id: u16,
    pub name: String,
    pub ranks: u32,
    pub events: u64,
    pub packs: u64,
    /// Encoded event bytes received (the "trace volume that never touched
    /// the file system").
    pub wire_bytes: u64,
    pub decode_errors: u64,
    pub profile: MpiProfile,
    pub topology: Topology,
    pub density: Vec<DensityMap>,
    /// Wait-state analysis results, when enabled.
    pub waitstate: Option<WaitStats>,
    /// The time-resolved series the metrics table and the temporal map
    /// are drawn from (absent only from a partial that carried none).
    pub metrics: Option<MetricsSeries>,
    /// Selective-trace proxy outcome `(path, seen, written)`, when enabled.
    pub proxy: Option<(PathBuf, u64, u64)>,
}

/// A multi-application report (one chapter per instrumented program).
pub struct MultiReport {
    pub apps: Vec<AppReport>,
}

impl MultiReport {
    /// Extracts the merge-able partial aggregates of every application
    /// (what a distributed analyzer rank ships to the merge root).
    pub fn to_partials(&self) -> Vec<AppPartial> {
        self.apps
            .iter()
            .map(|a| AppPartial {
                app_id: a.app_id,
                packs: a.packs,
                wire_bytes: a.wire_bytes,
                decode_errors: a.decode_errors,
                profile: a.profile.clone(),
                topology: a.topology.clone(),
                waitstate: a.waitstate.clone(),
                metrics: a.metrics.clone(),
            })
            .collect()
    }

    /// Rebuilds a report by merging partial aggregates from several
    /// analyzer ranks (Section VI's distributed analysis), temporal map
    /// included: it is drawn from the merged series.
    pub fn from_partials(
        partial_sets: Vec<Vec<AppPartial>>,
        names: &HashMap<u16, String>,
    ) -> MultiReport {
        let mut merged: BTreeMap<u16, AppPartial> = BTreeMap::new();
        for p in partial_sets.into_iter().flatten() {
            match merged.entry(p.app_id) {
                Entry::Vacant(slot) => {
                    slot.insert(p);
                }
                Entry::Occupied(mut slot) => slot.get_mut().merge(p),
            }
        }
        let name = |id| names.get(&id).cloned().unwrap_or_else(|| level_name(id));
        MultiReport {
            apps: merged
                .into_values()
                .map(|p| AppReport::new(name(p.app_id), p, None))
                .collect(),
        }
    }
}

impl AppReport {
    /// The chapter of one application's whole aggregate.
    fn new(name: String, p: AppPartial, proxy: Option<(PathBuf, u64, u64)>) -> AppReport {
        AppReport {
            app_id: p.app_id,
            name,
            ranks: p.profile.ranks(),
            events: p.profile.events(),
            packs: p.packs,
            wire_bytes: p.wire_bytes,
            decode_errors: p.decode_errors,
            density: stock_density_maps(&p.profile),
            profile: p.profile,
            topology: p.topology,
            waitstate: p.waitstate,
            metrics: p.metrics,
            proxy,
        }
    }
}

/// Hook invoked with the engine's current partial aggregates at every
/// publication boundary (see [`AnalysisEngine::attach_snapshot_publisher`]).
pub type SnapshotHook = Arc<dyn Fn(Vec<AppPartial>) + Send + Sync>;

/// A snapshot hook and its cadence: every N folded packs.
type Publisher = (u64, SnapshotHook);

#[derive(Default)]
struct EngineExtras {
    /// Fold wait states on every level.
    waitstate: bool,
    /// The series' fixed window width; adaptive when `None`.
    metrics: Option<MetricsConfig>,
    /// Attach a selective-trace proxy per level, writing under this dir.
    proxy: Option<(PathBuf, Selection)>,
    /// Publish a report snapshot every N folded packs.
    publisher: Option<Publisher>,
}

/// The distributed analysis engine of one analyzer rank.
#[derive(Clone)]
pub struct AnalysisEngine {
    bb: Blackboard,
    apps: Arc<Mutex<HashMap<u16, Arc<AppSlot>>>>,
    extras: Arc<Mutex<EngineExtras>>,
    /// Packs folded across every level; drives the publication cadence.
    pack_ticker: Arc<std::sync::atomic::AtomicU64>,
    /// Serializes snapshot-taking with hook delivery. Two dispatcher
    /// workers can hit a publication boundary concurrently; without the
    /// gate the later worker can snapshot *newer* aggregates yet deliver
    /// them to the store *before* the earlier worker's older snapshot,
    /// making per-version series (metrics window counts) non-monotone.
    publish_gate: Arc<Mutex<()>>,
}

fn level_name(app_id: u16) -> String {
    format!("app{app_id}")
}

/// Type id of the raw (undispatched) block entries.
fn raw_ty() -> u64 {
    type_id("engine", "raw_block")
}

impl AnalysisEngine {
    /// Builds the engine and registers the dispatcher KS.
    pub fn new(cfg: EngineConfig) -> AnalysisEngine {
        let bb = Blackboard::new(BlackboardConfig {
            queues: cfg.queues,
            workers: cfg.workers,
        });
        let engine = AnalysisEngine {
            bb,
            apps: Arc::new(Mutex::new(HashMap::new())),
            extras: Arc::new(Mutex::new(EngineExtras::default())),
            pack_ticker: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            publish_gate: Arc::new(Mutex::new(())),
        };
        engine.register_dispatcher();
        engine
    }

    /// Enables online wait-state analysis (Section VI: late-sender /
    /// late-receiver attribution) on every application level. Call before
    /// any packs arrive.
    pub fn enable_waitstate(&self) {
        self.extras.lock().waitstate = true;
    }

    /// Fixes the window width of the per-window, per-rank series every
    /// level folds (see `opmr_metrics`); without it the width is adaptive.
    /// Call before any packs arrive.
    pub fn enable_metrics(&self, cfg: MetricsConfig) {
        self.extras.lock().metrics = Some(cfg);
    }

    /// Attaches a selective-trace IO proxy: events surviving `selection`
    /// are re-encoded into `dir/app<N>_selected.opmr`. Call before any
    /// packs arrive.
    pub fn attach_trace_proxy(&self, dir: impl Into<PathBuf>, selection: Selection) {
        self.extras.lock().proxy = Some((dir.into(), selection));
    }

    /// Publishes a report snapshot every `every_packs` folded packs: the
    /// hook runs on the folding worker, after the fold, with the engine's
    /// current partial aggregates (the serve-plane window boundary), so the
    /// snapshot of the `t`-th publication holds at least `t · every_packs`
    /// packs. Call before any packs arrive.
    pub fn attach_snapshot_publisher(&self, every_packs: u64, hook: SnapshotHook) {
        self.extras.lock().publisher = Some((every_packs.max(1), hook));
    }

    /// The engine's current per-application partial aggregates, taken
    /// mid-run without stopping the workers. Each slot is sampled under the
    /// lock a pack is folded under, so a single application's aggregate is
    /// a whole number of packs — the same ones in the pack counters, the
    /// profile, the topology and the series; cross-application skew is
    /// bounded by in-flight jobs.
    pub fn snapshot_partials(&self) -> Vec<AppPartial> {
        let mut slots: Vec<Arc<AppSlot>> = self.apps.lock().values().cloned().collect();
        slots.sort_by_key(|s| s.app_id);
        slots
            .into_iter()
            .map(|slot| slot.data.lock().partial(slot.app_id))
            .collect()
    }

    /// Names an application (otherwise reports say "app\<N\>").
    pub fn set_app_name(&self, app_id: u16, name: &str) {
        let slot = self.slot(app_id);
        *slot.name.lock() = name.to_string();
    }

    /// Underlying blackboard (for custom knowledge sources).
    pub fn blackboard(&self) -> &Blackboard {
        &self.bb
    }

    /// Starts the worker pool.
    pub fn start(&self) {
        self.bb.start();
    }

    /// Posts one received stream block (exactly one encoded event pack).
    pub fn post_block(&self, block: Bytes) {
        self.bb.post(DataEntry::bytes(raw_ty(), block));
    }

    fn slot(&self, app_id: u16) -> Arc<AppSlot> {
        let mut apps = self.apps.lock();
        if let Some(slot) = apps.get(&app_id) {
            return Arc::clone(slot);
        }
        let level = level_name(app_id);
        let slot = Arc::new(AppSlot {
            app_id,
            ty_events: type_id(&level, "events"),
            name: Mutex::new(level),
            data: Mutex::new(AppData::default()),
            wired: OnceLock::new(),
        });
        apps.insert(app_id, Arc::clone(&slot));
        slot
    }

    fn register_dispatcher(&self) {
        let engine = self.clone();
        self.bb.register(KnowledgeSource::new(
            "dispatcher",
            vec![raw_ty()],
            move |_bb, entries| {
                if let Some(block) = entries[0].payload().as_bytes() {
                    engine.ingest(block);
                }
            },
        ));
    }

    /// A pack's whole job: decode the block into this worker's buffer,
    /// fold it into its application's aggregates, offer it to the level's
    /// plug-in KSs, then tick the publisher.
    fn ingest(&self, block: &[u8]) {
        thread_local! {
            /// The worker's decode buffer, reused pack after pack.
            static EVENTS: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
        }
        let Some(slot) = EVENTS.with_borrow_mut(|events| self.fold_block(block, events)) else {
            return;
        };
        if let Some(Some((every, hook))) = slot.wired.get() {
            let t = self
                .pack_ticker
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                + 1;
            if t.is_multiple_of(*every) {
                // Snapshot and publish under the gate: aggregates only
                // grow, so serializing take-then-deliver makes successive
                // store versions monotone (in particular the metrics
                // window counts) even when two workers hit the boundary at
                // once. The hook runs with no slot lock held
                // (snapshot_partials re-locks each slot).
                let _publish = self.publish_gate.lock();
                hook(self.snapshot_partials());
            }
        }
    }

    /// Decodes and folds one block; returns the slot it was folded into,
    /// or `None` for an undecodable block (counted).
    fn fold_block(&self, block: &[u8], events: &mut Vec<Event>) -> Option<Arc<AppSlot>> {
        let Ok(header) = EventPack::decode_into(block, events) else {
            // A block whose header parses is its level's error; any other
            // is app 0's.
            let slot = match codec::decode_header_any(&mut &block[..]) {
                Ok((header, _version)) => self.ensure_level(header.app_id),
                Err(_) => self.slot(0),
            };
            slot.data.lock().decode_errors += 1;
            return None;
        };
        let slot = self.ensure_level(header.app_id);
        fold_pack(&header, &events[..], block.len(), || slot.data.lock());
        if self.bb.is_sensitive_to(slot.ty_events) {
            let pack = EventPack {
                header,
                events: events.clone(),
            };
            self.bb
                .post(DataEntry::value_sized(slot.ty_events, pack, block.len()));
        }
        Some(slot)
    }

    /// Sets up the level's aggregates and plug-in KSs once per application
    /// (the multi-level blackboard of Figure 5).
    fn ensure_level(&self, app_id: u16) -> Arc<AppSlot> {
        let slot = self.slot(app_id);
        // Exactly-once wiring, even when two dispatcher jobs race on the
        // first packs of a new application: `get_or_init` blocks the
        // losers until the winner is done, so no pack is folded before the
        // level's series exist or posted before the trace proxy listens.
        slot.wired.get_or_init(|| self.wire_level(&slot));
        slot
    }

    fn wire_level(&self, slot: &AppSlot) -> Option<Publisher> {
        let extras = self.extras.lock();
        {
            let mut data = slot.data.lock();
            data.waitstate = extras.waitstate.then(WaitStateAnalysis::new);
            data.metrics = MetricsSeries::for_level(extras.metrics);
        }
        if let Some((dir, selection)) = extras.proxy.clone() {
            let path = RecordingFile::Selected { app: slot.app_id }.path(&dir);
            // A proxy that cannot be created is counted, and the level
            // goes on without one.
            if let Ok(proxy) = TraceProxy::create(&path, selection) {
                let handle = proxy.handle();
                slot.data.lock().proxy = Some(proxy);
                self.bb.register(KnowledgeSource::new(
                    &format!("trace-proxy/{}", level_name(slot.app_id)),
                    vec![slot.ty_events],
                    move |_bb, entries| {
                        if let Some(pack) = entries[0].downcast_ref::<EventPack>() {
                            handle.offer(pack.header.app_id, &pack.events);
                        }
                    },
                ));
            }
        }
        extras.publisher.clone()
    }

    /// Waits for quiescence, stops the workers and assembles the report.
    pub fn finish(self) -> MultiReport {
        self.bb.stop();
        let mut apps: Vec<Arc<AppSlot>> = self.apps.lock().values().cloned().collect();
        apps.sort_by_key(|s| s.app_id);
        let reports = apps
            .into_iter()
            .map(|slot| {
                let mut data = slot.data.lock();
                let proxy = data.proxy.take().map(|p| {
                    let (seen, written) = p.finish(slot.app_id);
                    (p.path().to_path_buf(), seen, written)
                });
                AppReport::new(slot.name.lock().clone(), data.partial(slot.app_id), proxy)
            })
            .collect();
        MultiReport { apps: reports }
    }
}

/// The report's standard density-map set (Figure 18's kinds).
fn stock_density_maps(profile: &MpiProfile) -> Vec<DensityMap> {
    let mut maps = Vec::new();
    if profile.ranks() == 0 {
        return maps;
    }
    let mk = |title: &str, values: Vec<f64>| DensityMap::new(title, values);
    for (kind, metric, title) in [
        (EventKind::Send, Metric::Hits, "MPI_Send hits"),
        (EventKind::Send, Metric::Bytes, "MPI_Send total size"),
        (EventKind::Isend, Metric::Hits, "MPI_Isend hits"),
        (EventKind::Wait, Metric::TimeNs, "MPI_Wait time"),
    ] {
        let v = profile.rank_metric(kind, metric);
        if v.iter().any(|&x| x > 0.0) {
            maps.push(mk(title, v));
        }
    }
    let coll = profile.rank_class_time(|k| k.is_collective());
    if coll.iter().any(|&x| x > 0.0) {
        maps.push(mk("collective time", coll));
    }
    let p2p_bytes = {
        let mut v = vec![0.0; profile.ranks() as usize];
        for kind in [EventKind::Send, EventKind::Isend, EventKind::Sendrecv] {
            for (i, x) in profile.rank_metric(kind, Metric::Bytes).iter().enumerate() {
                v[i] += x;
            }
        }
        v
    };
    if p2p_bytes.iter().any(|&x| x > 0.0) {
        maps.push(mk("point-to-point total size", p2p_bytes));
    }
    let posix = profile.rank_class_time(|k| k.is_posix());
    if posix.iter().any(|&x| x > 0.0) {
        maps.push(mk("POSIX time", posix));
    }
    maps
}

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_events::Event;

    fn pack(app: u16, rank: u32, seq: u32, events: Vec<Event>) -> Bytes {
        EventPack::new(app, rank, seq, events).encode()
    }

    fn send(rank: u32, peer: i32, bytes: u64) -> Event {
        Event {
            time_ns: 1000 * rank as u64,
            duration_ns: 10,
            kind: EventKind::Send,
            rank,
            peer,
            tag: 0,
            comm: 0,
            bytes,
        }
    }

    #[test]
    fn single_app_pipeline_end_to_end() {
        let engine = AnalysisEngine::new(EngineConfig {
            workers: 2,
            ..Default::default()
        });
        engine.set_app_name(3, "cg");
        engine.start();
        for rank in 0..4u32 {
            engine.post_block(pack(
                3,
                rank,
                0,
                vec![send(rank, ((rank + 1) % 4) as i32, 64)],
            ));
        }
        let report = engine.finish();
        assert_eq!(report.apps.len(), 1);
        let app = &report.apps[0];
        assert_eq!(app.app_id, 3);
        assert_eq!(app.name, "cg");
        assert_eq!(app.ranks, 4);
        assert_eq!(app.events, 4);
        assert_eq!(app.packs, 4);
        assert_eq!(app.topology.edge_count(), 4);
        let series = app.metrics.as_ref().expect("every level folds a series");
        assert_eq!(
            series.window_ns(),
            opmr_metrics::ADAPTIVE_START_NS,
            "adaptive"
        );
        assert!(!app.density.is_empty());
        assert_eq!(app.decode_errors, 0);
    }

    #[test]
    fn multi_app_levels_stay_separate() {
        let engine = AnalysisEngine::new(EngineConfig::default());
        engine.start();
        engine.post_block(pack(1, 0, 0, vec![send(0, 1, 10)]));
        engine.post_block(pack(2, 0, 0, vec![send(0, 1, 20), send(0, 2, 30)]));
        let report = engine.finish();
        assert_eq!(report.apps.len(), 2);
        assert_eq!(report.apps[0].app_id, 1);
        assert_eq!(report.apps[0].events, 1);
        assert_eq!(report.apps[1].app_id, 2);
        assert_eq!(report.apps[1].events, 2);
        assert_eq!(
            report.apps[1].profile.total_mpi_bytes(),
            50,
            "apps must not leak into each other"
        );
    }

    #[test]
    fn corrupt_blocks_are_counted_not_fatal() {
        let engine = AnalysisEngine::new(EngineConfig::default());
        engine.start();
        engine.post_block(Bytes::from_static(b"not a pack at all"));
        // A pack of the retired wire version 2: one more counted error.
        let mut retired = bytes::BytesMut::new();
        let header = EventPack::new(1, 0, 0, vec![]).header;
        codec::encode_header_versioned(&header, 2, &mut retired);
        retired.extend_from_slice(&[0; 16]);
        engine.post_block(retired.freeze());
        engine.post_block(pack(1, 0, 0, vec![send(0, 1, 10)]));
        let report = engine.finish();
        let errors: u64 = report.apps.iter().map(|a| a.decode_errors).sum();
        assert_eq!(errors, 2);
        assert!(report.apps.iter().any(|a| a.events == 1));
    }

    #[test]
    fn many_packs_under_parallel_workers() {
        let engine = AnalysisEngine::new(EngineConfig {
            workers: 4,
            queues: 8,
            timeline_bins: 16,
        });
        engine.start();
        for seq in 0..200u32 {
            for rank in 0..8u32 {
                engine.post_block(pack(
                    0,
                    rank,
                    seq,
                    vec![send(rank, ((rank + 1) % 8) as i32, 128); 10],
                ));
            }
        }
        let report = engine.finish();
        let app = &report.apps[0];
        assert_eq!(app.events, 200 * 8 * 10);
        assert_eq!(app.packs, 1600);
        assert_eq!(app.profile.kind(EventKind::Send).unwrap().hits, 16_000);
        assert_eq!(app.topology.edge_count(), 8);
    }

    #[test]
    fn metrics_series_folds_when_enabled_and_matches_offline() {
        let engine = AnalysisEngine::new(EngineConfig::default());
        engine.enable_metrics(MetricsConfig { window_ns: 1000 });
        engine.start();
        let mut offline = MetricsSeries::new(1000);
        for rank in 0..4u32 {
            let e = send(rank, ((rank + 1) % 4) as i32, 64);
            offline.add(&e);
            engine.post_block(pack(0, rank, 0, vec![e]));
        }
        let report = engine.finish();
        let m = report.apps[0]
            .metrics
            .as_ref()
            .expect("metrics enabled but absent from report");
        assert_eq!(m.window_ns(), 1000);
        assert_eq!(
            *m, offline,
            "online fold must equal offline whole-trace fold"
        );
        assert!(report.apps[0].waitstate.is_none(), "waitstate not enabled");
    }

    #[test]
    fn every_snapshot_is_a_whole_number_of_packs_in_every_aggregate() {
        // Equal-sized packs of sends, so each aggregate counts events its
        // own way: a snapshot that caught a pack in one of them and not in
        // another (or in the pack counter) breaks an equality below.
        const PER_PACK: u64 = 16;
        // The overlap is constructed, not hoped for: the posters keep
        // posting until the main thread has taken this many snapshots that
        // saw the application, and give up at a cap the main thread cannot
        // miss (seconds of posting) so a broken snapshot path fails instead
        // of hanging.
        const SNAPSHOTS_WANTED: usize = 32;
        const MAX_PACKS_PER_POSTER: u32 = 400_000;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let engine = AnalysisEngine::new(EngineConfig {
            workers: 2,
            ..Default::default()
        });
        engine.enable_metrics(MetricsConfig { window_ns: 1000 });
        engine.start();
        let block = |rank: u32, seq: u32| {
            pack(
                0,
                rank,
                seq,
                vec![send(rank, 1 - rank as i32, 64); PER_PACK as usize],
            )
        };
        let block_len = block(0, 0).len() as u64;
        let (snapshots, posting) = (AtomicUsize::new(0), AtomicUsize::new(2));
        let posted: u64 = std::thread::scope(|scope| {
            let posters: Vec<_> = (0..2u32)
                .map(|rank| {
                    let (engine, snapshots, posting, block) =
                        (&engine, &snapshots, &posting, &block);
                    scope.spawn(move || {
                        let mut seq = 0;
                        while seq < MAX_PACKS_PER_POSTER
                            && snapshots.load(Ordering::SeqCst) < SNAPSHOTS_WANTED
                        {
                            engine.post_block(block(rank, seq));
                            seq += 1;
                        }
                        posting.fetch_sub(1, Ordering::SeqCst);
                        seq as u64
                    })
                })
                .collect();
            while snapshots.load(Ordering::SeqCst) < SNAPSHOTS_WANTED
                && posting.load(Ordering::SeqCst) > 0
            {
                for app in engine.snapshot_partials() {
                    let events = app.profile.events();
                    assert_eq!(events, app.packs * PER_PACK, "profile vs packs");
                    assert_eq!(app.wire_bytes, app.packs * block_len, "wire bytes");
                    let edges = app.topology.sorted_edges();
                    let sent: u64 = edges.iter().map(|(_, w)| w.hits).sum();
                    assert_eq!(sent, events, "topology vs profile");
                    let series = app.metrics.as_ref().expect("metrics enabled");
                    let windowed: u64 = series.cells().map(|(_, _, c)| c.hits).sum();
                    assert_eq!(windowed, events, "metrics series vs profile");
                    snapshots.fetch_add(1, Ordering::SeqCst);
                }
            }
            posters
                .into_iter()
                .map(|p| p.join().expect("poster panicked"))
                .sum()
        });
        assert_eq!(
            snapshots.load(Ordering::SeqCst),
            SNAPSHOTS_WANTED,
            "the posters hit their cap before the snapshots were taken"
        );
        let report = engine.finish();
        assert_eq!(report.apps[0].packs, posted);
        assert_eq!(report.apps[0].events, posted * PER_PACK);
    }

    #[test]
    fn the_snapshot_published_at_tick_t_holds_at_least_t_packs() {
        let engine = AnalysisEngine::new(EngineConfig {
            workers: 0,
            ..Default::default()
        });
        let published: Arc<Mutex<Vec<u64>>> = Arc::default();
        let sink = Arc::clone(&published);
        engine.attach_snapshot_publisher(
            1,
            Arc::new(move |partials| {
                sink.lock().push(partials.iter().map(|a| a.packs).sum());
            }),
        );
        for seq in 0..20u32 {
            engine.post_block(pack(0, 0, seq, vec![send(0, 1, 8)]));
            engine.blackboard().run_inline();
        }
        let published = published.lock().clone();
        assert_eq!(published.len(), 20);
        for (tick, packs) in (1..).zip(published) {
            assert!(packs >= tick, "tick {tick} published {packs} packs");
        }
    }

    #[test]
    fn first_packs_of_a_new_level_are_never_dropped() {
        // Regression for the prop_system flake: dispatcher jobs racing on
        // the first packs of a new application could post into a level
        // whose knowledge sources were still being registered, and the
        // blackboard silently dropped those entries. The `Once`-based
        // wiring blocks the racing dispatchers until the level is live.
        for round in 0..25u16 {
            let engine = AnalysisEngine::new(EngineConfig {
                workers: 4,
                queues: 8,
                timeline_bins: 16,
            });
            engine.start();
            for rank in 0..8u32 {
                engine.post_block(pack(round, rank, 0, vec![send(rank, 0, 8)]));
            }
            let report = engine.finish();
            assert_eq!(report.apps.len(), 1, "round {round}");
            assert_eq!(report.apps[0].packs, 8, "round {round}: lost first packs");
            assert_eq!(report.apps[0].events, 8, "round {round}");
        }
    }
}
