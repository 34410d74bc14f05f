//! Online-coupling sessions: the end-to-end user façade.
//!
//! A session assembles one MPMD job (Figure 10): N instrumented
//! application partitions and one "Analyzer" partition. Application ranks
//! initialize the instrumented MPI façade, run their body, finalize;
//! analyzer ranks additively map every application partition, read their
//! share of the writers and feed each received block to the shared
//! parallel blackboard engine. When the job ends, the engine is drained
//! and the multi-application report returned — no trace file ever exists.
//!
//! There is one pipeline: the [`Coupling`] is lowered once to a reduction
//! tree and an operator, and every analyzer rank runs that tree's node
//! (`opmr_reduce::run_node`). Direct mapping is the depth-0 tree.
//! The trace workflow is the same session with a file [`Sink`], and its
//! post-mortem analysis is [`Session::replay`].

use crate::driver::{run_program, LiveOptions};
use crate::trace::{self, Sink};
use bytes::Bytes;
use opmr_analysis::wire::AppPartial;
use opmr_analysis::{AnalysisEngine, EngineConfig, MultiReport};
use opmr_events::PACK_HEADER_SIZE;
use opmr_instrument::{InstrumentedMpi, RecorderStats, EVENT_STREAM};
use opmr_netsim::Workload;
use opmr_reduce::{run_node, NodeConfig, ReduceOp, ReduceStats, Tree};
use opmr_runtime::{Launcher, Mpi, RankError};
use opmr_serve::{ServeClient, ServeConfig, ServeStats, ShardedStore, TenantBook};
use opmr_vmpi::map::map_partitions_directed;
use opmr_vmpi::{Map, StreamConfig, Vmpi, VmpiError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Name of the hidden one-rank application added by
/// [`SessionBuilder::self_monitor`].
pub const SELF_MONITOR_APP: &str = "__obs";

/// Board jobs a root analyzer lets stand per read credit (a source's
/// `n_async` receives) before it reads its next block: the last link of
/// the flow-control chain writer window → receives → board → workers.
/// Measured on `firehose_packs` (2 writers, `n_async` 4, 2 workers, 2
/// vCPUs; EXPERIMENTS.md "One flow-control rule"): `events_per_s` read
/// −17 % against the parent at 1, −13 % at 4, −4.5 % at 16, −1 % at 64
/// and −5 %…+2 % with no room at all. At 1 and 4 the root parks on the
/// board at nearly every pack and each job's wake-up costs a context
/// switch; 16 is the smallest multiple that keeps the median inside the
/// run-to-run spread, and bounds the board at 128 packs there (its
/// backlog p99 was 1 024).
pub const ROOM_PER_CREDIT: usize = 16;

/// How instrumented partitions couple to the analyzer partition.
///
/// A session lowers its coupling once to a reduction [`Tree`] over the
/// analyzer ranks and a [`ReduceOp`]; every analyzer rank then runs its
/// node of that tree, whatever the coupling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Coupling {
    /// The paper's direct partition mapping: every analyzer rank reads its
    /// round-robin share of the writers (Figure 10). This is the depth-0
    /// tree with pass-through, `Tbon { fanout: 0 }`.
    Direct,
    /// An executable TBON overlay (`opmr-reduce`): analyzer ranks form a
    /// reduction tree of the given fanout; writers attach to the frontier
    /// and data is folded per the configured [`ReduceOp`] on its way to
    /// the tree root. Fanout 0 is a flat forest: every analyzer rank is a
    /// root, and under `Aggregate` the roots' partials are merged.
    Tbon { fanout: usize },
    /// [`Coupling::Direct`] plus a sink: the engine publishes versioned
    /// snapshots into a [`ShardedStore`], and client partitions
    /// (`SessionBuilder::client`) query and subscribe to it on their own
    /// ranks while the run is still in flight.
    Serving,
}

/// Session failure.
#[derive(Debug)]
pub enum SessionError {
    /// One or more ranks panicked.
    Launch(opmr_runtime::launch::LaunchError),
    /// A coupling-layer failure before launch.
    Vmpi(VmpiError),
    /// The socket mesh of a multi-process session failed to assemble.
    Socket(opmr_runtime::SocketError),
    /// Builder misuse.
    Config(String),
    /// A replayed directory holds no (or a misnamed, truncated or
    /// incomplete) recording.
    Recording {
        path: std::path::PathBuf,
        what: String,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Launch(e) => write!(f, "launch failed: {e}"),
            SessionError::Vmpi(e) => write!(f, "coupling failed: {e}"),
            SessionError::Socket(e) => write!(f, "socket transport failed: {e}"),
            SessionError::Config(what) => write!(f, "bad session config: {what}"),
            SessionError::Recording { path, what } => {
                write!(f, "bad recording {}: {what}", path.display())
            }
        }
    }
}

/// How a session's MPMD job is hosted.
enum LaunchPlan {
    /// One process, ranks as threads (`Launcher::run`).
    InProc,
    /// One process of a socket-transport multi-process job
    /// (`Launcher::run_multiproc`).
    Socket {
        socket: opmr_runtime::SocketConfig,
        proc_index: usize,
        num_procs: usize,
        /// `placement[i]` is the process hosting application partition `i`
        /// (add order); `None` derives it round-robin once a replay's
        /// recorded applications are known.
        placement: Option<Vec<usize>>,
    },
}

impl std::error::Error for SessionError {}

type AppBody = Arc<dyn Fn(&InstrumentedMpi) -> Result<(), RankError> + Send + Sync + 'static>;
type ClientBody = Arc<dyn Fn(&mut ServeClient) -> Result<(), RankError> + Send + Sync + 'static>;
type EngineSetup = Box<dyn FnOnce(&AnalysisEngine) + Send>;

/// What an application partition's ranks run.
enum AppSource {
    /// An instrumented body, recording through the session's sink.
    Live(AppBody),
    /// Rank `r` writes the recorded packs `[r]` into its stream verbatim.
    Replay(Arc<Vec<Vec<Bytes>>>),
}

struct AppSpec {
    /// The app id its packs carry: its add order, or its recorded id.
    id: u16,
    name: String,
    ranks: usize,
    source: AppSource,
}

struct ClientSpec {
    name: String,
    ranks: usize,
    body: ClientBody,
}

/// What a finished session returns.
pub struct SessionOutcome {
    /// The multi-application analysis report.
    pub report: MultiReport,
    /// Per-application recorder totals `(app name, stats)`.
    pub recorders: Vec<(String, RecorderStats)>,
    /// Wall time of the whole MPMD job, seconds.
    pub wall_s: f64,
    /// Per-tree-node reduction counters `(node index, stats)`, ascending:
    /// one row per analyzer rank under every coupling. Under
    /// [`Coupling::Direct`] and [`Coupling::Serving`] each rank is a
    /// depth-0 root, so `blocks_forwarded == blocks_in`.
    pub reduce_stats: Vec<(usize, ReduceStats)>,
    /// Per-client counters `(client world rank, stats)`, ascending; empty
    /// unless the session ran client partitions under [`Coupling::Serving`].
    pub serve_stats: Vec<(usize, ServeStats)>,
    /// The sharded snapshot store of a [`Coupling::Serving`] session,
    /// retained so callers can audit the published per-shard version
    /// history post-run.
    pub snapshot_store: Option<Arc<ShardedStore>>,
    /// Point-in-time copy of the process-wide observability registry
    /// ([`opmr_obs`]) taken when the job ends. The registry is cumulative
    /// across sessions in one process — compare deltas, not absolutes,
    /// when running several sessions in one binary.
    pub metrics: opmr_obs::MetricsSnapshot,
}

impl SessionOutcome {
    /// Renders the report (Markdown, LaTeX, DOT graphs, matrices, PGM
    /// density maps) under `dir`; returns the written paths.
    pub fn write_artifacts(
        &self,
        dir: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        opmr_analysis::report::write_artifacts(&self.report, dir.as_ref())
    }

    /// The Markdown rendering of the report.
    pub fn markdown(&self) -> String {
        opmr_analysis::report::to_markdown(&self.report)
    }

    /// The LaTeX rendering of the report (the paper's output format).
    pub fn latex(&self) -> String {
        opmr_analysis::report::to_latex(&self.report)
    }
}

/// Builder for an online-coupling session.
pub struct SessionBuilder {
    apps: Vec<AppSpec>,
    clients: Vec<ClientSpec>,
    analyzer_ranks: usize,
    stream: StreamConfig,
    engine: EngineConfig,
    waitstate: bool,
    metrics: Option<opmr_metrics::MetricsConfig>,
    proxy: Option<(std::path::PathBuf, opmr_analysis::Selection)>,
    engine_setup: Option<EngineSetup>,
    fault_plan: Option<opmr_runtime::FaultPlan>,
    coupling: Coupling,
    reduce_op: ReduceOp,
    reduce_window: usize,
    serve: ServeConfig,
    self_monitor: Option<Duration>,
    sink: Sink,
    replay: Option<std::path::PathBuf>,
}

/// Entry point: `Session::builder()` or `Session::replay(dir)`.
pub struct Session;

impl Session {
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            apps: Vec::new(),
            clients: Vec::new(),
            analyzer_ranks: 1,
            stream: StreamConfig {
                block_size: 64 * 1024,
                ..StreamConfig::default()
            },
            engine: EngineConfig::default(),
            waitstate: false,
            metrics: None,
            proxy: None,
            engine_setup: None,
            fault_plan: None,
            coupling: Coupling::Direct,
            reduce_op: ReduceOp::PassThrough,
            reduce_window: 8,
            serve: ServeConfig::default(),
            self_monitor: None,
            sink: Sink::Stream,
            replay: None,
        }
    }

    /// Post-mortem analysis of the recording a file [`Sink`] left in `dir`,
    /// as an ordinary session: each `app<a>_rank<r>.opmr` file, and each
    /// rank of an `app<a>.sion` container, is one rank of partition
    /// `app<a>`, which writes the recorded packs into its stream verbatim.
    /// `dir` is read at `run`; a bad one is a [`SessionError::Recording`].
    pub fn replay(dir: impl Into<std::path::PathBuf>) -> SessionBuilder {
        SessionBuilder {
            replay: Some(dir.into()),
            ..Session::builder()
        }
    }
}

impl SessionBuilder {
    /// Number of analyzer ranks (the paper's writer/reader ratio knob).
    pub fn analyzer_ranks(mut self, n: usize) -> Self {
        self.analyzer_ranks = n.max(1);
        self
    }

    /// Stream configuration used by every instrumented application.
    pub fn stream_config(mut self, cfg: StreamConfig) -> Self {
        self.stream = cfg;
        self
    }

    /// Selects the compact Delta event-pack layout (wire version 4)
    /// for every recorder in the session. Decoders dispatch on the pack
    /// header, so mixed sessions and replayed legacy traces keep working;
    /// the default stays the fixed layout for bitwise compatibility.
    pub fn pack_encoding(mut self, encoding: opmr_vmpi::PackEncoding) -> Self {
        self.stream.pack_encoding = encoding;
        self
    }

    /// Enables per-block stream compression for every writer in the
    /// session (instrumented apps and TBON partial forwarding ride the same
    /// stream layer; serve clients read the store in process and stream
    /// nothing). Each frame carries its own compression flag, so readers
    /// need no out-of-band agreement.
    pub fn compression(mut self, compression: opmr_vmpi::Compression) -> Self {
        self.stream.compression = compression;
        self
    }

    /// Analysis-engine configuration.
    pub fn engine_config(mut self, cfg: EngineConfig) -> Self {
        self.engine = cfg;
        self
    }

    /// Enables online wait-state analysis (late-sender / late-receiver
    /// attribution) for every application.
    pub fn waitstate(mut self) -> Self {
        self.waitstate = true;
        self
    }

    /// Fixes the window width of the time-resolved series every level
    /// folds (load balance, communication efficiency,
    /// serialization/transfer decomposition, and the temporal map) to
    /// `window_ns` nanoseconds of application time: one window per
    /// `window_ns` for as long as the session runs. Without it the width
    /// is adaptive: 15.625 µs, doubled whenever an MPI call would reach
    /// window 64, so a series holds at most 64 windows per rank. Works
    /// under every coupling; TBON frontier nodes fold it in-network.
    pub fn metrics(mut self, window_ns: u64) -> Self {
        self.metrics = Some(opmr_metrics::MetricsConfig {
            window_ns: window_ns.max(1),
        });
        self
    }

    /// Selects how writers couple to the analyzer partition: the paper's
    /// direct mapping (default; the depth-0 reduction tree), the executable
    /// TBON reduction overlay, or direct mapping plus a serve sink.
    pub fn coupling(mut self, c: Coupling) -> Self {
        self.coupling = c;
        self
    }

    /// Reduction operator applied by TBON nodes (ignored under
    /// [`Coupling::Direct`] and [`Coupling::Serving`], which lower to
    /// pass-through). Pass-through keeps the report byte-identical to
    /// direct mapping; `Aggregate` merges windows in-network and the
    /// engine is bypassed entirely.
    pub fn reduce_op(mut self, op: ReduceOp) -> Self {
        self.reduce_op = op;
        self
    }

    /// Blocks absorbed per aggregation window before a TBON node forwards
    /// the merged partial upward.
    pub fn reduce_window(mut self, blocks: usize) -> Self {
        self.reduce_window = blocks.max(1);
        self
    }

    /// Injects seeded delays, slow ranks or a writer crash into every
    /// stream-plane send — chaos testing for the whole coupling (see
    /// `opmr_runtime::FaultPlan`). Link loss is the socket backend's
    /// `LinkFault`, under the transport that recovers it.
    pub fn fault_plan(mut self, plan: opmr_runtime::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Runs a setup callback against the analysis engine before launch —
    /// the hook for registering custom knowledge sources (the paper's
    /// plugin mechanism).
    pub fn engine_setup(mut self, f: impl FnOnce(&AnalysisEngine) + Send + 'static) -> Self {
        self.engine_setup = Some(Box::new(f));
        self
    }

    /// Attaches the selective-trace IO proxy: events surviving `selection`
    /// land in `dir/app<N>_selected.opmr` alongside the online analysis.
    pub fn trace_proxy(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        selection: opmr_analysis::Selection,
    ) -> Self {
        self.proxy = Some((dir.into(), selection));
        self
    }

    /// Where instrumented applications write their packs (default: the
    /// analyzer's stream). A file sink launches no analyzer, so the report
    /// is empty; analyze the directory with [`Session::replay`].
    pub fn sink(mut self, sink: Sink) -> Self {
        self.sink = sink;
        self
    }

    /// Adds an instrumented application with a custom body.
    pub fn app<F>(self, name: &str, ranks: usize, body: F) -> Self
    where
        F: Fn(&InstrumentedMpi) + Send + Sync + 'static,
    {
        self.app_try(name, ranks, move |imp| {
            body(imp);
            Ok(())
        })
    }

    /// Adds an instrumented application whose body may fail with a typed
    /// error. A returned `Err` tears the job down exactly like a rank
    /// panic, but is reported as [`opmr_runtime::FailureKind::Errored`]
    /// with the error's message.
    pub fn app_try<F>(mut self, name: &str, ranks: usize, body: F) -> Self
    where
        F: Fn(&InstrumentedMpi) -> Result<(), RankError> + Send + Sync + 'static,
    {
        assert!(ranks > 0, "application needs at least one rank");
        self.apps.push(AppSpec {
            id: self.apps.len() as u16,
            name: name.to_string(),
            ranks,
            source: AppSource::Live(Arc::new(body)),
        });
        self
    }

    /// Adds a client partition (requires [`Coupling::Serving`]): each rank
    /// gets a [`ServeClient`] on the session's store, named after the
    /// partition as its quota tenant, and hands it to `body`.
    pub fn client<F>(self, name: &str, ranks: usize, body: F) -> Self
    where
        F: Fn(&mut ServeClient) + Send + Sync + 'static,
    {
        self.client_try(name, ranks, move |client| {
            body(client);
            Ok(())
        })
    }

    /// Adds a client partition whose body may fail with a typed error
    /// (the fallible counterpart of [`SessionBuilder::client`]).
    pub fn client_try<F>(mut self, name: &str, ranks: usize, body: F) -> Self
    where
        F: Fn(&mut ServeClient) -> Result<(), RankError> + Send + Sync + 'static,
    {
        assert!(ranks > 0, "client partition needs at least one rank");
        self.clients.push(ClientSpec {
            name: name.to_string(),
            ranks,
            body: Arc::new(body),
        });
        self
    }

    /// Serve-plane configuration (publication cadence, snapshot ring size,
    /// shards, tenant quotas).
    pub fn serve_config(mut self, cfg: ServeConfig) -> Self {
        self.serve = cfg;
        self
    }

    /// Enables the self-monitoring application: a hidden one-rank
    /// partition ([`SELF_MONITOR_APP`]) that samples the process-wide
    /// observability registry every `interval` and streams the samples —
    /// one Marker event per metric, keyed by registry id — through the
    /// same VMPI stream machinery those metrics measure. The analysis
    /// engine thus reports on its own runtime as one more profiled
    /// application; its chapter appears in the final report under the
    /// `__obs` name.
    pub fn self_monitor(mut self, interval: Duration) -> Self {
        self.self_monitor = Some(interval);
        self
    }

    /// Adds an application that live-runs a generated workload program.
    pub fn app_workload(self, name: &str, workload: Workload, opts: LiveOptions) -> Self {
        let ranks = workload.ranks();
        let workload = Arc::new(workload);
        self.app_try(name, ranks, move |imp| {
            run_program(imp, &workload, imp.rank(), &opts)?;
            Ok(())
        })
    }

    /// Runs the session to completion.
    pub fn run(self) -> Result<SessionOutcome, SessionError> {
        self.run_inner(LaunchPlan::InProc)
    }

    /// Runs the session as one process of a socket-transport
    /// multi-process job. Every participating process must build an
    /// *identical* session (same applications, same configuration, same
    /// order) and call this with its own `proc_index`; the processes
    /// find each other through `socket`'s endpoint.
    ///
    /// Placement is derived, not configurable: the analyzer partition,
    /// client partitions and the hidden self-monitor stay on process 0 —
    /// the shared analysis engine and snapshot store live in that
    /// address space — while application partition `i` runs on process
    /// `1 + i % (num_procs − 1)` (process 0 when it is the only one), a
    /// replay's recorded applications counted first. This is
    /// [`run_multiproc_placed`](Self::run_multiproc_placed) with that
    /// placement. Only process 0's outcome carries the report; worker
    /// processes get an empty one (their engine ingests nothing), and
    /// `recorders` always covers just the ranks hosted by the calling
    /// process.
    pub fn run_multiproc(
        self,
        socket: opmr_runtime::SocketConfig,
        proc_index: usize,
        num_procs: usize,
    ) -> Result<SessionOutcome, SessionError> {
        self.run_inner(LaunchPlan::Socket {
            socket,
            proc_index,
            num_procs,
            placement: None,
        })
    }

    /// Like [`run_multiproc`](Self::run_multiproc), but with the
    /// application→process placement chosen by the caller (typically the
    /// `opmr launch` control plane) instead of the derived round-robin:
    /// `placement[i]` names the process hosting application partition
    /// `i`, counting a replay's recorded applications first (in recording
    /// order), then the live ones in the order they were added. A
    /// placement of any other length, or naming a process outside
    /// `0..num_procs`, is a [`SessionError::Config`]. The analyzer, client
    /// partitions and the self-monitor still live on process 0. Every
    /// process of the job must pass the identical placement.
    pub fn run_multiproc_placed(
        self,
        socket: opmr_runtime::SocketConfig,
        proc_index: usize,
        num_procs: usize,
        placement: Vec<usize>,
    ) -> Result<SessionOutcome, SessionError> {
        self.run_inner(LaunchPlan::Socket {
            socket,
            proc_index,
            num_procs,
            placement: Some(placement),
        })
    }

    fn run_inner(mut self, plan: LaunchPlan) -> Result<SessionOutcome, SessionError> {
        let file_sink = !matches!(self.sink, Sink::Stream);
        if let Some(dir) = self.replay.take() {
            let recorded = trace::read_recording(&dir)?;
            // A block per recorded pack (and at least one row for a live app).
            self.stream.block_size = recorded
                .iter()
                .flat_map(|(_, ranks)| ranks.iter().flatten())
                .map(Bytes::len)
                .fold(
                    PACK_HEADER_SIZE + self.stream.pack_encoding.max_event_wire_size(),
                    usize::max,
                );
            // Recorded applications keep their ids; live ones follow.
            let next = recorded.last().map_or(0, |(id, _)| id + 1);
            for (spec, id) in self.apps.iter_mut().zip(next..) {
                spec.id = id;
            }
            let sources = recorded.into_iter().map(|(id, ranks)| AppSpec {
                id,
                name: format!("app{id}"),
                ranks: ranks.len(),
                source: AppSource::Replay(Arc::new(ranks)),
            });
            self.apps.splice(0..0, sources);
        }
        if self.apps.is_empty() {
            return Err(SessionError::Config("no applications added".into()));
        }
        // Checked only now: a replay's recorded applications are placed
        // too, ahead of the live ones.
        if let LaunchPlan::Socket {
            num_procs,
            placement: Some(placement),
            ..
        } = &plan
        {
            if placement.len() != self.apps.len() {
                return Err(SessionError::Config(format!(
                    "placement names {} partitions but the session has {} applications \
                     (recorded ones first)",
                    placement.len(),
                    self.apps.len()
                )));
            }
            if let Some(bad) = placement.iter().find(|p| **p >= *num_procs) {
                return Err(SessionError::Config(format!(
                    "placement targets process {bad} but the job has only {num_procs} processes"
                )));
            }
        }
        if file_sink && !self.clients.is_empty() {
            return Err(SessionError::Config(
                "client partitions need the stream sink".into(),
            ));
        }
        let (block, encoding) = (self.stream.block_size, self.stream.pack_encoding);
        if opmr_events::EventPack::capacity_for_block_with(block, encoding) == 0 {
            return Err(SessionError::Config(format!(
                "{block} B stream blocks cannot hold a header and one {encoding} row"
            )));
        }
        // Process placement: application partition `i` lands on process
        // `placement[i]`; everything stateful (analyzer, clients, and the
        // self-monitor, added below past the placement's end) stays on
        // process 0.
        let placement = match &plan {
            LaunchPlan::InProc => Vec::new(),
            LaunchPlan::Socket {
                placement: Some(placement),
                ..
            } => placement.clone(),
            LaunchPlan::Socket { num_procs, .. } => {
                let workers = num_procs.saturating_sub(1);
                (0..self.apps.len())
                    .map(|i| i.checked_rem(workers).map_or(0, |w| 1 + w))
                    .collect()
            }
        };
        let app_proc = |i: usize| placement.get(i).copied().unwrap_or(0);
        let serving = matches!(self.coupling, Coupling::Serving);
        if !self.clients.is_empty() && !serving {
            return Err(SessionError::Config(
                "client partitions require Coupling::Serving".into(),
            ));
        }
        // The coupling is lowered once; every later step reads only the
        // tree and the operator. Direct is the depth-0 tree, and Serving is
        // Direct plus a store sink.
        let (tree, op) = match self.coupling {
            Coupling::Direct | Coupling::Serving => {
                (Tree::new(0, self.analyzer_ranks), ReduceOp::PassThrough)
            }
            Coupling::Tbon { fanout } => (Tree::new(fanout, self.analyzer_ranks), self.reduce_op),
        };
        // The self-monitor rides along as one more instrumented app, added
        // before ids/names/partition counts are derived so every layer
        // treats it uniformly. It samples until the *user* application
        // ranks have all finished (tracked by a shared countdown), then
        // takes one closing sample and finalizes like any other app. The
        // countdown only covers ranks hosted in the monitor's own process
        // (process 0) — each process has its own registry and its own copy
        // of this counter, and remote ranks never decrement it.
        if let Some(interval) = self.self_monitor {
            let colocated: usize = self
                .apps
                .iter()
                .enumerate()
                .filter(|(i, s)| app_proc(*i) == 0 && matches!(s.source, AppSource::Live(_)))
                .map(|(_, s)| s.ranks)
                .sum();
            let live = Arc::new(AtomicUsize::new(colocated));
            for spec in &mut self.apps {
                let AppSource::Live(body) = &mut spec.source else {
                    continue;
                };
                let inner = Arc::clone(body);
                let live = Arc::clone(&live);
                *body = Arc::new(move |imp| {
                    let result = inner(imp);
                    // Decrement even on error so the monitor never waits on
                    // a rank that will not finish.
                    live.fetch_sub(1, Ordering::SeqCst);
                    result
                });
            }
            self.apps.push(AppSpec {
                id: self.apps.iter().map(|s| s.id + 1).max().unwrap_or(0),
                name: SELF_MONITOR_APP.to_string(),
                ranks: 1,
                source: AppSource::Live(Arc::new(move |imp| {
                    self_monitor_body(imp, interval, &live)
                })),
            });
        }
        let names: std::collections::HashMap<u16, String> =
            self.apps.iter().map(|s| (s.id, s.name.clone())).collect();
        let waitstate = self.waitstate;
        let metrics = self.metrics;
        let engine_cfg = self.engine;
        let node_cfg = NodeConfig {
            op,
            window_blocks: self.reduce_window,
            waitstate,
            metrics,
        };
        // In-network aggregation produces merged partials, never raw event
        // packs — the blackboard engine is bypassed. Every other operator
        // keeps one engine for all analyzer ranks (none with a file sink).
        let engine = if file_sink || matches!(op, ReduceOp::Aggregate) {
            None
        } else {
            let engine = AnalysisEngine::new(engine_cfg);
            if waitstate {
                engine.enable_waitstate();
            }
            if let Some(m) = metrics {
                engine.enable_metrics(m);
            }
            if let Some((dir, selection)) = self.proxy.take() {
                engine.attach_trace_proxy(dir, selection);
            }
            for (id, name) in &names {
                engine.set_app_name(*id, name);
            }
            if let Some(setup) = self.engine_setup.take() {
                setup(&engine);
            }
            engine.start();
            Some(engine)
        };
        let nodes: Arc<Mutex<Vec<NodeRow>>> = Arc::new(Mutex::new(Vec::new()));

        let recorders: Arc<Mutex<Vec<(String, RecorderStats)>>> = Arc::new(Mutex::new(Vec::new()));
        let stream_cfg = self.stream;
        let analyzer_ranks = self.analyzer_ranks;
        let n_apps = self.apps.len();
        let serve_cfg = self.serve;

        // Serving: the engine publishes a versioned snapshot into the store
        // at every window boundary; clients read it from there.
        let store = serving.then(|| {
            Arc::new(ShardedStore::new(
                serve_cfg.shards,
                serve_cfg.ring,
                analyzer_ranks,
            ))
        });
        if let (Some(store), Some(engine)) = (&store, &engine) {
            let publish_to = Arc::clone(store);
            engine.attach_snapshot_publisher(
                serve_cfg.publish_every_packs,
                Arc::new(move |parts| {
                    // An encode-overflow here is already typed and counted
                    // at the failure site; the publication window is simply
                    // skipped rather than crashing the engine worker.
                    let _ = publish_to.publish(parts);
                }),
            );
        }
        let serve_stats: Arc<Mutex<Vec<(usize, ServeStats)>>> = Arc::new(Mutex::new(Vec::new()));
        let book = Arc::new(Mutex::new(TenantBook::new(
            serve_cfg.quota,
            serve_cfg.tenant_quotas.clone(),
        )));

        let mut launcher = Launcher::new();
        if let Some(fp) = self.fault_plan.take() {
            launcher = launcher.fault_plan(fp);
        }
        // Partition order is apps (incl. the self-monitor), Analyzer,
        // clients; the explicit process assignment mirrors it.
        let mut assign: Vec<usize> = (0..n_apps).map(app_proc).collect();
        if !file_sink {
            assign.push(0); // Analyzer
        }
        assign.extend(std::iter::repeat_n(0, self.clients.len()));
        // Both sides derive the same tree; only the pivot evaluates the
        // policy.
        let policy = tree.leaf_policy();
        for spec in self.apps {
            let (app_id, policy) = (spec.id, policy.clone());
            launcher = match spec.source {
                AppSource::Replay(ranks) => {
                    launcher.partition_try(&spec.name, spec.ranks, move |mpi: Mpi| {
                        trace::replay_rank(mpi, &ranks, policy.clone(), stream_cfg)
                    })
                }
                AppSource::Live(body) => {
                    let open = trace::opener(&self.sink, app_id, spec.ranks, policy, stream_cfg)?;
                    let (name, recs) = (spec.name.clone(), Arc::clone(&recorders));
                    launcher.partition_try(&spec.name, spec.ranks, move |mpi: Mpi| {
                        let imp = InstrumentedMpi::init(mpi, app_id, stream_cfg, &open)?;
                        body(&imp)?;
                        let stats = imp.finalize()?;
                        recs.lock().push((name.clone(), stats));
                        Ok(())
                    })
                }
            };
        }
        if !file_sink {
            let engine_for_analyzer = engine.clone();
            let nodes_for_analyzer = Arc::clone(&nodes);
            let store_for_analyzer = store.clone();
            launcher = launcher.partition_try("Analyzer", analyzer_ranks, move |mpi: Mpi| {
                analyzer_rank(
                    mpi,
                    &tree,
                    &node_cfg,
                    n_apps,
                    stream_cfg,
                    engine_for_analyzer.as_ref(),
                    store_for_analyzer.as_deref(),
                    &nodes_for_analyzer,
                )
            });
        }
        // Each client reads the shared store on its own rank; the session's
        // one quota book admits every tenant's requests.
        for spec in std::mem::take(&mut self.clients) {
            let body = spec.body;
            let tenant = spec.name.clone();
            let store_for_client = store.clone();
            let book = Arc::clone(&book);
            let stats_sink = Arc::clone(&serve_stats);
            launcher = launcher.partition_try(&spec.name, spec.ranks, move |mpi: Mpi| {
                let store = store_for_client
                    .clone()
                    .ok_or("client partitions run on a serving session's store")?;
                let mut client = ServeClient::new(&mpi, store, Arc::clone(&book), &tenant)?;
                let result = body(&mut client);
                let mut stats = client.close();
                stats.clients_lost = u64::from(result.is_err());
                stats_sink.lock().push((mpi.world_rank(), stats));
                result
            });
        }

        let t0 = std::time::Instant::now();
        match plan {
            LaunchPlan::InProc => launcher.run().map_err(SessionError::Launch)?,
            LaunchPlan::Socket {
                socket,
                proc_index,
                num_procs,
                ..
            } => {
                let topo = opmr_runtime::MultiprocTopology::new(socket, proc_index, num_procs)
                    .placement(assign);
                launcher.run_multiproc(topo).map_err(|e| match e {
                    opmr_runtime::MultiprocError::Launch(l) => SessionError::Launch(l),
                    opmr_runtime::MultiprocError::Socket(s) => SessionError::Socket(s),
                })?;
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();

        let mut nodes = Arc::try_unwrap(nodes)
            .map(|m| m.into_inner())
            .unwrap_or_default();
        nodes.sort_by_key(|e| e.0);
        let (reduce_stats, partial_sets): (Vec<_>, Vec<_>) = nodes
            .into_iter()
            .map(|(node, stats, partials)| ((node, stats), partials))
            .unzip();
        let report = match engine {
            Some(engine) => engine.finish(),
            None => MultiReport::from_partials(partial_sets, &names),
        };
        let mut recorders = Arc::try_unwrap(recorders)
            .map(|m| m.into_inner())
            .unwrap_or_default();
        recorders.sort_by(|a, b| a.0.cmp(&b.0));
        let mut serve_stats = Arc::try_unwrap(serve_stats)
            .map(|m| m.into_inner())
            .unwrap_or_default();
        serve_stats.sort_by_key(|e| e.0);
        Ok(SessionOutcome {
            report,
            recorders,
            wall_s,
            reduce_stats,
            serve_stats,
            snapshot_store: store,
            metrics: opmr_obs::registry().snapshot(),
        })
    }
}

/// Body of the hidden self-monitoring rank: sample the process-wide
/// metric registry, stream the sample as instrumentation events, sleep,
/// repeat until every user application rank has finished, then take one
/// closing sample so final totals reach the engine before the stream
/// closes.
fn self_monitor_body(
    imp: &InstrumentedMpi,
    interval: Duration,
    live: &AtomicUsize,
) -> Result<(), RankError> {
    let mut seq = 0u64;
    loop {
        emit_metrics_sample(imp, seq)?;
        seq += 1;
        if live.load(Ordering::SeqCst) == 0 {
            break;
        }
        std::thread::sleep(interval);
    }
    emit_metrics_sample(imp, seq)
}

/// One registry sample: a Marker event per metric, tag = registry id.
/// Counters and gauges carry the value in `bytes` and the sample sequence
/// number in `duration_ns`; histograms carry observation count and sum.
fn emit_metrics_sample(imp: &InstrumentedMpi, seq: u64) -> Result<(), RankError> {
    let snap = opmr_obs::registry().snapshot();
    for c in &snap.counters {
        imp.metric(c.id, c.value, seq)?;
    }
    for g in &snap.gauges {
        imp.metric(g.id, g.value as u64, seq)?;
    }
    for h in &snap.histograms {
        imp.metric(h.id, h.count, h.sum)?;
    }
    Ok(())
}

/// What an analyzer rank hands back: its node index, the node's counters
/// and, for a root under `Aggregate`, its merged per-application partials.
type NodeRow = (usize, ReduceStats, Vec<AppPartial>);

/// Analyzer-rank body, the same under every coupling: additively map every
/// application partition (pids `0..n_apps`, Figure 10) onto this rank's
/// node of `tree`, then run the node until all its writers close. A root
/// feeds surviving raw blocks into the shared engine (pass-through /
/// filter) or returns its merged partials (aggregate). Under
/// [`Coupling::Serving`] the last rank to finish drains the engine and
/// publishes the store's final version.
#[allow(clippy::too_many_arguments)]
fn analyzer_rank(
    mpi: Mpi,
    tree: &Tree,
    node_cfg: &NodeConfig,
    n_apps: usize,
    stream_cfg: StreamConfig,
    engine: Option<&AnalysisEngine>,
    store: Option<&ShardedStore>,
    nodes: &Mutex<Vec<NodeRow>>,
) -> Result<(), RankError> {
    let v = Vmpi::new(mpi)?;
    // The analyzer partition masters each mapping, so every node gets the
    // leaves the tree's policy assigns it whatever the partition sizes.
    let policy = tree.leaf_policy();
    let mut map = Map::new();
    for pid in 0..n_apps {
        map_partitions_directed(&v, pid, v.partition_id(), policy.clone(), &mut map)?;
    }
    // A root reads from its leaves and its internal children, `n_async`
    // receives each: its read credits. It posts a block only while fewer
    // jobs than that (times `ROOM_PER_CREDIT`) are outstanding, so the
    // block in its hand and the board's jobs stay within the room, and a
    // slow KS stalls the reader and, through its receives, the writers.
    let sources = map.peers().len() + tree.internal_children(v.rank()).count();
    let room = sources * stream_cfg.n_async * ROOM_PER_CREDIT;
    let outcome = run_node(
        &v,
        tree,
        map.peers(),
        stream_cfg,
        EVENT_STREAM,
        node_cfg,
        |block| {
            if let Some(engine) = engine {
                engine.post_block(block);
                engine.blackboard().drain_to(room.saturating_sub(1));
            }
        },
    )?;
    let partials = outcome
        .partials
        .iter()
        .map(|p| p.to_app_partial())
        .collect();
    nodes.lock().push((v.rank(), outcome.stats, partials));
    if let (Some(store), Some(engine)) = (store.filter(|s| s.mark_writer_done()), engine) {
        // Every stream everywhere is closed, so no more posts are coming:
        // drain to quiescence and publish the final version (always a
        // fresh one, so caught-up subscribers learn the run is over).
        engine.blackboard().drain();
        store.publish_final(engine.snapshot_partials())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_events::{EventKind, PackEncoding};
    use opmr_runtime::{Src, TagSel};
    use opmr_vmpi::Balance;

    #[test]
    fn single_app_report() {
        let outcome = Session::builder()
            .analyzer_ranks(1)
            .app("ring", 4, |imp| {
                let w = imp.comm_world();
                let n = imp.size();
                let r = imp.rank();
                let req = imp.isend(&w, (r + 1) % n, 0, vec![1u8; 256]).unwrap();
                imp.recv(&w, Src::Rank((r + n - 1) % n), TagSel::Tag(0))
                    .unwrap();
                imp.wait(req).unwrap();
                imp.barrier(&w).unwrap();
            })
            .run()
            .unwrap();
        assert_eq!(outcome.report.apps.len(), 1);
        let app = &outcome.report.apps[0];
        assert_eq!(app.name, "ring");
        assert_eq!(app.ranks, 4);
        assert_eq!(app.profile.kind(EventKind::Isend).unwrap().hits, 4);
        assert_eq!(app.profile.kind(EventKind::Recv).unwrap().hits, 4);
        assert_eq!(app.topology.edge_count(), 4);
        assert_eq!(outcome.recorders.len(), 4);
        let events: u64 = outcome.recorders.iter().map(|(_, s)| s.events).sum();
        assert_eq!(events, app.events);
    }

    #[test]
    fn concurrent_apps_one_report() {
        // The paper's headline capability: two different programs profiled
        // concurrently into one report with separate chapters.
        let outcome = Session::builder()
            .analyzer_ranks(2)
            .app("alpha", 3, |imp| {
                let w = imp.comm_world();
                imp.barrier(&w).unwrap();
                imp.allreduce_sum(&w, &[imp.rank() as u64]).unwrap();
            })
            .app("beta", 2, |imp| {
                let w = imp.comm_world();
                if imp.rank() == 0 {
                    imp.send(&w, 1, 9, vec![0u8; 64]).unwrap();
                } else {
                    imp.recv(&w, Src::Any, TagSel::Any).unwrap();
                }
            })
            .run()
            .unwrap();
        assert_eq!(outcome.report.apps.len(), 2);
        let alpha = &outcome.report.apps[0];
        let beta = &outcome.report.apps[1];
        assert_eq!(alpha.name, "alpha");
        assert_eq!(alpha.ranks, 3);
        assert_eq!(alpha.profile.kind(EventKind::Barrier).unwrap().hits, 3);
        assert!(alpha.profile.kind(EventKind::Send).is_none());
        assert_eq!(beta.name, "beta");
        assert_eq!(beta.ranks, 2);
        assert_eq!(beta.profile.kind(EventKind::Send).unwrap().hits, 1);
    }

    #[test]
    fn empty_session_rejected() {
        assert!(matches!(
            Session::builder().run(),
            Err(SessionError::Config(_))
        ));
    }

    #[test]
    fn blocks_too_small_for_one_row_are_rejected_before_any_rank_starts() {
        for encoding in [PackEncoding::Fixed, PackEncoding::Delta] {
            let one_row = opmr_events::PACK_HEADER_SIZE + encoding.max_event_wire_size();
            let session = |block| {
                Session::builder()
                    .stream_config(
                        StreamConfig::new(block, 4, Balance::RoundRobin)
                            .with_pack_encoding(encoding),
                    )
                    .app("tiny", 2, |imp| {
                        imp.marker(1).unwrap();
                    })
            };
            for block in [64, one_row - 1] {
                let err = session(block).run().err();
                assert!(
                    matches!(err, Some(SessionError::Config(_))),
                    "{encoding} {block} B: {err:?}"
                );
            }
            // One row per pack at the boundary: Init, the marker, Finalize.
            let outcome = session(one_row).run().unwrap();
            for (_, stats) in &outcome.recorders {
                assert_eq!((stats.events, stats.packs), (3, 3), "{encoding}");
            }
        }
    }

    /// Quickstart-shaped ring workload: isend/recv/wait rounds with
    /// periodic barriers and a closing allreduce.
    fn ring_rounds(imp: &opmr_instrument::InstrumentedMpi, rounds: i32) {
        let w = imp.comm_world();
        let n = imp.size();
        let r = imp.rank();
        for round in 0..rounds {
            let req = imp.isend(&w, (r + 1) % n, round, vec![2u8; 256]).unwrap();
            imp.recv(&w, Src::Rank((r + n - 1) % n), TagSel::Tag(round))
                .unwrap();
            imp.wait(req).unwrap();
            if round % 10 == 0 {
                imp.barrier(&w).unwrap();
            }
        }
        imp.allreduce_sum(&w, &[r as u64]).unwrap();
    }

    /// Projects a report onto its timing-independent content through the
    /// canonical partial encoding, so reports from two *separate runs*
    /// (whose wall-clock duration fields necessarily differ) can be
    /// compared byte-for-byte.
    fn scrubbed_partials(report: &MultiReport) -> Vec<u8> {
        use opmr_analysis::profiler::MpiProfile;
        use opmr_analysis::topology::Topology;
        use opmr_analysis::wire::{encode_partials, AppPartial};
        let parts: Vec<AppPartial> = report
            .to_partials()
            .iter()
            .map(|p| {
                let mut profile = MpiProfile::new();
                for kind in p.profile.kinds() {
                    for rank in 0..p.profile.ranks() {
                        if let Some(c) = p.profile.rank_kind(rank, kind) {
                            profile.absorb_stats(rank, kind, c.hits, 0, c.bytes, 0, 0);
                        }
                    }
                }
                let mut topology = Topology::new();
                for ((s, d), w) in p.topology.sorted_edges() {
                    topology.add_weighted(s, d, w.hits, w.bytes, 0);
                }
                AppPartial {
                    app_id: p.app_id,
                    packs: p.packs,
                    wire_bytes: p.wire_bytes,
                    decode_errors: p.decode_errors,
                    profile,
                    topology,
                    waitstate: None,
                    metrics: None,
                }
            })
            .collect();
        encode_partials(&parts).to_vec()
    }

    fn quickstart_session() -> SessionBuilder {
        Session::builder()
            .analyzer_ranks(3)
            .app("ring", 8, |imp| ring_rounds(imp, 30))
    }

    #[test]
    fn tbon_passthrough_report_is_byte_identical_to_direct() {
        // Acceptance: for ρ = 1 pass-through the overlay must be
        // invisible — the root re-posts exactly the leaf blocks, so the
        // merged report equals direct mapping byte-for-byte (modulo the
        // wall-clock fields scrubbed identically on both sides).
        let direct = quickstart_session().run().unwrap();
        let tbon = quickstart_session()
            .coupling(Coupling::Tbon { fanout: 2 })
            .run()
            .unwrap();
        // Direct is the depth-0 tree: fanout 0 is the same session.
        let flat = quickstart_session()
            .coupling(Coupling::Tbon { fanout: 0 })
            .run()
            .unwrap();

        for (what, outcome) in [("fanout 2", &tbon), ("fanout 0", &flat)] {
            assert_eq!(
                scrubbed_partials(&direct.report),
                scrubbed_partials(&outcome.report),
                "ρ=1 overlay at {what} changed the report"
            );
        }

        // Every coupling reports one stat row per analyzer rank, and at
        // ρ=1 every node forwards all it ingests. A TBON root ingests every
        // pack; the depth-0 roots of Direct share them.
        let total_packs: u64 = tbon.recorders.iter().map(|(_, s)| s.packs).sum();
        assert_eq!(tbon.reduce_stats[0].1.blocks_in, total_packs);
        for outcome in [&direct, &tbon, &flat] {
            assert_eq!(outcome.reduce_stats.len(), 3);
            for (node, s) in &outcome.reduce_stats {
                assert_eq!(
                    s.blocks_forwarded, s.blocks_in,
                    "node {node} dropped traffic at ρ=1"
                );
                assert_eq!(s.peers_lost, 0);
                assert_eq!(s.decode_errors, 0);
            }
        }
        for outcome in [&direct, &flat] {
            let ingested: u64 = outcome.reduce_stats.iter().map(|(_, s)| s.blocks_in).sum();
            let packs: u64 = outcome.recorders.iter().map(|(_, s)| s.packs).sum();
            assert_eq!(ingested, packs, "the roots ingest every pack once");
        }
    }

    #[test]
    fn direct_with_more_analyzers_than_writers_matches_one_analyzer() {
        // Three ring ranks and the self-monitor's one rank over five
        // analyzer ranks: each writer gets one analyzer, two analyzers
        // read nothing, and the report is the one-analyzer report.
        use opmr_analysis::report::{stable_digest, stable_digest_filtered};
        let ring = |analyzers| {
            Session::builder()
                .analyzer_ranks(analyzers)
                .app("ring", 3, |imp| ring_rounds(imp, 30))
        };
        let one = ring(1).run().unwrap();
        let wide = ring(5)
            .self_monitor(Duration::from_millis(1))
            .run()
            .unwrap();

        assert_eq!(
            stable_digest_filtered(&wide.report, |a| a.name != SELF_MONITOR_APP),
            stable_digest(&one.report)
        );
        let obs = wide.report.apps.iter().find(|a| a.name == SELF_MONITOR_APP);
        let recorded = wide.recorders.iter().find(|(n, _)| n == SELF_MONITOR_APP);
        assert_eq!(obs.map(|a| a.events), recorded.map(|(_, s)| s.events));
        // Round-robin in world-rank order: ring ranks 0..3 on analyzers
        // 0..3, the monitor's rank on analyzer 0.
        let busy: Vec<bool> = wide
            .reduce_stats
            .iter()
            .map(|(_, s)| s.blocks_in > 0)
            .collect();
        assert_eq!(busy, [true, true, true, false, false]);
    }

    #[test]
    fn tbon_aggregate_report_matches_direct() {
        // Full in-network aggregation: packs never reach the analyzer
        // engine, yet the merged partials carry the same counts.
        let direct = quickstart_session().run().unwrap();
        let tbon = quickstart_session()
            .coupling(Coupling::Tbon { fanout: 2 })
            .reduce_op(ReduceOp::Aggregate)
            .run()
            .unwrap();
        // At fanout 0 every analyzer rank is a root holding partials; the
        // session merges all their sets.
        let flat = quickstart_session()
            .coupling(Coupling::Tbon { fanout: 0 })
            .reduce_op(ReduceOp::Aggregate)
            .run()
            .unwrap();

        for (what, outcome) in [("fanout 2", &tbon), ("fanout 0", &flat)] {
            assert_eq!(
                scrubbed_partials(&direct.report),
                scrubbed_partials(&outcome.report),
                "in-network aggregation at {what} changed the report"
            );
        }
        let roots_with_data = flat
            .reduce_stats
            .iter()
            .filter(|(_, s)| s.windows_closed > 0)
            .count();
        assert!(roots_with_data > 1, "the flat roots split the writers");

        // Aggregation actually merged windows, and the upward traffic is
        // partial sets rather than the full event stream.
        let root = tbon.reduce_stats[0].1;
        assert!(root.merges > 0);
        assert!(root.windows_closed > 0);
        let leaf_bytes: u64 = tbon.recorders.iter().map(|(_, s)| s.wire_bytes).sum();
        assert!(
            root.bytes_in < leaf_bytes,
            "root saw {} of {} leaf bytes",
            root.bytes_in,
            leaf_bytes
        );
    }

    #[test]
    fn tbon_filter_reduces_delivered_packs() {
        let direct = quickstart_session().run().unwrap();
        let tbon = quickstart_session()
            .coupling(Coupling::Tbon { fanout: 2 })
            .reduce_op(ReduceOp::Filter { keep_one_in: 2 })
            .run()
            .unwrap();
        let direct_packs: u64 = direct.report.apps.iter().map(|a| a.packs).sum();
        let tbon_packs: u64 = tbon.report.apps.iter().map(|a| a.packs).sum();
        assert!(
            tbon_packs < direct_packs,
            "filtering must shed packs ({tbon_packs} vs {direct_packs})"
        );
        for (_, s) in &tbon.reduce_stats {
            assert!(s.blocks_forwarded <= s.blocks_in);
        }
    }
}
