//! Online-coupling sessions: the end-to-end user façade.
//!
//! A session assembles one MPMD job (Figure 10): N instrumented
//! application partitions and one "Analyzer" partition. Application ranks
//! initialize the instrumented MPI façade, run their body, finalize;
//! analyzer ranks additively map every application partition, open a read
//! stream across all of them and feed each received block to the shared
//! parallel blackboard engine. When the job ends, the engine is drained
//! and the multi-application report returned — no trace file ever exists.

use crate::driver::{run_program, LiveOptions};
use opmr_analysis::{AnalysisEngine, EngineConfig, MultiReport};
use opmr_instrument::{InstrumentedMpi, RecorderStats};
use opmr_netsim::Workload;
use opmr_reduce::{run_node, NodeConfig, ReduceOp, ReduceStats, Tree};
use opmr_runtime::{Launcher, Mpi, RankError};
use opmr_serve::{run_server, ServeClient, ServeConfig, ServeStats, ShardedStore};
use opmr_vmpi::map::{map_partitions, map_partitions_directed};
use opmr_vmpi::{Map, MapPolicy, ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Name of the hidden one-rank application added by
/// [`SessionBuilder::self_monitor`].
pub const SELF_MONITOR_APP: &str = "__obs";

/// How instrumented partitions couple to the analyzer partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Coupling {
    /// The paper's direct partition mapping: every analyzer rank reads its
    /// round-robin share of the writers (Figure 10).
    Direct,
    /// An executable TBON overlay (`opmr-reduce`): analyzer ranks form a
    /// reduction tree of the given fanout; writers attach to the frontier
    /// and data is folded per the configured [`ReduceOp`] on its way to
    /// the tree root.
    Tbon { fanout: usize },
    /// Direct mapping plus live report serving: analyzer ranks publish
    /// versioned snapshots into a [`SnapshotStore`] and answer queries and
    /// subscriptions from client partitions (`SessionBuilder::client`)
    /// over duplex VMPI streams while the run is still in flight.
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
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Launch(e) => write!(f, "launch failed: {e}"),
            SessionError::Vmpi(e) => write!(f, "coupling failed: {e}"),
            SessionError::Socket(e) => write!(f, "socket transport failed: {e}"),
            SessionError::Config(what) => write!(f, "bad session config: {what}"),
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
        /// Launcher-driven partition placement: `placement[i]` is the
        /// process hosting application partition `i` (add order).
        /// `None` derives the default round-robin spread.
        placement: Option<Vec<usize>>,
    },
}

impl std::error::Error for SessionError {}

type AppBody = Arc<dyn Fn(&InstrumentedMpi) -> Result<(), RankError> + Send + Sync + 'static>;
type ClientBody = Arc<dyn Fn(&mut ServeClient) -> Result<(), RankError> + Send + Sync + 'static>;
type EngineSetup = Box<dyn FnOnce(&AnalysisEngine) + Send>;

struct AppSpec {
    name: String,
    ranks: usize,
    body: AppBody,
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
    /// Per-tree-node reduction counters `(node index, stats)`, ascending;
    /// empty under [`Coupling::Direct`].
    pub reduce_stats: Vec<(usize, ReduceStats)>,
    /// Per-serving-rank counters `(analyzer rank, stats)`, ascending; empty
    /// unless the session ran under [`Coupling::Serving`].
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
}

/// Entry point: `Session::builder()`.
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

    /// Selects the compact delta/varint event-pack layout (wire version 3)
    /// for every recorder in the session. Decoders dispatch on the pack
    /// header, so mixed sessions and replayed legacy traces keep working;
    /// the default stays the fixed layout for bitwise compatibility.
    pub fn pack_encoding(mut self, encoding: opmr_vmpi::PackEncoding) -> Self {
        self.stream.pack_encoding = encoding;
        self
    }

    /// Enables per-block stream compression for every writer in the
    /// session (instrumented apps, TBON partial forwarding, serve deltas —
    /// they all ride the same stream layer). Each frame carries its own
    /// compression flag, so readers need no out-of-band agreement.
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

    /// Enables the time-resolved standard-metrics plane: the event stream
    /// is folded into per-window, per-rank series (load balance,
    /// communication efficiency, serialization/transfer decomposition)
    /// with windows of `window_ns` nanoseconds of application time. Works
    /// under every coupling; TBON frontier nodes fold it in-network.
    pub fn metrics(mut self, window_ns: u64) -> Self {
        self.metrics = Some(opmr_metrics::MetricsConfig {
            window_ns: window_ns.max(1),
        });
        self
    }

    /// Selects how writers couple to the analyzer partition: the paper's
    /// direct mapping (default) or the executable TBON reduction overlay.
    pub fn coupling(mut self, c: Coupling) -> Self {
        self.coupling = c;
        self
    }

    /// Reduction operator applied by TBON nodes (ignored under
    /// [`Coupling::Direct`]). Pass-through keeps the report byte-identical
    /// to direct mapping; `Aggregate` merges windows in-network and the
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
            name: name.to_string(),
            ranks,
            body: Arc::new(body),
        });
        self
    }

    /// Adds a client partition (requires [`Coupling::Serving`]): each rank
    /// is mapped onto a serving analyzer rank, connected, handed to `body`
    /// and disconnected afterwards.
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
    /// subscriber flow-control credits, serve-stream shape).
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
    /// address space — while application partitions spread round-robin
    /// over processes `1..num_procs`. Only process 0's outcome carries
    /// the report; worker processes get an empty one (their engine
    /// ingests nothing), and `recorders` always covers just the ranks
    /// hosted by the calling process.
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
    /// `i`, in the order the applications were added. The analyzer,
    /// client partitions and the self-monitor still live on process 0.
    /// Every process of the job must pass the identical placement.
    pub fn run_multiproc_placed(
        self,
        socket: opmr_runtime::SocketConfig,
        proc_index: usize,
        num_procs: usize,
        placement: Vec<usize>,
    ) -> Result<SessionOutcome, SessionError> {
        if placement.len() != self.apps.len() {
            return Err(SessionError::Config(format!(
                "placement names {} partitions but the session has {} applications",
                placement.len(),
                self.apps.len()
            )));
        }
        if let Some(bad) = placement.iter().find(|p| **p >= num_procs) {
            return Err(SessionError::Config(format!(
                "placement targets process {bad} but the job has only {num_procs} processes"
            )));
        }
        self.run_inner(LaunchPlan::Socket {
            socket,
            proc_index,
            num_procs,
            placement: Some(placement),
        })
    }

    fn run_inner(mut self, plan: LaunchPlan) -> Result<SessionOutcome, SessionError> {
        if self.apps.is_empty() {
            return Err(SessionError::Config("no applications added".into()));
        }
        // Process placement (socket plan only): application partition `i`
        // lands on worker process `1 + (i % workers)`; everything stateful
        // (analyzer, clients, self-monitor) stays on process 0.
        let (workers, placement) = match &plan {
            LaunchPlan::InProc => (0, None),
            LaunchPlan::Socket {
                num_procs,
                placement,
                ..
            } => (num_procs.saturating_sub(1), placement.clone()),
        };
        let app_proc = move |i: usize| match &placement {
            Some(p) => p.get(i).copied().unwrap_or(0),
            None if workers == 0 => 0,
            None => 1 + (i % workers),
        };
        let coupling = self.coupling;
        if !self.clients.is_empty() && !matches!(coupling, Coupling::Serving) {
            return Err(SessionError::Config(
                "client partitions require Coupling::Serving".into(),
            ));
        }
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
                .filter(|(i, _)| app_proc(*i) == 0)
                .map(|(_, s)| s.ranks)
                .sum();
            let live = Arc::new(AtomicUsize::new(colocated));
            for spec in &mut self.apps {
                let inner = Arc::clone(&spec.body);
                let live = Arc::clone(&live);
                spec.body = Arc::new(move |imp| {
                    let result = inner(imp);
                    // Decrement even on error so the monitor never waits on
                    // a rank that will not finish.
                    live.fetch_sub(1, Ordering::SeqCst);
                    result
                });
            }
            self.apps.push(AppSpec {
                name: SELF_MONITOR_APP.to_string(),
                ranks: 1,
                body: Arc::new(move |imp| self_monitor_body(imp, interval, &live)),
            });
        }
        let names: std::collections::HashMap<u16, String> = self
            .apps
            .iter()
            .enumerate()
            .map(|(id, s)| (id as u16, s.name.clone()))
            .collect();
        let waitstate = self.waitstate;
        let metrics = self.metrics;
        let engine_cfg = self.engine;
        let node_cfg = NodeConfig {
            op: self.reduce_op,
            window_blocks: self.reduce_window,
            waitstate,
            metrics,
        };
        // In-network aggregation produces merged partials, never raw event
        // packs — the blackboard engine is bypassed.
        let tbon_aggregate = matches!(coupling, Coupling::Tbon { .. })
            && matches!(self.reduce_op, ReduceOp::Aggregate);

        // Every other mode keeps one engine for all analyzer ranks.
        let engine = if tbon_aggregate {
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
        let merged_slot: Arc<Mutex<Option<MultiReport>>> = Arc::new(Mutex::new(None));
        let reduce_stats: Arc<Mutex<Vec<(usize, ReduceStats)>>> = Arc::new(Mutex::new(Vec::new()));

        let recorders: Arc<Mutex<Vec<(String, RecorderStats)>>> = Arc::new(Mutex::new(Vec::new()));
        let stream_cfg = self.stream;
        let analyzer_ranks = self.analyzer_ranks;
        let n_apps = self.apps.len();
        let mut serve_cfg = self.serve;
        // Serve deltas ride the same compressed hot path as event packs:
        // unless the serve plane was given its own codec, it inherits the
        // session's. Frames self-describe, so clients need no agreement.
        if serve_cfg.stream.compression == opmr_vmpi::Compression::None {
            serve_cfg.stream.compression = stream_cfg.compression;
        }

        // Serving: the engine publishes a versioned snapshot into the store
        // at every window boundary; the serving loops read it from there.
        let store = if matches!(coupling, Coupling::Serving) {
            let store = Arc::new(ShardedStore::new(
                serve_cfg.shards,
                serve_cfg.ring,
                analyzer_ranks,
            ));
            let Some(engine) = engine.as_ref() else {
                return Err(SessionError::Config(
                    "serving requires the shared engine".into(),
                ));
            };
            let publish_to = Arc::clone(&store);
            engine.attach_snapshot_publisher(
                serve_cfg.publish_every_packs,
                Arc::new(move |parts| {
                    // An encode-overflow here is already typed and counted
                    // at the failure site; the publication window is simply
                    // skipped rather than crashing the engine worker.
                    let _ = publish_to.publish(parts);
                }),
            );
            Some(store)
        } else {
            None
        };
        let serve_stats: Arc<Mutex<Vec<(usize, ServeStats)>>> = Arc::new(Mutex::new(Vec::new()));

        let mut launcher = Launcher::new();
        if let Some(fp) = self.fault_plan.take() {
            launcher = launcher.fault_plan(fp);
        }
        // Partition order is apps (incl. the self-monitor), Analyzer,
        // clients; the explicit process assignment mirrors it. The
        // self-monitor samples process 0's registry, so it lives there.
        let mut assign: Vec<usize> = self
            .apps
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if s.name == SELF_MONITOR_APP {
                    0
                } else {
                    app_proc(i)
                }
            })
            .collect();
        assign.push(0); // Analyzer
        assign.extend(std::iter::repeat_n(0, self.clients.len()));
        for (app_id, spec) in self.apps.into_iter().enumerate() {
            let body = spec.body;
            let name = spec.name.clone();
            let recs = Arc::clone(&recorders);
            launcher = launcher.partition_try(&spec.name, spec.ranks, move |mpi: Mpi| {
                let imp = match coupling {
                    // Serving keeps the paper's direct writer mapping; only
                    // the analyzer side grows the serve plane.
                    Coupling::Direct | Coupling::Serving => {
                        InstrumentedMpi::init(mpi, "Analyzer", stream_cfg, 0, app_id as u16)
                    }
                    Coupling::Tbon { fanout } => {
                        // Both sides derive the same tree from (fanout,
                        // analyzer size); only the pivot evaluates the policy.
                        let policy = Tree::new(fanout, analyzer_ranks).leaf_policy();
                        InstrumentedMpi::init_directed(
                            mpi,
                            "Analyzer",
                            policy,
                            stream_cfg,
                            0,
                            app_id as u16,
                        )
                    }
                }?;
                body(&imp)?;
                let stats = imp.finalize()?;
                recs.lock().push((name.clone(), stats));
                Ok(())
            });
        }
        let engine_for_analyzer = engine.clone();
        let names_for_analyzer = names.clone();
        let slot_for_analyzer = Arc::clone(&merged_slot);
        let stats_for_analyzer = Arc::clone(&reduce_stats);
        let store_for_analyzer = store.clone();
        let serve_stats_sink = Arc::clone(&serve_stats);
        let serve_for_analyzer = serve_cfg.clone();
        launcher =
            launcher.partition_try("Analyzer", analyzer_ranks, move |mpi: Mpi| match coupling {
                Coupling::Direct => analyzer_rank(
                    mpi,
                    engine_for_analyzer
                        .as_ref()
                        .ok_or("direct coupling runs the shared engine")?,
                    stream_cfg,
                ),
                Coupling::Tbon { fanout } => tbon_analyzer_rank(
                    mpi,
                    fanout,
                    &node_cfg,
                    engine_for_analyzer.as_ref(),
                    stream_cfg,
                    &names_for_analyzer,
                    &slot_for_analyzer,
                    &stats_for_analyzer,
                ),
                Coupling::Serving => serving_analyzer_rank(
                    mpi,
                    engine_for_analyzer
                        .as_ref()
                        .ok_or("serving requires the shared engine")?,
                    store_for_analyzer
                        .as_ref()
                        .ok_or("serving builds the store before launch")?,
                    stream_cfg,
                    &serve_for_analyzer,
                    n_apps,
                    &serve_stats_sink,
                ),
            });
        // Client partitions launch after the analyzer so their world ranks
        // sit above every serving rank (the duplex-stream parity the serve
        // protocol relies on).
        let analyzer_pid = n_apps;
        for spec in std::mem::take(&mut self.clients) {
            let body = spec.body;
            let tenant = spec.name.clone();
            let serve_for_client = serve_cfg.clone();
            launcher = launcher.partition_try(&spec.name, spec.ranks, move |mpi: Mpi| {
                let v = Vmpi::new(mpi)?;
                let mut map = Map::new();
                // Clients spread round-robin over the serving ranks; both
                // sides of the pivot evaluate the same policy.
                map_partitions_directed(
                    &v,
                    analyzer_pid,
                    analyzer_pid,
                    MapPolicy::RoundRobin,
                    &mut map,
                )?;
                let server = map
                    .peers()
                    .first()
                    .copied()
                    .ok_or("client mapping produced no serving peer")?;
                let mut client = ServeClient::connect_as(&v, server, &tenant, &serve_for_client)?;
                body(&mut client)?;
                client.close()?;
                Ok(())
            });
        }

        let t0 = std::time::Instant::now();
        match plan {
            LaunchPlan::InProc => launcher.run().map_err(SessionError::Launch)?,
            LaunchPlan::Socket {
                socket,
                proc_index,
                num_procs,
                placement: _,
            } => {
                let topo = opmr_runtime::MultiprocTopology::new(socket, proc_index, num_procs)
                    .assign(opmr_runtime::PartitionAssign::Explicit(assign));
                launcher.run_multiproc(topo).map_err(|e| match e {
                    opmr_runtime::MultiprocError::Launch(l) => SessionError::Launch(l),
                    opmr_runtime::MultiprocError::Socket(s) => SessionError::Socket(s),
                })?;
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();

        let report = match engine {
            Some(engine) => engine.finish(),
            None => merged_slot
                .lock()
                .take()
                .ok_or_else(|| SessionError::Config("aggregate merge produced no report".into()))?,
        };
        let mut recorders = Arc::try_unwrap(recorders)
            .map(|m| m.into_inner())
            .unwrap_or_default();
        recorders.sort_by(|a, b| a.0.cmp(&b.0));
        let mut reduce_stats = Arc::try_unwrap(reduce_stats)
            .map(|m| m.into_inner())
            .unwrap_or_default();
        reduce_stats.sort_by_key(|e| e.0);
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

/// TBON analyzer rank: run one reduction-tree node over this rank's share
/// of the overlay. The root feeds surviving raw blocks into the shared
/// engine (pass-through / filter) or merges in-network partials into the
/// final report (aggregate).
#[allow(clippy::too_many_arguments)]
fn tbon_analyzer_rank(
    mpi: Mpi,
    fanout: usize,
    node_cfg: &NodeConfig,
    engine: Option<&AnalysisEngine>,
    stream_cfg: StreamConfig,
    names: &std::collections::HashMap<u16, String>,
    slot: &Mutex<Option<MultiReport>>,
    stats_sink: &Mutex<Vec<(usize, ReduceStats)>>,
) -> Result<(), RankError> {
    let v = Vmpi::new(mpi)?;
    let tree = Tree::new(fanout, v.size());
    // Additively adopt every application's leaves (Figure 10), with the
    // tree partition mastering each mapping so frontier nodes get their
    // children regardless of relative partition sizes.
    let mut map = Map::new();
    for pid in 0..v.partition_count() {
        if pid != v.partition_id() {
            map_partitions_directed(&v, pid, v.partition_id(), tree.leaf_policy(), &mut map)?;
        }
    }
    let outcome = run_node(&v, &tree, map.peers(), stream_cfg, 0, node_cfg, |block| {
        if let Some(engine) = engine {
            engine.post_block(block);
        }
    })?;
    if v.rank() == 0 && matches!(node_cfg.op, ReduceOp::Aggregate) {
        let sets = vec![outcome
            .partials
            .iter()
            .map(|p| p.to_app_partial())
            .collect::<Vec<_>>()];
        *slot.lock() = Some(MultiReport::from_partials(sets, names));
    }
    stats_sink.lock().push((v.rank(), outcome.stats));
    Ok(())
}

/// Serving analyzer rank: the paper's direct mapping for the application
/// partitions (pids `0..n_apps`) plus an analyzer-mastered mapping of
/// every client partition (pids `n_apps+1..`), then one serving loop that
/// drains instrumentation into the shared engine while answering client
/// queries and pumping subscriptions.
fn serving_analyzer_rank(
    mpi: Mpi,
    engine: &AnalysisEngine,
    store: &Arc<ShardedStore>,
    stream_cfg: StreamConfig,
    serve_cfg: &ServeConfig,
    n_apps: usize,
    stats_sink: &Mutex<Vec<(usize, ServeStats)>>,
) -> Result<(), RankError> {
    let v = Vmpi::new(mpi)?;
    let mut app_map = Map::new();
    for pid in 0..n_apps {
        map_partitions(&v, pid, MapPolicy::RoundRobin, &mut app_map)?;
    }
    // The analyzer masters the client mappings so every client rank gets
    // assigned exactly one serving rank, spread round-robin (must mirror
    // the client side of the pivot).
    let mut client_map = Map::new();
    for pid in (n_apps + 1)..v.partition_count() {
        map_partitions_directed(
            &v,
            pid,
            v.partition_id(),
            MapPolicy::RoundRobin,
            &mut client_map,
        )?;
    }
    let stats = run_server(
        &v,
        engine,
        store,
        app_map.peers(),
        client_map.peers(),
        stream_cfg,
        serve_cfg,
    )?;
    stats_sink.lock().push((v.rank(), stats));
    Ok(())
}

/// Analyzer-rank body: additively map every application partition
/// (Figure 10), then drain blocks into the engine until all writers close.
fn analyzer_rank(
    mpi: Mpi,
    engine: &AnalysisEngine,
    stream_cfg: StreamConfig,
) -> Result<(), RankError> {
    let v = Vmpi::new(mpi)?;
    let mut map = Map::new();
    for pid in 0..v.partition_count() {
        if pid != v.partition_id() {
            map_partitions(&v, pid, MapPolicy::RoundRobin, &mut map)?;
        }
    }
    if map.is_empty() {
        return Ok(());
    }
    let mut stream = ReadStream::open_map(&v, &map, stream_cfg, 0)?;
    while let Some(block) = stream.read(ReadMode::Blocking)? {
        engine.post_block(block.data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_events::EventKind;
    use opmr_runtime::{Src, TagSel};

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

        assert_eq!(
            scrubbed_partials(&direct.report),
            scrubbed_partials(&tbon.report),
            "ρ=1 overlay changed the report"
        );

        // Direct coupling runs no overlay; TBON reports one stat row per
        // analyzer rank, and at ρ=1 every node forwards all it ingests.
        assert!(direct.reduce_stats.is_empty());
        assert_eq!(tbon.reduce_stats.len(), 3);
        let total_packs: u64 = tbon.recorders.iter().map(|(_, s)| s.packs).sum();
        let root = tbon.reduce_stats[0].1;
        assert_eq!(root.blocks_in, total_packs, "root ingests every pack");
        for (node, s) in &tbon.reduce_stats {
            assert_eq!(
                s.blocks_forwarded, s.blocks_in,
                "node {node} dropped traffic at ρ=1"
            );
            assert_eq!(s.peers_lost, 0);
            assert_eq!(s.decode_errors, 0);
        }
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

        assert_eq!(
            scrubbed_partials(&direct.report),
            scrubbed_partials(&tbon.report),
            "in-network aggregation changed the report"
        );

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
