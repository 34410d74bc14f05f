//! The six workloads: how each session is assembled (public API only),
//! what one segment runs, and what is observed from outside.

use crate::gen::{self, FireOp, FIRE_TABLE};
use crate::trace::{Span, SpanId, Tracer};
use opmr_analysis::report::stable_digest;
use opmr_analysis::EngineConfig;
use opmr_core::{Coupling, Session, SessionBuilder, SessionOutcome, TraceSession};
use opmr_events::{EventKind, EventPack};
use opmr_instrument::InstrumentedMpi;
use opmr_obs::MetricsSnapshot;
use opmr_reduce::{ReduceOp, ReduceStats};
use opmr_runtime::{Endpoint, RankError, SocketConfig, Src, TagSel};
use opmr_serve::{ServeClient, ServeConfig, ServeError, ServeStats};
use opmr_vmpi::{Balance, Compression, PackEncoding, StreamConfig};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Application ranks of every workload (= the cores of the sizing box).
pub const APP_RANKS: usize = 2;

/// Engine sizing, fixed in the benchmark so a change of the program's
/// defaults does not silently change the load.
pub const ENGINE: EngineConfig = EngineConfig {
    workers: 2,
    queues: 8,
    timeline_bins: 64,
};

/// What the application ranks do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Seeded posix/marker/compute calls, no runtime communication:
    /// closed loop against stream back-pressure.
    Firehose,
    /// isend/recv/wait ring with an allreduce every 64 rounds; `pace` adds
    /// a `compute` of that length per round (600 us sleeps: an open loop at
    /// a fixed rate; zero: the same events, unpaced).
    Ring { pace: Option<Duration> },
}

/// The clients of a serving workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSpec {
    pub ring: usize,
    pub credits: u32,
    /// The subscriber sleeps this long after every update.
    pub subscriber_delay: Duration,
    /// The querier asks for metrics + density instead of the profile.
    pub heavy_queries: bool,
    /// The closed-loop querier sleeps this long between iterations. With
    /// an eager subscriber a spinning querier makes three pollers on two
    /// cores, and the paced ranks' wake-ups (and with them every number of
    /// the run) jitter by a tenth; 1 ms of think time brought the run-to-run
    /// range of `app_ns_per_event` from 9 % to 2 % in alternating runs.
    pub querier_think: Duration,
}

/// One workload: the fixed configuration of its sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub block: usize,
    pub encoding: PackEncoding,
    pub compression: Compression,
    pub coupling: Coupling,
    pub analyzers: usize,
    pub reduce_op: ReduceOp,
    /// Two thread-hosted processes over a Unix-socket mesh.
    pub socket: bool,
    pub waitstate: bool,
    pub metrics_window_ns: Option<u64>,
    pub serve: Option<ServeSpec>,
    /// Calls per rank (firehose) or rounds (ring) of one timed segment:
    /// about `SEGMENT_S` on the sizing box for the ingest workloads (a
    /// longer run runs more segments), ten seconds for the serving ones
    /// (which run one long segment, scaled by `--seconds`).
    pub units: u64,
    /// The same for the correctness gate.
    pub gate_units: u64,
}

/// Nominal length of one ingest segment, seconds.
pub const SEGMENT_S: f64 = 1.4;

const DIRECT: Workload = Workload {
    name: "",
    why: "",
    shape: Shape::Firehose,
    block: 64 * 1024,
    encoding: PackEncoding::Fixed,
    compression: Compression::None,
    coupling: Coupling::Direct,
    analyzers: 1,
    reduce_op: ReduceOp::PassThrough,
    socket: false,
    waitstate: false,
    metrics_window_ns: None,
    serve: None,
    units: 0,
    gate_units: 0,
};

const PACE: Duration = Duration::from_micros(600);

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "firehose_bulk",
        why: "Fixed 48 B events in 64 KiB blocks: few packs per event, so decode, KS fold and memory traffic dominate",
        units: 5_600_000,
        gate_units: 60_000,
        ..DIRECT
    },
    Workload {
        name: "firehose_packs",
        why: "same generator, Delta in 4 KiB blocks: ~16x more packs per event, so framing, credits, post/dispatch and unpack allocation dominate",
        block: 4 * 1024,
        encoding: PackEncoding::Delta,
        units: 3_400_000,
        gate_units: 60_000,
        ..DIRECT
    },
    Workload {
        name: "ring_socket_lz4",
        why: "real isend/recv/wait ring over a Unix-socket mesh, Delta+LZ4, waitstate+metrics KSs: app-bound, the tool competes for cores",
        shape: Shape::Ring { pace: None },
        encoding: PackEncoding::Delta,
        compression: Compression::Lz4,
        socket: true,
        waitstate: true,
        metrics_window_ns: Some(1_000_000),
        units: 186_000,
        gate_units: 6_000,
        ..DIRECT
    },
    Workload {
        name: "tbon_aggregate",
        why: "firehose folded in reduce-tree frontier nodes (fanout 2, 3 analyzers, Aggregate): engine bypassed, guards 'Direct is a depth-0 tree'",
        encoding: PackEncoding::Delta,
        coupling: Coupling::Tbon { fanout: 2 },
        analyzers: 3,
        reduce_op: ReduceOp::Aggregate,
        units: 6_000_000,
        gate_units: 60_000,
        ..DIRECT
    },
    Workload {
        name: "serve_paced",
        why: "ring paced by 600 us sleeps (open loop), one eager subscriber + one closed-loop querier (1 ms think time): lag is publish, delta encode, stream, apply",
        shape: Shape::Ring { pace: Some(PACE) },
        block: 2048,
        coupling: Coupling::Serving,
        metrics_window_ns: Some(1_000_000),
        serve: Some(ServeSpec {
            ring: 256,
            credits: 2,
            subscriber_delay: Duration::ZERO,
            heavy_queries: false,
            querier_think: Duration::from_millis(1),
        }),
        units: 12_500,
        gate_units: 500,
        ..DIRECT
    },
    Workload {
        name: "serve_resync",
        why: "same publisher, subscriber sleeps 25 ms per update against ring 2 / credits 1, heavier queries: full-snapshot resyncs instead of delta chains",
        shape: Shape::Ring { pace: Some(PACE) },
        block: 2048,
        coupling: Coupling::Serving,
        metrics_window_ns: Some(1_000_000),
        serve: Some(ServeSpec {
            ring: 2,
            credits: 1,
            subscriber_delay: Duration::from_millis(25),
            heavy_queries: true,
            querier_think: Duration::ZERO,
        }),
        units: 12_500,
        gate_units: 500,
        ..DIRECT
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn stream_config(&self) -> StreamConfig {
        StreamConfig::new(self.block, 4, Balance::RoundRobin)
            .with_pack_encoding(self.encoding)
            .with_compression(self.compression)
    }

    /// Events one pack holds under this workload's block and encoding.
    pub fn pack_capacity(&self) -> usize {
        EventPack::capacity_for_block_with(self.block, self.encoding).max(1)
    }

    /// Events a correct session of `units` folds into its report.
    pub fn expected_events(&self, units: u64) -> u64 {
        let per_rank = match self.shape {
            Shape::Firehose => units,
            Shape::Ring { pace } => units * (3 + u64::from(pace.is_some())) + units / 64,
        };
        // Plus each rank's Init and Finalize.
        APP_RANKS as u64 * (per_rank + 2)
    }

    /// The same events without the pacing sleeps (the digest holds no
    /// timing).
    fn unpaced(&self) -> Workload {
        let mut v = *self;
        if let Shape::Ring { pace: Some(_) } = self.shape {
            v.shape = Shape::Ring {
                pace: Some(Duration::ZERO),
            };
        }
        v
    }

    /// The same applications under another coupling or transport, for the
    /// gate's three-way digest comparison.
    fn variant(&self) -> Workload {
        let mut v = self.unpaced();
        v.serve = None;
        if self.socket {
            v.socket = false;
        } else if matches!(self.coupling, Coupling::Direct) {
            v.coupling = Coupling::Tbon { fanout: 2 };
            v.analyzers = 3;
            v.reduce_op = ReduceOp::Aggregate;
        } else {
            v.coupling = Coupling::Direct;
            v.analyzers = 1;
            v.reduce_op = ReduceOp::PassThrough;
        }
        v
    }
}

/// What one application rank reports about its body.
#[derive(Debug, Clone)]
struct BodyStat {
    body_ns: u64,
    calls: u64,
    /// How long the rank took to fill (and flush) each pack: the age of a
    /// pack's oldest event when the recorder hands the pack on.
    pack_fill_ns: Vec<u32>,
    /// Per-round overshoot of the pacing interval (paced ring, rank 0).
    late_ns: Vec<u32>,
}

type BodyStats = Arc<Mutex<Vec<BodyStat>>>;

/// Where a traced run's spans go, and the span they descend from.
#[derive(Clone)]
pub struct TraceCtx {
    pub tracer: Arc<Tracer>,
    pub parent: SpanId,
}

fn issue(imp: &InstrumentedMpi, op: FireOp) -> Result<(), RankError> {
    match op {
        FireOp::Write { bytes, dur_ns } => {
            imp.posix(EventKind::PosixWrite, bytes, Duration::from_nanos(dur_ns))?
        }
        FireOp::Read { bytes, dur_ns } => {
            imp.posix(EventKind::PosixRead, bytes, Duration::from_nanos(dur_ns))?
        }
        FireOp::Marker { id } => imp.marker(id)?,
        FireOp::Compute => imp.compute(Duration::ZERO)?,
    }
    Ok(())
}

type Body = Arc<dyn Fn(&InstrumentedMpi) -> Result<(), RankError> + Send + Sync>;

/// Times the packs one application rank fills: two clock reads per pack,
/// traced or not; a traced run additionally keeps each interval as a span.
struct PackClock {
    t0: Instant,
    /// The tracer's clock at `t0`.
    base: u64,
    trace: Option<TraceCtx>,
    rank: u32,
    fills: Vec<u32>,
    spans: Vec<Span>,
}

impl PackClock {
    fn start(trace: &Option<TraceCtx>, rank: usize) -> PackClock {
        PackClock {
            t0: Instant::now(),
            base: trace.as_ref().map_or(0, |t| t.tracer.now()),
            trace: trace.clone(),
            rank: rank as u32,
            fills: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The calls since `start` filled pack `seq`; only a `full` pack was
    /// also flushed by them (the closing partial one is left to finalize).
    fn pack_done(&mut self, start: u64, seq: u32, full: bool) {
        let end = self.now();
        if full {
            self.fills
                .push((end - start).min(u64::from(u32::MAX)) as u32);
        }
        if let Some(t) = &self.trace {
            self.spans.push(Span {
                name: "instrument.pack",
                start_ns: self.base + start,
                end_ns: self.base + end,
                parent: t.parent,
                pack: (self.rank, seq),
            });
        }
    }

    fn finish(self, calls: u64, late_ns: Vec<u32>, stats: &BodyStats) {
        stats.lock().push(BodyStat {
            body_ns: self.now(),
            calls,
            pack_fill_ns: self.fills,
            late_ns,
        });
        if let Some(t) = &self.trace {
            t.tracer.extend(self.spans);
        }
    }
}

/// The firehose body: calls are issued one pack's worth at a time.
fn firehose_body(
    seed: u64,
    calls: u64,
    pack_cap: usize,
    stats: BodyStats,
    trace: Option<TraceCtx>,
) -> Body {
    Arc::new(move |imp| {
        let table = gen::fire_table(seed, imp.rank());
        let mut clock = PackClock::start(&trace, imp.rank());
        // `MPI_Init` already sits in pack 0: its first chunk is one short.
        let (mut done, mut seq, mut chunk) = (0u64, 0u32, (pack_cap as u64 - 1).max(1));
        while done < calls {
            let n = chunk.min(calls - done);
            let start = clock.now();
            for i in done..done + n {
                issue(imp, table[i as usize & (FIRE_TABLE - 1)])?;
            }
            clock.pack_done(start, seq, n == chunk);
            done += n;
            seq += 1;
            chunk = pack_cap as u64;
        }
        clock.finish(calls, Vec::new(), &stats);
        Ok(())
    })
}

/// The ring body; rounds are grouped so that a group fills about one pack,
/// timed like the firehose chunks.
fn ring_body(
    seed: u64,
    rounds: u64,
    pace: Option<Duration>,
    pack_cap: usize,
    stats: BodyStats,
    trace: Option<TraceCtx>,
) -> Body {
    Arc::new(move |imp| {
        let payloads = gen::ring_payloads(seed);
        let w = imp.comm_world();
        let (r, n) = (imp.rank(), imp.size());
        let (next, prev) = ((r + 1) % n, (r + n - 1) % n);
        let events_per_round = 3 + u64::from(pace.is_some());
        // Only a sleeping pace is a schedule the generator can run late on.
        let period = pace.filter(|p| !p.is_zero());
        let group = (pack_cap as u64 / events_per_round).max(1);
        let mut late_ns = Vec::new();
        let mut clock = PackClock::start(&trace, r);
        let mut round = 0u64;
        while round < rounds {
            let first = round;
            let upto = (round + group).min(rounds);
            let start = clock.now();
            while round < upto {
                let t_round = period.filter(|_| r == 0).map(|p| (Instant::now(), p));
                let tag = (round & 0xf_ffff) as i32;
                let payload = vec![r as u8; payloads[round as usize % payloads.len()]];
                let req = imp.isend(&w, next, tag, payload)?;
                imp.recv(&w, Src::Rank(prev), TagSel::Tag(tag))?;
                imp.wait(req)?;
                if let Some(pace) = pace {
                    imp.compute(pace)?;
                }
                if round % 64 == 63 {
                    imp.allreduce_sum(&w, &[round])?;
                }
                if let Some((t, period)) = t_round {
                    let over = t.elapsed().saturating_sub(period);
                    late_ns.push(over.as_nanos().min(u128::from(u32::MAX)) as u32);
                }
                round += 1;
            }
            let seq = (first * events_per_round / pack_cap as u64) as u32;
            clock.pack_done(start, seq, upto - first == group);
        }
        clock.finish(rounds * events_per_round + rounds / 64, late_ns, &stats);
        Ok(())
    })
}

/// What the serving clients saw.
#[derive(Debug, Default, Clone)]
pub struct ServeObs {
    /// `Update::lag_ns` of every update, in arrival order.
    pub lags_ns: Vec<u64>,
    /// Mean request round trip of each querier iteration.
    pub query_ns: Vec<u64>,
    pub queries: u64,
    pub failed_queries: u64,
    pub updates: u64,
    pub deltas: u64,
    pub resyncs: u64,
    /// `(shard, version)` digests the subscriber folded that differ from
    /// the bytes the store kept for that version.
    pub divergences: u64,
    pub server: ServeStats,
    pub versions: u64,
    /// Per-round overshoot of the pacing interval at the generator.
    pub late_ns: Vec<u32>,
}

/// FNV-1a over 8-byte words (then the tail bytes): the chain audit runs in
/// the subscriber's loop on snapshots of up to a megabyte, so it has to be
/// cheap next to the update it audits.
fn digest64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes")))
            .wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

#[derive(Default)]
struct ClientSink {
    lags_ns: Vec<u64>,
    query_ns: Vec<u64>,
    queries: u64,
    failed_queries: u64,
    updates: u64,
    deltas: u64,
    resyncs: u64,
    digests: HashMap<(u16, u64), u64>,
}

fn add_clients(
    mut b: SessionBuilder,
    spec: ServeSpec,
    sink: &Arc<Mutex<ClientSink>>,
    trace: &Option<TraceCtx>,
) -> SessionBuilder {
    let (s_sink, s_trace) = (Arc::clone(sink), trace.clone());
    b = b.client_try("subscriber", 1, move |c: &mut ServeClient| {
        c.subscribe()?;
        let mut local = Vec::new();
        loop {
            let start = s_trace.as_ref().map(|t| t.tracer.now());
            let u = c
                .next_update()?
                .ok_or("update stream ended before the final version")?;
            if let (Some(t), Some(start_ns)) = (&s_trace, start) {
                local.push(Span {
                    name: "serve.next_update",
                    start_ns,
                    end_ns: t.tracer.now(),
                    parent: t.parent,
                    pack: (u32::from(u.shard), u.version as u32),
                });
            }
            let held = c
                .shard_report(u.shard)
                .ok_or("update landed no shard report")?;
            let digest = digest64(&held.encoded);
            let mut g = s_sink.lock();
            g.lags_ns.push(u.lag_ns);
            g.updates += 1;
            g.deltas += u64::from(u.delta);
            g.resyncs += u64::from(u.resync);
            g.digests.insert((u.shard, u.version), digest);
            drop(g);
            if u.finished {
                break;
            }
            if !spec.subscriber_delay.is_zero() {
                std::thread::sleep(spec.subscriber_delay);
            }
        }
        if let Some(t) = &s_trace {
            t.tracer.extend(local);
        }
        Ok(())
    });
    let (q_sink, q_trace) = (Arc::clone(sink), trace.clone());
    b.client_try("querier", 1, move |c: &mut ServeClient| {
        c.wait_version(1)?;
        let mut local = Vec::new();
        let (mut samples, mut queries, mut failed) = (Vec::new(), 0u64, 0u64);
        // A refused or unanswerable query is a failed operation, not the
        // end of the run; anything else (transport, framing) is.
        let mut tally = |r: Result<(), ServeError>| match r {
            Ok(()) => Ok(()),
            Err(ServeError::NotFound(_) | ServeError::QuotaExceeded(_)) => {
                failed += 1;
                Ok(())
            }
            Err(e) => Err(e),
        };
        loop {
            let start = q_trace.as_ref().map(|t| t.tracer.now());
            let t0 = Instant::now();
            let info = c.version_info()?;
            let n = if spec.heavy_queries {
                tally(c.query_metrics(0, 0, 0, u32::MAX).map(|_| ()))?;
                tally(c.query_density(0, 0, 0, u32::MAX).map(|_| ()))?;
                3
            } else {
                tally(c.query_profile(0, 0, 0, u32::MAX).map(|_| ()))?;
                2
            };
            samples.push(t0.elapsed().as_nanos() as u64 / n);
            queries += n;
            if let (Some(t), Some(start_ns)) = (&q_trace, start) {
                local.push(Span {
                    name: "serve.query",
                    start_ns,
                    end_ns: t.tracer.now(),
                    parent: t.parent,
                    pack: (0, info.current as u32),
                });
            }
            if info.finished {
                break;
            }
            if !spec.querier_think.is_zero() {
                std::thread::sleep(spec.querier_think);
            }
        }
        let mut g = q_sink.lock();
        g.query_ns = samples;
        g.queries = queries;
        g.failed_queries = failed;
        drop(g);
        if let Some(t) = &q_trace {
            t.tracer.extend(local);
        }
        Ok(())
    })
}

/// One run of one session, observed from outside.
pub struct Segment {
    /// Outer wall around `run()`: first record to report returned, the
    /// engine's drain included (`SessionOutcome::wall_s` stops before it).
    pub wall_s: f64,
    /// The session's own `wall_s`.
    pub inner_wall_s: f64,
    /// Events folded into the final report.
    pub events: u64,
    /// Events the recorders counted.
    pub recorded: u64,
    pub packs: u64,
    pub decode_errors: u64,
    /// max over ranks of body wall ÷ calls that rank issued.
    pub app_ns_per_event: f64,
    /// Fill time of every full pack, all ranks.
    pub pack_fill_ns: Vec<u64>,
    /// Bytes the recorders handed to their streams (before compression).
    pub recorder_bytes: u64,
    pub digest: u64,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub reduce: Vec<(usize, ReduceStats)>,
    pub serve: Option<ServeObs>,
}

impl Segment {
    pub fn obs(&self) -> crate::stats::ObsDelta<'_> {
        crate::stats::ObsDelta {
            before: &self.before,
            after: &self.after,
        }
    }

    /// Bytes per event on the wire. Ingest workloads: every byte VMPI
    /// streams framed (compression and tree forwarding included). Serving
    /// workloads: the event streams alone, as the recorders count them —
    /// the registry counter also carries the closed-loop query traffic
    /// there, which moves with the query rate, not with the events.
    pub fn wire_bytes_per_event(&self) -> f64 {
        let bytes = if self.serve.is_some() {
            self.recorder_bytes
        } else {
            self.obs().counter("vmpi_stream_bytes_on_wire_total")
        };
        bytes as f64 / self.events.max(1) as f64
    }
}

static SEQ: AtomicU64 = AtomicU64::new(0);

/// Scratch directory inside the checkout (sockets, gate trace files).
pub fn scratch_dir() -> PathBuf {
    let dir = crate::out_dir().join("tmp");
    std::fs::create_dir_all(&dir).expect("create scratch dir under the benchmark's out dir");
    dir
}

fn fresh_name(tag: &str) -> PathBuf {
    scratch_dir().join(format!(
        "{tag}{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn session(
    w: &Workload,
    body: Body,
    sink: &Arc<Mutex<ClientSink>>,
    trace: &Option<TraceCtx>,
) -> SessionBuilder {
    let mut b = Session::builder()
        .analyzer_ranks(w.analyzers)
        .stream_config(w.stream_config())
        .engine_config(ENGINE)
        .coupling(w.coupling)
        .reduce_op(w.reduce_op);
    if w.waitstate {
        b = b.waitstate();
    }
    if let Some(ns) = w.metrics_window_ns {
        b = b.metrics(ns);
    }
    b = b.app_try("app", APP_RANKS, move |imp| body(imp));
    if let Some(spec) = w.serve {
        b = b.serve_config(ServeConfig {
            publish_every_packs: 2,
            ring: spec.ring,
            subscriber_credits: spec.credits,
            ..ServeConfig::default()
        });
        b = add_clients(b, spec, sink, trace);
    }
    b
}

fn body_for(
    w: &Workload,
    seed: u64,
    units: u64,
    stats: &BodyStats,
    trace: &Option<TraceCtx>,
) -> Body {
    match w.shape {
        Shape::Firehose => firehose_body(
            seed,
            units,
            w.pack_capacity(),
            Arc::clone(stats),
            trace.clone(),
        ),
        Shape::Ring { pace } => ring_body(
            seed,
            units,
            pace,
            w.pack_capacity(),
            Arc::clone(stats),
            trace.clone(),
        ),
    }
}

/// Runs one session of `units` and observes it. With `trace`, the
/// benchmark's calls into the program are bracketed by spans.
pub fn run_segment(
    w: &Workload,
    seed: u64,
    units: u64,
    trace: Option<&Arc<Tracer>>,
) -> Result<Segment, String> {
    let stats: BodyStats = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::new(Mutex::new(ClientSink::default()));
    let root = trace.map(|t| TraceCtx {
        tracer: Arc::clone(t),
        parent: t.begin("session.run", 0),
    });
    let build = || {
        let body = body_for(w, seed, units, &stats, &root);
        session(w, body, &sink, &root)
    };

    let before = opmr_obs::registry().snapshot();
    let t0 = Instant::now();
    let (outcome, remote): (SessionOutcome, Option<SessionOutcome>) = if w.socket {
        let sock = fresh_name("s");
        let cfg = || {
            SocketConfig::new(Endpoint::Unix(sock.clone())).connect_timeout(Duration::from_secs(20))
        };
        let (worker_session, worker_cfg) = (build(), cfg());
        let worker = std::thread::Builder::new()
            .name("perf-proc1".into())
            .spawn(move || worker_session.run_multiproc(worker_cfg, 1, 2))
            .map_err(|e| format!("spawn socket worker: {e}"))?;
        let main = build().run_multiproc(cfg(), 0, 2);
        let remote = worker
            .join()
            .map_err(|_| "socket worker panicked".to_string())?;
        let _ = std::fs::remove_file(&sock);
        let mut p1 = sock.clone().into_os_string();
        p1.push(".p1");
        let _ = std::fs::remove_file(p1);
        (
            main.map_err(|e| format!("{}: process 0: {e}", w.name))?,
            Some(remote.map_err(|e| format!("{}: process 1: {e}", w.name))?),
        )
    } else {
        (build().run().map_err(|e| format!("{}: {e}", w.name))?, None)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let after = opmr_obs::registry().snapshot();
    if let Some(ctx) = &root {
        ctx.tracer.end(ctx.parent);
    }

    // Application ranks run in the worker process of a socket session.
    let recorders = remote.as_ref().map_or(&outcome.recorders, |r| &r.recorders);
    let bodies = stats.lock().clone();
    if bodies.len() != APP_RANKS {
        return Err(format!(
            "{}: {} of {APP_RANKS} bodies reported",
            w.name,
            bodies.len()
        ));
    }
    let serve = match (w.serve, outcome.snapshot_store.as_ref()) {
        (Some(_), Some(store)) => {
            let g = sink.lock();
            // The digests the subscriber folded must match the server's
            // stored bytes wherever the ring still holds that version.
            let divergences = g
                .digests
                .iter()
                .filter(|(&(shard, version), &digest)| {
                    store
                        .shard(shard as usize)
                        .get(version)
                        .is_some_and(|entry| digest64(&entry.encoded) != digest)
                })
                .count() as u64;
            let mut server = ServeStats::default();
            for (_, s) in &outcome.serve_stats {
                server.queries += s.queries;
                server.snapshots_sent += s.snapshots_sent;
                server.deltas_sent += s.deltas_sent;
                server.resyncs += s.resyncs;
                server.clients_lost += s.clients_lost;
                server.bad_requests += s.bad_requests;
            }
            Some(ServeObs {
                lags_ns: g.lags_ns.clone(),
                query_ns: g.query_ns.clone(),
                queries: g.queries,
                failed_queries: g.failed_queries,
                updates: g.updates,
                deltas: g.deltas,
                resyncs: g.resyncs,
                divergences,
                server,
                versions: store.stats().published,
                late_ns: bodies
                    .iter()
                    .flat_map(|b| b.late_ns.iter().copied())
                    .collect(),
            })
        }
        (Some(_), None) => return Err(format!("{}: serving session lost its store", w.name)),
        _ => None,
    };
    Ok(Segment {
        wall_s,
        inner_wall_s: outcome.wall_s,
        events: outcome.report.apps.iter().map(|a| a.events).sum(),
        recorded: recorders.iter().map(|(_, s)| s.events).sum(),
        packs: recorders.iter().map(|(_, s)| s.packs).sum(),
        decode_errors: outcome.report.apps.iter().map(|a| a.decode_errors).sum(),
        app_ns_per_event: bodies
            .iter()
            .map(|b| b.body_ns as f64 / b.calls.max(1) as f64)
            .fold(0.0, f64::max),
        pack_fill_ns: bodies
            .iter()
            .flat_map(|b| b.pack_fill_ns.iter().map(|&ns| u64::from(ns)))
            .collect(),
        recorder_bytes: recorders.iter().map(|(_, s)| s.wire_bytes).sum(),
        digest: stable_digest(&outcome.report),
        before,
        after,
        reduce: outcome.reduce_stats.clone(),
        serve,
    })
}

/// Checks made and checks missed; the benchmark's `attempted`/`failed`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    pub fn absorb(&mut self, o: Checks) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// The per-segment output checks every run applies (gate, warm-up, timed
/// and traced segments alike).
pub fn check_segment(w: &Workload, units: u64, s: &Segment) -> Checks {
    let mut c = Checks::default();
    let n = w.name;
    c.check(s.events == s.recorded, || {
        format!("{n}: folded {} events, recorded {}", s.events, s.recorded)
    });
    c.check(s.events == w.expected_events(units), || {
        format!(
            "{n}: folded {} events, inputs hold {}",
            s.events,
            w.expected_events(units)
        )
    });
    c.check(s.decode_errors == 0, || {
        format!("{n}: {} decode errors", s.decode_errors)
    });
    if let Some(o) = &s.serve {
        // Every update is a chain-audit attempt, every query an operation.
        c.attempted += o.updates + o.queries;
        c.failed += o.divergences + o.failed_queries;
        if o.divergences + o.failed_queries > 0 {
            eprintln!(
                "CHECK FAILED: {n}: {} chain divergences, {} failed queries",
                o.divergences, o.failed_queries
            );
        }
        c.check(o.updates > 0 && o.queries > 0, || {
            format!("{n}: clients saw no traffic")
        });
        c.check(
            o.server.clients_lost == 0 && o.server.bad_requests == 0,
            || {
                format!(
                    "{n}: {} clients lost, {} bad requests",
                    o.server.clients_lost, o.server.bad_requests
                )
            },
        );
        let eager = w.serve.is_some_and(|sp| sp.subscriber_delay.is_zero());
        if eager {
            c.check(o.resyncs == 0, || {
                format!("{n}: {} resyncs of an eager subscriber", o.resyncs)
            });
        } else {
            c.check(o.resyncs > 0, || {
                format!("{n}: a slow subscriber was never resynced")
            });
        }
    }
    c
}

/// The correctness gate, at reduced size: the workload's own session, the
/// classical trace-file baseline and the same applications under another
/// coupling or transport must fold to one `stable_digest`. Returns the
/// digest and the checks made.
pub fn gate(w: &Workload, seed: u64) -> Result<(u64, Checks), String> {
    let units = w.gate_units;
    let own = run_segment(w, seed, units, None)?;
    let mut checks = check_segment(w, units, &own);

    let other_w = w.variant();
    let other = run_segment(&other_w, seed, units, None)?;
    checks.absorb(check_segment(&other_w, units, &other));
    checks.check(other.digest == own.digest, || {
        format!(
            "{}: digest {:016x} differs under {:?}/socket={}: {:016x}",
            w.name, own.digest, other_w.coupling, other_w.socket, other.digest
        )
    });

    // The trace-file baseline: the same body, unpaced, packs to files,
    // analysis post mortem.
    let dir = fresh_name("t");
    let stats: BodyStats = Arc::new(Mutex::new(Vec::new()));
    let body = body_for(&w.unpaced(), seed, units, &stats, &None);
    let baseline = TraceSession::new(&dir)
        .block_size(w.block)
        .app("app", APP_RANKS, move |imp| {
            body(imp).expect("trace-file baseline body");
        })
        .run();
    let _ = std::fs::remove_dir_all(&dir);
    let baseline = baseline.map_err(|e| format!("{}: trace baseline: {e}", w.name))?;
    let digest = stable_digest(&baseline.report);
    checks.check(digest == own.digest, || {
        format!(
            "{}: online digest {:016x}, trace-file baseline {digest:016x}",
            w.name, own.digest
        )
    });
    Ok((own.digest, checks))
}
