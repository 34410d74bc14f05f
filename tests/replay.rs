//! The equivalence oracle: "streamed analysis is very close to
//! post-mortem analysis", checked as one table over every catalogue
//! workload, recording, pipeline and transport.
//!
//! For each workload of [`BENCHMARKS`] (class S, its smallest valid rank
//! count of at least 4, two iterations):
//!
//! - **the online column** runs the live session through every
//!   [`ONLINE`] configuration; all of them share one `stable_digest` and
//!   one count of transfers (matched plus unmatched wait states);
//! - **the in-process cells** record the workload under every
//!   [`RECORDINGS`] entry in [`BLOCK`]-byte blocks, and replay each
//!   recording over every replay-stream compression, [`PIPELINES`] entry
//!   and [`WIDTHS`] entry;
//! - **the socket cells** replay the Delta trace recording with LZ4 over
//!   two thread-hosted processes, the recorded ranks in one and the
//!   analyzers in the other, through every pipeline at both widths.
//!
//! Every cell's report must encode (`encode_partials`) and render
//! (`to_markdown`, temporal map present) byte for byte as one engine
//! folding the same packs at the same width, wait states on, and must
//! carry the online digest. A test gathers every mismatch of its workload
//! and only then fails, naming each cell.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr::analysis::report::{stable_digest, to_markdown};
use opmr::analysis::wire::encode_partials;
use opmr::analysis::{AnalysisEngine, EngineConfig, MultiReport};
use opmr::core::{
    Coupling, LiveOptions, Session, SessionBuilder, SessionError, SessionOutcome, Sink,
};
use opmr::events::recording::{read_dir, read_sion, RecordingFile};
use opmr::events::{Compression, EventKind, PackEncoding};
use opmr::metrics::MetricsConfig;
use opmr::netsim::tera100;
use opmr::reduce::ReduceOp;
use opmr::vmpi::StreamConfig;
use opmr::workloads::{Benchmark, Class, BENCHMARKS};
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

mod common;
use common::{run_session_threads, tmpdir};

/// Small blocks, so every rank of a Fixed recording writes at least two
/// packs (CG and LU dozens) and a replay has cross-rank interleavings to
/// get wrong. A Delta recording of a short workload may hold a rank in
/// one pack.
const BLOCK: usize = 256;

/// The series widths every recording is replayed at: `.metrics(1 ms)`,
/// and adaptive (so windows of different partials merge at different
/// widths).
const WIDTHS: [Option<u64>; 2] = [Some(1_000_000), None];

/// A recording: the pack encoding its rows are written in, and whether
/// the ranks share one SION container instead of a file each.
type Recording = (PackEncoding, bool);

const RECORDINGS: [Recording; 4] = [
    (PackEncoding::Fixed, false),
    (PackEncoding::Fixed, true),
    (PackEncoding::Delta, false),
    (PackEncoding::Delta, true),
];

const COMPRESSIONS: [Compression; 2] = [Compression::None, Compression::Lz4];

/// The pipelines every recording is replayed through, as `<shape>@<analyzer
/// ranks>` (see [`pipeline`]).
const PIPELINES: [&str; 6] = [
    "Direct@1",
    "Direct@3",
    "Tbon{0} Aggregate@3",
    "Tbon{2} PassThrough@3",
    "Tbon{2} Aggregate@3",
    "Serving@1",
];

/// The online column: the pipeline, pack encoding and stream compression
/// of each live run.
const ONLINE: [(&str, PackEncoding, Compression); 8] = {
    use Compression::{Lz4, None as Plain};
    use PackEncoding::{Delta, Fixed};
    [
        ("Direct@1", Fixed, Plain),
        ("Direct@2", Fixed, Plain),
        ("Direct@4", Fixed, Plain),
        ("Direct@2", Fixed, Lz4),
        ("Direct@2", Delta, Plain),
        ("Direct@2", Delta, Lz4),
        ("Tbon{2} PassThrough@3", Delta, Lz4),
        ("Tbon{2} Aggregate@3", Fixed, Plain),
    ]
};

/// `builder` through the pipeline `name` names.
fn pipeline(builder: SessionBuilder, name: &str) -> SessionBuilder {
    let (shape, analyzers) = name.split_once('@').unwrap();
    let (coupling, op) = match shape {
        "Direct" => (Coupling::Direct, ReduceOp::PassThrough),
        "Serving" => (Coupling::Serving, ReduceOp::PassThrough),
        "Tbon{0} Aggregate" => (Coupling::Tbon { fanout: 0 }, ReduceOp::Aggregate),
        "Tbon{2} PassThrough" => (Coupling::Tbon { fanout: 2 }, ReduceOp::PassThrough),
        "Tbon{2} Aggregate" => (Coupling::Tbon { fanout: 2 }, ReduceOp::Aggregate),
        other => panic!("no pipeline {other}"),
    };
    builder
        .analyzer_ranks(analyzers.parse().unwrap())
        .coupling(coupling)
        .reduce_op(op)
}

/// Wait states on, and the series at `width` (adaptive when `None`).
fn analyzed(builder: SessionBuilder, width: Option<u64>) -> SessionBuilder {
    match width {
        Some(ns) => builder.waitstate().metrics(ns),
        None => builder.waitstate(),
    }
}

/// The replay of the recording in `dir` with the series at `width`, its
/// stream compressed by `compression`, through the pipeline `name`.
fn replay(dir: &Path, width: Option<u64>, compression: Compression, name: &str) -> SessionBuilder {
    let builder = analyzed(Session::replay(dir), width).compression(compression);
    pipeline(builder, name)
}

/// One workload of the table: its live session, and the mismatches its
/// cells have found so far.
struct Workload {
    bench: Benchmark,
    ranks: usize,
    cells: usize,
    mismatches: Vec<String>,
}

/// What every cell of one recording and width is compared with: one
/// engine's fold of the recorded packs.
struct Reference {
    partials: Vec<u8>,
    markdown: String,
}

impl Workload {
    fn new(bench: Benchmark) -> Workload {
        let ranks = (4..).find(|&n| bench.supports_ranks(Class::S, n)).unwrap();
        Workload {
            bench,
            ranks,
            cells: 0,
            mismatches: Vec::new(),
        }
    }

    /// The live session of the workload, streaming `encoding` rows in
    /// [`BLOCK`]-byte blocks.
    fn live(&self, builder: SessionBuilder, encoding: PackEncoding) -> SessionBuilder {
        let workload = self
            .bench
            .build(Class::S, self.ranks, &tera100(), Some(2))
            .unwrap();
        builder
            .stream_config(StreamConfig {
                block_size: BLOCK,
                pack_encoding: encoding,
                ..StreamConfig::default()
            })
            .app_workload(self.bench.name(), workload, LiveOptions::default())
    }

    fn fail(&mut self, cell: &str, what: impl std::fmt::Display) {
        self.mismatches.push(format!("{cell}: {what}"));
    }

    /// Runs the online column; returns its one digest.
    fn online(&mut self) -> u64 {
        let mut seen: Option<(u64, u64)> = None;
        for (name, encoding, compression) in ONLINE {
            let cell = format!("online {name} {encoding} {compression:?}");
            let builder = pipeline(analyzed(Session::builder(), None), name);
            let outcome = match self.live(builder, encoding).compression(compression).run() {
                Ok(o) => o,
                Err(e) => {
                    self.fail(&cell, format!("session failed: {e}"));
                    continue;
                }
            };
            let app = &outcome.report.apps[0];
            let transfers = app.waitstate.as_ref().map(|w| w.matched + w.unmatched);
            let got = (
                stable_digest(&outcome.report),
                transfers.unwrap_or(u64::MAX),
            );
            match seen {
                None => seen = Some(got),
                Some(want) if want == got => {}
                Some(want) => {
                    self.fail(&cell, format!("(digest, transfers) {got:?}, not {want:?}"))
                }
            }
        }
        seen.map_or(0, |(digest, _)| digest)
    }

    /// Records the workload into `dir`, checks what lies on disk and
    /// returns its size.
    fn record(&mut self, (encoding, sion): Recording, dir: &Path) -> u64 {
        let cell = format!("recording {encoding} sion={sion}");
        let sink = match sion {
            true => Sink::Sion(dir.to_path_buf()),
            false => Sink::TraceDir(dir.to_path_buf()),
        };
        let recorded = self.live(Session::builder().sink(sink), encoding).run();
        let recorded = recorded.unwrap();
        if !recorded.report.apps.is_empty() {
            self.fail(&cell, "a file sink launched an analyzer");
        }
        let packs: u64 = recorded.recorders.iter().map(|(_, s)| s.packs).sum();
        let fewest = recorded.recorders.iter().map(|(_, s)| s.packs).min();
        if encoding == PackEncoding::Fixed && fewest < Some(2) {
            self.fail(&cell, format!("a rank recorded {fewest:?} packs"));
        }
        let wire: u64 = recorded.recorders.iter().map(|(_, s)| s.wire_bytes).sum();
        let (mut files, mut containers, mut bytes) = (0, 0, 0);
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            files += usize::from(path.extension().is_some_and(|x| x == "opmr"));
            containers += usize::from(path.extension().is_some_and(|x| x == "sion"));
            bytes += path.metadata().unwrap().len();
        }
        if sion {
            // One container, demultiplexed into one chunk per rank.
            let chunks = read_sion(&RecordingFile::Sion { app: 0 }.path(dir)).unwrap();
            if (files, containers, chunks.len()) != (0, 1, self.ranks)
                || chunks.iter().any(|(_, c)| c.is_empty())
            {
                self.fail(&cell, format!("{files} files, {containers} containers"));
            }
        } else if (files, containers, bytes) != (self.ranks, 0, wire + 4 * packs) {
            self.fail(
                &cell,
                format!("{files} files of {bytes} B for {packs} packs"),
            );
        }
        bytes
    }

    /// One engine folding every recorded pack, rank by rank, at `width`.
    fn reference(&mut self, dir: &Path, width: Option<u64>) -> Reference {
        let engine = AnalysisEngine::new(EngineConfig::default());
        engine.enable_waitstate();
        if let Some(window_ns) = width {
            engine.enable_metrics(MetricsConfig { window_ns });
        }
        engine.start();
        for (_, ranks) in read_dir(dir).unwrap() {
            for pack in ranks.into_iter().flatten() {
                engine.post_block(pack);
            }
        }
        let report = engine.finish();
        let app = &report.apps[0];
        let series = app.metrics.as_ref().map_or(0, |s| s.len());
        let markdown = to_markdown(&report);
        // Every workload but FT (collectives only) matches transfers.
        let p2p = app.profile.kinds().into_iter().any(EventKind::is_p2p);
        let matched = app.waitstate.as_ref().map(|w| w.matched);
        if matched.is_none()
            || (p2p && matched == Some(0))
            || series == 0
            || (width.is_none() && series > 64)
            || !markdown.contains("### Temporal map")
        {
            self.fail(
                &format!("reference {width:?}"),
                format!("{matched:?} matched, {series} windows"),
            );
        }
        Reference {
            partials: encode_partials(&report.to_partials()).to_vec(),
            markdown,
        }
    }

    /// One cell: its outcome must be the reference, byte for byte, and
    /// carry the online digest.
    fn cell(
        &mut self,
        cell: String,
        outcome: Result<SessionOutcome, SessionError>,
        want: &Reference,
        online: u64,
    ) {
        self.cells += 1;
        let report: MultiReport = match outcome {
            Ok(o) => o.report,
            Err(e) => return self.fail(&cell, format!("session failed: {e}")),
        };
        if encode_partials(&report.to_partials())[..] != want.partials[..] {
            self.fail(&cell, "partials differ from the reference fold");
        }
        if to_markdown(&report) != want.markdown {
            self.fail(&cell, "rendered report differs from the reference fold");
        }
        if stable_digest(&report) != online {
            self.fail(&cell, "digest differs from the online run");
        }
    }

    fn finish(self, column: &str, online_runs: usize, start: Instant) {
        println!(
            "oracle {} {column}: {} cells and {online_runs} online runs in {:.2} s",
            self.bench.name(),
            self.cells,
            start.elapsed().as_secs_f64()
        );
        assert!(
            self.mismatches.is_empty(),
            "{} {column}: {} mismatches\n{}",
            self.bench.name(),
            self.mismatches.len(),
            self.mismatches.join("\n")
        );
    }
}

/// The online column and every in-process cell of `bench`.
fn in_process(bench: Benchmark) {
    let start = Instant::now();
    let mut w = Workload::new(bench);
    let online = w.online();
    let mut trace_bytes = Vec::new();
    for recording in RECORDINGS {
        let (encoding, sion) = recording;
        let dir = tmpdir(&format!("oracle_{}_{encoding}_{sion}", bench.name()));
        let bytes = w.record(recording, &dir);
        if !sion {
            trace_bytes.push(bytes);
        }
        for width in WIDTHS {
            let want = w.reference(&dir, width);
            for compression in COMPRESSIONS {
                for name in PIPELINES {
                    let cell = format!("{encoding} sion={sion} {width:?} {compression:?} {name}");
                    let outcome = replay(&dir, width, compression, name).run();
                    w.cell(cell, outcome, &want, online);
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    // File sinks write the session's encoding: Delta rows are smaller.
    if trace_bytes[1] >= trace_bytes[0] {
        w.fail(
            "recordings",
            format!("Delta is no smaller: {trace_bytes:?}"),
        );
    }
    w.finish("in process", ONLINE.len(), start);
}

/// Held by every socket run of this binary, so the process-wide count of
/// socket bytes sent moves, over a run, by that run's traffic alone.
static MESH: Mutex<()> = Mutex::new(());

/// The socket cells of `bench`: its Delta trace recording replayed with
/// LZ4 over two thread-hosted processes, every pack crossing the mesh.
fn over_sockets(bench: Benchmark) {
    let start = Instant::now();
    let mut w = Workload::new(bench);
    let live = w.live(analyzed(Session::builder(), None), PackEncoding::Delta);
    let online = stable_digest(&live.run().unwrap().report);
    let dir = tmpdir(&format!("oracle_{}_socket", bench.name()));
    w.record((PackEncoding::Delta, false), &dir);
    let recorded: u64 = read_dir(&dir)
        .unwrap()
        .iter()
        .flat_map(|(_, ranks)| ranks.iter().flatten())
        .map(|pack| pack.len() as u64)
        .sum();
    for width in WIDTHS {
        let want = w.reference(&dir, width);
        for name in PIPELINES {
            let cell = format!("socket {width:?} {name}");
            let sent = || common::obs_counter("transport_socket_bytes_sent_total");
            let mesh = MESH.lock().unwrap_or_else(PoisonError::into_inner);
            let before = sent();
            let outcome = run_session_threads(2, None, None, || {
                replay(&dir, width, Compression::Lz4, name)
            });
            let moved = sent() - before;
            drop(mesh);
            if moved < recorded {
                w.fail(&cell, "the recorded packs did not cross the mesh");
            }
            w.cell(cell, outcome, &want, online);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    w.finish("over sockets", 1, start);
}

/// One module per catalogue workload, so the harness runs them in
/// parallel; `socket` in a name selects the socket cells.
macro_rules! oracle {
    ($($module:ident: $bench:ident),* $(,)?) => {
        $(mod $module {
            use super::Benchmark::$bench;

            #[test]
            fn in_process() {
                super::in_process($bench);
            }

            #[test]
            fn socket() {
                super::over_sockets($bench);
            }
        })*

        /// The table covers the whole catalogue.
        #[test]
        fn every_catalogue_workload_has_a_row() {
            assert_eq!([$(Benchmark::$bench),*], BENCHMARKS);
        }
    };
}

oracle! {
    bt: Bt,
    cg: Cg,
    ft: Ft,
    lu: Lu,
    sp: Sp,
    euler_mhd: EulerMhd,
    irregular: Irregular,
    straggler: Straggler,
    bursty: Bursty,
}

/// A replay's recorded applications are placed like live ones, counted
/// first: over three thread-hosted processes, with the recorded app on
/// process 2 and the analyzer on process 0, the replay folds to the
/// in-process replay's partials and the online digest. A placement that
/// counts only the live applications (none here) is a typed
/// configuration error, not a silent fallback to process 0.
#[test]
fn placed_socket_replay_counts_the_recorded_apps_first() {
    let w = Workload::new(Benchmark::Cg);
    let online = w.live(analyzed(Session::builder(), None), PackEncoding::Fixed);
    let online = stable_digest(&online.run().unwrap().report);
    let dir = tmpdir("replay_placed");
    w.live(
        Session::builder().sink(Sink::TraceDir(dir.clone())),
        PackEncoding::Fixed,
    )
    .run()
    .unwrap();
    let replayed = || replay(&dir, None, Compression::None, "Direct@1");
    let inproc = replayed().run().unwrap();
    let _mesh = MESH.lock().unwrap_or_else(PoisonError::into_inner);
    let placed = run_session_threads(3, Some(vec![2]), None, replayed).unwrap();
    assert!(
        encode_partials(&placed.report.to_partials())
            == encode_partials(&inproc.report.to_partials()),
        "the placed socket replay differs from the in-process one"
    );
    assert_eq!(stable_digest(&placed.report), online);

    let socket = opmr::runtime::SocketConfig::new(common::fresh_unix_endpoint("placed"));
    match replayed().run_multiproc_placed(socket, 0, 3, Vec::new()) {
        Err(SessionError::Config(msg)) => assert!(msg.contains("placement"), "{msg}"),
        other => panic!("a live-only placement was not refused: {:?}", other.err()),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
