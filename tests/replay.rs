//! The whole-report oracle: post-mortem analysis is a replay session.
//!
//! A recording replayed through any coupling — direct mapping over one or
//! three analyzer ranks, a reduction tree passing packs through or
//! aggregating them in-network, a serving session — folds to the same
//! report, byte for byte on every plane (durations, wait states and
//! metrics included, which a replay holds fixed), as one engine folding
//! the same packs directly. And every replay's `stable_digest` is the
//! online run's: "streamed analysis is very close to post-mortem
//! analysis", on one pipeline.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr::analysis::report::stable_digest;
use opmr::analysis::wire::encode_partials;
use opmr::analysis::{AnalysisEngine, EngineConfig};
use opmr::core::{
    Coupling, LiveOptions, Session, SessionBuilder, SessionError, SessionOutcome, Sink,
};
use opmr::events::recording::{read_dir, read_trace_file, RecordingFile};
use opmr::events::PackEncoding;
use opmr::netsim::tera100;
use opmr::reduce::ReduceOp;
use opmr::runtime::{Endpoint, SocketConfig};
use opmr::vmpi::StreamConfig;
use opmr::workloads::{Benchmark, Class};
use std::path::{Path, PathBuf};
use std::time::Duration;

mod common;

/// Metrics windows of 1 ms of application time.
const WINDOW_NS: u64 = 1_000_000;

/// Small blocks, so every rank records many packs and a replay has many
/// cross-rank interleavings to get wrong.
const BLOCK: usize = 256;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("opmr_replay_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn analyzed(builder: SessionBuilder) -> SessionBuilder {
    builder.waitstate().metrics(WINDOW_NS)
}

/// Bytes of every file under `dir`.
fn bytes_on_disk(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

/// The test-side post-mortem fold: every recorded pack, rank file by rank
/// file, posted into one engine.
fn direct_fold(dir: &Path, ranks: usize) -> Vec<u8> {
    let engine = AnalysisEngine::new(EngineConfig::default());
    engine.enable_waitstate();
    engine.enable_metrics(opmr::metrics::MetricsConfig {
        window_ns: WINDOW_NS,
    });
    engine.start();
    for rank in 0..ranks as u32 {
        let path = RecordingFile::Rank { app: 0, rank }.path(dir);
        for pack in read_trace_file(&path).unwrap() {
            engine.post_block(pack);
        }
    }
    encode_partials(&engine.finish().to_partials()).to_vec()
}

/// The couplings every recording is replayed through.
const COUPLINGS: [&str; 5] = [
    "Direct@1",
    "Direct@3",
    "Tbon{2} PassThrough@3",
    "Tbon{2} Aggregate@3",
    "Serving@1",
];

/// The replay of `dir` through `coupling`, one of [`COUPLINGS`].
fn replay(dir: &Path, coupling: &str) -> SessionBuilder {
    let replay = analyzed(Session::replay(dir));
    let tbon = |replay: SessionBuilder, op| {
        replay
            .analyzer_ranks(3)
            .coupling(Coupling::Tbon { fanout: 2 })
            .reduce_op(op)
    };
    match coupling {
        "Direct@1" => replay,
        "Direct@3" => replay.analyzer_ranks(3),
        "Tbon{2} PassThrough@3" => tbon(replay, ReduceOp::PassThrough),
        "Tbon{2} Aggregate@3" => tbon(replay, ReduceOp::Aggregate),
        "Serving@1" => replay.coupling(Coupling::Serving),
        other => panic!("no coupling {other}"),
    }
}

/// The replays every recording goes through.
fn replays(dir: &Path) -> Vec<(&'static str, SessionBuilder)> {
    COUPLINGS.iter().map(|&c| (c, replay(dir, c))).collect()
}

/// The replay of `dir` through `coupling` as a two-process socket job,
/// each process hosted on a thread: the recorded ranks run in process 1,
/// the analyzer in process 0, whose outcome (the one carrying the report)
/// is returned.
fn replay_over_sockets(dir: &Path, coupling: &'static str) -> SessionOutcome {
    let endpoint = common::fresh_unix_endpoint("replay");
    let run = |endpoint: Endpoint, dir: PathBuf, proc_index| {
        let socket = SocketConfig::new(endpoint).connect_timeout(Duration::from_secs(20));
        replay(&dir, coupling).run_multiproc(socket, proc_index, 2)
    };
    let worker = {
        let (endpoint, dir) = (endpoint.clone(), dir.to_path_buf());
        std::thread::spawn(move || run(endpoint, dir, 1))
    };
    let sent = || common::obs_counter("transport_socket_bytes_sent_total");
    let before = sent();
    let outcome = run(endpoint, dir.to_path_buf(), 0).unwrap();
    worker.join().unwrap().unwrap();
    // Every recorded pack crossed the mesh.
    let recorded: usize = read_dir(dir)
        .unwrap()
        .iter()
        .flat_map(|(_, ranks)| ranks.iter().flatten())
        .map(|pack| pack.len())
        .sum();
    assert!(sent() - before >= recorded as u64, "{coupling}");
    outcome
}

#[test]
fn every_replay_is_the_direct_fold_and_the_online_digest() {
    let m = tera100();
    for (bench, ranks, iters) in [(Benchmark::Cg, 8, 2), (Benchmark::EulerMhd, 9, 16)] {
        let make = || bench.build(Class::S, ranks, &m, Some(iters)).unwrap();
        let mut disk = Vec::new();
        for encoding in [PackEncoding::Fixed, PackEncoding::Delta] {
            let what = format!("{}@{ranks} {encoding}", bench.name());
            let live = |b: SessionBuilder| {
                b.stream_config(StreamConfig {
                    block_size: BLOCK,
                    pack_encoding: encoding,
                    ..StreamConfig::default()
                })
                .app_workload(bench.name(), make(), LiveOptions::default())
            };
            let online = live(analyzed(Session::builder()).analyzer_ranks(2))
                .run()
                .unwrap();
            let dir = tmpdir(&format!("{}_{encoding}", bench.name()));
            let recorded = live(Session::builder().sink(Sink::TraceDir(dir.clone())))
                .run()
                .unwrap();
            assert!(recorded.report.apps.is_empty(), "{what}: no analyzer");
            let wire: u64 = recorded.recorders.iter().map(|(_, s)| s.wire_bytes).sum();
            let packs: u64 = recorded.recorders.iter().map(|(_, s)| s.packs).sum();
            assert_eq!(bytes_on_disk(&dir), wire + 4 * packs, "{what}");
            disk.push(bytes_on_disk(&dir));
            assert!(packs >= 3 * ranks as u64, "{what}: {packs} packs");

            let fold = direct_fold(&dir, ranks);
            for (coupling, builder) in replays(&dir) {
                let outcome = builder.run().unwrap();
                let app = &outcome.report.apps[0];
                assert_eq!(app.name, "app0", "{what} {coupling}");
                let (ws, series) = (app.waitstate.as_ref().unwrap(), app.metrics.as_ref());
                assert!(
                    ws.matched > 0 && series.is_some_and(|s| !s.is_empty()),
                    "{what}"
                );
                assert!(
                    encode_partials(&outcome.report.to_partials()) == fold,
                    "{what}: the {coupling} replay differs from the direct fold"
                );
                assert_eq!(
                    stable_digest(&outcome.report),
                    stable_digest(&online.report),
                    "{what}: the {coupling} replay differs from the online run"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
        // File sinks write the session's encoding: Delta rows are smaller.
        assert!(disk[1] < disk[0], "{}: {disk:?}", bench.name());
    }
}

#[test]
fn sion_recording_replays_to_the_online_digest() {
    let m = tera100();
    let make = || Benchmark::Cg.build(Class::S, 8, &m, Some(2)).unwrap();
    let online = Session::builder()
        .app_workload("cg", make(), LiveOptions::default())
        .run()
        .unwrap();
    let dir = tmpdir("sion");
    Session::builder()
        .sink(Sink::Sion(dir.clone()))
        .pack_encoding(PackEncoding::Delta)
        .app_workload("cg", make(), LiveOptions::default())
        .run()
        .unwrap();
    for (coupling, builder) in replays(&dir) {
        let outcome = builder.run().unwrap();
        assert_eq!(
            stable_digest(&outcome.report),
            stable_digest(&online.report),
            "SION {coupling} replay"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replay over the socket transport: a trace-file and a SION recording,
/// their ranks in one thread-hosted process and the analyzer in another,
/// fold to the in-process replay's partials byte for byte, wait states
/// and metrics included, and to the online run's digest.
#[test]
fn socket_replay_is_the_in_process_replay() {
    let m = tera100();
    let make = || Benchmark::Cg.build(Class::S, 8, &m, Some(2)).unwrap();
    let online = analyzed(Session::builder())
        .app_workload("cg", make(), LiveOptions::default())
        .run()
        .unwrap();
    for tag in ["trace", "sion"] {
        let dir = tmpdir(&format!("socket_{tag}"));
        let sink = match tag {
            "trace" => Sink::TraceDir(dir.clone()),
            _ => Sink::Sion(dir.clone()),
        };
        Session::builder()
            .sink(sink)
            .stream_config(StreamConfig {
                block_size: BLOCK,
                ..StreamConfig::default()
            })
            .app_workload("cg", make(), LiveOptions::default())
            .run()
            .unwrap();
        for coupling in ["Direct@3", "Tbon{2} Aggregate@3", "Serving@1"] {
            let inproc = replay(&dir, coupling).run().unwrap();
            let sock = replay_over_sockets(&dir, coupling);
            assert!(
                encode_partials(&sock.report.to_partials())
                    == encode_partials(&inproc.report.to_partials()),
                "{tag} {coupling}: the socket replay differs from the in-process one"
            );
            assert_eq!(
                stable_digest(&sock.report),
                stable_digest(&online.report),
                "{tag} {coupling}: the socket replay differs from the online run"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A replay's recorded applications are placed like live ones, counted
/// first: over three thread-hosted processes, with the recorded app on
/// process 2 and the analyzer on process 0, the replay folds to the
/// in-process replay's partials and the online digest. A placement that
/// counts only the live applications (none here) is a typed
/// configuration error, not a silent fallback to process 0.
#[test]
fn placed_socket_replay_counts_the_recorded_apps_first() {
    let m = tera100();
    let make = || Benchmark::Cg.build(Class::S, 8, &m, Some(2)).unwrap();
    let online = analyzed(Session::builder())
        .app_workload("cg", make(), LiveOptions::default())
        .run()
        .unwrap();
    let dir = tmpdir("placed");
    Session::builder()
        .sink(Sink::TraceDir(dir.clone()))
        .stream_config(StreamConfig {
            block_size: BLOCK,
            ..StreamConfig::default()
        })
        .app_workload("cg", make(), LiveOptions::default())
        .run()
        .unwrap();
    let inproc = replay(&dir, "Direct@1").run().unwrap();

    let endpoint = common::fresh_unix_endpoint("replay-placed");
    let run = |endpoint: Endpoint, dir: PathBuf, proc_index, placement: Vec<usize>| {
        let socket = SocketConfig::new(endpoint).connect_timeout(Duration::from_secs(20));
        replay(&dir, "Direct@1").run_multiproc_placed(socket, proc_index, 3, placement)
    };
    let workers: Vec<_> = [1, 2]
        .map(|p| {
            let (endpoint, dir) = (endpoint.clone(), dir.clone());
            std::thread::spawn(move || run(endpoint, dir, p, vec![2]))
        })
        .into_iter()
        .collect();
    let placed = run(endpoint, dir.clone(), 0, vec![2]).unwrap();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    assert!(
        encode_partials(&placed.report.to_partials())
            == encode_partials(&inproc.report.to_partials()),
        "the placed socket replay differs from the in-process one"
    );
    assert_eq!(stable_digest(&placed.report), stable_digest(&online.report));

    let endpoint = common::fresh_unix_endpoint("replay-placed-live-only");
    match run(endpoint, dir.clone(), 0, Vec::new()) {
        Err(SessionError::Config(msg)) => assert!(msg.contains("placement"), "{msg}"),
        other => panic!("a live-only placement was not refused: {:?}", other.err()),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
