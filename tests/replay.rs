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
use opmr::core::{Coupling, LiveOptions, Session, SessionBuilder, Sink};
use opmr::events::PackEncoding;
use opmr::instrument::read_trace_file;
use opmr::netsim::tera100;
use opmr::reduce::ReduceOp;
use opmr::vmpi::StreamConfig;
use opmr::workloads::{Benchmark, Class};
use std::path::{Path, PathBuf};

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
    for r in 0..ranks {
        for pack in read_trace_file(&dir.join(format!("app0_rank{r}.opmr"))).unwrap() {
            engine.post_block(pack);
        }
    }
    encode_partials(&engine.finish().to_partials()).to_vec()
}

/// The replays every recording goes through.
fn replays(dir: &Path) -> Vec<(&'static str, SessionBuilder)> {
    let replay = || analyzed(Session::replay(dir));
    let tbon = |op| {
        replay()
            .analyzer_ranks(3)
            .coupling(Coupling::Tbon { fanout: 2 })
            .reduce_op(op)
    };
    vec![
        ("Direct@1", replay()),
        ("Direct@3", replay().analyzer_ranks(3)),
        ("Tbon{2} PassThrough@3", tbon(ReduceOp::PassThrough)),
        ("Tbon{2} Aggregate@3", tbon(ReduceOp::Aggregate)),
        ("Serving@1", replay().coupling(Coupling::Serving)),
    ]
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
