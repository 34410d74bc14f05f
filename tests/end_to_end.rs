//! Cross-crate integration tests: the full online pipeline against ground
//! truth, and the online-vs-post-mortem equivalence the paper claims
//! ("streamed analysis is very close to post-mortem analysis").

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;

use opmr::analysis::report::{self, stable_digest};
use opmr::core::{LiveOptions, Session, SessionBuilder, Sink};
use opmr::events::EventKind;
use opmr::netsim::tera100;
use opmr::runtime::{Src, TagSel};
use opmr::workloads::{Benchmark, Class};

#[test]
fn online_profile_matches_ground_truth_counts() {
    const ROUNDS: usize = 40;
    let outcome = Session::builder()
        .analyzer_ranks(2)
        .app("counted", 6, move |imp| {
            let w = imp.comm_world();
            let (r, n) = (imp.rank(), imp.size());
            for i in 0..ROUNDS {
                let req = imp
                    .isend(&w, (r + 1) % n, i as i32, vec![1u8; 100])
                    .unwrap();
                imp.recv(&w, Src::Rank((r + n - 1) % n), TagSel::Tag(i as i32))
                    .unwrap();
                imp.wait(req).unwrap();
            }
            imp.barrier(&w).unwrap();
        })
        .run()
        .unwrap();

    let app = &outcome.report.apps[0];
    let p = &app.profile;
    // Exact ground truth: 6 ranks × 40 rounds of isend/recv/wait + barrier
    // + init + finalize.
    assert_eq!(p.kind(EventKind::Isend).unwrap().hits, 6 * ROUNDS as u64);
    assert_eq!(p.kind(EventKind::Recv).unwrap().hits, 6 * ROUNDS as u64);
    assert_eq!(p.kind(EventKind::Wait).unwrap().hits, 6 * ROUNDS as u64);
    assert_eq!(p.kind(EventKind::Barrier).unwrap().hits, 6);
    assert_eq!(p.kind(EventKind::Init).unwrap().hits, 6);
    assert_eq!(p.kind(EventKind::Finalize).unwrap().hits, 6);
    assert_eq!(
        p.kind(EventKind::Isend).unwrap().bytes,
        6 * ROUNDS as u64 * 100
    );
    // Topology: a clean directed ring.
    assert_eq!(app.topology.edge_count(), 6);
    for r in 0..6u32 {
        let w = app.topology.edge(r, (r + 1) % 6).unwrap();
        assert_eq!(w.hits, ROUNDS as u64);
        assert_eq!(w.bytes, ROUNDS as u64 * 100);
    }
    // Recorder totals equal what the engine saw (nothing lost in flight).
    let produced: u64 = outcome.recorders.iter().map(|(_, s)| s.events).sum();
    assert_eq!(produced, app.events);
}

#[test]
fn online_equals_post_mortem() {
    // The same deterministic workload through both chains, with the
    // default stream (4 KiB Fixed blocks): the equivalence oracle
    // (`tests/replay.rs`) holds this on every catalogue workload and
    // pipeline, at 256 B blocks.
    let m = tera100();
    let cg = |b: SessionBuilder| {
        let w = Benchmark::Cg
            .build(Class::S, 8, &m, Some(3))
            .expect("CG.S @8");
        b.app_workload("cg", w, LiveOptions::default())
    };
    let online = cg(Session::builder().analyzer_ranks(2)).run().unwrap();
    let dir = common::tmpdir("equiv");
    let recorded = cg(Session::builder().sink(Sink::TraceDir(dir.clone())));
    // A file sink launches no analyzer: its own report is empty.
    assert!(recorded.run().unwrap().report.apps.is_empty());
    let trace = Session::replay(&dir).run().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    // The same events, per-rank profiles and communication matrix.
    assert_eq!(online.report.apps[0].events, trace.report.apps[0].events);
    assert_eq!(stable_digest(&online.report), stable_digest(&trace.report));
}

#[test]
fn every_benchmark_runs_live_end_to_end() {
    let m = tera100();
    for (bench, ranks) in [
        (Benchmark::Bt, 9usize),
        (Benchmark::Sp, 9),
        (Benchmark::Lu, 8),
        (Benchmark::Cg, 8),
        (Benchmark::Ft, 8),
        (Benchmark::EulerMhd, 9),
    ] {
        let w = bench.build(Class::S, ranks, &m, Some(2)).expect("builds");
        let expected_events = w.total_comm_ops();
        let outcome = Session::builder()
            .analyzer_ranks(2)
            .app_workload(bench.name(), w, LiveOptions::default())
            .run()
            .unwrap_or_else(|e| panic!("{} live run failed: {e}", bench.name()));
        let app = &outcome.report.apps[0];
        assert_eq!(app.ranks as usize, ranks, "{}", bench.name());
        // comm ops + init/finalize per rank; Exchange maps to 1 sendrecv.
        let mpi_events: u64 = app
            .profile
            .kinds()
            .iter()
            .filter(|k| k.is_mpi() && !matches!(k, EventKind::Init | EventKind::Finalize))
            .map(|&k| app.profile.kind(k).unwrap().hits)
            .sum();
        assert_eq!(
            mpi_events,
            expected_events,
            "{}: every generated comm op must be observed",
            bench.name()
        );
        assert_eq!(app.decode_errors, 0);
    }
}

#[test]
fn multi_app_report_renders_everywhere() {
    let m = tera100();
    let outcome = Session::builder()
        .analyzer_ranks(2)
        .app_workload(
            "cg",
            Benchmark::Cg.build(Class::S, 8, &m, Some(2)).unwrap(),
            LiveOptions::default(),
        )
        .app_workload(
            "euler",
            Benchmark::EulerMhd.build(Class::S, 6, &m, Some(2)).unwrap(),
            LiveOptions::default(),
        )
        .run()
        .unwrap();
    assert_eq!(outcome.report.apps.len(), 2);

    let md = report::to_markdown(&outcome.report);
    assert!(md.contains("## Application `cg`"));
    assert!(md.contains("## Application `euler`"));
    let tex = report::to_latex(&outcome.report);
    assert_eq!(tex.matches("\\chapter{").count(), 2);

    let dir = std::env::temp_dir().join(format!("opmr_render_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let paths = report::write_artifacts(&outcome.report, &dir).unwrap();
    assert!(paths.len() >= 8, "md, tex, dots, matrices, pgms");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn self_monitoring_streams_registry_through_the_pipeline() {
    // Dogfooding: with self-monitoring enabled, a hidden one-rank app
    // samples the process-wide observability registry and streams the
    // samples through the same VMPI stream machinery those metrics
    // measure, landing in the analysis engine like any other profiled
    // application.
    let outcome = Session::builder()
        .analyzer_ranks(2)
        .app("ring", 4, |imp| {
            let w = imp.comm_world();
            let (r, n) = (imp.rank(), imp.size());
            for i in 0..20 {
                let req = imp.isend(&w, (r + 1) % n, i, vec![3u8; 512]).unwrap();
                imp.recv(&w, Src::Rank((r + n - 1) % n), TagSel::Tag(i))
                    .unwrap();
                imp.wait(req).unwrap();
            }
            imp.barrier(&w).unwrap();
        })
        .self_monitor(std::time::Duration::from_millis(2))
        .run()
        .unwrap();

    // The monitor shows up as one more application chapter.
    assert_eq!(outcome.report.apps.len(), 2);
    let obs_app = outcome
        .report
        .apps
        .iter()
        .find(|a| a.name == opmr::core::SELF_MONITOR_APP)
        .expect("self-monitor chapter");
    assert_eq!(obs_app.ranks, 1);

    // Its profile is exclusively metric samples (Marker events keyed by
    // registry id) plus the facade's own Init/Finalize pair.
    let markers = obs_app.profile.kind(EventKind::Marker).unwrap().hits;
    assert!(markers > 0, "no metric samples reached the engine");
    assert_eq!(markers, obs_app.events - 2, "init + finalize + markers");

    // The samples travelled a real stream: the monitor's recorder packed
    // them onto the wire, and the engine decoded every one of them.
    let (_, obs_rec) = outcome
        .recorders
        .iter()
        .find(|(n, _)| n == opmr::core::SELF_MONITOR_APP)
        .expect("self-monitor recorder stats");
    assert!(obs_rec.packs >= 1);
    assert!(obs_rec.wire_bytes > 0);
    assert_eq!(obs_rec.events, obs_app.events, "events lost in flight");

    // And the registry snapshot on the outcome saw the whole session's
    // stream traffic, the monitor's included.
    let m = &outcome.metrics;
    assert!(m.counter("vmpi_stream_blocks_sent_total").unwrap() > 0);
    assert!(m.counter("vmpi_stream_write_bytes_total").unwrap() > obs_rec.wire_bytes);
    assert!(m.counter("runtime_envelopes_delivered_total").unwrap() > 0);
}
