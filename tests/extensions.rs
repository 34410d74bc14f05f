//! Integration tests for the extension features: wait-state analysis,
//! selective-trace proxy, SIONlib-style containers and custom knowledge
//! sources through the session façade.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr::analysis::Selection;
use opmr::core::{Coupling, LiveOptions, Session, Sink};
use opmr::events::{EventKind, EventPack};
use opmr::instrument::read_sion;
use opmr::netsim::tera100;
use opmr::reduce::ReduceOp;
use opmr::runtime::{Src, TagSel};
use opmr::workloads::{Benchmark, Class};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("opmr_ext_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn waitstate_detects_engineered_late_sender() {
    // Rank 0 computes ~5 ms before sending; rank 1 posts its receive
    // immediately: the wait-state module must attribute ~5 ms to rank 0.
    let outcome = Session::builder()
        .analyzer_ranks(1)
        .waitstate()
        .app("late", 2, |imp| {
            let w = imp.comm_world();
            if imp.rank() == 0 {
                imp.compute(std::time::Duration::from_millis(5)).unwrap();
                imp.send(&w, 1, 0, vec![1u8; 64]).unwrap();
            } else {
                imp.recv(&w, Src::Rank(0), TagSel::Tag(0)).unwrap();
            }
        })
        .run()
        .unwrap();
    let ws = outcome.report.apps[0]
        .waitstate
        .as_ref()
        .expect("waitstate enabled");
    assert_eq!(ws.matched, 1);
    assert_eq!(ws.unmatched, 0);
    // Every rank counts from the job's origin, so the wait is the
    // engineered 5 ms, not 5 ms ± the ranks' start skew (≥ 4.99 ms in
    // 220 runs, three at a time on two cores).
    assert!(
        ws.total_late_sender_ns > 4_000_000,
        "engineered 5 ms late sender, saw {} ns",
        ws.total_late_sender_ns
    );
    assert_eq!(ws.worst_culprits(1)[0].0, 0, "rank 0 is the culprit");
    // And the report renders it.
    let md = opmr::analysis::report::to_markdown(&outcome.report);
    assert!(md.contains("Wait states"));
    assert!(md.contains("late-sender culprit"));
}

#[test]
fn waitstate_balanced_ring_has_little_wait() {
    let outcome = Session::builder()
        .waitstate()
        .app("balanced", 4, |imp| {
            let w = imp.comm_world();
            let (r, n) = (imp.rank(), imp.size());
            for i in 0..20 {
                let req = imp.isend(&w, (r + 1) % n, i, vec![0u8; 32]).unwrap();
                imp.recv(&w, Src::Rank((r + n - 1) % n), TagSel::Tag(i))
                    .unwrap();
                imp.wait(req).unwrap();
            }
        })
        .run()
        .unwrap();
    let ws = outcome.report.apps[0].waitstate.as_ref().unwrap();
    assert_eq!(ws.matched, 80);
    // Balanced ring: with one time origin for every rank, the residual
    // wait is scheduling noise (≤ 0.2 ms per transfer in 220 runs, three
    // at a time on two cores).
    let mean = ws.total_late_sender_ns as f64 / ws.matched as f64;
    assert!(mean < 500_000.0, "mean late-sender {mean} ns per transfer");
}

#[test]
fn trace_proxy_writes_selected_events_alongside_online_analysis() {
    let dir = tmpdir("proxy");
    let outcome = Session::builder()
        .trace_proxy(
            &dir,
            Selection {
                kinds: Some(vec![EventKind::Send]),
                ..Selection::default()
            },
        )
        .app("sel", 3, |imp| {
            let w = imp.comm_world();
            let r = imp.rank();
            if r > 0 {
                imp.send(&w, 0, 1, vec![0u8; 128]).unwrap();
            } else {
                for _ in 0..2 {
                    imp.recv(&w, Src::Any, TagSel::Any).unwrap();
                }
            }
            imp.barrier(&w).unwrap();
        })
        .run()
        .unwrap();
    let (path, seen, written) = outcome.report.apps[0].proxy.as_ref().expect("proxy on");
    assert_eq!(*written, 2, "exactly the two sends survive");
    assert!(*seen > *written, "selection actually filtered");
    // The proxy writes the trace-file format: length-prefixed packs.
    let packs = opmr::instrument::read_trace_file(path).unwrap();
    let packs: Vec<_> = packs
        .iter()
        .map(|b| EventPack::decode(b).unwrap())
        .collect();
    let events: Vec<_> = packs.iter().flat_map(|p| p.events.iter()).collect();
    assert_eq!(events.len(), 2);
    assert!(events.iter().all(|e| e.kind == EventKind::Send));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sion_container_equals_per_rank_traces() {
    let m = tera100();
    let make = || Benchmark::EulerMhd.build(Class::S, 6, &m, Some(2)).unwrap();

    let record_and_replay = |sink: Sink, dir: &PathBuf| {
        Session::builder()
            .sink(sink)
            .app_workload("euler", make(), LiveOptions::default())
            .run()
            .unwrap();
        Session::replay(dir).run().unwrap()
    };
    let dir_files = tmpdir("files");
    let per_rank = record_and_replay(Sink::TraceDir(dir_files.clone()), &dir_files);
    let dir_sion = tmpdir("sion");
    let sion = record_and_replay(Sink::Sion(dir_sion.clone()), &dir_sion);

    // One container instead of six files.
    let count_files = |d: &PathBuf, ext: &str| {
        std::fs::read_dir(d)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == ext)
            })
            .count()
    };
    assert_eq!(count_files(&dir_files, "opmr"), 6);
    assert_eq!(count_files(&dir_sion, "sion"), 1);
    assert_eq!(count_files(&dir_sion, "opmr"), 0);

    // Identical analysis results through both containers.
    let (a, b) = (&per_rank.report.apps[0], &sion.report.apps[0]);
    assert_eq!(a.events, b.events);
    for kind in a.profile.kinds() {
        assert_eq!(
            a.profile.kind(kind).map(|s| (s.hits, s.bytes)),
            b.profile.kind(kind).map(|s| (s.hits, s.bytes)),
            "{}",
            kind.name()
        );
    }
    // The multiplexed container demultiplexes cleanly.
    let chunks = read_sion(&dir_sion.join("app0.sion")).unwrap();
    assert_eq!(chunks.len(), 6);
    assert!(chunks.iter().all(|(_, c)| !c.is_empty()));

    std::fs::remove_dir_all(&dir_files).unwrap();
    std::fs::remove_dir_all(&dir_sion).unwrap();
}

#[test]
fn custom_ks_via_engine_setup() {
    use opmr::blackboard::{type_id, KnowledgeSource};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let count = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&count);
    let outcome = Session::builder()
        .engine_setup(move |engine| {
            let ty = type_id("app0", "events");
            let c = Arc::clone(&c2);
            engine.blackboard().register(KnowledgeSource::new(
                "counter",
                vec![ty],
                move |_bb, entries| {
                    if let Some(pack) = entries[0].downcast_ref::<EventPack>() {
                        c.fetch_add(pack.events.len() as u64, Ordering::Relaxed);
                    }
                },
            ));
        })
        .app("plain", 2, |imp| {
            imp.barrier(&imp.comm_world()).unwrap();
        })
        .run()
        .unwrap();
    assert_eq!(
        count.load(std::sync::atomic::Ordering::Relaxed),
        outcome.report.apps[0].events,
        "custom KS saw every event the stock profiler saw"
    );
}

#[test]
fn distributed_analyzer_equals_shared_engine() {
    // Section VI: analysis state held per analyzer rank — each frontier
    // node of an Aggregate tree folds its own share — and merged up the
    // tree must produce the same aggregates as the shared engine.
    let m = tera100();
    let make = || Benchmark::Cg.build(Class::S, 8, &m, Some(2)).unwrap();

    let shared = Session::builder()
        .analyzer_ranks(3)
        .waitstate()
        .app_workload("cg", make(), LiveOptions::default())
        .run()
        .unwrap();
    let dist = Session::builder()
        .analyzer_ranks(3)
        .waitstate()
        .coupling(Coupling::Tbon { fanout: 2 })
        .reduce_op(ReduceOp::Aggregate)
        .app_workload("cg", make(), LiveOptions::default())
        .run()
        .unwrap();

    let (a, b) = (&shared.report.apps[0], &dist.report.apps[0]);
    assert_eq!(a.events, b.events);
    assert_eq!(a.packs, b.packs);
    assert_eq!(a.name, b.name);
    // Two separate live runs: counts and volumes are deterministic, call
    // durations are wall-clock and are not compared.
    for kind in a.profile.kinds() {
        assert_eq!(
            a.profile.kind(kind).map(|s| (s.hits, s.bytes)),
            b.profile.kind(kind).map(|s| (s.hits, s.bytes)),
            "{}",
            kind.name()
        );
    }
    assert_eq!(a.topology.edge_count(), b.topology.edge_count());
    for ((s, d), w) in a.topology.sorted_edges() {
        assert_eq!(
            b.topology.edge(s, d).map(|x| (x.hits, x.bytes)),
            Some((w.hits, w.bytes))
        );
    }
    // The merge re-feeds each side's dangling halves through a matcher,
    // so the tree accounts for the same transfers.
    let (wa, wb) = (a.waitstate.as_ref().unwrap(), b.waitstate.as_ref().unwrap());
    assert_eq!(wa.matched + wa.unmatched, wb.matched + wb.unmatched);
}
