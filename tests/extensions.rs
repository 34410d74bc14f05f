//! Integration tests for the extension features: wait-state analysis,
//! the selective-trace proxy and custom knowledge sources through the
//! session façade. SIONlib-style containers and the distributed analyzer
//! are cells of the equivalence oracle (`tests/replay.rs`).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr::analysis::Selection;
use opmr::core::Session;
use opmr::events::recording::read_trace_file;
use opmr::events::{EventKind, EventPack};
use opmr::runtime::{Src, TagSel};

mod common;
use common::tmpdir;

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
    let packs = read_trace_file(path).unwrap();
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
