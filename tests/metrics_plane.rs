//! Acceptance tests for the time-resolved standard-metrics plane.
//!
//! Three properties, each over the three irregular workload generators
//! (Irregular, Straggler, Bursty):
//!
//! 1. **Online = offline** — the windowed series the engine folds
//!    incrementally (no trace retention) equals the whole-trace
//!    computation exactly.
//! 2. **Chaos byte-stability** — streaming the same deterministic event
//!    packs through a fault-injected transport (seeded delay / slow-rank
//!    plans in process, every socket link severed once at each point of
//!    the sever sweep) leaves the encoded series byte-identical to the
//!    fault-free run.
//! 3. **TBON accuracy** — the series reduced through a fanout-2 tree
//!    (commutative window merges at the frontier) equals the flat fold of
//!    every event.
//!
//! Live timestamps are wall-clock, so these tests synthesize events with
//! a deterministic virtual clock walking the generators' op programs: the
//! packs are fixed byte strings, and only the transport is perturbed.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;

use common::{run_socket_threads_severed, LinkMoves, SEVER_SWEEP};
use opmr::analysis::engine::{AnalysisEngine, EngineConfig};
use opmr::events::{Event, EventKind, EventPack};
use opmr::metrics::{MetricsConfig, MetricsSeries};
use opmr::netsim::{tera100, CollKind, Op, Workload};
use opmr::reduce::{run_node, NodeConfig, ReduceOp, Tree};
use opmr::runtime::{FaultPlan, Launcher};
use opmr::vmpi::map::map_partitions_directed;
use opmr::vmpi::{Balance, Map, ReadMode, ReadStream, StreamConfig, Vmpi, WriteStream};
use opmr::workloads::{bursty, irregular, straggler};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const RANKS: usize = 4;
const WINDOW_NS: u64 = 4096;
const EVENTS_PER_PACK: usize = 24;
/// Pack size of the socket sever sweep: one frame per event, so even the
/// smallest generator (88 events) crosses every sever point mid-stream.
const SEVERED_EVENTS_PER_PACK: usize = 1;

/// The three generators under test, as prebuilt small workloads.
fn generators() -> Vec<(&'static str, Workload)> {
    let m = tera100();
    vec![
        (
            "irregular",
            irregular::workload(irregular::IrregularParams::small(), RANKS, &m, Some(4)).unwrap(),
        ),
        (
            "straggler",
            straggler::workload(straggler::StragglerParams::small(), RANKS, &m, Some(4)).unwrap(),
        ),
        (
            "bursty",
            bursty::workload(bursty::BurstyParams::small(), RANKS, &m, Some(2)).unwrap(),
        ),
    ]
}

/// Deterministic event synthesis: walk one rank's op program with a
/// virtual clock. Durations are a fixed function of op shape, so the same
/// workload always produces the same events byte for byte.
fn synth_rank_events(w: &Workload, rank: u32) -> Vec<Event> {
    let prog = &w.programs[rank as usize];
    let mut t = 0u64;
    let mut out = Vec::new();
    let mut emit = |t: &mut u64, kind: EventKind, peer: i32, bytes: u64, dur: u64| {
        out.push(Event {
            time_ns: *t,
            duration_ns: dur,
            kind,
            rank,
            peer,
            tag: 0,
            comm: 0,
            bytes,
        });
        *t += dur;
    };
    let ops = prog
        .prologue
        .iter()
        .chain(
            std::iter::repeat_with(|| prog.body.iter())
                .take(prog.iters as usize)
                .flatten(),
        )
        .chain(prog.epilogue.iter());
    for op in ops {
        match *op {
            Op::Compute { ns } => emit(&mut t, EventKind::Compute, -1, 0, ns as u64),
            Op::Send { to, bytes } => {
                emit(&mut t, EventKind::Send, to as i32, bytes, 800 + bytes / 16)
            }
            Op::Recv { from } => {
                emit(&mut t, EventKind::Recv, from as i32, 0, 900);
                emit(&mut t, EventKind::Wait, -1, 0, 250 + u64::from(rank) * 37);
            }
            Op::Exchange { peer, bytes } => {
                emit(
                    &mut t,
                    EventKind::Sendrecv,
                    peer as i32,
                    bytes,
                    1000 + bytes / 16,
                );
                emit(
                    &mut t,
                    EventKind::Waitall,
                    -1,
                    0,
                    300 + u64::from(rank) * 53,
                );
            }
            Op::Coll { kind, bytes, .. } => {
                let ek = match kind {
                    CollKind::Barrier => EventKind::Barrier,
                    CollKind::Bcast => EventKind::Bcast,
                    CollKind::Reduce => EventKind::Reduce,
                    CollKind::Allreduce => EventKind::Allreduce,
                    CollKind::Gather => EventKind::Gather,
                    CollKind::Allgather => EventKind::Allgather,
                    CollKind::Alltoall => EventKind::Alltoall,
                };
                emit(&mut t, ek, -1, bytes, 1500 + bytes / 8);
            }
            Op::FsWrite { bytes } => emit(&mut t, EventKind::PosixWrite, -1, bytes, 700),
            Op::FsMeta => emit(&mut t, EventKind::PosixOpen, -1, 0, 500),
        }
    }
    out
}

/// The per-rank pack sequences of a workload (app 0, fixed chunking).
fn synth_packs(w: &Workload, events_per_pack: usize) -> Vec<Vec<EventPack>> {
    (0..w.ranks() as u32)
        .map(|rank| {
            synth_rank_events(w, rank)
                .chunks(events_per_pack)
                .enumerate()
                .map(|(seq, ev)| EventPack::new(0, rank, seq as u32, ev.to_vec()))
                .collect()
        })
        .collect()
}

/// Whole-trace reference fold.
fn offline_series(packs: &[Vec<EventPack>]) -> MetricsSeries {
    let mut s = MetricsSeries::new(WINDOW_NS);
    for rank_packs in packs {
        for p in rank_packs {
            s.fold_pack(&p.events);
        }
    }
    s
}

#[test]
fn online_fold_equals_offline_whole_trace_computation() {
    for (name, w) in generators() {
        let packs = synth_packs(&w, EVENTS_PER_PACK);
        let offline = offline_series(&packs);
        assert!(!offline.is_empty(), "{name}: synthesis produced no windows");

        let engine = AnalysisEngine::new(EngineConfig::default());
        engine.enable_metrics(MetricsConfig {
            window_ns: WINDOW_NS,
        });
        engine.start();
        // Interleave ranks to stress order-independence of the fold.
        let max_len = packs.iter().map(Vec::len).max().unwrap();
        for i in 0..max_len {
            for rank_packs in &packs {
                if let Some(p) = rank_packs.get(i) {
                    engine.post_block(p.encode());
                }
            }
        }
        let report = engine.finish();
        let online = report.apps[0]
            .metrics
            .as_ref()
            .expect("metrics KS was enabled");
        assert_eq!(
            online, &offline,
            "{name}: online fold diverged from the whole-trace computation"
        );
        assert_eq!(
            online.encode(),
            offline.encode(),
            "{name}: canonical encodings must agree byte for byte"
        );
    }
}

/// The seeded fault plans of the in-process chaos sweep (as in
/// `tests/chaos.rs`).
fn chaos_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "delay",
            FaultPlan::seeded(303).with_delay(0.20, Duration::from_micros(200)),
        ),
        (
            "slow-rank",
            FaultPlan::seeded(505).with_slow_rank(0, Duration::from_micros(300)),
        ),
        (
            "delay+slow-rank",
            FaultPlan::seeded(606)
                .with_delay(0.10, Duration::from_micros(50))
                .with_slow_rank(1, Duration::from_micros(100)),
        ),
    ]
}

/// How a [`stream_and_fold`] run is hosted and faulted.
enum Chaos {
    /// In process, under an optional seeded plan.
    InProc(Option<FaultPlan>),
    /// Writers and analyzer in two thread-hosted socket "processes", their
    /// link severed once after this many frames.
    SocketSevered(u64),
}

/// Streams the packs through writer ranks into a one-rank analyzer that
/// folds the metrics series online; returns the series' canonical bytes.
fn stream_and_fold(packs: Arc<Vec<Vec<EventPack>>>, chaos: Chaos) -> Vec<u8> {
    let writers = packs.len();
    let encoded = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&encoded);
    let mut launcher = Launcher::new();
    if let Chaos::InProc(Some(p)) = &chaos {
        launcher = launcher.fault_plan(p.clone());
    }
    let launcher = launcher
        .partition("w", writers, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(4096, 3, Balance::None);
            let mut st = WriteStream::open_to(&v, vec![writers], cfg, 1).unwrap();
            for p in &packs[v.rank()] {
                st.write(&p.encode()).unwrap();
                st.flush().unwrap();
            }
            st.close().unwrap();
        })
        .partition("r", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(4096, 3, Balance::RoundRobin)
                .with_read_timeout(Duration::from_secs(30));
            let mut st = ReadStream::open_from(&v, (0..writers).collect(), cfg, 1).unwrap();
            let engine = AnalysisEngine::new(EngineConfig::default());
            engine.enable_metrics(MetricsConfig {
                window_ns: WINDOW_NS,
            });
            engine.start();
            loop {
                match st.read(ReadMode::Blocking) {
                    Ok(Some(b)) => engine.post_block(b.data),
                    Ok(None) => break,
                    Err(e) => panic!("metrics chaos reader must never fail: {e}"),
                }
            }
            let report = engine.finish();
            let m = report.apps[0].metrics.as_ref().expect("metrics enabled");
            *sink.lock().unwrap() = m.encode().to_vec();
        });
    match chaos {
        Chaos::InProc(_) => launcher.run().unwrap(),
        Chaos::SocketSevered(k) => {
            let failures = run_socket_threads_severed(launcher, 2, k);
            assert!(failures.is_empty(), "socket ranks failed: {failures:?}");
        }
    }
    Arc::try_unwrap(encoded).unwrap().into_inner().unwrap()
}

#[test]
fn metric_series_is_byte_stable_under_seeded_chaos_replay() {
    for (name, w) in generators() {
        let packs = Arc::new(synth_packs(&w, EVENTS_PER_PACK));
        let offline = offline_series(&packs).encode().to_vec();
        let clean = stream_and_fold(Arc::clone(&packs), Chaos::InProc(None));
        assert_eq!(
            clean, offline,
            "{name}: fault-free streaming must equal the offline fold"
        );
        for (plan_name, plan) in chaos_plans() {
            let faulted = stream_and_fold(Arc::clone(&packs), Chaos::InProc(Some(plan.clone())));
            assert_eq!(
                faulted, clean,
                "{name}/{plan_name}: chaos replay must be byte-identical"
            );
            let again = stream_and_fold(Arc::clone(&packs), Chaos::InProc(Some(plan)));
            assert_eq!(
                again, faulted,
                "{name}/{plan_name}: same seed must replay identically"
            );
        }
    }
}

#[test]
fn socket_metric_series_is_byte_stable_under_link_severs() {
    for (name, w) in generators() {
        let packs = Arc::new(synth_packs(&w, SEVERED_EVENTS_PER_PACK));
        let clean = stream_and_fold(Arc::clone(&packs), Chaos::InProc(None));
        for k in SEVER_SWEEP {
            let (severed, moved) =
                LinkMoves::during(|| stream_and_fold(Arc::clone(&packs), Chaos::SocketSevered(k)));
            moved.assert_severed_and_reconnected(&format!("{name}/sever after {k}"));
            assert_eq!(
                severed, clean,
                "{name}/sever after {k}: the series must equal the clean in-process run"
            );
            let again = stream_and_fold(Arc::clone(&packs), Chaos::SocketSevered(k));
            assert_eq!(
                again, severed,
                "{name}/sever after {k}: the same sever point must replay identically"
            );
        }
    }
}

/// Streams each rank's packs through a fanout-2 aggregation tree with the
/// metrics fold enabled at the frontier; returns the root's series.
fn tbon_series(packs: Arc<Vec<Vec<EventPack>>>) -> MetricsSeries {
    const NODES: usize = 3;
    let leaves = packs.len();
    let result = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&result);
    let tree_for_leaves = Tree::new(2, NODES);
    Launcher::new()
        .partition("leaves", leaves, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let tree_pid = v.partition_by_name("Reduce").unwrap().id;
            let mut map = Map::new();
            map_partitions_directed(
                &v,
                tree_pid,
                tree_pid,
                tree_for_leaves.leaf_policy(),
                &mut map,
            )
            .unwrap();
            let cfg = StreamConfig {
                block_size: 4096,
                ..StreamConfig::default()
            };
            let mut st = WriteStream::open_map(&v, &map, cfg, 1).unwrap();
            for p in &packs[v.rank()] {
                st.write(&p.encode()).unwrap();
                st.flush().unwrap();
            }
            st.close().unwrap();
        })
        .partition("Reduce", NODES, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let tree = Tree::new(2, v.size());
            let mut map = Map::new();
            map_partitions_directed(&v, 0, v.partition_id(), tree.leaf_policy(), &mut map).unwrap();
            let cfg = StreamConfig {
                block_size: 4096,
                ..StreamConfig::default()
            };
            let node_cfg = NodeConfig {
                op: ReduceOp::Aggregate,
                window_blocks: 4,
                waitstate: false,
                metrics: Some(MetricsConfig {
                    window_ns: WINDOW_NS,
                }),
            };
            let outcome = run_node(&v, &tree, map.peers(), cfg, 1, &node_cfg, |_| {}).unwrap();
            if v.rank() == 0 {
                assert_eq!(outcome.partials.len(), 1, "one application, one partial");
                *sink.lock().unwrap() = outcome.partials[0].metrics.clone();
            }
        })
        .run()
        .unwrap();
    Arc::try_unwrap(result)
        .unwrap()
        .into_inner()
        .unwrap()
        .expect("root partial carries the reduced series")
}

#[test]
fn tbon_reduced_series_matches_flat_computation() {
    for (name, w) in generators() {
        let packs = Arc::new(synth_packs(&w, EVENTS_PER_PACK));
        let flat = offline_series(&packs);
        let reduced = tbon_series(Arc::clone(&packs));
        assert_eq!(
            reduced, flat,
            "{name}: tree-merged series must equal the flat fold"
        );
        assert_eq!(
            reduced.encode(),
            flat.encode(),
            "{name}: canonical encodings must agree byte for byte"
        );
    }
}
