//! Chaos tests: seeded fault injection over the two canonical topologies
//! (the quickstart instrumented session and a raw writer→reader stream
//! pipeline).
//!
//! Faults are injected where they can happen. A [`FaultPlan`] delays
//! sends, slows a rank or crashes a writer on either backend. Link loss is
//! the socket backend's [`LinkFault`]: every busy mesh link is severed
//! once after `k` data frames, for each `k` of [`common::SEVER_SWEEP`], and
//! the link's seq / ack / epoch reconnect recovers it underneath the
//! transport. Nothing above the transport drops, duplicates or reorders,
//! because MPI does not either.
//!
//! Two properties are asserted for every fault:
//!
//! 1. **Determinism** — the same plan (or sever point) produces
//!    byte-identical per-writer delivery and the same analysis report;
//!    and because the transport is reliable, both equal the fault-free
//!    in-process run.
//! 2. **Liveness** — a crashed writer surfaces as a typed error at both
//!    ends ([`RtError::Unreachable`] at the writer, [`VmpiError::PeerLost`]
//!    at the reader); nothing deadlocks. Every blocking read in this file
//!    carries a `read_timeout`, so a liveness bug fails the test instead of
//!    hanging the suite.
//!
//! Socket runs are named `socket_*`, so CI's backend matrix splits this
//! binary with `socket_` / `--skip socket_`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;

use common::{obs_counter, run_socket_threads_severed, LinkMoves, SEVER_SWEEP};
use opmr::core::{Coupling, Session};
use opmr::events::EventKind;
use opmr::reduce::{run_node, NodeConfig, ReduceStats, Tree};
use opmr::runtime::{FaultPlan, Launcher, RtError, Src, TagSel};
use opmr::vmpi::map::map_partitions_directed;
use opmr::vmpi::{Balance, Map, ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError, WriteStream};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const WRITERS: usize = 3;
const BLOCK: usize = 64;
const BLOCKS_PER_WRITER: usize = 200;

/// The seeded plans of the in-process sweep: the faults a reliable
/// transport still has. (Writer-crash has its own harness below because
/// it is *not* transparent.)
fn plans() -> Vec<(&'static str, FaultPlan)> {
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

/// The plan the session-level tests replay under `seed`.
fn session_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_delay(0.10, Duration::from_micros(100))
        .with_slow_rank(1, Duration::from_micros(50))
}

/// FNV-1a over a byte stream: cheap, order-sensitive digest.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-writer delivery observation: order-sensitive byte digest, the block
/// size sequence and the byte total.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Delivery {
    digests: HashMap<usize, u64>,
    block_sizes: HashMap<usize, Vec<usize>>,
    totals: HashMap<usize, u64>,
}

/// Which transport hosts a pipeline run.
#[derive(Clone, Copy, Debug)]
enum Backend {
    InProc,
    /// Two thread-hosted processes over a Unix-domain mesh (writers and
    /// reader land in different processes under round-robin assignment),
    /// via the shared harness in `tests/common`, with every link severed
    /// once after this many frames.
    Socket {
        sever_after_frames: Option<u64>,
    },
}

/// Stream pipeline topology: `WRITERS` ranks each push a deterministic
/// byte pattern to one reader; returns what the reader observed.
fn run_pipeline(plan: Option<FaultPlan>) -> Delivery {
    run_pipeline_on(Backend::InProc, plan)
}

fn run_pipeline_on(backend: Backend, plan: Option<FaultPlan>) -> Delivery {
    let seen = Arc::new(Mutex::new(Delivery::default()));
    let seen2 = Arc::clone(&seen);

    let mut launcher = Launcher::new();
    if let Some(p) = plan {
        launcher = launcher.fault_plan(p);
    }
    let launcher = launcher
        .partition("w", WRITERS, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::None);
            let mut st = WriteStream::open_to(&v, vec![WRITERS], cfg, 1).unwrap();
            let me = v.rank() as u8;
            for i in 0..BLOCKS_PER_WRITER {
                // Rank-keyed, position-keyed pattern so any reordering or
                // corruption shifts the order-sensitive digest.
                let block: Vec<u8> = (0..BLOCK)
                    .map(|j| me ^ (i as u8).wrapping_add(j as u8))
                    .collect();
                st.write(&block).unwrap();
            }
            st.close().unwrap();
        })
        .partition("r", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::RoundRobin)
                .with_read_timeout(Duration::from_secs(30));
            let mut st = ReadStream::open_from(&v, (0..WRITERS).collect(), cfg, 1).unwrap();
            let mut out = Delivery::default();
            loop {
                match st.read(ReadMode::Blocking) {
                    Ok(Some(b)) => {
                        let d = out.digests.entry(b.source).or_insert(0);
                        *d = fnv1a(*d, &b.data);
                        out.block_sizes
                            .entry(b.source)
                            .or_default()
                            .push(b.data.len());
                        *out.totals.entry(b.source).or_insert(0) += b.data.len() as u64;
                    }
                    Ok(None) => break,
                    Err(e) => panic!("chaos reader must never fail here: {e}"),
                }
            }
            *seen2.lock().unwrap() = out;
        });
    match backend {
        Backend::InProc => launcher.run().unwrap(),
        Backend::Socket { sever_after_frames } => {
            let failures = match sever_after_frames {
                Some(k) => run_socket_threads_severed(launcher, 2, k),
                None => common::run_socket_threads(launcher, 2),
            };
            assert!(
                failures.is_empty(),
                "socket pipeline ranks failed: {failures:?}"
            );
        }
    }
    Arc::try_unwrap(seen).unwrap().into_inner().unwrap()
}

#[test]
fn pipeline_recovery_is_transparent_and_deterministic_under_every_plan() {
    let clean = run_pipeline(None);
    assert_eq!(clean.totals.len(), WRITERS);
    for w in 0..WRITERS {
        assert_eq!(clean.totals[&w], (BLOCK * BLOCKS_PER_WRITER) as u64);
    }

    for (name, plan) in plans() {
        let a = run_pipeline(Some(plan.clone()));
        let b = run_pipeline(Some(plan));
        // Same seed ⇒ identical delivery.
        assert_eq!(a, b, "plan {name}: same seed must replay identically");
        // A reliable transport ⇒ equal to the fault-free run, byte order
        // and block boundaries included.
        assert_eq!(a, clean, "plan {name}: faults must be transparent");
    }
}

#[test]
fn injected_faults_actually_fire() {
    // The transparency test would pass vacuously if the plans never hit;
    // prove the delay and slow-rank plans inject what they promise.
    for (name, plan, counter) in [
        ("delay", &plans()[0].1, "fault_delays_total"),
        ("slow-rank", &plans()[1].1, "fault_slow_hits_total"),
    ] {
        let before = obs_counter(counter);
        run_pipeline(Some(plan.clone()));
        assert!(
            obs_counter(counter) > before,
            "plan {name} over {} blocks must fire",
            WRITERS * BLOCKS_PER_WRITER
        );
    }
}

#[test]
fn socket_pipeline_is_transparent_under_link_severs() {
    // Link loss lives under the socket transport: sever the writers'
    // link once after k frames of the sweep, and the reconnect layer must
    // hand the reader exactly the bytes of the clean in-process run —
    // twice in a row per sever point.
    let inproc_clean = run_pipeline(None);
    let clean = run_pipeline_on(
        Backend::Socket {
            sever_after_frames: None,
        },
        None,
    );
    assert_eq!(clean, inproc_clean, "backends must deliver identical bytes");

    let mut retransmits = 0;
    for k in SEVER_SWEEP {
        let sock = Backend::Socket {
            sever_after_frames: Some(k),
        };
        let (a, moved) = LinkMoves::during(|| run_pipeline_on(sock, None));
        moved.assert_severed_and_reconnected(&format!("sever after {k}"));
        let b = run_pipeline_on(sock, None);
        assert_eq!(a, b, "sever after {k}: delivery must replay identically");
        assert_eq!(a, inproc_clean, "sever after {k}: loss must be invisible");
        retransmits += moved.retransmits;
    }
    assert!(
        retransmits > 0,
        "resuming mid-stream must retransmit the unacked suffix somewhere in the sweep"
    );
}

/// Per-kind profile row: (kind, hits, bytes).
type ProfileRow = (EventKind, u64, u64);
/// Topology edge row: ((src, dst), hits, bytes).
type EdgeRow = ((u32, u32), u64, u64);

/// Quickstart topology: the instrumented ring application streaming into
/// the analyzer partition, as in the README. Returns the
/// timing-independent report facts.
fn run_quickstart(
    plan: Option<FaultPlan>,
    coupling: Coupling,
) -> (u64, Vec<ProfileRow>, Vec<EdgeRow>) {
    const ROUNDS: usize = 30;
    const RANKS: usize = 4;
    let mut builder = Session::builder()
        .analyzer_ranks(2)
        .coupling(coupling)
        .stream_config(StreamConfig::new(1024, 3, Balance::RoundRobin))
        .app("ring", RANKS, move |imp| {
            let w = imp.comm_world();
            let (r, n) = (imp.rank(), imp.size());
            for i in 0..ROUNDS {
                let req = imp.isend(&w, (r + 1) % n, i as i32, vec![7u8; 64]).unwrap();
                imp.recv(&w, Src::Rank((r + n - 1) % n), TagSel::Tag(i as i32))
                    .unwrap();
                imp.wait(req).unwrap();
            }
            imp.barrier(&w).unwrap();
        });
    if let Some(p) = plan {
        builder = builder.fault_plan(p);
    }
    let outcome = builder.run().unwrap();
    report_facts(&outcome)
}

/// Timing-independent facts of the first application's report chapter.
fn report_facts(outcome: &opmr::core::SessionOutcome) -> (u64, Vec<ProfileRow>, Vec<EdgeRow>) {
    let app = &outcome.report.apps[0];
    let mut profile: Vec<ProfileRow> = app
        .profile
        .kinds()
        .iter()
        .map(|&k| {
            let s = app.profile.kind(k).unwrap();
            (k, s.hits, s.bytes)
        })
        .collect();
    profile.sort_by_key(|(k, ..)| *k as u32);
    let edges: Vec<EdgeRow> = app
        .topology
        .sorted_edges()
        .into_iter()
        .map(|((s, d), w)| ((s, d), w.hits, w.bytes))
        .collect();
    (app.events, profile, edges)
}

#[test]
fn quickstart_session_report_is_identical_under_faults() {
    let clean = run_quickstart(None, Coupling::Direct);
    assert!(clean.0 > 0, "ring app must produce events");
    for seed in [11u64, 12] {
        let plan = session_plan(seed);
        let faulted = run_quickstart(Some(plan.clone()), Coupling::Direct);
        assert_eq!(
            faulted, clean,
            "seed {seed}: analysis must not observe transport faults"
        );
        let again = run_quickstart(Some(plan), Coupling::Direct);
        assert_eq!(faulted, again, "seed {seed}: report must be reproducible");
    }
}

#[test]
fn tbon_session_report_is_identical_under_faults() {
    // The reduction overlay adds a second streaming hop (leaf → frontier
    // node → root); injected faults must stay transparent across both,
    // and the ρ=1 overlay itself must not change the report.
    let tbon = Coupling::Tbon { fanout: 2 };
    let clean = run_quickstart(None, Coupling::Direct);
    let tbon_clean = run_quickstart(None, tbon);
    assert_eq!(tbon_clean, clean, "ρ=1 overlay must be invisible");
    for seed in [21u64, 22] {
        let plan = session_plan(seed);
        let faulted = run_quickstart(Some(plan.clone()), tbon);
        assert_eq!(
            faulted, clean,
            "seed {seed}: overlay must not observe transport faults"
        );
        let again = run_quickstart(Some(plan), tbon);
        assert_eq!(faulted, again, "seed {seed}: overlay report must replay");
    }
}

#[test]
fn writer_crash_surfaces_peer_lost_and_survivors_drain() {
    // World layout: writers are ranks 0..2, reader is rank 2. Writer 1 is
    // killed by the fault layer after its third send; it observes its
    // fourth as RtError::Unreachable and aborts (the model of a process
    // dying without running its close protocol). The reader
    // must see exactly one typed PeerLost for rank 1, keep the survivor's
    // bytes intact and reach EOF — never hang.
    const CRASH_RANK: usize = 1;
    const AFTER_SENDS: u64 = 3;
    let lost = Arc::new(Mutex::new(Vec::<usize>::new()));
    let lost2 = Arc::clone(&lost);
    let survivor_bytes = Arc::new(Mutex::new(HashMap::<usize, u64>::new()));
    let sb2 = Arc::clone(&survivor_bytes);

    Launcher::new()
        .fault_plan(FaultPlan::seeded(707).with_crash(CRASH_RANK, AFTER_SENDS))
        .partition("w", 2, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::None);
            let mut st = WriteStream::open_to(&v, vec![2], cfg, 1).unwrap();
            for i in 0..BLOCKS_PER_WRITER {
                match st.write(&[v.rank() as u8; BLOCK]) {
                    Ok(()) => {}
                    Err(VmpiError::Runtime(RtError::Unreachable { .. })) => {
                        assert_eq!(
                            v.rank(),
                            CRASH_RANK,
                            "only the crashed writer loses its sends"
                        );
                        assert!(
                            i as u64 >= AFTER_SENDS,
                            "crash fires after {AFTER_SENDS} sends"
                        );
                        st.abort(); // die without the close protocol
                        return;
                    }
                    Err(e) => panic!("unexpected writer error: {e}"),
                }
            }
            assert_ne!(v.rank(), CRASH_RANK, "crashed writer cannot finish");
            st.close().unwrap();
        })
        .partition("r", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::RoundRobin)
                .with_read_timeout(Duration::from_secs(30));
            let mut st = ReadStream::open_from(&v, vec![0, 1], cfg, 1).unwrap();
            let mut bytes = HashMap::new();
            loop {
                match st.read(ReadMode::Blocking) {
                    Ok(Some(b)) => {
                        assert!(b.data.iter().all(|&x| x as usize == b.source));
                        *bytes.entry(b.source).or_insert(0u64) += b.data.len() as u64;
                    }
                    Ok(None) => break,
                    Err(VmpiError::PeerLost { rank }) => lost2.lock().unwrap().push(rank),
                    Err(e) => panic!("reader must fail typed, got: {e}"),
                }
            }
            *sb2.lock().unwrap() = bytes;
        })
        .run()
        .unwrap();

    let lost = lost.lock().unwrap();
    assert_eq!(&*lost, &[CRASH_RANK], "exactly one typed loss event");
    let bytes = survivor_bytes.lock().unwrap();
    assert_eq!(
        bytes.get(&0).copied(),
        Some((BLOCK * BLOCKS_PER_WRITER) as u64),
        "survivor stream intact"
    );
    // The crashed writer delivered its pre-crash sends and nothing after.
    let crashed = bytes.get(&CRASH_RANK).copied().unwrap_or(0);
    assert_eq!(
        crashed,
        AFTER_SENDS * BLOCK as u64,
        "pre-crash blocks arrive, post-crash blocks never do"
    );
}

/// One TBON chaos run: 3 leaves stream rank-tagged blocks through a
/// 3-node fanout-2 tree while the fault layer kills one leaf writer.
/// Returns (per-leaf blocks delivered at the root, per-node stats).
fn run_tbon_crash(seed: u64) -> (HashMap<u8, u64>, Vec<(usize, ReduceStats)>) {
    const LEAVES: usize = 3;
    const NODES: usize = 3;
    const CRASH_RANK: usize = 1; // leaves are world ranks 0..3
                                 // Every stream-plane send counts: the leaf's one map-pivot
                                 // registration, then three blocks, then the crash.
    const AFTER_SENDS: u64 = 4;
    const PER_LEAF: usize = 40;

    let delivered = Arc::new(Mutex::new(HashMap::<u8, u64>::new()));
    let delivered2 = Arc::clone(&delivered);
    let stats = Arc::new(Mutex::new(Vec::<(usize, ReduceStats)>::new()));
    let stats2 = Arc::clone(&stats);

    Launcher::new()
        .fault_plan(FaultPlan::seeded(seed).with_crash(CRASH_RANK, AFTER_SENDS))
        .partition("leaves", LEAVES, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let tree = Tree::new(2, NODES);
            let tree_pid = v.partition_by_name("Reduce").unwrap().id;
            let mut map = Map::new();
            map_partitions_directed(&v, tree_pid, tree_pid, tree.leaf_policy(), &mut map).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::None);
            let mut st = WriteStream::open_map(&v, &map, cfg, 1).unwrap();
            for _ in 0..PER_LEAF {
                match st.write(&[v.rank() as u8; BLOCK]) {
                    Ok(()) => {}
                    Err(VmpiError::Runtime(RtError::Unreachable { .. })) => {
                        assert_eq!(v.rank(), CRASH_RANK, "only the crashed leaf dies");
                        st.abort();
                        return;
                    }
                    Err(e) => panic!("unexpected leaf error: {e}"),
                }
            }
            assert_ne!(v.rank(), CRASH_RANK, "crashed leaf cannot finish");
            st.close().unwrap();
        })
        .partition("Reduce", NODES, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let tree = Tree::new(2, v.size());
            let mut map = Map::new();
            map_partitions_directed(&v, 0, v.partition_id(), tree.leaf_policy(), &mut map).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::RoundRobin)
                .with_read_timeout(Duration::from_secs(30));
            let del = Arc::clone(&delivered2);
            let outcome = run_node(
                &v,
                &tree,
                map.peers(),
                cfg,
                1,
                &NodeConfig::default(),
                |b| {
                    *del.lock().unwrap().entry(b[0]).or_insert(0) += 1;
                },
            )
            .unwrap();
            stats2.lock().unwrap().push((v.rank(), outcome.stats));
        })
        .run()
        .unwrap();

    let delivered = Arc::try_unwrap(delivered).unwrap().into_inner().unwrap();
    let mut stats = Arc::try_unwrap(stats).unwrap().into_inner().unwrap();
    stats.sort_by_key(|e| e.0);
    (delivered, stats)
}

#[test]
fn tbon_overlay_surfaces_writer_crash_as_peer_lost_at_internal_node() {
    // Leaf world rank 1 maps to frontier node 2 (round-robin over
    // frontier [1, 2]); the crash must surface as exactly one typed
    // PeerLost at that node's stats, survivors drain completely, and the
    // whole episode replays identically under the same seed.
    let (delivered, stats) = run_tbon_crash(808);

    assert_eq!(
        delivered.get(&0).copied(),
        Some(40),
        "survivor leaf 0 intact"
    );
    assert_eq!(
        delivered.get(&2).copied(),
        Some(40),
        "survivor leaf 2 intact"
    );
    assert_eq!(
        delivered.get(&1).copied().unwrap_or(0),
        3,
        "pre-crash blocks arrive, post-crash blocks never do"
    );

    assert_eq!(stats.len(), 3, "every tree node reports stats");
    let lost_per_node: Vec<u64> = stats.iter().map(|(_, s)| s.peers_lost).collect();
    assert_eq!(
        lost_per_node,
        vec![0, 0, 1],
        "the loss is typed and localized to the adopting frontier node"
    );
    // The overlay above the broken leaf keeps working: the root forwarded
    // everything that survived.
    let root = stats[0].1;
    assert_eq!(root.blocks_in, 83, "root sees 40 + 40 + 3 surviving blocks");
    assert_eq!(root.blocks_forwarded, root.blocks_in);

    // Crash recovery is part of the deterministic replay contract.
    let again = run_tbon_crash(808);
    assert_eq!(again.0, delivered);
    assert_eq!(again.1, stats);
}

#[test]
fn read_timeout_is_typed_not_a_hang() {
    // A reader whose writer is alive but silent must fail with Timeout
    // once its deadline passes (liveness floor for every chaos run).
    Launcher::new()
        .partition("w", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            // Open lazily so the reader is definitely waiting, then close
            // only after the reader has timed out once.
            let u = v.comm_universe();
            let mut st =
                WriteStream::open_to(&v, vec![1], StreamConfig::new(BLOCK, 3, Balance::None), 2)
                    .unwrap();
            v.mpi().recv(&u, Src::Rank(1), TagSel::Tag(42)).unwrap();
            st.write(&[9u8; BLOCK]).unwrap();
            st.close().unwrap();
        })
        .partition("r", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::None)
                .with_read_timeout(Duration::from_millis(50));
            let mut st = ReadStream::open_from(&v, vec![0], cfg, 2).unwrap();
            assert!(
                matches!(st.read(ReadMode::Blocking), Err(VmpiError::Timeout)),
                "silent writer must surface a typed timeout"
            );
            // Unblock the writer; the stream then drains normally.
            let u = v.comm_universe();
            v.mpi().send(&u, 0, 42, bytes::Bytes::new()).unwrap();
            let mut total = 0;
            loop {
                match st.read(ReadMode::Blocking) {
                    Ok(Some(b)) => total += b.data.len(),
                    Ok(None) => break,
                    Err(VmpiError::Timeout) => continue, // writer still waking
                    Err(e) => panic!("{e}"),
                }
            }
            assert_eq!(total, BLOCK);
        })
        .run()
        .unwrap();
}

// ---------------------------------------------------------------------
// Socket link chaos: every busy mesh link is severed once, at each point
// of the sever sweep; the reconnect layer (epoch handshake + ack/retransmit resume) must
// make the loss invisible to the session — the report digest stays
// byte-identical to the in-process run — while the obs counters prove
// the faults actually fired and were recovered.
// ---------------------------------------------------------------------

/// A session with two ring apps so that, under the derived 3-process
/// placement (analyzer on p0, apps round-robin on p1/p2), both
/// coordinator links carry enough event traffic — small blocks, many
/// frames — to cross every threshold of the sever sweep mid-stream.
fn link_chaos_session() -> opmr::core::SessionBuilder {
    let ring = |imp: &opmr::instrument::InstrumentedMpi| {
        let world = imp.comm_world();
        let (r, n) = (imp.rank(), imp.size());
        for round in 0..40 {
            let req = imp
                .isend(&world, (r + 1) % n, round, vec![r as u8; 512])
                .expect("isend");
            imp.recv(&world, Src::Rank((r + n - 1) % n), TagSel::Tag(round))
                .expect("recv");
            imp.wait(req).expect("wait");
        }
        imp.barrier(&world).expect("barrier");
    };
    Session::builder()
        .analyzer_ranks(2)
        .stream_config(StreamConfig::new(512, 3, Balance::RoundRobin))
        .app("ring_a", 4, ring)
        .app("ring_b", 4, ring)
}

/// One 3-process run of [`link_chaos_session`] with every link severed
/// once after `k` data frames.
fn link_chaos_run(k: u64) -> opmr::core::SessionOutcome {
    use opmr::runtime::{LinkFault, SocketConfig};
    const PROCS: usize = 3;
    let endpoint = common::fresh_unix_endpoint("link-chaos");
    let cfg = move |ep| {
        SocketConfig::new(ep)
            .connect_timeout(Duration::from_secs(20))
            .link_fault(LinkFault {
                sever_after_frames: k,
            })
    };
    let workers: Vec<_> = (1..PROCS)
        .map(|p| {
            let ep = endpoint.clone();
            std::thread::spawn(move || link_chaos_session().run_multiproc(cfg(ep), p, PROCS))
        })
        .collect();
    let sock = link_chaos_session()
        .run_multiproc(cfg(endpoint), 0, PROCS)
        .expect("chaos session, process 0");
    for w in workers {
        w.join().unwrap().expect("chaos session, worker");
    }
    sock
}

#[test]
fn socket_link_chaos_severs_every_busy_link_and_the_report_is_identical() {
    use opmr::analysis::report::stable_digest;

    let direct = link_chaos_session().run().expect("in-process session");
    let want = stable_digest(&direct.report);

    let mut retransmits = 0;
    for k in SEVER_SWEEP {
        let (sock, moved) = LinkMoves::during(|| link_chaos_run(k));
        // Transparency: the session layer never saw the link drops.
        assert_eq!(
            stable_digest(&sock.report),
            want,
            "sever after {k}: reconnect must be exactly-once, the report digest cannot move"
        );
        // Evidence: both busy coordinator links were severed once and
        // re-established.
        moved.assert_severed_and_reconnected(&format!("sever after {k}"));
        assert!(
            moved.severs >= 2,
            "sever after {k}: both app links must sever, saw {}",
            moved.severs
        );
        retransmits += moved.retransmits;
    }
    // Any one run may resume with nothing unacked (a sever that lands
    // right after an ack); the sweep as a whole must not.
    assert!(
        retransmits > 0,
        "resuming mid-stream must retransmit the unacked suffix somewhere in the sweep"
    );
}

/// What one serving chaos run observed.
struct ServingRun {
    facts: (u64, Vec<ProfileRow>, Vec<EdgeRow>),
    client_resyncs: u64,
}

/// Serving topology under chaos: the ring app streams into two analyzer
/// ranks over the fault-injected transport while a deliberately lagging
/// subscriber (tiny snapshot ring, one flow-control credit, slower than
/// the publication cadence) reads the store on its own rank. Convergence
/// is asserted inline: whatever mix of deltas and counted resyncs the
/// subscriber experienced, its folded report must end byte-identical to
/// the store's final snapshot.
fn run_serving(plan: Option<FaultPlan>) -> ServingRun {
    use opmr::serve::ServeConfig;
    const ROUNDS: i32 = 120;
    let serve = ServeConfig {
        publish_every_packs: 1,
        ring: 2,
        subscriber_credits: 1,
        ..ServeConfig::default()
    };
    // (resyncs seen, final report bytes, versions in arrival order)
    type ClientView = (u64, Vec<u8>, Vec<u64>);
    let observed: Arc<Mutex<ClientView>> = Arc::new(Mutex::new(Default::default()));
    let sink = Arc::clone(&observed);
    let mut builder = Session::builder()
        .analyzer_ranks(2)
        .coupling(Coupling::Serving)
        .serve_config(serve)
        .stream_config(StreamConfig::new(1024, 4, Balance::None))
        .app("ring", 4, move |imp| {
            let w = imp.comm_world();
            let (r, n) = (imp.rank(), imp.size());
            for i in 0..ROUNDS {
                let req = imp.isend(&w, (r + 1) % n, i, vec![5u8; 256]).unwrap();
                imp.recv(&w, Src::Rank((r + n - 1) % n), TagSel::Tag(i))
                    .unwrap();
                imp.wait(req).unwrap();
            }
            imp.barrier(&w).unwrap();
        })
        .client("laggard", 1, move |c| {
            c.subscribe().unwrap();
            let mut resyncs = 0u64;
            let mut versions = Vec::new();
            loop {
                let u = c.next_update().unwrap().expect("stream ended early");
                versions.push(u.version);
                if u.resync {
                    resyncs += 1;
                }
                if u.finished {
                    let held = c.report().expect("subscribed client holds a report");
                    *sink.lock().unwrap() = (resyncs, held.encoded.to_vec(), versions);
                    break;
                }
                // Slower than the publication cadence, so the two-deep
                // ring overtakes this subscriber and forces resyncs.
                std::thread::sleep(Duration::from_millis(4));
            }
        });
    if let Some(p) = plan {
        builder = builder.fault_plan(p);
    }
    let outcome = builder.run().unwrap();

    let store = outcome.snapshot_store.as_ref().expect("serving store");
    let (client_resyncs, final_bytes, versions) =
        Arc::try_unwrap(observed).unwrap().into_inner().unwrap();
    // Byte-identical convergence, faults or not.
    assert_eq!(
        final_bytes.as_slice(),
        store.current().unwrap().encoded.as_ref(),
        "subscriber did not converge on the server's final snapshot"
    );
    // Versions stay strictly monotone across delta advances and resync
    // jumps alike.
    assert!(!versions.is_empty());
    for w in versions.windows(2) {
        assert!(w[1] > w[0], "version went backwards: {} -> {}", w[0], w[1]);
    }
    let server_resyncs: u64 = outcome.serve_stats.iter().map(|(_, s)| s.resyncs).sum();
    assert_eq!(
        server_resyncs, client_resyncs,
        "every counted resync must reach the subscriber as a typed flag"
    );
    ServingRun {
        facts: report_facts(&outcome),
        client_resyncs,
    }
}

#[test]
fn serving_session_converges_byte_identically_under_faults() {
    let clean = run_serving(None);
    assert!(clean.facts.0 > 0, "ring app must produce events");
    let mut resyncs = clean.client_resyncs;

    for seed in [31u64, 32] {
        let plan = session_plan(seed);
        let faulted = run_serving(Some(plan.clone()));
        // The analysis result is untouched by injected faults.
        assert_eq!(
            faulted.facts, clean.facts,
            "seed {seed}: analysis must not observe serve-plane faults"
        );
        let again = run_serving(Some(plan));
        assert_eq!(
            again.facts, faulted.facts,
            "seed {seed}: report must be reproducible under replay"
        );
        resyncs += faulted.client_resyncs + again.client_resyncs;
    }

    // The laggard protocol actually degraded and recovered at least once
    // somewhere in the sweep (run_serving already asserted the per-run
    // client/server resync agreement). Any one run may see none: on a
    // starved box the publications come slower than the laggard sleeps.
    assert!(
        resyncs > 0,
        "laggard subscriber never exercised the resync path"
    );
}
