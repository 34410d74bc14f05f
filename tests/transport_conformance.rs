//! Backend-parameterized transport conformance suite.
//!
//! Every scenario here runs twice — once on the in-process backend
//! (`Launcher::run`) and once on the socket backend
//! (`Launcher::run_multiproc`, its "processes" hosted as threads of this
//! test process over a Unix-domain mesh) — with **identical assertions**.
//! The suite pins the delivery contract the [`opmr::runtime::Transport`]
//! trait promises, so a new backend is proven by adding one line to the
//! `conformance!` list, not by writing new tests:
//!
//! * envelope ordering: FIFO per `(source, tag)`, no overtaking;
//! * mailbox depth and back-pressure: eager sends complete immediately,
//!   over-limit sends block until the receiver posts (rendezvous);
//! * the stream open/close/EOF protocol end to end;
//! * a crashed writer surfaces as **exactly one** typed `PeerLost`;
//! * a seeded `FaultPlan` replays identically (and identically across
//!   backends — injection sits above the transport), and on the socket
//!   backend so does every point of the link-sever sweep: the link, the
//!   one reliability layer, hides the loss.
//!
//! One scenario runs the socket backend across two genuine OS processes
//! (the test binary re-executes itself) to prove the wire protocol does
//! not secretly rely on shared memory.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;
use common::{
    launched_worker, run_os_peers, run_socket_threads, run_socket_threads_severed, LinkMoves,
    SEVER_SWEEP,
};

use opmr::launch::JobSpec;

use opmr::runtime::{
    Endpoint, FaultPlan, Launcher, MultiprocTopology, RankFailure, RtError, SocketConfig, Src,
    TagSel,
};
use opmr::vmpi::{Balance, ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError, WriteStream};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which transport hosts the job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    InProc,
    /// Socket mesh over a Unix-domain endpoint, hosted as threads of this
    /// test process (each thread runs a full `run_multiproc`, exactly
    /// what an OS process would).
    Socket,
}

/// Runs the job on the requested backend; returns the failed ranks
/// (empty = clean run). Socket jobs get one "process" per partition so
/// every cross-partition edge crosses the wire.
fn run_job(backend: Backend, launcher: Launcher) -> Vec<RankFailure> {
    match backend {
        Backend::InProc => match launcher.run() {
            Ok(()) => Vec::new(),
            Err(e) => e.failures,
        },
        Backend::Socket => {
            let procs = launcher.partition_count().max(2);
            run_socket_threads(launcher, procs)
        }
    }
}

/// Generates an `inproc_*` and a `socket_*` test per scenario. The CI
/// backend matrix selects one half via `cargo test inproc_` / `socket_`.
macro_rules! conformance {
    ($($name:ident),* $(,)?) => {
        mod inproc {
            use super::*;
            $(#[test] fn $name() { super::$name(Backend::InProc); })*
        }
        mod socket {
            use super::*;
            $(#[test] fn $name() { super::$name(Backend::Socket); })*
        }
    };
}

conformance!(
    envelopes_are_fifo_per_source_and_tag,
    eager_sends_complete_without_a_receiver,
    rendezvous_blocks_until_the_receiver_posts,
    mailbox_absorbs_a_burst_deeper_than_the_eager_window,
    stream_open_close_eof_protocol,
    writer_crash_is_exactly_one_typed_peer_lost,
    seeded_fault_plan_replays_identically,
    large_payloads_cross_the_link_byte_for_byte,
);

/// FNV-1a over a byte stream: cheap, order-sensitive digest.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Scenario 1: envelope ordering.
// ---------------------------------------------------------------------

/// Three senders each interleave two tag lanes to one sink; the sink
/// drains each `(source, tag)` lane and must observe every lane's
/// sequence numbers strictly in send order (MPI non-overtaking).
fn envelopes_are_fifo_per_source_and_tag(backend: Backend) {
    const SENDERS: usize = 3;
    const PER_LANE: u32 = 50;
    let sink_rank = SENDERS; // world layout: senders 0..3, sink 3

    let launcher = Launcher::new()
        .partition("senders", SENDERS, move |mpi| {
            let w = mpi.world();
            for seq in 0..PER_LANE {
                for tag in [1i32, 2] {
                    let mut payload = seq.to_le_bytes().to_vec();
                    payload.push(tag as u8);
                    mpi.send(&w, sink_rank, tag, payload).unwrap();
                }
            }
        })
        .partition("sink", 1, move |mpi| {
            let w = mpi.world();
            // Drain lanes in a fixed interleaving so ordering bugs in
            // *either* lane of *either* source surface deterministically.
            for seq in 0..PER_LANE {
                for src in 0..SENDERS {
                    for tag in [1i32, 2] {
                        let (st, data) = mpi.recv(&w, Src::Rank(src), TagSel::Tag(tag)).unwrap();
                        assert_eq!(st.source, src);
                        assert_eq!(st.tag, tag);
                        let got = u32::from_le_bytes(data[0..4].try_into().unwrap());
                        assert_eq!(
                            got, seq,
                            "lane (src {src}, tag {tag}) overtook: got {got}, want {seq}"
                        );
                        assert_eq!(data[4], tag as u8);
                    }
                }
            }
        });
    assert!(run_job(backend, launcher).is_empty());
}

// ---------------------------------------------------------------------
// Scenario 2-4: mailbox depth and back-pressure.
// ---------------------------------------------------------------------

/// Small sends are eager: the send completes before any receive is
/// posted, on every backend.
fn eager_sends_complete_without_a_receiver(backend: Backend) {
    let launcher = Launcher::new()
        .partition("a", 1, |mpi| {
            let w = mpi.world();
            let mut req = mpi.isend(&w, 1, 5, vec![1u8; 128]).unwrap();
            assert!(
                req.is_complete(),
                "a 128-byte send is below the eager limit and must not wait"
            );
            req.wait().unwrap();
            mpi.barrier(&w).unwrap();
        })
        .partition("b", 1, |mpi| {
            let w = mpi.world();
            // Receive only after the barrier proves the send completed.
            mpi.barrier(&w).unwrap();
            let (_, data) = mpi.recv(&w, Src::Rank(0), TagSel::Tag(5)).unwrap();
            assert_eq!(data.len(), 128);
        });
    assert!(run_job(backend, launcher).is_empty());
}

/// Over-limit sends use the rendezvous protocol: the sender observes real
/// back-pressure until the receiver posts. Sender and receiver share a
/// partition, so the pair is colocated on every backend — rendezvous is a
/// *local* contract (remote edges turn socket flow control into the
/// back-pressure instead).
fn rendezvous_blocks_until_the_receiver_posts(backend: Backend) {
    const BIG: usize = 256 * 1024; // default eager limit is 64 KiB
    let launcher = Launcher::new()
        .partition("pair", 2, move |mpi| {
            let w = mpi.world();
            if mpi.world_rank() == 0 {
                let mut req = mpi.isend(&w, 1, 9, vec![0xAB; BIG]).unwrap();
                // The receiver sleeps before posting; a completed request
                // here would mean the backend broke the rendezvous gate.
                std::thread::sleep(Duration::from_millis(30));
                assert!(
                    !req.is_complete(),
                    "an over-limit send completed with no receiver posted"
                );
                req.wait().unwrap();
            } else {
                std::thread::sleep(Duration::from_millis(60));
                let (_, data) = mpi.recv(&w, Src::Rank(0), TagSel::Tag(9)).unwrap();
                assert_eq!(data.len(), BIG);
                assert!(data.iter().all(|&b| b == 0xAB));
            }
        })
        // Second partition so the socket run still spans two processes.
        .partition("bystander", 1, |_mpi| {});
    assert!(run_job(backend, launcher).is_empty());
}

/// A sink that never yields mid-burst still absorbs hundreds of eager
/// envelopes: mailbox depth is bounded by memory, not by a window, and
/// delivery never silently drops under burst pressure.
fn mailbox_absorbs_a_burst_deeper_than_the_eager_window(backend: Backend) {
    const BURST: u32 = 400;
    let launcher = Launcher::new()
        .partition("blaster", 1, move |mpi| {
            let w = mpi.world();
            for seq in 0..BURST {
                mpi.send(&w, 1, 3, seq.to_le_bytes().to_vec()).unwrap();
            }
            // Only now allow the sink to start draining.
            mpi.send(&w, 1, 4, vec![]).unwrap();
        })
        .partition("sink", 1, move |mpi| {
            let w = mpi.world();
            // Wait for the burst to be fully sent before touching tag 3:
            // everything below sat queued in the mailbox.
            mpi.recv(&w, Src::Rank(0), TagSel::Tag(4)).unwrap();
            for seq in 0..BURST {
                let (_, data) = mpi.recv(&w, Src::Rank(0), TagSel::Tag(3)).unwrap();
                assert_eq!(u32::from_le_bytes(data[..].try_into().unwrap()), seq);
            }
        });
    assert!(run_job(backend, launcher).is_empty());
}

// ---------------------------------------------------------------------
// Scenario 5: stream open / close / EOF.
// ---------------------------------------------------------------------

/// The vmpi stream protocol — open handshake, data blocks, close, reader
/// EOF — end to end across partitions (and therefore across the wire on
/// the socket backend).
fn stream_open_close_eof_protocol(backend: Backend) {
    const BLOCK: usize = 64;
    const BLOCKS: usize = 100;
    let seen = Arc::new(Mutex::new((0u64, 0usize))); // (digest, blocks)
    let seen2 = Arc::clone(&seen);

    let launcher = Launcher::new()
        .partition("writer", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::None)
                .with_read_timeout(Duration::from_secs(20));
            let mut st = WriteStream::open_to(&v, vec![1], cfg, 1).unwrap();
            for i in 0..BLOCKS {
                let block: Vec<u8> = (0..BLOCK).map(|j| (i + j) as u8).collect();
                st.write(&block).unwrap();
            }
            st.close().unwrap();
        })
        .partition("reader", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::None)
                .with_read_timeout(Duration::from_secs(20));
            let mut st = ReadStream::open_from(&v, vec![0], cfg, 1).unwrap();
            let mut digest = 0u64;
            let mut blocks = 0usize;
            loop {
                match st.read(ReadMode::Blocking) {
                    Ok(Some(b)) => {
                        digest = fnv1a(digest, &b.data);
                        blocks += 1;
                    }
                    Ok(None) => break, // EOF: close protocol completed
                    Err(e) => panic!("clean stream must not fail: {e}"),
                }
            }
            *seen2.lock().unwrap() = (digest, blocks);
        });
    assert!(run_job(backend, launcher).is_empty());

    let (digest, blocks) = *seen.lock().unwrap();
    assert_eq!(blocks, BLOCKS, "every block arrives before EOF");
    // The expected digest, computed independently of any transport.
    let mut want = 0u64;
    for i in 0..BLOCKS {
        let block: Vec<u8> = (0..BLOCK).map(|j| (i + j) as u8).collect();
        want = fnv1a(want, &block);
    }
    assert_eq!(digest, want, "stream bytes must survive the wire intact");
}

// ---------------------------------------------------------------------
// Scenario 6: writer crash → exactly one typed PeerLost.
// ---------------------------------------------------------------------

/// The fault layer kills one of two writers mid-stream. The reader (a
/// different partition — a different process on the socket backend) must
/// observe **exactly one** `VmpiError::PeerLost` naming the crashed rank,
/// keep the survivor's bytes intact, and reach EOF without hanging.
fn writer_crash_is_exactly_one_typed_peer_lost(backend: Backend) {
    const BLOCK: usize = 64;
    const BLOCKS: usize = 120;
    const CRASH_RANK: usize = 1;
    const AFTER_SENDS: u64 = 3;
    let lost = Arc::new(Mutex::new(Vec::<usize>::new()));
    let lost2 = Arc::clone(&lost);
    let survivor = Arc::new(Mutex::new(HashMap::<usize, u64>::new()));
    let survivor2 = Arc::clone(&survivor);

    let launcher = Launcher::new()
        .fault_plan(FaultPlan::seeded(707).with_crash(CRASH_RANK, AFTER_SENDS))
        .partition("w", 2, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::None);
            let mut st = WriteStream::open_to(&v, vec![2], cfg, 1).unwrap();
            for i in 0..BLOCKS {
                match st.write(&[v.rank() as u8; BLOCK]) {
                    Ok(()) => {}
                    Err(VmpiError::Runtime(RtError::Unreachable { .. })) => {
                        assert_eq!(v.rank(), CRASH_RANK);
                        assert!(i as u64 >= AFTER_SENDS);
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
            *survivor2.lock().unwrap() = bytes;
        });
    assert!(run_job(backend, launcher).is_empty());

    assert_eq!(
        &*lost.lock().unwrap(),
        &[CRASH_RANK],
        "exactly one typed loss event, naming the crashed rank"
    );
    let bytes = survivor.lock().unwrap();
    assert_eq!(bytes.get(&0).copied(), Some((BLOCK * BLOCKS) as u64));
    assert_eq!(
        bytes.get(&CRASH_RANK).copied().unwrap_or(0),
        AFTER_SENDS * BLOCK as u64,
        "pre-crash blocks arrive, post-crash blocks never do"
    );
}

// ---------------------------------------------------------------------
// Scenario 7: seeded fault determinism.
// ---------------------------------------------------------------------

/// The seeded plan of scenario 7: delays and a slow writer.
fn scenario_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_delay(0.12, Duration::from_micros(100))
        .with_slow_rank(1, Duration::from_micros(50))
}

/// One seeded pipeline run: returns the reader's order-sensitive digest
/// per writer. On the socket backend `sever` cuts the writers' link once
/// after that many frames.
fn pipeline_digest(
    backend: Backend,
    plan: Option<FaultPlan>,
    sever: Option<u64>,
) -> HashMap<usize, u64> {
    const BLOCK: usize = 64;
    const BLOCKS: usize = 150;
    const WRITERS: usize = 2;
    let seen = Arc::new(Mutex::new(HashMap::new()));
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
            for i in 0..BLOCKS {
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
            let mut digests: HashMap<usize, u64> = HashMap::new();
            loop {
                match st.read(ReadMode::Blocking) {
                    Ok(Some(b)) => {
                        let d = digests.entry(b.source).or_insert(0);
                        *d = fnv1a(*d, &b.data);
                    }
                    Ok(None) => break,
                    Err(e) => panic!("faulted pipeline must not fail: {e}"),
                }
            }
            *seen2.lock().unwrap() = digests;
        });
    let failures = match (backend, sever) {
        (Backend::Socket, Some(k)) => run_socket_threads_severed(launcher, 2, k),
        _ => run_job(backend, launcher),
    };
    assert!(failures.is_empty(), "{failures:?}");
    Arc::try_unwrap(seen).unwrap().into_inner().unwrap()
}

/// The same seed must replay the exact same delivery — the fault schedule
/// lives above the transport and draws from per-edge sequence counters —
/// and, the transport being reliable, equal the clean in-process run. On
/// the socket backend every sever point of the sweep must do the same.
fn seeded_fault_plan_replays_identically(backend: Backend) {
    let clean = pipeline_digest(Backend::InProc, None, None);
    assert_eq!(clean.len(), 2);
    assert!(clean.values().all(|&d| d != 0));
    let a = pipeline_digest(backend, Some(scenario_plan(4242)), None);
    let b = pipeline_digest(backend, Some(scenario_plan(4242)), None);
    assert_eq!(a, b, "same seed, same backend: delivery must be identical");
    assert_eq!(a, clean, "seeded faults must be invisible in the bytes");
    if backend == Backend::Socket {
        for k in SEVER_SWEEP {
            let (a, moved) = LinkMoves::during(|| pipeline_digest(backend, None, Some(k)));
            moved.assert_severed_and_reconnected(&format!("sever after {k}"));
            let b = pipeline_digest(backend, None, Some(k));
            assert_eq!(a, b, "sever after {k}: delivery must replay identically");
            assert_eq!(a, clean, "sever after {k}: link loss must be invisible");
        }
    }
}

/// Stronger than per-backend determinism: the *transports themselves*
/// must not perturb the fault schedule, so the digest matches across
/// backends too.
#[test]
fn seeded_fault_schedule_matches_across_backends() {
    let inproc = pipeline_digest(Backend::InProc, Some(scenario_plan(9001)), None);
    let socket = pipeline_digest(Backend::Socket, Some(scenario_plan(9001)), None);
    assert_eq!(
        inproc, socket,
        "fault injection must sit above the transport: same seed, same bytes"
    );
}

// ---------------------------------------------------------------------
// Scenario 8: large payloads.
// ---------------------------------------------------------------------

/// Byte `j` of message `i`: runs of 96 equal bytes, so every message
/// differs.
fn codec_payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| ((i * 7 + j / 96) & 0xFF) as u8).collect()
}

/// Cross-partition exchange of large payloads; the receiver verifies
/// every byte, so a link that corrupts data fails loudly on any backend.
fn codec_exchange_job(msgs: usize, len: usize) -> Launcher {
    Launcher::new()
        .partition("tx", 1, move |mpi| {
            let w = mpi.world();
            for i in 0..msgs {
                mpi.send(&w, 1, 11, codec_payload(i, len)).unwrap();
            }
        })
        .partition("rx", 1, move |mpi| {
            let w = mpi.world();
            for i in 0..msgs {
                let (_, data) = mpi.recv(&w, Src::Rank(0), TagSel::Tag(11)).unwrap();
                assert_eq!(data[..], codec_payload(i, len), "message {i} corrupted");
            }
        })
}

/// 16 KiB envelopes cross the link exactly as they were encoded: the
/// link moves bytes, and every payload byte arrives intact.
fn large_payloads_cross_the_link_byte_for_byte(backend: Backend) {
    let failures = run_job(backend, codec_exchange_job(24, 16 * 1024));
    assert!(failures.is_empty(), "{failures:?}");
}

// ---------------------------------------------------------------------
// Genuine multi-process: the socket backend across two OS processes.
// ---------------------------------------------------------------------

/// Deterministic cross-partition workload whose result both processes can
/// verify independently: partition "left" streams a seeded pattern to
/// partition "right"; "right" answers with the digest over point-to-point
/// and "left" checks it against its own computation.
fn two_proc_job() -> Launcher {
    const BLOCK: usize = 96;
    const BLOCKS: usize = 80;
    Launcher::new()
        .partition("left", 1, move |mpi| {
            let want = {
                let mut h = 0u64;
                for i in 0..BLOCKS {
                    let block: Vec<u8> = (0..BLOCK).map(|j| (i * 31 + j) as u8).collect();
                    h = fnv1a(h, &block);
                }
                h
            };
            let w = mpi.world();
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::None)
                .with_read_timeout(Duration::from_secs(20));
            let mut st = WriteStream::open_to(&v, vec![1], cfg, 7).unwrap();
            for i in 0..BLOCKS {
                let block: Vec<u8> = (0..BLOCK).map(|j| (i * 31 + j) as u8).collect();
                st.write(&block).unwrap();
            }
            st.close().unwrap();
            let (_, echoed) = v.mpi().recv(&w, Src::Rank(1), TagSel::Tag(99)).unwrap();
            let got = u64::from_le_bytes(echoed[..8].try_into().unwrap());
            assert_eq!(got, want, "peer's digest of the streamed bytes diverged");
        })
        .partition("right", 1, move |mpi| {
            let w = mpi.world();
            let v = Vmpi::new(mpi).unwrap();
            let cfg = StreamConfig::new(BLOCK, 3, Balance::None)
                .with_read_timeout(Duration::from_secs(20));
            let mut st = ReadStream::open_from(&v, vec![0], cfg, 7).unwrap();
            let mut h = 0u64;
            loop {
                match st.read(ReadMode::Blocking) {
                    Ok(Some(b)) => h = fnv1a(h, &b.data),
                    Ok(None) => break,
                    Err(e) => panic!("stream failed across processes: {e}"),
                }
            }
            v.mpi().send(&w, 0, 99, h.to_le_bytes().to_vec()).unwrap();
        })
}

/// Process 1 of the job above, started as a copy of this test binary by
/// the launch plane. Inert in a normal test run.
#[test]
fn socket_two_os_process_worker() {
    let Some((env, _hb)) = launched_worker() else {
        return;
    };
    let topo = MultiprocTopology::new(env.socket_config().unwrap(), env.proc_index, env.num_procs)
        .placement(vec![0, 1]);
    two_proc_job().run_multiproc(topo).unwrap();
}

/// The acceptance scenario: one partition per OS process, connected only
/// by the socket mesh. Both sides independently verify the payload
/// digest; the parent additionally requires a clean child exit.
#[test]
fn socket_spans_two_os_processes() {
    let (local, job) = run_os_peers(
        &JobSpec::new(2),
        |p| (p != 0).then_some("socket_two_os_process_worker"),
        |cfg| {
            let topo = MultiprocTopology::new(cfg, 0, 2).placement(vec![0, 1]);
            two_proc_job().run_multiproc(topo)
        },
    );
    local.unwrap();
    let job = job.unwrap();
    assert!(job.success(), "worker process failed: {:?}", job.outcomes);
}

/// Every link is `Connecting` until its own stream is up. A rank whose
/// first remote send targets a non-coordinator peer that has not even
/// started blocks on that link, then delivers everything in order.
#[test]
fn socket_first_send_on_a_pairwise_link_waits_for_it_then_delivers_in_order() {
    const MSGS: u8 = 50;
    let first_sent = Arc::new(Mutex::new(None::<Instant>));
    let sent = Arc::clone(&first_sent);
    let launcher = Launcher::new()
        .partition("idle", 1, |_| {})
        .partition("recv", 1, |mpi| {
            let w = mpi.world();
            for i in 0..MSGS {
                let (_, d) = mpi.recv(&w, Src::Rank(2), TagSel::Tag(5)).unwrap();
                assert_eq!(d, vec![i], "in order");
            }
        })
        .partition("send", 1, move |mpi| {
            let w = mpi.world();
            for i in 0..MSGS {
                mpi.send(&w, 1, 5, vec![i]).unwrap();
                if i == 0 {
                    *sent.lock().unwrap() = Some(Instant::now());
                }
            }
        });
    let endpoint = common::fresh_unix_endpoint("late-peer");
    let spawn_proc = |p: usize| {
        let l = launcher.clone();
        let cfg = SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_secs(20));
        let topo = MultiprocTopology::new(cfg, p, 3).placement(vec![0, 1, 2]);
        std::thread::spawn(move || l.run_multiproc(topo))
    };
    let (coord, sender) = (spawn_proc(0), spawn_proc(2));
    std::thread::sleep(Duration::from_millis(300));
    let receiver_started = Instant::now();
    let receiver = spawn_proc(1);
    for h in [coord, sender, receiver] {
        h.join().unwrap().expect("process finishes its job");
    }
    let first = first_sent.lock().unwrap().expect("the sender ran");
    assert!(
        first >= receiver_started,
        "the first send completed before its peer process existed"
    );
}

/// A clean teardown takes the `ProcDone` exchange, not the drain bound.
/// Two processes whose ranks end together (a barrier the thread-hosted
/// processes share) finalize at the same time, so each writes its
/// `ProcDone` before it reads the peer's and finishes only on the peer's
/// ack of its own: each of a few sessions must return well inside a long
/// `connect_timeout`.
#[test]
fn socket_clean_teardown_returns_well_inside_the_connect_timeout() {
    for session in 0..40 {
        let together = Arc::new(std::sync::Barrier::new(2));
        let ended = Arc::new(Mutex::new(Vec::<Instant>::new()));
        let job = |peer: usize| {
            let (together, ended) = (Arc::clone(&together), Arc::clone(&ended));
            move |mpi: opmr::runtime::Mpi| {
                let w = mpi.world();
                mpi.send(&w, peer, 3, vec![1]).unwrap();
                mpi.recv(&w, Src::Rank(peer), TagSel::Tag(3)).unwrap();
                together.wait();
                ended.lock().unwrap().push(Instant::now());
            }
        };
        let launcher = Launcher::new()
            .partition("a", 1, job(1))
            .partition("b", 1, job(0));
        let endpoint = common::fresh_unix_endpoint("teardown");
        let handles: Vec<_> = (0..2)
            .map(|p| {
                let l = launcher.clone();
                let cfg =
                    SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_secs(20));
                let topo = MultiprocTopology::new(cfg, p, 2).placement(vec![0, 1]);
                std::thread::spawn(move || l.run_multiproc(topo).map(|()| Instant::now()))
            })
            .collect();
        let returned: Vec<Instant> = handles
            .into_iter()
            .map(|h| h.join().unwrap().expect("a clean run"))
            .collect();
        let last_rank = *ended.lock().unwrap().iter().max().expect("both ranks ran");
        let teardown = *returned.iter().max().unwrap() - last_rank;
        assert!(
            teardown < Duration::from_secs(2),
            "session {session}: teardown took {teardown:?} of a 20 s connect_timeout"
        );
    }
}

/// The TCP flavor of the endpoint, over loopback, with the same job the
/// Unix-domain scenarios use — proving `Endpoint::Tcp` is not a stub.
#[test]
fn socket_tcp_endpoint_smoke() {
    // Reserve an ephemeral port, then hand the freed address to the mesh.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let endpoint = Endpoint::Tcp(addr);
    let launcher = two_proc_job();
    let mut handles = Vec::new();
    for p in 0..2 {
        let l = launcher.clone();
        let cfg = SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_secs(20));
        let topo = MultiprocTopology::new(cfg, p, 2).placement(vec![0, 1]);
        handles.push(std::thread::spawn(move || l.run_multiproc(topo)));
    }
    for h in handles {
        h.join().unwrap().unwrap();
    }
}
