//! Socket backend negative paths: every way the mesh can fail to
//! assemble or a peer can die mid-job must surface as a **typed**
//! [`SocketError`] / [`VmpiError`] — never a panic — and tick the
//! matching `transport_socket_*` observability counter.
//!
//! Counters are process-global, and test binaries run their tests
//! concurrently, so every assertion is a before/after delta (`>=`), not
//! an absolute value.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

mod common;
use common::{fresh_unix_endpoint, launched_worker, run_os_peers, run_socket_threads};

use opmr::launch::JobSpec;
use opmr::runtime::{
    Endpoint, FailureKind, Launcher, MultiprocError, MultiprocTopology, RtError, SocketConfig,
    SocketError, Src, TagSel,
};
use opmr::vmpi::{Balance, ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError, WriteStream};
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn counter(name: &str) -> u64 {
    opmr::obs::registry().snapshot().counter(name).unwrap_or(0)
}

/// Minimal two-partition job: one message across the partition (and thus
/// process) boundary, verified at the receiver.
fn tiny_job() -> Launcher {
    Launcher::new()
        .partition("a", 1, |mpi| {
            let w = mpi.world();
            mpi.send(&w, 1, 7, vec![1, 2, 3]).unwrap();
        })
        .partition("b", 1, |mpi| {
            let w = mpi.world();
            let (_, d) = mpi.recv(&w, Src::Rank(0), TagSel::Tag(7)).unwrap();
            assert_eq!(d, vec![1, 2, 3]);
        })
}

// ---------------------------------------------------------------------
// Nobody is listening: the dialer times out with a typed error.
// ---------------------------------------------------------------------
#[test]
fn dialing_an_unbound_endpoint_is_a_typed_connect_timeout() {
    let before = counter("transport_socket_connect_timeouts_total");
    let cfg = SocketConfig::new(fresh_unix_endpoint("unbound"))
        .connect_timeout(Duration::from_millis(200));
    let topo = MultiprocTopology::new(cfg, 1, 2).placement(vec![0, 1]);
    let err = tiny_job()
        .run_multiproc(topo)
        .expect_err("no coordinator exists");
    match err {
        MultiprocError::Socket(SocketError::ConnectTimeout { waited_ms, .. }) => {
            assert!(
                waited_ms >= 200,
                "reports how long it waited: {waited_ms}ms"
            );
        }
        other => panic!("expected ConnectTimeout, got: {other}"),
    }
    assert!(
        counter("transport_socket_connect_timeouts_total") > before,
        "the timeout must be counted"
    );
}

// ---------------------------------------------------------------------
// A peer never shows up: the coordinator times out with a typed error
// naming how many peers are missing.
// ---------------------------------------------------------------------
#[test]
fn missing_peer_is_a_typed_accept_timeout() {
    let before = counter("transport_socket_connect_timeouts_total");
    let cfg = SocketConfig::new(fresh_unix_endpoint("lonely"))
        .connect_timeout(Duration::from_millis(200));
    let topo = MultiprocTopology::new(cfg, 0, 2).placement(vec![0, 1]);
    let err = tiny_job()
        .run_multiproc(topo)
        .expect_err("process 1 never dials in");
    match err {
        MultiprocError::Socket(SocketError::AcceptTimeout { missing, .. }) => {
            assert_eq!(missing, 1, "exactly one peer is missing");
        }
        other => panic!("expected AcceptTimeout, got: {other}"),
    }
    assert!(
        counter("transport_socket_connect_timeouts_total") > before,
        "the timeout must be counted"
    );
}

// ---------------------------------------------------------------------
// A rogue connection spews garbage before any handshake: the coordinator
// rejects it (counted), keeps accepting, and the real job completes.
// ---------------------------------------------------------------------
#[test]
fn garbage_before_handshake_is_rejected_and_the_job_completes() {
    let before = counter("transport_socket_handshake_rejected_total");
    let endpoint = fresh_unix_endpoint("rogue");
    let Endpoint::Unix(path) = endpoint.clone() else {
        unreachable!()
    };
    let launcher = tiny_job();

    let spawn_proc = |p: usize| {
        let l = launcher.clone();
        let cfg = SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_secs(20));
        let topo = MultiprocTopology::new(cfg, p, 2).placement(vec![0, 1]);
        std::thread::spawn(move || l.run_multiproc(topo))
    };

    // Coordinator first, so the rogue connection is the first accepted.
    let coord = spawn_proc(0);
    let mut rogue = connect_retrying(&path);
    // A hostile length header (u32::MAX): instantly unframeable, so the
    // coordinator rejects the connection before reading a payload.
    rogue
        .write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0])
        .unwrap();
    rogue.flush().unwrap();

    // Only now let the honest peer dial in.
    let peer = spawn_proc(1);
    coord
        .join()
        .unwrap()
        .expect("coordinator survives the rogue");
    peer.join().unwrap().expect("peer survives the rogue");
    drop(rogue);

    assert!(
        counter("transport_socket_handshake_rejected_total") > before,
        "the rejected rogue must be counted"
    );
}

// ---------------------------------------------------------------------
// The same at a non-coordinator's listener, while the pairwise links are
// still coming up: its acceptor rejects and counts the rogue, then admits
// the real peer's first connection.
// ---------------------------------------------------------------------
#[test]
fn garbage_at_a_peer_listener_during_setup_is_rejected_and_the_job_completes() {
    let before = counter("transport_socket_handshake_rejected_total");
    let endpoint = fresh_unix_endpoint("rogue-peer");
    let Endpoint::Unix(path) = endpoint.clone() else {
        unreachable!()
    };
    // p2 sends to p1 over the one pairwise link of a three-process job.
    let launcher = Launcher::new()
        .partition("idle", 1, |_| {})
        .partition("b", 1, |mpi| {
            let w = mpi.world();
            let (_, d) = mpi.recv(&w, Src::Rank(2), TagSel::Tag(7)).unwrap();
            assert_eq!(d, vec![4, 5, 6]);
        })
        .partition("c", 1, |mpi| {
            let w = mpi.world();
            mpi.send(&w, 1, 7, vec![4, 5, 6]).unwrap();
        });
    let spawn_proc = |p: usize| {
        let l = launcher.clone();
        let cfg = SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_secs(20));
        let topo = MultiprocTopology::new(cfg, p, 3).placement(vec![0, 1, 2]);
        std::thread::spawn(move || l.run_multiproc(topo))
    };
    let coord = spawn_proc(0);
    let peer = spawn_proc(1);
    // p1's listener is bound before its hello; the rogue queues there
    // ahead of p2, which has not even started.
    let mut rogue = connect_retrying(&path.with_extension("sock.p1"));
    rogue
        .write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0])
        .unwrap();
    rogue.flush().unwrap();
    let late = spawn_proc(2);
    assert!(
        read_to_close(&mut rogue).is_empty(),
        "a rejected presentation is answered by closing the connection"
    );
    for h in [coord, peer, late] {
        h.join().unwrap().expect("every process survives the rogue");
    }
    assert!(
        counter("transport_socket_handshake_rejected_total") > before,
        "the rejected rogue must be counted"
    );
}

// ---------------------------------------------------------------------
// A pairwise link that never comes up fails set-up on both of its sides
// with the same typed errors as before: the dialer's `ConnectTimeout`,
// the acceptor's `AcceptTimeout`, reported ahead of the rank failures
// they cause (the sender blocked on the link is released, not hung).
// ---------------------------------------------------------------------
#[test]
fn pairwise_link_not_up_in_time_is_a_typed_failure_on_both_sides() {
    let endpoint = fresh_unix_endpoint("no-pairwise");
    let Endpoint::Unix(path) = endpoint.clone() else {
        unreachable!()
    };
    let launcher = Launcher::new()
        .partition("idle", 1, |_| {})
        .partition("b", 1, |mpi| {
            let w = mpi.world();
            let _ = mpi.recv(&w, Src::Rank(2), TagSel::Tag(7));
        })
        .partition("c", 1, |mpi| {
            let w = mpi.world();
            mpi.send(&w, 1, 7, vec![1]).unwrap();
        });
    let spawn_proc = |p: usize| {
        let l = launcher.clone();
        let cfg = SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_millis(1500));
        let topo = MultiprocTopology::new(cfg, p, 3).placement(vec![0, 1, 2]);
        std::thread::spawn(move || l.run_multiproc(topo))
    };
    let coord = spawn_proc(0);
    let acceptor = spawn_proc(1);
    // Unlink p1's bound listener before p2 learns its address: p2's
    // presentations find nothing to dial.
    let p1_listener = path.with_extension("sock.p1");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !p1_listener.exists() {
        assert!(Instant::now() < deadline, "p1 never bound its listener");
        std::thread::sleep(Duration::from_millis(2));
    }
    std::fs::remove_file(&p1_listener).unwrap();
    let dialer = spawn_proc(2);
    match dialer.join().unwrap() {
        Err(MultiprocError::Socket(SocketError::ConnectTimeout { addr, .. })) => {
            assert!(addr.ends_with(".p1"), "names the peer it dialed: {addr}")
        }
        other => panic!("expected the dialer's ConnectTimeout, got: {other:?}"),
    }
    match acceptor.join().unwrap() {
        Err(MultiprocError::Socket(SocketError::AcceptTimeout { missing, .. })) => {
            assert_eq!(missing, 1, "exactly the one pairwise link is missing")
        }
        other => panic!("expected the acceptor's AcceptTimeout, got: {other:?}"),
    }
    // The coordinator's own links did come up; its peers then vanished.
    let _ = coord.join().unwrap();
}

// ---------------------------------------------------------------------
// An envelope too large for one link frame is a typed error at the
// sender, before anything is buffered: the link stays up and the next
// message arrives.
// ---------------------------------------------------------------------
#[test]
fn oversize_send_is_a_typed_error_and_the_link_stays_up() {
    let launcher = Launcher::new()
        .partition("a", 1, |mpi| {
            let w = mpi.world();
            // Zeroed and never written: the pages are not resident.
            let huge = vec![0u8; opmr::events::MAX_FRAME_LEN];
            match mpi.send(&w, 1, 6, huge) {
                Err(RtError::TooLarge { len, max }) => {
                    assert_eq!(len, opmr::events::MAX_FRAME_LEN);
                    assert!(max < len, "the limit leaves room for the header: {max}");
                }
                other => panic!("expected a typed TooLarge, got {other:?}"),
            }
            mpi.send(&w, 1, 7, vec![1, 2, 3]).unwrap();
        })
        .partition("b", 1, |mpi| {
            let w = mpi.world();
            let (_, d) = mpi.recv(&w, Src::Rank(0), TagSel::Any).unwrap();
            assert_eq!(d, vec![1, 2, 3], "the small message is the first to arrive");
        });
    let lost = counter("transport_socket_peer_disconnects_total");
    let failures = run_socket_threads(launcher, 2);
    assert!(failures.is_empty(), "{failures:?}");
    assert_eq!(
        counter("transport_socket_peer_disconnects_total"),
        lost,
        "no link was lost"
    );
}

// ---------------------------------------------------------------------
// The processes disagree about the topology: a typed handshake failure
// on both sides, no partial mesh.
// ---------------------------------------------------------------------
#[test]
fn topology_mismatch_is_a_typed_handshake_failure_on_both_sides() {
    let before = counter("transport_socket_handshake_rejected_total");
    let endpoint = fresh_unix_endpoint("mismatch");
    // Three partitions placed [0,0,1] by one process and [0,1,0] by the
    // other: different rank→process maps, and therefore different
    // topology hashes in the Hello exchange.
    let launcher = Launcher::new()
        .partition("p0", 1, |_| {})
        .partition("p1", 1, |_| {})
        .partition("p2", 1, |_| {});
    let mut handles = Vec::new();
    for (p, placement) in [(0, vec![0, 0, 1]), (1, vec![0, 1, 0])] {
        let l = launcher.clone();
        let cfg = SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_millis(1500));
        let topo = MultiprocTopology::new(cfg, p, 2).placement(placement);
        handles.push(std::thread::spawn(move || l.run_multiproc(topo)));
    }
    for h in handles {
        let err = h.join().unwrap().expect_err("the mesh must not assemble");
        match err {
            // The coordinator rejects the mismatched Hello and then times
            // out waiting for a valid one; the dialer observes its
            // connection die mid-handshake. Both are typed socket errors.
            MultiprocError::Socket(
                SocketError::AcceptTimeout { .. } | SocketError::Handshake { .. },
            ) => {}
            other => panic!("expected a typed socket error, got: {other}"),
        }
    }
    assert!(
        counter("transport_socket_handshake_rejected_total") > before,
        "the mismatched Hello must be counted as rejected"
    );
}

// ---------------------------------------------------------------------
// A peer process dies mid-stream: the survivor sees exactly one typed
// PeerLost, counts the disconnect, and its job still terminates.
// ---------------------------------------------------------------------

const DISCONNECT_BLOCK: usize = 64;
const DISCONNECT_BLOCKS_SENT: usize = 3;

/// Reader in process 0, writer in process 1 (round-robin assignment).
/// The writer pushes three blocks and then dies without any close
/// protocol — modelled with `std::process::abort` in a real child OS
/// process below.
fn disconnect_job(observed: Arc<Mutex<(usize, Vec<usize>)>>) -> Launcher {
    let cfg = || {
        StreamConfig::new(DISCONNECT_BLOCK, 3, Balance::None)
            .with_read_timeout(Duration::from_secs(20))
    };
    Launcher::new()
        .partition("r", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![1], cfg(), 5).unwrap();
            let mut blocks = 0usize;
            let mut lost = Vec::new();
            loop {
                match st.read(ReadMode::Blocking) {
                    Ok(Some(b)) => {
                        assert!(b.data.iter().all(|&x| x == 0x5A));
                        blocks += 1;
                    }
                    Ok(None) => break,
                    Err(VmpiError::PeerLost { rank }) => {
                        lost.push(rank);
                        break;
                    }
                    Err(e) => panic!("survivor must fail typed, got: {e}"),
                }
            }
            *observed.lock().unwrap() = (blocks, lost);
        })
        .partition("w", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![0], cfg(), 5).unwrap();
            for _ in 0..DISCONNECT_BLOCKS_SENT {
                st.write(&[0x5A; DISCONNECT_BLOCK]).unwrap();
            }
            // Die like a crashed process: no close protocol, no teardown.
            std::process::abort();
        })
}

/// The writer process, started as a copy of this test binary by the
/// launch plane; it aborts mid-stream. Inert in a normal test run.
#[test]
fn midstream_disconnect_worker() {
    let Some((env, _hb)) = launched_worker() else {
        return;
    };
    let topo = MultiprocTopology::new(env.socket_config().unwrap(), env.proc_index, env.num_procs)
        .placement(vec![0, 1]);
    let sink = Arc::new(Mutex::new((0, Vec::new())));
    // The writer aborts the whole process, so this never returns.
    let _ = disconnect_job(sink).run_multiproc(topo);
    unreachable!("the worker process must have aborted");
}

#[test]
fn midstream_peer_death_is_one_typed_peer_lost_and_counted() {
    let before = counter("transport_socket_peer_disconnects_total");
    let observed = Arc::new(Mutex::new((0usize, Vec::new())));
    let (local, job) = run_os_peers(
        &JobSpec::new(2),
        |p| (p == 1).then_some("midstream_disconnect_worker"),
        |cfg| {
            let topo = MultiprocTopology::new(cfg, 0, 2).placement(vec![0, 1]);
            disconnect_job(Arc::clone(&observed)).run_multiproc(topo)
        },
    );

    let job = job.expect("worker launches");
    assert_eq!(
        job.outcomes[0].kind,
        Some(FailureKind::Panicked),
        "the worker must have died by abort: {:?}",
        job.outcomes
    );
    local.expect("the surviving process finishes its job cleanly");
    let (blocks, lost) = std::mem::take(&mut *observed.lock().unwrap());
    assert_eq!(
        blocks, DISCONNECT_BLOCKS_SENT,
        "bytes already on the wire are delivered before the loss"
    );
    assert_eq!(lost, vec![1], "exactly one typed loss, naming the writer");
    assert!(
        counter("transport_socket_peer_disconnects_total") > before,
        "the disconnect must be counted"
    );
}

// ---------------------------------------------------------------------
// An invalid socket configuration is rejected with a typed error before
// any I/O happens — no bind, no dial, no partial mesh.
// ---------------------------------------------------------------------
#[test]
fn invalid_socket_config_is_a_typed_error_before_any_io() {
    let bad_cases = vec![
        SocketConfig::new(fresh_unix_endpoint("badcfg")).connect_timeout(Duration::ZERO),
        SocketConfig::new(fresh_unix_endpoint("badcfg")).connect_timeout(Duration::from_secs(7200)),
    ];
    for cfg in bad_cases {
        let topo = MultiprocTopology::new(cfg, 0, 2).placement(vec![0, 1]);
        match tiny_job().run_multiproc(topo) {
            Err(MultiprocError::Socket(SocketError::InvalidConfig { what })) => {
                assert!(!what.is_empty(), "the defect is named");
            }
            other => panic!("expected a typed InvalidConfig, got: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Retry-budget exhaustion: the *coordinator* process dies mid-stream, so
// the surviving higher-indexed process redials it — every attempt is
// refused, the budget runs out, and the survivor sees exactly one typed
// PeerLost. The reconnect counters prove the dialer actually tried.
// ---------------------------------------------------------------------

/// Reader survives in process 1; the writer (process 0, the coordinator)
/// aborts after three blocks. Mirrors `disconnect_job` with the roles
/// swapped across the process boundary so the *dialer* side of the
/// reconnect protocol is the survivor.
fn coordinator_death_job(observed: Arc<Mutex<(usize, Vec<usize>)>>) -> Launcher {
    let cfg = || {
        StreamConfig::new(DISCONNECT_BLOCK, 3, Balance::None)
            .with_read_timeout(Duration::from_secs(20))
    };
    Launcher::new()
        .partition("w", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], cfg(), 5).unwrap();
            for _ in 0..DISCONNECT_BLOCKS_SENT {
                st.write(&[0x5A; DISCONNECT_BLOCK]).unwrap();
            }
            std::process::abort();
        })
        .partition("r", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], cfg(), 5).unwrap();
            let mut blocks = 0usize;
            let mut lost = Vec::new();
            loop {
                match st.read(ReadMode::Blocking) {
                    Ok(Some(b)) => {
                        assert!(b.data.iter().all(|&x| x == 0x5A));
                        blocks += 1;
                    }
                    Ok(None) => break,
                    Err(VmpiError::PeerLost { rank }) => {
                        lost.push(rank);
                        break;
                    }
                    Err(e) => panic!("survivor must fail typed, got: {e}"),
                }
            }
            *observed.lock().unwrap() = (blocks, lost);
        })
}

/// The aborting coordinator, started as a copy of this binary by the
/// launch plane. Inert in a normal test run.
#[test]
fn budget_exhaustion_worker() {
    let Some((env, _hb)) = launched_worker() else {
        return;
    };
    let topo = MultiprocTopology::new(env.socket_config().unwrap(), env.proc_index, env.num_procs)
        .placement(vec![0, 1]);
    let sink = Arc::new(Mutex::new((0, Vec::new())));
    // The writer aborts the whole process, so this never returns.
    let _ = coordinator_death_job(sink).run_multiproc(topo);
    unreachable!("the worker process must have aborted");
}

#[test]
fn retry_budget_exhaustion_is_one_typed_peer_lost_and_counted() {
    let attempts0 = counter("transport_socket_reconnect_attempts_total");
    let exhausted0 = counter("transport_socket_reconnect_exhausted_total");
    let observed = Arc::new(Mutex::new((0usize, Vec::new())));
    // This process hosts p1, the survivor; the launched p0 dies.
    let (local, job) = run_os_peers(
        &JobSpec::new(2),
        |p| (p == 0).then_some("budget_exhaustion_worker"),
        |cfg| {
            let topo = MultiprocTopology::new(cfg, 1, 2).placement(vec![0, 1]);
            coordinator_death_job(Arc::clone(&observed)).run_multiproc(topo)
        },
    );

    let job = job.expect("worker launches");
    assert_eq!(
        job.outcomes[0].kind,
        Some(FailureKind::Panicked),
        "the coordinator must have died by abort: {:?}",
        job.outcomes
    );
    local.expect("the surviving process finishes its job cleanly");
    let (blocks, lost) = std::mem::take(&mut *observed.lock().unwrap());
    assert_eq!(
        blocks, DISCONNECT_BLOCKS_SENT,
        "bytes already on the wire are delivered before the loss"
    );
    assert_eq!(lost, vec![0], "exactly one typed loss, naming the writer");
    let attempts = counter("transport_socket_reconnect_attempts_total") - attempts0;
    assert!(
        attempts >= 3,
        "the dialer must spend its whole retry budget, attempted {attempts}"
    );
    assert!(
        counter("transport_socket_reconnect_exhausted_total") > exhausted0,
        "running out of budget must be counted"
    );
}

// ---------------------------------------------------------------------
// A stale-epoch redial — a connection presenting a reconnect frame from
// some other (or long-dead) session — is answered with a typed NAK and
// counted, and the real job is unaffected.
// ---------------------------------------------------------------------
#[test]
fn stale_epoch_redial_is_nakked_typed_and_counted() {
    use std::io::Read as _;
    let before = counter("transport_socket_reconnect_stale_epoch_total");
    let endpoint = fresh_unix_endpoint("stale");
    let Endpoint::Unix(path) = endpoint.clone() else {
        unreachable!()
    };
    // Partition bodies idle long enough for the rogue to hit the
    // coordinator's retained (post-handshake) listener mid-job.
    let launcher = Launcher::new()
        .partition("a", 1, |mpi| {
            std::thread::sleep(Duration::from_millis(700));
            let w = mpi.world();
            mpi.send(&w, 1, 7, vec![1, 2, 3]).unwrap();
        })
        .partition("b", 1, |mpi| {
            let w = mpi.world();
            let (_, d) = mpi.recv(&w, Src::Rank(0), TagSel::Tag(7)).unwrap();
            assert_eq!(d, vec![1, 2, 3]);
        });
    let spawn_proc = |p: usize| {
        let l = launcher.clone();
        let cfg = SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_secs(20));
        let topo = MultiprocTopology::new(cfg, p, 2).placement(vec![0, 1]);
        std::thread::spawn(move || l.run_multiproc(topo))
    };
    let coord = spawn_proc(0);
    let peer = spawn_proc(1);

    // Give the handshake time to finish so the acceptor (not the mesh
    // assembly) owns the listener, then present a reconnect frame wired
    // for a bogus session epoch: kind, magic, version, proc=1, epoch,
    // rx_seq — exactly the layout a genuine redial uses.
    std::thread::sleep(Duration::from_millis(300));
    let mut rogue = UnixStream::connect(&path).expect("coordinator listener is retained");
    let mut reconn = Vec::with_capacity(23);
    reconn.push(8u8); // K_RECONN
    reconn.extend_from_slice(&0x4F50_4D52u32.to_le_bytes()); // MAGIC "OPMR"
    reconn.extend_from_slice(&5u16.to_le_bytes()); // VERSION
    reconn.extend_from_slice(&1u16.to_le_bytes()); // claims to be process 1
    reconn.extend_from_slice(&0xDEAD_BEEF_DEAD_BEEFu64.to_le_bytes()); // stale epoch
    reconn.extend_from_slice(&0u64.to_le_bytes()); // rx_seq
    rogue
        .write_all(&opmr::events::frame(&reconn))
        .expect("send stale reconn");
    rogue.flush().unwrap();

    // The reply is a framed `[K_RECONN_NAK, NAK_STALE_EPOCH]`.
    rogue
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reply = Vec::new();
    let mut buf = [0u8; 64];
    loop {
        match rogue.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    assert!(
        reply.len() >= 10,
        "expected a framed NAK reply, got {} bytes",
        reply.len()
    );
    let payload = &reply[8..]; // [len u32][crc u32] framing header
    assert_eq!(payload[0], 10, "reply kind must be K_RECONN_NAK");
    assert_eq!(payload[1], 1, "reason must be NAK_STALE_EPOCH");

    // The real job is untouched by the rogue.
    coord.join().unwrap().expect("coordinator finishes its job");
    peer.join().unwrap().expect("peer finishes its job");
    assert!(
        counter("transport_socket_reconnect_stale_epoch_total") > before,
        "the stale-epoch rejection must be counted"
    );
}

// ---------------------------------------------------------------------
// A hello or reconnect frame of a retired protocol version (2, 3 with its
// codec byte, or 4, whose pairwise links said hello), and a truncated
// roster, are typed, counted rejections.
// ---------------------------------------------------------------------

/// `[kind][magic "OPMR"][version u16][proc u16]` — the shared head of a
/// hello and a reconnect frame.
fn handshake_head(kind: u8, version: u16, proc: u16) -> Vec<u8> {
    let mut out = vec![kind];
    out.extend_from_slice(&0x4F50_4D52u32.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&proc.to_le_bytes());
    out
}

fn connect_retrying(path: &std::path::Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("could not reach the listener: {e}"),
        }
    }
}

/// Reads until the peer closes (or five seconds pass).
fn read_to_close(s: &mut UnixStream) -> Vec<u8> {
    use std::io::Read as _;
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut got = Vec::new();
    let mut buf = [0u8; 64];
    while let Ok(n @ 1..) = s.read(&mut buf) {
        got.extend_from_slice(&buf[..n]);
    }
    got
}

#[test]
fn v2_and_v3_hellos_and_reconnects_are_rejected_and_counted() {
    let endpoint = fresh_unix_endpoint("retired");
    let Endpoint::Unix(path) = endpoint.clone() else {
        unreachable!()
    };
    let launcher = Launcher::new()
        .partition("a", 1, |mpi| {
            std::thread::sleep(Duration::from_millis(700));
            let w = mpi.world();
            mpi.send(&w, 1, 7, vec![1, 2, 3]).unwrap();
        })
        .partition("b", 1, |mpi| {
            let w = mpi.world();
            let (_, d) = mpi.recv(&w, Src::Rank(0), TagSel::Tag(7)).unwrap();
            assert_eq!(d, vec![1, 2, 3]);
        });
    let spawn_proc = |p: usize| {
        let l = launcher.clone();
        let cfg = SocketConfig::new(endpoint.clone()).connect_timeout(Duration::from_secs(20));
        let topo = MultiprocTopology::new(cfg, p, 2).placement(vec![0, 1]);
        std::thread::spawn(move || l.run_multiproc(topo))
    };

    // A version-2 hello (the address follows the hash), a version-3 hello
    // (a codec byte before the address) and a version-4 hello (today's
    // layout) are the first connections the coordinator accepts.
    let coord = spawn_proc(0);
    for version in [2, 3, 4] {
        let before = counter("transport_socket_handshake_rejected_total");
        let mut rogue = connect_retrying(&path);
        let mut hello = handshake_head(1, version, 1); // K_HELLO
        hello.extend_from_slice(&0u64.to_le_bytes()); // topology hash
        if version == 3 {
            hello.push(0); // codec byte
        }
        hello.extend_from_slice(b"unix:/tmp/legacy");
        rogue.write_all(&opmr::events::frame(&hello)).unwrap();
        assert!(
            read_to_close(&mut rogue).is_empty(),
            "a rejected hello is answered by closing the connection"
        );
        assert!(
            counter("transport_socket_handshake_rejected_total") > before,
            "the version-{version} hello must be counted as rejected"
        );
    }

    // The honest peer joins; mid-job, reconnect frames of every retired
    // version reach the retained listener. Each is dropped before the
    // epoch is even looked at: no NAK, one more rejection.
    let peer = spawn_proc(1);
    std::thread::sleep(Duration::from_millis(300));
    for version in [2, 3, 4] {
        let before = counter("transport_socket_handshake_rejected_total");
        let mut rogue = connect_retrying(&path);
        let mut reconn = handshake_head(8, version, 1); // K_RECONN
        reconn.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes()); // epoch
        reconn.extend_from_slice(&0u64.to_le_bytes()); // rx_seq
        rogue.write_all(&opmr::events::frame(&reconn)).unwrap();
        assert!(
            read_to_close(&mut rogue).is_empty(),
            "a version-{version} reconnect gets no NAK, only a closed connection"
        );
        assert!(
            counter("transport_socket_handshake_rejected_total") > before,
            "the version-{version} reconnect must be counted as rejected"
        );
    }

    coord.join().unwrap().expect("coordinator finishes its job");
    peer.join().unwrap().expect("peer finishes its job");
}

#[test]
fn truncated_roster_is_a_typed_handshake_failure() {
    use std::os::unix::net::UnixListener;
    let before = counter("transport_socket_handshake_rejected_total");
    let endpoint = fresh_unix_endpoint("cut-roster");
    let Endpoint::Unix(path) = endpoint.clone() else {
        unreachable!()
    };
    // A stand-in coordinator: accept the dialer, swallow its hello, answer
    // with a roster cut inside its second entry.
    let listener = UnixListener::bind(&path).unwrap();
    let coordinator = std::thread::spawn(move || {
        use std::io::Read as _;
        let (mut s, _) = listener.accept().unwrap();
        let mut hello = [0u8; 25]; // frame header + the fixed part of a hello
        s.read_exact(&mut hello).unwrap();
        let mut roster = vec![6u8]; // K_ROSTER
        roster.extend_from_slice(&77u64.to_le_bytes()); // epoch
        roster.extend_from_slice(&2u16.to_le_bytes());
        for addr in ["", "unix:/tmp/p1"] {
            roster.extend_from_slice(&(addr.len() as u16).to_le_bytes());
            roster.extend_from_slice(addr.as_bytes());
        }
        roster.truncate(roster.len() - 4);
        s.write_all(&opmr::events::frame(&roster)).unwrap();
        read_to_close(&mut s);
    });
    let cfg = SocketConfig::new(endpoint).connect_timeout(Duration::from_secs(5));
    let topo = MultiprocTopology::new(cfg, 1, 2).placement(vec![0, 1]);
    match tiny_job().run_multiproc(topo) {
        Err(MultiprocError::Socket(SocketError::Handshake { what, .. })) => {
            assert!(what.contains("invalid roster"), "{what}")
        }
        other => panic!("expected a typed handshake failure, got: {other:?}"),
    }
    coordinator.join().unwrap();
    assert!(
        counter("transport_socket_handshake_rejected_total") > before,
        "the truncated roster must be counted as rejected"
    );
}
