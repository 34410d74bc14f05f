//! End-to-end instrumentation tests: instrumented ranks stream event packs
//! that an analyzer partition decodes and checks against ground truth.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_events::{EventKind, EventPack, PackEncoding, EVENT_WIRE_SIZE, PACK_HEADER_SIZE};
use opmr_instrument::InstrumentedMpi;
use opmr_runtime::{Launcher, Src, TagSel};
use opmr_vmpi::map::map_partitions;
use opmr_vmpi::{Balance, Map, MapPolicy, ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn cfg() -> StreamConfig {
    StreamConfig::new(4096, 3, Balance::RoundRobin)
}

/// Analyzer partition body: drain every mapped stream, decode packs.
fn analyzer_collect(mpi: opmr_runtime::Mpi, sink: Arc<Mutex<Vec<EventPack>>>) {
    let v = Vmpi::new(mpi).unwrap();
    let mut map = Map::new();
    for pid in 0..v.partition_count() {
        if pid != v.partition_id() {
            map_partitions(&v, pid, MapPolicy::RoundRobin, &mut map).unwrap();
        }
    }
    if map.is_empty() {
        return;
    }
    let mut st = ReadStream::open_map(&v, &map, cfg(), 0).unwrap();
    while let Some(block) = st.read(ReadMode::Blocking).unwrap() {
        let pack = EventPack::decode(&block.data).expect("block is one pack");
        sink.lock().unwrap().push(pack);
    }
}

#[test]
fn events_arrive_with_correct_shape() {
    let packs = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&packs);
    Launcher::new()
        .partition("app", 2, |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", cfg(), 0, 0).unwrap();
            let w = imp.comm_world();
            if imp.rank() == 0 {
                imp.send(&w, 1, 42, &[1u8, 2, 3][..]).unwrap();
            } else {
                let (st, data) = imp.recv(&w, Src::Any, TagSel::Any).unwrap();
                assert_eq!(st.tag, 42);
                assert_eq!(data.len(), 3);
            }
            imp.barrier(&w).unwrap();
            imp.finalize().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            analyzer_collect(mpi, Arc::clone(&p2))
        })
        .run()
        .unwrap();

    let packs = packs.lock().unwrap();
    let all: Vec<_> = packs
        .iter()
        .flat_map(|p| p.events.iter().copied())
        .collect();
    // Per rank: Init, one p2p op, Barrier, Finalize.
    let sends: Vec<_> = all.iter().filter(|e| e.kind == EventKind::Send).collect();
    let recvs: Vec<_> = all.iter().filter(|e| e.kind == EventKind::Recv).collect();
    assert_eq!(sends.len(), 1);
    assert_eq!(recvs.len(), 1);
    assert_eq!(sends[0].peer, 1);
    assert_eq!(sends[0].bytes, 3);
    assert_eq!(sends[0].tag, 42);
    assert_eq!(recvs[0].peer, 0);
    assert_eq!(recvs[0].bytes, 3);
    assert_eq!(all.iter().filter(|e| e.kind == EventKind::Init).count(), 2);
    assert_eq!(
        all.iter().filter(|e| e.kind == EventKind::Finalize).count(),
        2
    );
    assert_eq!(
        all.iter().filter(|e| e.kind == EventKind::Barrier).count(),
        2
    );
    // Pack metadata: app 0, ranks 0 and 1.
    for p in packs.iter() {
        assert_eq!(p.header.app_id, 0);
        assert!(p.header.rank < 2);
        assert_eq!(p.header.count as usize, p.events.len());
    }
}

#[test]
fn event_counts_scale_with_activity() {
    let packs = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&packs);
    const ROUNDS: usize = 200;
    Launcher::new()
        .partition("app", 4, |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", cfg(), 0, 3).unwrap();
            let w = imp.comm_world();
            let r = imp.rank();
            let n = imp.size();
            for i in 0..ROUNDS {
                let dst = (r + 1) % n;
                let src = (r + n - 1) % n;
                let sreq = imp.isend(&w, dst, i as i32, vec![0u8; 64]).unwrap();
                let (_st, _d) = imp.recv(&w, Src::Rank(src), TagSel::Tag(i as i32)).unwrap();
                imp.wait(sreq).unwrap();
            }
            imp.finalize().unwrap();
        })
        .partition("Analyzer", 2, move |mpi| {
            analyzer_collect(mpi, Arc::clone(&p2))
        })
        .run()
        .unwrap();

    let packs = packs.lock().unwrap();
    let all: Vec<_> = packs
        .iter()
        .flat_map(|p| p.events.iter().copied())
        .collect();
    assert_eq!(
        all.iter().filter(|e| e.kind == EventKind::Isend).count(),
        4 * ROUNDS
    );
    assert_eq!(
        all.iter().filter(|e| e.kind == EventKind::Recv).count(),
        4 * ROUNDS
    );
    assert_eq!(
        all.iter().filter(|e| e.kind == EventKind::Wait).count(),
        4 * ROUNDS
    );
    // Sequence numbers per producer are gapless.
    for rank in 0..4u32 {
        let mut seqs: Vec<u32> = packs
            .iter()
            .filter(|p| p.header.rank == rank)
            .map(|p| p.header.seq)
            .collect();
        seqs.sort_unstable();
        let expect: Vec<u32> = (0..seqs.len() as u32).collect();
        assert_eq!(seqs, expect, "rank {rank} pack sequence");
    }
    // Timestamps are monotone per rank within packs of one producer.
    for rank in 0..4u32 {
        let mut last = 0u64;
        let mut seq_packs: Vec<_> = packs.iter().filter(|p| p.header.rank == rank).collect();
        seq_packs.sort_by_key(|p| p.header.seq);
        for p in seq_packs {
            for e in &p.events {
                assert!(e.time_ns >= last, "time went backwards on rank {rank}");
                last = e.time_ns;
            }
        }
    }
}

#[test]
fn hooks_observe_every_event() {
    let seen = Arc::new(AtomicUsize::new(0));
    let seen2 = Arc::clone(&seen);
    let packs = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&packs);
    Launcher::new()
        .partition("app", 1, move |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", cfg(), 0, 0).unwrap();
            let s = Arc::clone(&seen2);
            imp.add_hook(move |_e| {
                s.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
            let w = imp.comm_world();
            imp.barrier(&w).unwrap();
            imp.marker(7).unwrap();
            imp.compute(std::time::Duration::from_micros(100)).unwrap();
            imp.finalize().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            analyzer_collect(mpi, Arc::clone(&p2))
        })
        .run()
        .unwrap();
    // Hook added after Init: sees Barrier, Marker, Compute, Finalize.
    assert_eq!(seen.load(Ordering::SeqCst), 4);
}

#[test]
fn a_handle_is_send() {
    // One rank, one thread: the handle may move to its rank's thread (it is
    // `Send`); that it is not `Sync` is the `compile_fail` doctest on the type.
    fn assert_send<T: Send>() {}
    assert_send::<InstrumentedMpi>();
}

thread_local! {
    /// The rank's handle, where a hook can reach it: the only way a
    /// `Send + 'static` hook gets at the handle that runs it.
    static HANDLE: RefCell<Option<InstrumentedMpi>> = const { RefCell::new(None) };
}

#[test]
fn a_hook_reentering_its_handle_gets_typed_results_not_a_panic() {
    static SEEN: Mutex<Vec<Result<(), VmpiError>>> = Mutex::new(Vec::new());
    let packs = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&packs);
    Launcher::new()
        .partition("app", 1, |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", cfg(), 0, 0).unwrap();
            imp.add_hook(|e| {
                if e.kind == EventKind::Marker && e.tag == 1 {
                    HANDLE.with(|h| {
                        let h = h.borrow();
                        let imp = h.as_ref().unwrap();
                        let mut seen = SEEN.lock().unwrap();
                        // Registering a hook while hooks run is refused...
                        seen.push(imp.add_hook(|_| {}));
                        // ...recording is not: no borrow of the recorder is
                        // held while a hook runs.
                        seen.push(imp.marker(2));
                    });
                }
            })
            .unwrap();
            HANDLE.with(|h| *h.borrow_mut() = Some(imp));
            HANDLE.with(|h| {
                let h = h.borrow();
                let imp = h.as_ref().unwrap();
                imp.marker(1).unwrap();
                imp.finalize().unwrap();
            });
            HANDLE.with(|h| h.borrow_mut().take());
        })
        .partition("Analyzer", 1, move |mpi| {
            analyzer_collect(mpi, Arc::clone(&p2))
        })
        .run()
        .unwrap();
    assert_eq!(
        *SEEN.lock().unwrap(),
        [Err(VmpiError::Reentered("running hooks")), Ok(())]
    );
    let markers: Vec<i32> = packs
        .lock()
        .unwrap()
        .iter()
        .flat_map(|p| &p.events)
        .filter(|e| e.kind == EventKind::Marker)
        .map(|e| e.tag)
        .collect();
    // The hook's marker is recorded inside the call that ran the hook.
    assert_eq!(markers, [2, 1]);
}

#[test]
fn collectives_and_posix_recorded() {
    let packs = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&packs);
    Launcher::new()
        .partition("app", 3, |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", cfg(), 0, 0).unwrap();
            let w = imp.comm_world();
            let data = if imp.rank() == 1 {
                Some(bytes::Bytes::from(vec![5u8; 100]))
            } else {
                None
            };
            let got = imp.bcast(&w, 1, data).unwrap();
            assert_eq!(got.len(), 100);
            let s = imp.allreduce_sum(&w, &[imp.rank() as u64]).unwrap();
            assert_eq!(s, vec![3]);
            imp.posix(
                EventKind::PosixWrite,
                4096,
                std::time::Duration::from_micros(10),
            )
            .unwrap();
            imp.finalize().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            analyzer_collect(mpi, Arc::clone(&p2))
        })
        .run()
        .unwrap();
    let packs = packs.lock().unwrap();
    let all: Vec<_> = packs
        .iter()
        .flat_map(|p| p.events.iter().copied())
        .collect();
    let bcasts: Vec<_> = all.iter().filter(|e| e.kind == EventKind::Bcast).collect();
    assert_eq!(bcasts.len(), 3);
    assert!(bcasts.iter().all(|e| e.peer == 1 && e.bytes == 100));
    assert_eq!(
        all.iter()
            .filter(|e| e.kind == EventKind::Allreduce)
            .count(),
        3
    );
    let writes: Vec<_> = all
        .iter()
        .filter(|e| e.kind == EventKind::PosixWrite)
        .collect();
    assert_eq!(writes.len(), 3);
    assert!(writes.iter().all(|e| e.bytes == 4096));
}

#[test]
fn posix_with_a_non_posix_kind_is_a_typed_error_and_records_nothing() {
    let packs = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&packs);
    Launcher::new()
        .partition("app", 1, |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", cfg(), 0, 0).unwrap();
            let d = std::time::Duration::from_micros(1);
            assert_eq!(
                imp.posix(EventKind::Send, 8, d),
                Err(VmpiError::InvalidConfig("posix() takes a POSIX event kind"))
            );
            // The rank carries on.
            imp.posix(EventKind::PosixRead, 8, d).unwrap();
            imp.finalize().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            analyzer_collect(mpi, Arc::clone(&p2))
        })
        .run()
        .unwrap();
    let kinds: Vec<EventKind> = packs
        .lock()
        .unwrap()
        .iter()
        .flat_map(|p| p.events.iter().map(|e| e.kind))
        .collect();
    assert_eq!(
        kinds,
        [EventKind::Init, EventKind::PosixRead, EventKind::Finalize]
    );
}

#[test]
fn a_ranks_event_timestamps_never_decrease() {
    let packs = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&packs);
    Launcher::new()
        .partition("app", 2, |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", cfg(), 0, 0).unwrap();
            for i in 0..20_000 {
                match i % 3 {
                    0 => imp.marker(i).unwrap(),
                    1 => imp.compute(std::time::Duration::ZERO).unwrap(),
                    _ => imp
                        .posix(EventKind::PosixWrite, 64, std::time::Duration::ZERO)
                        .unwrap(),
                }
            }
            imp.finalize().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            analyzer_collect(mpi, Arc::clone(&p2))
        })
        .run()
        .unwrap();
    let mut packs = packs.lock().unwrap();
    packs.sort_by_key(|p| (p.header.rank, p.header.seq));
    let mut last = [0u64; 2];
    let mut seen = [0usize; 2];
    for e in packs.iter().flat_map(|p| &p.events) {
        let r = e.rank as usize;
        assert!(
            e.time_ns >= last[r],
            "rank {r}: {} after {}",
            e.time_ns,
            last[r]
        );
        last[r] = e.time_ns;
        seen[r] += 1;
    }
    assert_eq!(seen, [20_002; 2]);
}

#[test]
fn finalize_twice_errors() {
    Launcher::new()
        .partition("app", 1, |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", cfg(), 0, 0).unwrap();
            imp.finalize().unwrap();
            assert!(imp.finalize().is_err());
            assert!(imp.marker(0).is_err());
        })
        .partition("Analyzer", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            map_partitions(&v, 0, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = ReadStream::open_map(&v, &map, cfg(), 0).unwrap();
            while st.read(ReadMode::Blocking).unwrap().is_some() {}
        })
        .run()
        .unwrap();
}

#[test]
fn packs_split_exactly_at_capacity() {
    // Block size chosen so each pack holds exactly 4 events:
    // header (24) + 4 × 48 = 216 ≤ block < 264.
    let small = StreamConfig::new(230, 3, Balance::RoundRobin);
    let packs = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&packs);
    Launcher::new()
        .partition("app", 1, move |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", small, 0, 0).unwrap();
            // Init + 9 markers + Finalize = 11 events → packs of 4/4/3.
            for i in 0..9 {
                imp.marker(i).unwrap();
            }
            imp.finalize().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            map_partitions(&v, 0, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = ReadStream::open_map(&v, &map, small, 0).unwrap();
            while let Some(block) = st.read(ReadMode::Blocking).unwrap() {
                p2.lock()
                    .unwrap()
                    .push(EventPack::decode(&block.data).unwrap());
            }
        })
        .run()
        .unwrap();
    let mut packs = packs.lock().unwrap().clone();
    packs.sort_by_key(|p| p.header.seq);
    let counts: Vec<usize> = packs.iter().map(|p| p.events.len()).collect();
    assert_eq!(counts, vec![4, 4, 3]);
    assert_eq!(
        EventPack::capacity_for_block(230),
        4,
        "block capacity drives the split"
    );
}

#[test]
fn blocks_too_small_for_one_row_are_rejected_at_init() {
    // A block must hold a header and one worst-case row; one byte less is
    // a typed error at init, not a failed flush mid-run. At the boundary
    // every pack holds exactly one event.
    for encoding in [PackEncoding::Fixed, PackEncoding::Delta] {
        let one_row = PACK_HEADER_SIZE + encoding.max_event_wire_size();
        for (block, ok) in [(one_row - 1, false), (one_row, true)] {
            let cfg = StreamConfig::new(block, 3, Balance::RoundRobin).with_pack_encoding(encoding);
            let packs = Arc::new(Mutex::new(Vec::new()));
            let p2 = Arc::clone(&packs);
            Launcher::new()
                .partition("app", 1, move |mpi| {
                    match InstrumentedMpi::init(mpi, "Analyzer", cfg, 0, 0) {
                        Ok(imp) => {
                            assert!(ok, "{encoding} {block} B accepted");
                            imp.marker(1).unwrap();
                            imp.finalize().unwrap();
                        }
                        Err(e) => {
                            assert!(!ok, "{encoding} {block} B rejected: {e}");
                            assert!(matches!(e, VmpiError::InvalidConfig(_)), "{e}");
                        }
                    }
                })
                .partition("Analyzer", 1, move |mpi| {
                    let v = Vmpi::new(mpi).unwrap();
                    let mut map = Map::new();
                    map_partitions(&v, 0, MapPolicy::RoundRobin, &mut map).unwrap();
                    let mut st = ReadStream::open_map(&v, &map, cfg, 0).unwrap();
                    while let Some(block) = st.read(ReadMode::Blocking).unwrap() {
                        p2.lock()
                            .unwrap()
                            .push(EventPack::decode(&block.data).unwrap());
                    }
                })
                .run()
                .unwrap();
            let counts: Vec<usize> = packs
                .lock()
                .unwrap()
                .iter()
                .map(|p| p.events.len())
                .collect();
            let want = if ok { vec![1; 3] } else { Vec::new() };
            assert_eq!(counts, want, "{encoding} {block} B");
        }
    }
    // The trace baselines check the same bound (in the stream config's
    // encoding, here the default Fixed).
    let dir = std::env::temp_dir().join(format!("opmr_tiny_{}", std::process::id()));
    let tiny = StreamConfig {
        block_size: PACK_HEADER_SIZE + EVENT_WIRE_SIZE - 1,
        ..StreamConfig::default()
    };
    let d2 = dir.clone();
    Launcher::new()
        .partition("app", 1, move |mpi| {
            let err = InstrumentedMpi::init_trace(mpi, &d2, 0, tiny).err();
            assert!(matches!(err, Some(VmpiError::InvalidConfig(_))));
        })
        .run()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn waitall_aggregates_pending_requests() {
    let packs = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&packs);
    Launcher::new()
        .partition("app", 2, move |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", cfg(), 0, 0).unwrap();
            let w = imp.comm_world();
            if imp.rank() == 0 {
                let reqs: Vec<_> = (0..5)
                    .map(|i| imp.isend(&w, 1, i, vec![0u8; 100]).unwrap())
                    .collect();
                imp.waitall(reqs).unwrap();
            } else {
                let reqs: Vec<_> = (0..5)
                    .map(|i| imp.irecv(&w, Src::Rank(0), TagSel::Tag(i)).unwrap())
                    .collect();
                let out = imp.waitall(reqs).unwrap();
                assert!(out.iter().all(|o| o.is_some()));
            }
            imp.finalize().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            analyzer_collect(mpi, Arc::clone(&p2))
        })
        .run()
        .unwrap();
    let packs = packs.lock().unwrap();
    let all: Vec<_> = packs
        .iter()
        .flat_map(|p| p.events.iter().copied())
        .collect();
    let waitalls: Vec<_> = all
        .iter()
        .filter(|e| e.kind == EventKind::Waitall)
        .collect();
    assert_eq!(waitalls.len(), 2);
    // The receiver's waitall carries the total received bytes.
    assert!(waitalls.iter().any(|e| e.bytes == 500));
}

#[test]
fn flush_metrics_move_once_per_pack() {
    // Process-wide metrics and tests run in parallel: this session's packs
    // are a lower bound on the movement, never an exact delta.
    let registry = opmr_obs::registry();
    let packs_total = registry.counter("instrument_packs_encoded_total");
    let flush_ns = registry.histogram("instrument_flush_ns");
    let (packs_before, flushes_before) = (packs_total.get(), flush_ns.count());

    let packs = Arc::new(Mutex::new(Vec::new()));
    let p2 = Arc::clone(&packs);
    Launcher::new()
        .partition("app", 1, |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", cfg(), 0, 0).unwrap();
            for i in 0..500 {
                imp.marker(i).unwrap();
            }
            imp.finalize().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            analyzer_collect(mpi, Arc::clone(&p2))
        })
        .run()
        .unwrap();
    let sent = packs.lock().unwrap().len() as u64;
    assert!(sent >= 2, "500 markers overflow one 4 KiB pack");
    assert!(packs_total.get() - packs_before >= sent);
    assert!(flush_ns.count() - flushes_before >= sent);
}
