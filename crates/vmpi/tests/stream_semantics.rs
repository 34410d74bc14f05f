//! End-to-end VMPI stream tests: the writer/reader coupling of the paper's
//! Figures 11 and 12, at thread scale.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_runtime::{Endpoint, FaultPlan, Launcher, MultiprocTopology, RtError, SocketConfig};
use opmr_vmpi::map::map_partitions;
use opmr_vmpi::stream::{BLOCK_HEADROOM, SENDER_THREAD};
use opmr_vmpi::{
    Balance, Compression, Map, MapPolicy, ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError,
    WriteStream,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

fn small_cfg(block: usize) -> StreamConfig {
    StreamConfig::new(block, 3, Balance::RoundRobin)
}

/// The paper's Figure 11/12 pair: writers stream blocks, the analyzer drains
/// them with non-blocking reads until all streams close.
fn run_coupling(
    writers: usize,
    readers: usize,
    bytes_per_writer: usize,
    block: usize,
) -> HashMap<usize, u64> {
    let received = Arc::new(Mutex::new(HashMap::<usize, u64>::new()));
    let recv2 = Arc::clone(&received);
    Launcher::new()
        .partition("app", writers, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let analyzer = v.partition_by_name("Analyzer").expect("analyzer exists");
            let mut map = Map::new();
            map_partitions(&v, analyzer.id, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = WriteStream::open_map(&v, &map, small_cfg(block), 1).unwrap();
            let chunk = vec![v.rank() as u8; 1000];
            let mut left = bytes_per_writer;
            while left > 0 {
                let n = left.min(chunk.len());
                st.write(&chunk[..n]).unwrap();
                left -= n;
            }
            st.close().unwrap();
        })
        .partition("Analyzer", readers, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            for pid in 0..v.partition_count() {
                if pid != v.partition_id() {
                    map_partitions(&v, pid, MapPolicy::RoundRobin, &mut map).unwrap();
                }
            }
            if map.is_empty() {
                return; // reader without assigned writers
            }
            let mut st = ReadStream::open_map(&v, &map, small_cfg(block), 1).unwrap();
            loop {
                match st.read(ReadMode::NonBlocking) {
                    Ok(Some(b)) => {
                        let mut g = recv2.lock().unwrap();
                        *g.entry(b.source).or_insert(0) += b.data.len() as u64;
                        // Content check: all bytes carry the writer's rank.
                        assert!(b.data.iter().all(|&x| x as usize == b.source));
                    }
                    Ok(None) => break,
                    Err(VmpiError::Again) => std::thread::yield_now(),
                    Err(e) => panic!("read failed: {e}"),
                }
            }
        })
        .run()
        .unwrap();
    Arc::try_unwrap(received).unwrap().into_inner().unwrap()
}

#[test]
fn one_to_one_delivers_every_byte() {
    let got = run_coupling(1, 1, 50_000, 4096);
    assert_eq!(got.len(), 1);
    assert_eq!(got[&0], 50_000);
}

#[test]
fn many_to_one_fan_in() {
    let got = run_coupling(6, 1, 20_000, 2048);
    assert_eq!(got.len(), 6);
    for w in 0..6 {
        assert_eq!(got[&w], 20_000, "writer {w}");
    }
}

#[test]
fn many_to_many_ratio_three() {
    let got = run_coupling(6, 2, 30_000, 1024);
    assert_eq!(got.len(), 6);
    assert!(got.values().all(|&v| v == 30_000));
}

#[test]
fn unaligned_sizes_partial_blocks() {
    // 7777 is not a multiple of the 512-byte block: the trailing partial
    // block must arrive via flush-on-close.
    let got = run_coupling(3, 1, 7_777, 512);
    assert!(got.values().all(|&v| v == 7_777));
}

#[test]
fn blocking_read_mode() {
    Launcher::new()
        .partition("w", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], small_cfg(256), 7).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(30));
            st.write(&[9u8; 1000]).unwrap();
            st.close().unwrap();
        })
        .partition("r", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], small_cfg(256), 7).unwrap();
            let mut total = 0;
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                total += b.data.len();
            }
            assert_eq!(total, 1000);
            assert!(st.all_closed());
        })
        .run()
        .unwrap();
}

#[test]
fn nonblocking_read_reports_eagain_before_data() {
    Launcher::new()
        .partition("w", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            // Wait for the go signal before writing anything.
            let u = v.comm_universe();
            v.mpi()
                .recv(
                    &u,
                    opmr_runtime::Src::Rank(1),
                    opmr_runtime::TagSel::Tag(99),
                )
                .unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], small_cfg(128), 2).unwrap();
            st.write(&[1u8; 128]).unwrap();
            st.close().unwrap();
        })
        .partition("r", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], small_cfg(128), 2).unwrap();
            // Nothing written yet: must be EAGAIN, not a hang.
            assert!(matches!(
                st.read(ReadMode::NonBlocking),
                Err(VmpiError::Again)
            ));
            let u = v.comm_universe();
            v.mpi().send(&u, 0, 99, bytes::Bytes::new()).unwrap();
            let mut total = 0;
            loop {
                match st.read(ReadMode::NonBlocking) {
                    Ok(Some(b)) => total += b.data.len(),
                    Ok(None) => break,
                    Err(VmpiError::Again) => std::thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
            assert_eq!(total, 128);
        })
        .run()
        .unwrap();
}

#[test]
fn per_writer_byte_order_is_preserved() {
    // Each writer emits a strictly increasing counter; the reader checks
    // per-writer monotonicity even with interleaved arrivals.
    Launcher::new()
        .partition("w", 3, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![3], small_cfg(64), 3).unwrap();
            for i in 0..500u32 {
                st.write(&i.to_le_bytes()).unwrap();
            }
            st.close().unwrap();
        })
        .partition("r", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0, 1, 2], small_cfg(64), 3).unwrap();
            let mut next: HashMap<usize, u32> = HashMap::new();
            let mut leftover: HashMap<usize, Vec<u8>> = HashMap::new();
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                let buf = leftover.entry(b.source).or_default();
                buf.extend_from_slice(&b.data);
                while buf.len() >= 4 {
                    let v = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
                    buf.drain(..4);
                    let expect = next.entry(b.source).or_insert(0);
                    assert_eq!(v, *expect, "writer {} out of order", b.source);
                    *expect += 1;
                }
            }
            assert_eq!(next.len(), 3);
            assert!(next.values().all(|&n| n == 500));
        })
        .run()
        .unwrap();
}

#[test]
fn write_after_close_rejected() {
    Launcher::new()
        .partition("w", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], small_cfg(64), 4).unwrap();
            st.write(b"x").unwrap();
            st.flush().unwrap();
            // close() consumes; test double-close via drop path instead:
            st.close().unwrap();
        })
        .partition("r", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], small_cfg(64), 4).unwrap();
            let mut total = 0;
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                total += b.data.len();
            }
            assert_eq!(total, 1);
        })
        .run()
        .unwrap();
}

#[test]
fn drop_closes_stream() {
    Launcher::new()
        .partition("w", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], small_cfg(64), 5).unwrap();
            st.write(&[7u8; 100]).unwrap();
            drop(st); // implicit close: reader must still terminate
        })
        .partition("r", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], small_cfg(64), 5).unwrap();
            let mut total = 0;
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                total += b.data.len();
            }
            assert_eq!(total, 100);
        })
        .run()
        .unwrap();
}

#[test]
fn multi_endpoint_writer_balances_blocks() {
    // One writer, three readers, round-robin balancing: block counts per
    // reader differ by at most one.
    let counts = Arc::new(Mutex::new(vec![0u64; 3]));
    let c2 = Arc::clone(&counts);
    Launcher::new()
        .partition("w", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(
                &v,
                vec![1, 2, 3],
                StreamConfig::new(128, 3, Balance::RoundRobin),
                6,
            )
            .unwrap();
            assert_eq!(st.endpoint_count(), 3);
            st.write(&vec![5u8; 128 * 9]).unwrap();
            st.close().unwrap();
        })
        .partition("r", 3, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st =
                ReadStream::open_from(&v, vec![0], StreamConfig::new(128, 3, Balance::None), 6)
                    .unwrap();
            let mut blocks = 0;
            while let Some(_b) = st.read(ReadMode::Blocking).unwrap() {
                blocks += 1;
            }
            c2.lock().unwrap()[v.rank()] = blocks;
        })
        .run()
        .unwrap();
    let counts = counts.lock().unwrap();
    assert_eq!(counts.iter().sum::<u64>(), 9);
    assert!(
        counts.iter().all(|&c| c == 3),
        "round robin split: {counts:?}"
    );
}

#[test]
fn random_balance_covers_endpoints() {
    let counts = Arc::new(Mutex::new(vec![0u64; 2]));
    let c2 = Arc::clone(&counts);
    Launcher::new()
        .partition("w", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(
                &v,
                vec![1, 2],
                StreamConfig::new(64, 3, Balance::Random { seed: 7 }),
                8,
            )
            .unwrap();
            st.write(&vec![1u8; 64 * 40]).unwrap();
            st.close().unwrap();
        })
        .partition("r", 2, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st =
                ReadStream::open_from(&v, vec![0], StreamConfig::new(64, 3, Balance::None), 8)
                    .unwrap();
            let mut blocks = 0;
            while let Some(_b) = st.read(ReadMode::Blocking).unwrap() {
                blocks += 1;
            }
            c2.lock().unwrap()[v.rank()] = blocks;
        })
        .run()
        .unwrap();
    let counts = counts.lock().unwrap();
    assert_eq!(counts.iter().sum::<u64>(), 40);
    assert!(
        counts.iter().all(|&c| c > 0),
        "both endpoints used: {counts:?}"
    );
}

#[test]
fn eof_only_after_all_writers_close() {
    // One writer closes immediately, the other holds the stream open until
    // released: the reader must keep reporting EAGAIN (never EOF) while any
    // writer remains open.
    Launcher::new()
        .partition("w", 2, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![2], small_cfg(64), 11).unwrap();
            st.write(&[v.rank() as u8; 64]).unwrap();
            if v.rank() == 0 {
                st.close().unwrap();
            } else {
                // Hold until the reader confirms it saw a non-EOF lull.
                let u = v.comm_universe();
                v.mpi()
                    .recv(
                        &u,
                        opmr_runtime::Src::Rank(2),
                        opmr_runtime::TagSel::Tag(77),
                    )
                    .unwrap();
                st.close().unwrap();
            }
        })
        .partition("r", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0, 1], small_cfg(64), 11).unwrap();
            // Drain both data blocks and writer 0's close.
            let mut got = 0;
            while got < 2 {
                match st.read(ReadMode::NonBlocking) {
                    Ok(Some(_)) => got += 1,
                    Ok(None) => panic!("EOF before all writers closed"),
                    Err(VmpiError::Again) => std::thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
            // All data consumed, writer 1 still open: must be Again, not EOF.
            for _ in 0..100 {
                match st.read(ReadMode::NonBlocking) {
                    Err(VmpiError::Again) => {}
                    Ok(None) => panic!("EOF while a writer is still open"),
                    Ok(Some(_)) => panic!("no data should remain"),
                    Err(e) => panic!("{e}"),
                }
            }
            assert!(!st.all_closed());
            // Release writer 1, then EOF must arrive.
            let u = v.comm_universe();
            v.mpi().send(&u, 1, 77, bytes::Bytes::new()).unwrap();
            match st.read(ReadMode::Blocking) {
                Ok(None) => {}
                Ok(Some(_)) => panic!("no data should remain"),
                Err(e) => panic!("{e}"),
            }
            assert!(st.all_closed());
        })
        .run()
        .unwrap();
}

#[test]
fn balance_none_pins_first_endpoint() {
    // Balance::None sends every block to the first endpoint; the others
    // see only the close marker.
    let counts = Arc::new(Mutex::new(vec![0u64; 3]));
    let c2 = Arc::clone(&counts);
    Launcher::new()
        .partition("w", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(
                &v,
                vec![1, 2, 3],
                StreamConfig::new(128, 3, Balance::None),
                12,
            )
            .unwrap();
            st.write(&vec![4u8; 128 * 9]).unwrap();
            st.close().unwrap();
        })
        .partition("r", 3, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st =
                ReadStream::open_from(&v, vec![0], StreamConfig::new(128, 3, Balance::None), 12)
                    .unwrap();
            let mut blocks = 0;
            while let Some(_b) = st.read(ReadMode::Blocking).unwrap() {
                blocks += 1;
            }
            c2.lock().unwrap()[v.rank()] = blocks;
        })
        .run()
        .unwrap();
    let counts = counts.lock().unwrap();
    assert_eq!(&*counts, &[9, 0, 0], "None policy pins endpoint 0");
}

#[test]
fn backpressure_bounds_inflight_blocks() {
    // Writer floods a slow reader with rendezvous-sized blocks; the bounded
    // async window must prevent unbounded buffering (we can only observe
    // that the transfer completes and all data arrives intact).
    let _alone = window_tests();
    Launcher::new()
        .eager_limit(512)
        .partition("w", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st =
                WriteStream::open_to(&v, vec![1], StreamConfig::new(4096, 2, Balance::None), 9)
                    .unwrap();
            st.write(&vec![3u8; 4096 * 50]).unwrap();
            assert_eq!(st.bytes_written(), 4096 * 50);
            assert_eq!(st.blocks_sent(), 50);
            st.close().unwrap();
        })
        .partition("r", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st =
                ReadStream::open_from(&v, vec![0], StreamConfig::new(4096, 2, Balance::None), 9)
                    .unwrap();
            let mut total = 0u64;
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                total += b.data.len() as u64;
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            assert_eq!(total, 4096 * 50);
            assert_eq!(st.blocks_read(), 50);
        })
        .run()
        .unwrap();
}

/// One write and one read stream to `peer`, for two-way traffic: the lower
/// world rank writes on stream id `2k` and reads on `2k + 1`, its peer the
/// other way round.
fn stream_pair(v: &Vmpi, peer: usize, cfg: StreamConfig, k: u16) -> (WriteStream, ReadStream) {
    let (tx, rx) = if v.mpi().world_rank() < peer {
        (2 * k, 2 * k + 1)
    } else {
        (2 * k + 1, 2 * k)
    };
    (
        WriteStream::open_to(v, vec![peer], cfg, tx).unwrap(),
        ReadStream::open_from(v, vec![peer], cfg, rx).unwrap(),
    )
}

#[test]
fn duplex_stream_both_directions() {
    // Two partitions exchange data in both directions over a pair of
    // streams (the paper's "multi- or uni-directional" streams).
    let exchange = |peer: usize, send: u8, n_send: usize, recv: u8, n_recv: usize| {
        move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let (mut tx, mut rx) = stream_pair(&v, peer, small_cfg(256), 10);
            tx.write(&vec![send; n_send]).unwrap();
            tx.close().unwrap();
            let mut got = 0;
            while let Some(b) = rx.read(ReadMode::Blocking).unwrap() {
                assert!(b.data.iter().all(|&x| x == recv));
                got += b.data.len();
            }
            assert_eq!(got, n_recv);
        }
    };
    Launcher::new()
        .partition("left", 1, exchange(1, 1, 500, 2, 300))
        .partition("right", 1, exchange(0, 2, 300, 1, 500))
        .run()
        .unwrap();
}

#[test]
fn partition_lookup_by_cmdline() {
    Launcher::new()
        .partition_with_cmdline("appA", "./bt.C.64", 2, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            assert_eq!(v.partition_by_cmdline("./bt.C.64").unwrap().name, "appA");
            assert!(v.partition_by_cmdline("./missing").is_none());
        })
        .run()
        .unwrap();
}

#[test]
fn zero_length_write_before_close_is_a_noop() {
    // Close-protocol edge case: an empty write must neither emit a block
    // nor corrupt the close handshake. The reader sees exactly the real
    // payload bytes, then a clean end of stream.
    let received = Arc::new(Mutex::new(0u64));
    let recv2 = Arc::clone(&received);
    Launcher::new()
        .partition("app", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let analyzer = v.partition_by_name("Analyzer").unwrap().id;
            let mut map = Map::new();
            map_partitions(&v, analyzer, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = WriteStream::open_map(&v, &map, small_cfg(256), 1).unwrap();
            st.write(&[]).unwrap();
            st.write(&[7u8; 100]).unwrap();
            st.write(&[]).unwrap();
            st.close().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            map_partitions(&v, 0, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = ReadStream::open_map(&v, &map, small_cfg(256), 1).unwrap();
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                *recv2.lock().unwrap() += b.data.len() as u64;
            }
            // A second read after end-of-stream stays Ok(None), not a panic.
            assert!(st.read(ReadMode::Blocking).unwrap().is_none());
        })
        .run()
        .unwrap();
    assert_eq!(*received.lock().unwrap(), 100);
}

#[test]
fn double_flush_on_empty_buffer_is_idempotent() {
    // Flushing with nothing buffered (twice, before and after traffic)
    // must not emit phantom blocks or trip the close protocol.
    let received = Arc::new(Mutex::new(0u64));
    let recv2 = Arc::clone(&received);
    Launcher::new()
        .partition("app", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let analyzer = v.partition_by_name("Analyzer").unwrap().id;
            let mut map = Map::new();
            map_partitions(&v, analyzer, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = WriteStream::open_map(&v, &map, small_cfg(256), 1).unwrap();
            st.flush().unwrap();
            st.flush().unwrap();
            st.write(&[3u8; 64]).unwrap();
            st.flush().unwrap();
            st.flush().unwrap();
            st.close().unwrap();
        })
        .partition("Analyzer", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            map_partitions(&v, 0, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = ReadStream::open_map(&v, &map, small_cfg(256), 1).unwrap();
            let mut blocks = 0;
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                *recv2.lock().unwrap() += b.data.len() as u64;
                blocks += 1;
            }
            assert_eq!(blocks, 1, "empty flushes must not emit blocks");
        })
        .run()
        .unwrap();
    assert_eq!(*received.lock().unwrap(), 64);
}

#[test]
fn read_after_writers_aborted_is_peer_lost_not_a_panic() {
    // The close-protocol contrast pair: writers that *abort* leave the
    // reader with a typed PeerLost error, while writers that *close*
    // (previous tests) end in Ok(None). Neither path may panic.
    let outcome = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&outcome);
    Launcher::new()
        .partition("app", 2, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let analyzer = v.partition_by_name("Analyzer").unwrap().id;
            let mut map = Map::new();
            map_partitions(&v, analyzer, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = WriteStream::open_map(&v, &map, small_cfg(256), 1).unwrap();
            st.write(&[9u8; 32]).unwrap();
            st.abort(); // deliberate: no close handshake
        })
        .partition("Analyzer", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            map_partitions(&v, 0, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = ReadStream::open_map(&v, &map, small_cfg(256), 1).unwrap();
            let got = loop {
                match st.read(ReadMode::Blocking) {
                    Ok(Some(_)) => continue,
                    other => break other,
                }
            };
            *out2.lock().unwrap() = Some(got);
        })
        .run()
        .unwrap();
    let got = outcome.lock().unwrap().take();
    match got {
        Some(Err(VmpiError::PeerLost { .. })) => {}
        other => panic!("expected PeerLost after abort, got {other:?}"),
    }
}

#[test]
fn parked_reader_without_a_timeout_learns_of_a_lost_writer_at_once() {
    // No `read_timeout`: only the liveness flag's wake-up can end the
    // reader's sleep once the writer is gone.
    let parks_before = read_parks();
    let exited = Arc::new(Mutex::new(None));
    let noticed = Arc::new(Mutex::new(None));
    let (exited2, noticed2) = (Arc::clone(&exited), Arc::clone(&noticed));
    Launcher::new()
        .partition("app", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], small_cfg(256), 1).unwrap();
            st.write(&[9u8; 32]).unwrap();
            st.flush().unwrap();
            // Long enough for the reader to run out of spins and sleep.
            std::thread::sleep(std::time::Duration::from_millis(200));
            st.abort(); // the writer returns without `close`
            *exited2.lock().unwrap() = Some(std::time::Instant::now());
        })
        .partition("Analyzer", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], small_cfg(256), 1).unwrap();
            assert_eq!(st.read(ReadMode::Blocking).unwrap().unwrap().data.len(), 32);
            let got = st.read(ReadMode::Blocking);
            *noticed2.lock().unwrap() = Some((std::time::Instant::now(), got));
        })
        .run()
        .unwrap();
    let exited = exited.lock().unwrap().expect("writer ran");
    let (noticed, got) = noticed.lock().unwrap().take().expect("reader ran");
    assert!(
        matches!(got, Err(VmpiError::PeerLost { rank: 0 })),
        "expected PeerLost, got {got:?}"
    );
    let late = noticed.saturating_duration_since(exited);
    assert!(
        late <= std::time::Duration::from_millis(100),
        "PeerLost {late:?} after the writer returned"
    );
    assert!(
        read_parks() > parks_before,
        "the reader slept while it waited"
    );
}

#[test]
fn blocking_reads_with_no_timeout_never_sleep_through_a_block() {
    // One block a round into each reader and nothing else, both ranks
    // alive, no `read_timeout`: a reader that parks past its block stays
    // parked. The echo's pause walks the reply across the reader's spin,
    // yield and park legs.
    const ROUNDS: u32 = 10_000;
    Launcher::new()
        .partition("ping", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let (mut tx, mut rx) = stream_pair(&v, 1, small_cfg(64), 11);
            for round in 0..ROUNDS {
                tx.write(&round.to_le_bytes()).unwrap();
                tx.flush().unwrap();
                let b = rx.read(ReadMode::Blocking).unwrap().expect("echo");
                assert_eq!(b.data[..], round.to_le_bytes());
            }
            tx.close().unwrap();
            assert!(rx.read(ReadMode::Blocking).unwrap().is_none());
        })
        .partition("pong", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let (mut tx, mut rx) = stream_pair(&v, 0, small_cfg(64), 11);
            for round in 0..ROUNDS {
                let b = rx.read(ReadMode::Blocking).unwrap().expect("ping");
                let pause = std::time::Duration::from_micros(u64::from(round % 256));
                let t0 = std::time::Instant::now();
                while t0.elapsed() < pause {
                    std::hint::spin_loop();
                }
                tx.write(&b.data).unwrap();
                tx.flush().unwrap();
            }
            tx.close().unwrap();
            assert!(rx.read(ReadMode::Blocking).unwrap().is_none());
        })
        .run()
        .unwrap();
}

fn read_parks() -> u64 {
    opmr_obs::registry()
        .snapshot()
        .counter("vmpi_stream_read_parks_total")
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// A compressing stream's sender thread.
// ---------------------------------------------------------------------

/// Held by every test that fills a write window or starts a sender: the
/// back-pressure counter and the sender threads they look at are
/// process-wide, and the harness runs tests on parallel threads.
static WINDOW_TESTS: Mutex<()> = Mutex::new(());

fn window_tests() -> MutexGuard<'static, ()> {
    WINDOW_TESTS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lz4_cfg(block: usize, n_async: usize) -> StreamConfig {
    StreamConfig::new(block, n_async, Balance::None)
        .with_compression(Compression::Lz4)
        .with_read_timeout(Duration::from_secs(30))
}

/// `n` bytes, compressible (a short repeating tile) or noise.
fn payload(seed: u8, n: usize, compressible: bool) -> Vec<u8> {
    let mut x = 0x9E37_79B9u32 ^ u32::from(seed);
    (0..n)
        .map(|i| {
            if compressible {
                [seed, 1, 2, 3, 5, 8][i % 6]
            } else {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            }
        })
        .collect()
}

/// Runs the job in process, then over a Unix-socket mesh of two
/// thread-hosted processes (partition `i` on process `i % 2`).
fn on_both_backends(job: impl Fn() -> Launcher) {
    job().run().unwrap();
    static JOB: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "opmr-sender-{}-{}",
        std::process::id(),
        JOB.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let launcher = job();
    let placement: Vec<usize> = (0..launcher.partition_count()).map(|i| i % 2).collect();
    let procs: Vec<_> = (0..2)
        .map(|p| {
            let cfg = SocketConfig::new(Endpoint::Unix(dir.join("mesh.sock")))
                .connect_timeout(Duration::from_secs(20));
            let topo = MultiprocTopology::new(cfg, p, 2).placement(placement.clone());
            let l = launcher.clone();
            std::thread::spawn(move || l.run_multiproc(topo))
        })
        .collect();
    for p in procs {
        p.join().unwrap().unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sender threads of this process, by the name the OS lists.
#[cfg(target_os = "linux")]
fn sender_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == SENDER_THREAD)
        .count()
}

/// Whether every sender thread is gone within a few seconds: a joined
/// thread may stay listed for a moment while the OS reaps it.
#[cfg(target_os = "linux")]
fn no_sender_threads() -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while sender_threads() > 0 {
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn sender_fin_follows_every_data_block() {
    // Blocks leave through the sender, the FIN from the closing thread:
    // the reader must see every block, in order, before its EOF.
    let _alone = window_tests();
    const BLOCKS: usize = 40;
    on_both_backends(|| {
        let cfg = lz4_cfg(2048, 2);
        Launcher::new()
            .partition("w", 1, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut st = WriteStream::open_to(&v, vec![1], cfg, 20).unwrap();
                let mut block = st.new_block();
                for i in 0..BLOCKS {
                    let body = payload(i as u8, 2048, i % 3 != 0);
                    if i % 2 == 0 {
                        block.truncate(BLOCK_HEADROOM);
                        block.extend_from_slice(&body);
                        st.send_block(&mut block).unwrap();
                    } else {
                        st.write(&body).unwrap();
                        st.flush().unwrap();
                    }
                }
                st.close().unwrap();
            })
            .partition("r", 1, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut st = ReadStream::open_from(&v, vec![0], cfg, 20).unwrap();
                let mut i = 0;
                while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                    assert_eq!(
                        b.data[..],
                        payload(i as u8, 2048, i % 3 != 0)[..],
                        "block {i}"
                    );
                    i += 1;
                }
                assert_eq!(i, BLOCKS, "EOF after every block");
            })
    });
}

#[test]
fn sender_stalled_transport_blocks_the_writer_at_n_async() {
    // Noise does not compress, so every frame is a 2 KiB rendezvous send
    // (eager limit 512 B) that completes only once the reader posts a
    // receive, and the reader opens its stream only after the writer has
    // blocked. The writer therefore fills its window with exactly
    // `n_async` pending blocks, then blocks once on the next.
    let _alone = window_tests();
    const N_ASYNC: usize = 3;
    let cfg = lz4_cfg(2048, N_ASYNC);
    let gate = Arc::new(Barrier::new(2));
    let reader_gate = Arc::clone(&gate);
    Launcher::new()
        .eager_limit(512)
        .partition("w", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], cfg, 21).unwrap();
            for i in 0..N_ASYNC {
                st.write(&payload(i as u8, 2048, false)).unwrap();
            }
            assert_eq!(st.blocks_pending(), N_ASYNC);
            assert_eq!(st.backpressure_waits(), 0);
            let before = backpressure_waits();
            std::thread::scope(|s| {
                // Opens the reader's gate once this writer has blocked.
                s.spawn(|| {
                    while backpressure_waits() == before {
                        std::thread::yield_now();
                    }
                    gate.wait();
                });
                st.write(&payload(N_ASYNC as u8, 2048, false)).unwrap();
            });
            assert_eq!(st.backpressure_waits(), 1);
            assert!(st.blocks_pending() <= N_ASYNC);
            st.close().unwrap();
        })
        .partition("r", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            reader_gate.wait();
            let mut st = ReadStream::open_from(&v, vec![0], cfg, 21).unwrap();
            let mut i = 0;
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                assert_eq!(b.data[..], payload(i as u8, 2048, false)[..]);
                i += 1;
            }
            assert_eq!(i, N_ASYNC + 1);
        })
        .run()
        .unwrap();
}

#[test]
fn sender_busy_block_counts_against_the_window() {
    // Every send from the writer's rank sleeps 300 ms, so the sender holds
    // the first block that long. That block is pending too: with it and
    // two queued the window is full, and the next hand-off blocks until
    // the sender is done with it.
    let _alone = window_tests();
    const N_ASYNC: usize = 3;
    let cfg = lz4_cfg(2048, N_ASYNC);
    Launcher::new()
        .fault_plan(FaultPlan::seeded(7).with_slow_rank(0, Duration::from_millis(300)))
        .partition("w", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let faults = Arc::clone(v.mpi().universe().fault_layer().unwrap());
            let mut st = WriteStream::open_to(&v, vec![1], cfg, 28).unwrap();
            st.write(&payload(0, 2048, true)).unwrap();
            while faults.stats().slow_hits == 0 {
                std::thread::yield_now();
            }
            for i in 1..N_ASYNC {
                st.write(&payload(i as u8, 2048, true)).unwrap();
            }
            assert_eq!(st.blocks_pending(), N_ASYNC);
            st.write(&payload(N_ASYNC as u8, 2048, true)).unwrap();
            assert_eq!(st.backpressure_waits(), 1);
            st.close().unwrap();
        })
        .partition("r", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], cfg, 28).unwrap();
            let mut i = 0;
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                assert_eq!(b.data[..], payload(i as u8, 2048, true)[..]);
                i += 1;
            }
            assert_eq!(i, N_ASYNC + 1);
        })
        .run()
        .unwrap();
}

#[test]
fn sender_failure_is_typed_on_the_writers_next_call() {
    // The fault plan makes the writer's third send unreachable. The
    // sender fails it; the writer hears of it on a later call, on every
    // call after that and on close, and its reader sees the writer lost
    // after the two blocks that did leave, not a clean end.
    let _alone = window_tests();
    on_both_backends(|| {
        let cfg = lz4_cfg(2048, 2);
        Launcher::new()
            .fault_plan(FaultPlan::seeded(7).with_crash(0, 2))
            .partition("w", 1, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut st = WriteStream::open_to(&v, vec![1], cfg, 22).unwrap();
                let lost = VmpiError::Runtime(RtError::Unreachable { dst: 1 });
                let first = (0..20u8)
                    .find_map(|i| {
                        st.write(&payload(i, 2048, true))
                            .and_then(|()| st.flush())
                            .err()
                    })
                    .expect("the failure surfaces within the window");
                assert_eq!(first, lost);
                assert_eq!(st.flush(), Err(lost.clone()));
                assert_eq!(st.write(b"more"), Err(lost.clone()));
                let mut block = st.new_block();
                block.extend_from_slice(b"more");
                assert_eq!(st.send_block(&mut block), Err(lost.clone()));
                assert_eq!(st.close(), Err(lost));
            })
            .partition("r", 1, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut st = ReadStream::open_from(&v, vec![0], cfg, 22).unwrap();
                let mut blocks = 0;
                let end = loop {
                    match st.read(ReadMode::Blocking) {
                        Ok(Some(_)) => blocks += 1,
                        other => break other,
                    }
                };
                assert_eq!(blocks, 2);
                assert_eq!(end, Err(VmpiError::PeerLost { rank: 0 }));
            })
    });
}

#[test]
fn sender_abort_sends_no_fin() {
    let _alone = window_tests();
    on_both_backends(|| {
        let cfg = lz4_cfg(2048, 2);
        Launcher::new()
            .partition("w", 1, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut st = WriteStream::open_to(&v, vec![1], cfg, 23).unwrap();
                for i in 0..6u8 {
                    st.write(&payload(i, 2048, true)).unwrap();
                }
                st.abort();
            })
            .partition("r", 1, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut st = ReadStream::open_from(&v, vec![0], cfg, 23).unwrap();
                let mut blocks = 0;
                let end = loop {
                    match st.read(ReadMode::Blocking) {
                        Ok(Some(_)) => blocks += 1,
                        other => break other,
                    }
                };
                assert!(blocks <= 6);
                assert_eq!(end, Err(VmpiError::PeerLost { rank: 0 }));
            })
    });
}

#[cfg(target_os = "linux")]
#[test]
fn sender_thread_is_joined_on_close_abort_and_drop() {
    let _alone = window_tests();
    Launcher::new()
        .partition("w", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let cfg = lz4_cfg(2048, 2);
            assert!(no_sender_threads(), "earlier tests' senders are gone");
            let open = |id| {
                let mut st = WriteStream::open_to(&v, vec![1], cfg, id).unwrap();
                st.write(&payload(1, 5000, true)).unwrap();
                // A sent block shows the sender running, hence named.
                while st.bytes_on_wire() == 0 {
                    std::thread::yield_now();
                }
                assert_eq!(sender_threads(), 1, "one sender per compressing stream");
                st
            };
            open(24).close().unwrap();
            assert!(no_sender_threads(), "joined on close");
            open(25).abort();
            assert!(no_sender_threads(), "joined on abort");
            drop(open(26));
            assert!(no_sender_threads(), "joined on drop");
            let plain = WriteStream::open_to(&v, vec![1], small_cfg(64), 27).unwrap();
            assert_eq!(sender_threads(), 0, "a plain stream has no sender");
            plain.close().unwrap();
        })
        .partition("r", 1, |_| {})
        .run()
        .unwrap();
}

fn backpressure_waits() -> u64 {
    opmr_obs::registry()
        .snapshot()
        .counter("vmpi_stream_backpressure_waits_total")
        .unwrap_or(0)
}
