//! The stage ledger: single-threaded timed calls into each crate's public
//! functions over the seeded event streams (ping-pongs and stream cells
//! launch their two ranks). One cell = one per-layer metric; every cell
//! reports the median of five repetitions.

use crate::gen;
use crate::stats::median;
use crate::workloads::{scratch_dir, ENGINE};
use crate::Metric;
use bytes::{Bytes, BytesMut};
use opmr_analysis::wire::{encode_partials, AppPartial};
use opmr_analysis::{AnalysisEngine, EngineConfig};
use opmr_blackboard::{type_id, Blackboard, BlackboardConfig, DataEntry, KnowledgeSource};
use opmr_core::Session;
use opmr_events::{decompress_into, frame, Event, EventPack, FrameBuf, Lz4Encoder, PackEncoding};
use opmr_instrument::{PackSink, Recorder, RecorderConfig};
use opmr_metrics::{MetricsConfig, MetricsSeries};
use opmr_reduce::{decode_partial_set, encode_partial_set, EventDensity, ReducePartial, Reducible};
use opmr_runtime::{
    Endpoint, Launcher, Mpi, MultiprocTopology, PartitionAssign, SocketConfig, Src, TagSel,
};
use opmr_serve::{apply_delta, encode_delta, ShardedStore};
use opmr_vmpi::map::map_partitions;
use opmr_vmpi::{
    Balance, Map, MapPolicy, ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError, WriteStream,
};
use parking_lot::Mutex;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const REPS: usize = 5;
const BLOCK_64K: usize = 64 * 1024;
const BLOCK_4K: usize = 4 * 1024;

/// Times `f(iters)` so that one repetition takes about a fifth of `budget`
/// and returns the median nanoseconds per operation (`ops` per iteration).
fn ns_per_op(budget: Duration, ops: f64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    f(1);
    let one = t.elapsed().as_nanos().max(1);
    let iters = (budget.as_nanos() / (REPS as u128 + 1) / one).clamp(1, 1 << 24) as u64;
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f(iters);
            t.elapsed().as_nanos() as f64 / (iters as f64 * ops)
        })
        .collect();
    median(&reps)
}

/// Median of `REPS` self-timed repetitions (cells that launch ranks).
fn median_of(mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let reps: Result<Vec<f64>, String> = (0..REPS).map(|_| f()).collect();
    Ok(median(&reps?))
}

/// `n` full packs of the firehose stream of `ranks` ranks, encoded.
fn fire_packs(
    seed: u64,
    encoding: PackEncoding,
    block: usize,
    n: usize,
) -> (Vec<EventPack>, Vec<Bytes>) {
    let cap = EventPack::capacity_for_block_with(block, encoding).max(1);
    let events: Vec<Vec<Event>> = (0..2)
        .map(|r| gen::fire_events(seed, r, cap * n.div_ceil(2)))
        .collect();
    let packs: Vec<EventPack> = (0..n)
        .map(|i| {
            let (rank, k) = (i % 2, i / 2);
            EventPack::new(
                0,
                rank as u32,
                k as u32,
                events[rank][k * cap..(k + 1) * cap].to_vec(),
            )
        })
        .collect();
    let encoded = packs.iter().map(|p| p.encode_with(encoding)).collect();
    (packs, encoded)
}

/// The paced two-rank ring's stream as 2 KiB fixed packs, in the order a
/// serving analyzer would see them (ranks interleaved).
fn ring_packs(seed: u64, rounds: usize) -> (Vec<Vec<Event>>, Vec<Bytes>) {
    let cap = EventPack::capacity_for_block_with(2048, PackEncoding::Fixed).max(1);
    let events: Vec<Vec<Event>> = (0..2)
        .map(|r| gen::ring_events(seed, r, 2, rounds, 600_000))
        .collect();
    let per_rank = events[0].len() / cap;
    let mut blocks = Vec::with_capacity(per_rank * 2);
    for k in 0..per_rank {
        for (rank, ev) in events.iter().enumerate() {
            let pack = EventPack::new(
                0,
                rank as u32,
                k as u32,
                ev[k * cap..(k + 1) * cap].to_vec(),
            );
            blocks.push(pack.encode_with(PackEncoding::Fixed));
        }
    }
    (events, blocks)
}

fn inline_engine(waitstate: bool, metrics: bool) -> AnalysisEngine {
    let engine = AnalysisEngine::new(EngineConfig {
        workers: 0,
        ..ENGINE
    });
    if waitstate {
        engine.enable_waitstate();
    }
    if metrics {
        engine.enable_metrics(MetricsConfig {
            window_ns: 1_000_000,
        });
    }
    engine
}

/// Snapshots of a serving engine taken every two packs: what the store
/// publishes, delta-encodes and a subscriber applies during a real run.
fn captured_snapshots(blocks: &[Bytes]) -> Vec<Vec<AppPartial>> {
    let engine = inline_engine(false, true);
    let mut out = Vec::new();
    for pair in blocks.chunks(2) {
        for b in pair {
            engine.post_block(b.clone());
        }
        engine.blackboard().run_inline();
        out.push(engine.snapshot_partials());
    }
    black_box(engine.finish());
    out
}

fn to_reduce_partial(p: &AppPartial) -> ReducePartial {
    ReducePartial {
        app_id: p.app_id,
        packs: p.packs,
        wire_bytes: p.wire_bytes,
        decode_errors: p.decode_errors,
        profile: p.profile.clone(),
        topology: p.topology.clone(),
        density: EventDensity::new(),
        waitstate: p.waitstate.clone(),
        metrics: p.metrics.clone(),
    }
}

/// One writer streams raw blocks to one reader for `budget`; returns
/// MiB/s between the reader's first block and end-of-stream (the Fig. 14
/// analogue: the ceiling for `events_per_s`).
fn stream_mib_per_s(block: usize, budget: Duration) -> Result<f64, String> {
    let cfg = StreamConfig::new(block, 4, Balance::RoundRobin);
    let result = Arc::new(Mutex::new(0.0f64));
    let sink = Arc::clone(&result);
    Launcher::new()
        .partition_try("writer", 1, move |mpi: Mpi| {
            let v = Vmpi::new(mpi)?;
            let reader = v
                .partition_by_name("reader")
                .ok_or("no reader partition")?
                .id;
            let mut map = Map::new();
            map_partitions(&v, reader, MapPolicy::RoundRobin, &mut map)?;
            let mut stream = WriteStream::open_map(&v, &map, cfg, 0)?;
            let buf = vec![0xA5u8; block];
            let deadline = Instant::now() + budget;
            while Instant::now() < deadline {
                for _ in 0..16 {
                    stream.write(&buf)?;
                }
            }
            stream.close()?;
            Ok(())
        })
        .partition_try("reader", 1, move |mpi: Mpi| {
            let v = Vmpi::new(mpi)?;
            let writer = v
                .partition_by_name("writer")
                .ok_or("no writer partition")?
                .id;
            let mut map = Map::new();
            map_partitions(&v, writer, MapPolicy::RoundRobin, &mut map)?;
            let mut stream = ReadStream::open_map(&v, &map, cfg, 0)?;
            let (mut first, mut bytes) = (None, 0u64);
            loop {
                match stream.read(ReadMode::NonBlocking) {
                    Ok(Some(b)) => {
                        first.get_or_insert_with(Instant::now);
                        bytes += b.data.len() as u64;
                    }
                    Ok(None) => break,
                    Err(VmpiError::Again) => std::thread::yield_now(),
                    Err(e) => return Err(e.into()),
                }
            }
            let secs = first.map_or(f64::INFINITY, |t| t.elapsed().as_secs_f64());
            *sink.lock() = bytes as f64 / (1 << 20) as f64 / secs;
            Ok(())
        })
        .run()
        .map_err(|e| format!("stream cell: {e}"))?;
    let v = *result.lock();
    Ok(v)
}

/// Ping-pong body between world ranks 0 and 1: nanoseconds per message.
fn ping_pong(
    mpi: &Mpi,
    bytes: usize,
    budget: Duration,
    out: &Mutex<f64>,
) -> Result<(), opmr_runtime::RankError> {
    let world = mpi.world();
    let payload = Bytes::from(vec![7u8; bytes]);
    if mpi.world_rank() == 0 {
        let round = |n: u64| -> Result<Duration, opmr_runtime::RankError> {
            let t = Instant::now();
            for _ in 0..n {
                mpi.send(&world, 1, 1, payload.clone())?;
                mpi.recv(&world, Src::Rank(1), TagSel::Tag(1))?;
            }
            Ok(t.elapsed())
        };
        let warm = round(64)?;
        let n = (budget.as_nanos() * 64 / warm.as_nanos().max(1)).clamp(64, 1 << 22) as u64;
        let took = round(n)?;
        // Tag 2 tells the partner the exchange is over.
        mpi.send(&world, 1, 2, Bytes::new())?;
        *out.lock() = took.as_nanos() as f64 / (2 * n) as f64;
    } else {
        loop {
            let (st, data) = mpi.recv(&world, Src::Rank(0), TagSel::Any)?;
            if st.tag == 2 {
                break;
            }
            mpi.send(&world, 0, 1, data)?;
        }
    }
    Ok(())
}

fn inproc_msg_ns(bytes: usize, budget: Duration) -> Result<f64, String> {
    let out = Arc::new(Mutex::new(0.0));
    let sink = Arc::clone(&out);
    Launcher::new()
        .partition_try("pp", 2, move |mpi: Mpi| {
            ping_pong(&mpi, bytes, budget, &sink)
        })
        .run()
        .map_err(|e| format!("in-process ping-pong: {e}"))?;
    let v = *out.lock();
    Ok(v)
}

fn socket_msg_ns(bytes: usize, budget: Duration) -> Result<f64, String> {
    let out = Arc::new(Mutex::new(0.0));
    let path = scratch_dir().join(format!("pp{}.sock", std::process::id()));
    let launcher = {
        let (a, b) = (Arc::clone(&out), Arc::clone(&out));
        Launcher::new()
            .partition_try("a", 1, move |mpi: Mpi| ping_pong(&mpi, bytes, budget, &a))
            .partition_try("b", 1, move |mpi: Mpi| ping_pong(&mpi, bytes, budget, &b))
    };
    let topo = |p: usize| {
        let cfg = SocketConfig::new(Endpoint::Unix(path.clone()))
            .connect_timeout(Duration::from_secs(20));
        MultiprocTopology::new(cfg, p, 2).assign(PartitionAssign::RoundRobin)
    };
    let (l1, t1) = (launcher.clone(), topo(1));
    let worker = std::thread::spawn(move || l1.run_multiproc(t1));
    let r0 = launcher.run_multiproc(topo(0));
    let r1 = worker
        .join()
        .map_err(|_| "socket ping-pong worker panicked".to_string())?;
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("sock.p1"));
    r0.map_err(|e| format!("socket ping-pong, process 0: {e:?}"))?;
    r1.map_err(|e| format!("socket ping-pong, process 1: {e:?}"))?;
    let v = *out.lock();
    Ok(v)
}

/// Number of ledger cells that cost time (counts derive for free).
pub const TIMED_CELLS: u32 = 32;

/// Runs every ledger cell within about `budget` and returns the metrics
/// by name.
pub fn run(seed: u64, budget: Duration) -> Result<Vec<Metric>, String> {
    let cell = budget / TIMED_CELLS;
    let mut out: Vec<Metric> = Vec::new();
    let mut put =
        |name: &'static str, unit: &'static str, value: f64| out.push(Metric { name, unit, value });

    // --- events: codec, block compression, framing -------------------
    let (fixed_packs, fixed_blocks) = fire_packs(seed, PackEncoding::Fixed, BLOCK_64K, 16);
    let (delta_packs, delta_blocks) = fire_packs(seed, PackEncoding::Delta, BLOCK_4K, 64);
    let events_in = |p: &[EventPack]| p.iter().map(|p| p.events.len()).sum::<usize>() as f64;
    let mut scratch = BytesMut::with_capacity(BLOCK_64K + 64);
    for (name, packs, enc) in [
        (
            "events.encode_fixed_ns_per_event",
            &fixed_packs,
            PackEncoding::Fixed,
        ),
        (
            "events.encode_delta_ns_per_event",
            &delta_packs,
            PackEncoding::Delta,
        ),
    ] {
        let v = ns_per_op(cell, events_in(packs), |iters| {
            for _ in 0..iters {
                for p in packs.iter() {
                    scratch.clear();
                    black_box(p.encode_into(enc, &mut scratch));
                }
            }
        });
        put(name, "ns", v);
    }
    for (name, packs, blocks) in [
        (
            "events.decode_fixed_ns_per_event",
            &fixed_packs,
            &fixed_blocks,
        ),
        (
            "events.decode_delta_ns_per_event",
            &delta_packs,
            &delta_blocks,
        ),
    ] {
        let v = ns_per_op(cell, events_in(packs), |iters| {
            for _ in 0..iters {
                for b in blocks.iter() {
                    black_box(EventPack::decode(b).expect("ledger pack decodes"));
                }
            }
        });
        put(name, "ns", v);
    }
    let delta_bytes: usize = delta_blocks.iter().map(|b| b.len()).sum();
    put(
        "events.delta_bytes_per_event",
        "B",
        delta_bytes as f64 / events_in(&delta_packs),
    );

    let mut lz4 = Lz4Encoder::new();
    let mut compressed: Vec<BytesMut> = Vec::new();
    for b in &delta_blocks {
        let mut c = BytesMut::new();
        lz4.compress(b, &mut c);
        compressed.push(c);
    }
    let compressed_bytes: usize = compressed.iter().map(|c| c.len()).sum();
    put(
        "events.lz4_ratio",
        "ratio",
        delta_bytes as f64 / compressed_bytes.max(1) as f64,
    );
    let v = ns_per_op(cell, delta_bytes as f64, |iters| {
        for _ in 0..iters {
            for b in &delta_blocks {
                scratch.clear();
                lz4.compress(b, &mut scratch);
                black_box(scratch.len());
            }
        }
    });
    put("events.lz4_compress_ns_per_byte", "ns", v);
    let v = ns_per_op(cell, delta_bytes as f64, |iters| {
        for _ in 0..iters {
            for c in &compressed {
                scratch.clear();
                black_box(
                    decompress_into(c, BLOCK_64K, &mut scratch).expect("ledger block decompresses"),
                );
            }
        }
    });
    put("events.lz4_decompress_ns_per_byte", "ns", v);
    let v = ns_per_op(cell, delta_blocks.len() as f64, |iters| {
        let mut fb = FrameBuf::new();
        for _ in 0..iters {
            for b in &delta_blocks {
                fb.push(&frame(b));
                black_box(fb.next_frame().expect("ledger frame is intact"));
            }
        }
    });
    put("events.frame_ns_per_block", "ns", v);

    // --- instrument: the recorder into a null sink --------------------
    let events = gen::fire_events(seed, 0, 1 << 16);
    let recorder = || {
        let sink = PackSink::file("/dev/null").expect("open the null sink");
        Recorder::new(
            RecorderConfig::for_block(0, 0, BLOCK_64K, PackEncoding::Fixed),
            sink,
        )
    };
    let v = ns_per_op(cell, events.len() as f64, |iters| {
        let mut rec = recorder();
        for _ in 0..iters {
            for e in &events {
                rec.record(*e).expect("record into the null sink");
            }
        }
        black_box(rec.finish().expect("close the null sink"));
    });
    put("instrument.record_ns_per_event", "ns", v);
    let cap = EventPack::capacity_for_block_with(BLOCK_64K, PackEncoding::Fixed);
    let v = {
        // Fill a pack to one short of full untimed, time the flush alone.
        let mut rec = recorder();
        let mut reps = Vec::new();
        let deadline = Instant::now() + cell;
        while reps.len() < 16 || Instant::now() < deadline {
            for e in &events[..cap - 1] {
                rec.record(*e).expect("record into the null sink");
            }
            let t = Instant::now();
            rec.flush_pack().expect("flush into the null sink");
            reps.push(t.elapsed().as_nanos() as f64);
        }
        black_box(rec.finish().expect("close the null sink"));
        median(&reps)
    };
    put("instrument.flush_ns_per_pack", "ns", v);

    // --- blackboard: post + dispatch with a no-op KS ------------------
    let v = {
        let bb = Blackboard::new(BlackboardConfig {
            queues: ENGINE.queues,
            workers: 0,
        });
        let ty = type_id("ledger", "entry");
        bb.register(KnowledgeSource::new("noop", vec![ty], |_bb, entries| {
            black_box(entries.len());
        }));
        let payload = Bytes::from_static(&[0u8; 64]);
        ns_per_op(cell, 256.0, |iters| {
            for _ in 0..iters {
                for _ in 0..256 {
                    bb.post(DataEntry::bytes(ty, payload.clone()));
                }
                bb.run_inline();
            }
        })
    };
    put("blackboard.post_ns_per_entry", "ns", v);

    // --- analysis: ingest through the stock KSs, inline ---------------
    for (name, blocks, n_events) in [
        (
            "analysis.ingest_ns_per_event_64k",
            &fixed_blocks,
            events_in(&fixed_packs),
        ),
        (
            "analysis.ingest_ns_per_event_4k",
            &delta_blocks,
            events_in(&delta_packs),
        ),
    ] {
        let v = ns_per_op(cell, n_events, |iters| {
            let engine = inline_engine(false, false);
            for _ in 0..iters {
                for b in blocks.iter() {
                    engine.post_block(b.clone());
                }
                engine.blackboard().run_inline();
            }
            black_box(engine.finish());
        });
        put(name, "ns", v);
    }
    let (ring_events, ring_blocks) = ring_packs(seed, 1500);
    let loaded = || {
        let engine = inline_engine(true, true);
        for b in &ring_blocks {
            engine.post_block(b.clone());
        }
        engine.blackboard().run_inline();
        engine
    };
    let v = {
        let reps: Vec<f64> = (0..REPS)
            .map(|_| {
                let engine = loaded();
                let t = Instant::now();
                black_box(engine.finish());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&reps)
    };
    put("analysis.finish_ms", "ms", v);
    let engine = loaded();
    let v = ns_per_op(cell, 1.0, |iters| {
        for _ in 0..iters {
            black_box(engine.snapshot_partials());
        }
    });
    put("analysis.snapshot_us", "us", v / 1e3);
    let partials = engine.snapshot_partials();
    let v = ns_per_op(cell, 1.0, |iters| {
        for _ in 0..iters {
            black_box(encode_partials(&partials));
        }
    });
    put("analysis.encode_partials_us", "us", v / 1e3);
    put(
        "analysis.partials_bytes",
        "B",
        encode_partials(&partials).len() as f64,
    );
    black_box(engine.finish());

    // --- metrics: windowed fold, merge, encode ------------------------
    let fold = |ev: &[Event]| {
        let mut s = MetricsSeries::new(1_000_000);
        s.fold_pack(ev);
        s
    };
    let v = ns_per_op(cell, ring_events[0].len() as f64, |iters| {
        for _ in 0..iters {
            black_box(fold(&ring_events[0]));
        }
    });
    put("metrics.fold_ns_per_event", "ns", v);
    let (series_a, series_b) = (fold(&ring_events[0]), fold(&ring_events[1]));
    let windows = series_b.len().max(1) as f64;
    let v = ns_per_op(cell, windows, |iters| {
        for _ in 0..iters {
            let mut into = series_a.clone();
            into.merge(&series_b);
            black_box(into);
        }
    });
    put("metrics.merge_ns_per_window", "ns", v);
    let v = ns_per_op(cell, series_a.len().max(1) as f64, |iters| {
        for _ in 0..iters {
            black_box(series_a.encode());
        }
    });
    put("metrics.encode_ns_per_window", "ns", v);

    // --- reduce: partial merge and partial-set codec ------------------
    let reduce_part: Vec<ReducePartial> = partials.iter().map(to_reduce_partial).collect();
    let v = ns_per_op(cell, reduce_part.len() as f64, |iters| {
        for _ in 0..iters {
            let mut into = reduce_part.clone();
            for (a, b) in into.iter_mut().zip(&reduce_part) {
                a.merge_from(b);
            }
            black_box(into);
        }
    });
    put("reduce.merge_ns_per_partial", "ns", v);
    let v = ns_per_op(cell, 1.0, |iters| {
        for _ in 0..iters {
            black_box(encode_partial_set(&reduce_part));
        }
    });
    put("reduce.encode_set_us", "us", v / 1e3);
    let set = encode_partial_set(&reduce_part);
    let v = ns_per_op(cell, 1.0, |iters| {
        for _ in 0..iters {
            black_box(decode_partial_set(&set).expect("ledger partial set decodes"));
        }
    });
    put("reduce.decode_set_us", "us", v / 1e3);

    // --- serve: publish, delta encode, delta apply --------------------
    let snaps = captured_snapshots(&ring_blocks);
    let versions = snaps.len() as f64;
    let v = ns_per_op(cell, versions, |iters| {
        for _ in 0..iters {
            let store = ShardedStore::new(1, 256, 1);
            for s in &snaps {
                store.publish(s.clone()).expect("ledger snapshot publishes");
            }
            black_box(store.stats());
        }
    });
    put("serve.publish_us", "us", v / 1e3);
    let encode_chain = || -> Vec<Bytes> {
        snaps
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                encode_delta(i as u64 + 1, &w[0], i as u64 + 2, &w[1])
                    .expect("ledger delta encodes")
            })
            .collect()
    };
    let v = ns_per_op(cell, versions - 1.0, |iters| {
        for _ in 0..iters {
            black_box(encode_chain());
        }
    });
    put("serve.encode_delta_us", "us", v / 1e3);
    let deltas = encode_chain();
    let v = ns_per_op(cell, deltas.len() as f64, |iters| {
        for _ in 0..iters {
            let mut base = snaps[0].clone();
            for d in &deltas {
                apply_delta(&mut base, d).expect("ledger delta applies");
            }
            black_box(base);
        }
    });
    put("serve.apply_delta_us", "us", v / 1e3);
    let delta_total: usize = deltas.iter().map(|d| d.len()).sum();
    put(
        "serve.delta_bytes_per_update",
        "B",
        delta_total as f64 / deltas.len().max(1) as f64,
    );
    put(
        "serve.snapshot_bytes",
        "B",
        snaps.last().map_or(0, |s| encode_partials(s).len()) as f64,
    );

    // --- vmpi and runtime: two ranks each ------------------------------
    let launch_cell = cell / REPS as u32;
    put(
        "vmpi.stream_mib_per_s_64k",
        "MiB/s",
        median_of(|| stream_mib_per_s(BLOCK_64K, launch_cell))?,
    );
    put(
        "vmpi.stream_mib_per_s_4k",
        "MiB/s",
        median_of(|| stream_mib_per_s(BLOCK_4K, launch_cell))?,
    );
    put(
        "runtime.inproc_msg_ns_64b",
        "ns",
        median_of(|| inproc_msg_ns(64, launch_cell))?,
    );
    put(
        "runtime.inproc_msg_ns_64k",
        "ns",
        median_of(|| inproc_msg_ns(BLOCK_64K, launch_cell))?,
    );
    put(
        "runtime.socket_msg_ns_64k",
        "ns",
        median_of(|| socket_msg_ns(BLOCK_64K, launch_cell))?,
    );

    // --- core: what a session costs before its first event ------------
    let v = median_of(|| {
        let t = Instant::now();
        Session::builder()
            .engine_config(ENGINE)
            .app("empty", crate::workloads::APP_RANKS, |_| {})
            .run()
            .map_err(|e| format!("empty session: {e}"))?;
        Ok(t.elapsed().as_secs_f64() * 1e3)
    })?;
    put("core.session_launch_ms", "ms", v);
    Ok(out)
}
