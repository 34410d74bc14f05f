//! A hand-assembled twin of the ingest pipeline — `Launcher` + `Vmpi` +
//! pack encode + `WriteStream` → `ReadStream` + `AnalysisEngine`, mirroring
//! `core::session::analyzer_rank` — so the traced run can bracket the hops
//! a `Session` hides: encode, stream write, stream read, post, drain,
//! finish. KS execution inside the engine's workers stays invisible from
//! outside (in-program tracing is a later issue).

use crate::gen;
use crate::trace::{Span, Tracer};
use crate::workloads::{Checks, Shape, Workload, APP_RANKS, ENGINE};
use bytes::BytesMut;
use opmr_analysis::AnalysisEngine;
use opmr_events::{codec, Event, EventPack};
use opmr_metrics::MetricsConfig;
use opmr_runtime::{Launcher, Mpi};
use opmr_vmpi::map::map_partitions;
use opmr_vmpi::{Map, MapPolicy, ReadMode, ReadStream, Vmpi, VmpiError, WriteStream};
use std::sync::Arc;
use std::time::Instant;

/// Distinct packs each writer cycles through.
const PACK_RING: usize = 32;

pub struct TwinOutcome {
    pub wall_s: f64,
    pub events: u64,
    pub checks: Checks,
}

fn writer_events(w: &Workload, seed: u64, rank: u32, n: usize) -> Vec<Event> {
    match w.shape {
        Shape::Firehose => gen::fire_events(seed, rank, n),
        Shape::Ring { .. } => {
            let mut ev = gen::ring_events(seed, rank, APP_RANKS as u32, n / 3 + 1, 0);
            ev.truncate(n);
            ev
        }
    }
}

/// Streams `packs_per_writer` packs from each of `APP_RANKS` writers into
/// one analyzer rank under the workload's stream configuration, recording
/// a span around every hop under a `twin.run` root.
pub fn run(
    w: &Workload,
    seed: u64,
    packs_per_writer: u64,
    tracer: &Arc<Tracer>,
) -> Result<TwinOutcome, String> {
    let cfg = w.stream_config();
    let cap = w.pack_capacity();
    let encoding = w.encoding;
    let engine = AnalysisEngine::new(ENGINE);
    if w.waitstate {
        engine.enable_waitstate();
    }
    if let Some(window_ns) = w.metrics_window_ns {
        engine.enable_metrics(MetricsConfig { window_ns });
    }
    engine.set_app_name(0, "twin");
    engine.start();

    let t0 = Instant::now();
    let root = tracer.begin("twin.run", 0);
    let (w_tracer, r_tracer, r_engine) = (Arc::clone(tracer), Arc::clone(tracer), engine.clone());
    let shape = *w;
    let launched = Launcher::new()
        .partition_try("app", APP_RANKS, move |mpi: Mpi| {
            let v = Vmpi::new(mpi)?;
            let rank = v.rank() as u32;
            let events = writer_events(&shape, seed, rank, cap * PACK_RING);
            let analyzer = v
                .partition_by_name("Analyzer")
                .ok_or("no analyzer partition")?
                .id;
            let mut map = Map::new();
            map_partitions(&v, analyzer, MapPolicy::RoundRobin, &mut map)?;
            let mut stream = WriteStream::open_map(&v, &map, cfg, 0)?;
            let mut scratch = BytesMut::with_capacity(cfg.block_size + 64);
            let mut local = Vec::with_capacity(2 * packs_per_writer as usize);
            for seq in 0..packs_per_writer {
                let k = (seq as usize % PACK_RING) * cap;
                let pack = (rank, seq as u32);
                let t_enc = w_tracer.now();
                let p = EventPack::new(0, rank, seq as u32, events[k..k + cap].to_vec());
                scratch.clear();
                p.encode_into(encoding, &mut scratch);
                let t_write = w_tracer.now();
                // One pack == one block, as the recorder's stream sink does.
                stream.write(&scratch)?;
                stream.flush()?;
                let t_done = w_tracer.now();
                local.push(Span {
                    name: "events.encode",
                    start_ns: t_enc,
                    end_ns: t_write,
                    parent: root,
                    pack,
                });
                local.push(Span {
                    name: "vmpi.write",
                    start_ns: t_write,
                    end_ns: t_done,
                    parent: root,
                    pack,
                });
            }
            stream.close()?;
            w_tracer.extend(local);
            Ok(())
        })
        .partition_try("Analyzer", 1, move |mpi: Mpi| {
            let v = Vmpi::new(mpi)?;
            let mut map = Map::new();
            for pid in 0..v.partition_count() {
                if pid != v.partition_id() {
                    map_partitions(&v, pid, MapPolicy::RoundRobin, &mut map)?;
                }
            }
            let mut stream = ReadStream::open_map(&v, &map, cfg, 0)?;
            let mut local = Vec::new();
            // Start of the current run of empty polls, if any.
            let mut polling: Option<u64> = None;
            loop {
                let t_read = r_tracer.now();
                match stream.read(ReadMode::NonBlocking) {
                    Ok(Some(block)) => {
                        let t_got = r_tracer.now();
                        let pack = codec::decode_header_any(&mut &block.data[..])
                            .map_or((0, 0), |(h, _)| (h.rank, h.seq));
                        if let Some(since) = polling.take() {
                            local.push(Span {
                                name: "vmpi.poll_wait",
                                start_ns: since,
                                end_ns: t_read,
                                parent: root,
                                pack,
                            });
                        }
                        r_engine.post_block(block.data);
                        let t_posted = r_tracer.now();
                        local.push(Span {
                            name: "vmpi.read",
                            start_ns: t_read,
                            end_ns: t_got,
                            parent: root,
                            pack,
                        });
                        local.push(Span {
                            name: "analysis.post_block",
                            start_ns: t_got,
                            end_ns: t_posted,
                            parent: root,
                            pack,
                        });
                    }
                    Ok(None) => break,
                    Err(VmpiError::Again) => {
                        polling.get_or_insert(t_read);
                        std::thread::yield_now();
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            r_tracer.extend(local);
            Ok(())
        })
        .run();
    launched.map_err(|e| format!("{}: pipeline twin: {e}", w.name))?;

    let drain = tracer.begin("blackboard.drain", root);
    engine.blackboard().drain();
    tracer.end(drain);
    let finish = tracer.begin("analysis.finish", root);
    let report = engine.finish();
    tracer.end(finish);
    tracer.end(root);
    let wall_s = t0.elapsed().as_secs_f64();

    let events: u64 = report.apps.iter().map(|a| a.events).sum();
    let decode_errors: u64 = report.apps.iter().map(|a| a.decode_errors).sum();
    let sent = APP_RANKS as u64 * packs_per_writer * cap as u64;
    let mut checks = Checks::default();
    checks.check(events == sent, || {
        format!("{}: twin folded {events} of {sent} events", w.name)
    });
    checks.check(decode_errors == 0, || {
        format!("{}: twin saw {decode_errors} decode errors", w.name)
    });
    Ok(TwinOutcome {
        wall_s,
        events,
        checks,
    })
}
