//! One run of one workload: the timed run (end-to-end metrics) and the
//! traced run (per-layer metrics, spans written to `trace_<workload>.json`).

use crate::spec::PER_LAYER;
use crate::stats::{
    self, highest_supported_percentile, median, percentile_sorted, supported_percentile,
};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Checks, Segment, ServeObs, Workload};
use crate::{ledger, twin, Metric};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mixed into the seed for the gate's second-seed repetition.
const SECOND_SEED: u64 = 0x5EED_0002;
/// Segments of a serving workload's timed run.
const SERVE_SEGMENTS: usize = 3;

/// What one run of one workload produced.
pub struct RunOutput {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// Per-segment (per-repetition for `setup_s`) values behind each
    /// median, where a metric has them: the spread `--compare` resolves
    /// against.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

/// Set-up: the correctness gate plus a short warm-up session. Repeated
/// (a run reports the median), the second repetition on another seed: the
/// same seed must fold to the same digest, another seed to another.
fn setup(w: &Workload, seed: u64, reps: usize, checks: &mut Checks) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let mut digests = Vec::new();
    for rep in 0..reps {
        let s = if rep == 1 { seed ^ SECOND_SEED } else { seed };
        let t0 = Instant::now();
        let (digest, c) = workloads::gate(w, s)?;
        checks.absorb(c);
        if w.serve.is_none() {
            // The serving gate session is itself a warm-up of that path.
            let units = (w.units / 8).max(w.gate_units);
            let warm = workloads::run_segment(w, s, units, None)?;
            checks.absorb(workloads::check_segment(w, units, &warm));
        }
        times.push(t0.elapsed().as_secs_f64());
        digests.push(digest);
    }
    if reps >= 3 {
        checks.check(digests[0] == digests[2], || {
            format!(
                "{}: one seed, two digests: {:016x} {:016x}",
                w.name, digests[0], digests[2]
            )
        });
        checks.check(digests[0] != digests[1], || {
            format!(
                "{}: the seed does not reach the report ({:016x})",
                w.name, digests[0]
            )
        });
    }
    Ok(times)
}

/// Runs up to `count` segments of `units`, checking each. A box slower
/// than the sizing box runs fewer segments (never under three) instead of
/// a longer run.
fn segments(
    w: &Workload,
    seed: u64,
    units: u64,
    count: usize,
    budget: Duration,
    tracer: Option<&Arc<Tracer>>,
    checks: &mut Checks,
) -> Result<Vec<Segment>, String> {
    let deadline = Instant::now() + budget;
    let mut out: Vec<Segment> = Vec::new();
    for i in 0..count {
        if i >= 3.min(count) && Instant::now() >= deadline {
            eprintln!(
                "{}: time budget reached after {i} of {count} segments",
                w.name
            );
            break;
        }
        let seg = workloads::run_segment(w, seed, units, tracer)?;
        checks.absorb(workloads::check_segment(w, units, &seg));
        if let Some(first) = out.first() {
            checks.check(seg.digest == first.digest, || {
                format!(
                    "{}: segment {i} digest {:016x} != {:016x}",
                    w.name, seg.digest, first.digest
                )
            });
        }
        out.push(seg);
    }
    Ok(out)
}

fn pooled_sorted<'a>(
    segs: impl IntoIterator<Item = &'a Segment>,
    f: impl Fn(&ServeObs) -> &[u64],
) -> Vec<u64> {
    let mut v: Vec<u64> = segs
        .into_iter()
        .filter_map(|s| s.serve.as_ref())
        .flat_map(|o| f(o).iter().copied())
        .collect();
    v.sort_unstable();
    v
}

/// The lag samples of a segment. Serving: publish → apply at the
/// subscriber. Ingest: the age of a pack's oldest event when the recorder
/// hands the pack to the stream — the one stretch of an event's way to the
/// report that is visible from outside.
fn lag_samples(seg: &Segment) -> &[u64] {
    match &seg.serve {
        Some(o) => &o.lags_ns,
        None => &seg.pack_fill_ns,
    }
}

fn lag_p50_us<'a>(segs: impl IntoIterator<Item = &'a Segment>) -> f64 {
    let mut lags: Vec<u64> = segs
        .into_iter()
        .flat_map(|s| lag_samples(s).iter().copied())
        .collect();
    lags.sort_unstable();
    percentile_sorted(&lags, 50.0) / 1e3
}

fn rate(s: &Segment) -> f64 {
    s.events as f64 / s.wall_s
}

/// The timed run: set-up repetitions, then the segments; timing metrics
/// are medians over segments, percentiles are pooled over all of them.
pub fn timed(w: &Workload, seed: u64, seconds: u64) -> Result<RunOutput, String> {
    let mut checks = Checks::default();
    let setups = setup(w, seed, 5, &mut checks)?;
    // Ingest: segments of fixed size, as many as the run has room for.
    // Serving: three segments that share the run (the lag depends on how
    // far a session has come, so their length is part of the workload;
    // three, so that no single stretch of the box's mood sets the median).
    let (count, units) = if w.serve.is_some() {
        (
            SERVE_SEGMENTS,
            (w.units * seconds / 10 / SERVE_SEGMENTS as u64).max(w.gate_units),
        )
    } else {
        (
            (seconds as f64 / workloads::SEGMENT_S).round().max(3.0) as usize,
            w.units,
        )
    };
    let budget = Duration::from_secs_f64(seconds as f64 * 1.3);
    let segs = segments(w, seed, units, count, budget, None, &mut checks)?;

    for (i, s) in segs.iter().enumerate() {
        println!(
            "  segment {i}: {:.3} s wall ({:.3} s inside run), {} events, {:.0} ev/s, app {:.1} ns/ev, {:.2} B/ev, lag p50 {:.1} us over {} samples",
            s.wall_s, s.inner_wall_s, s.events, rate(s), s.app_ns_per_event,
            s.wire_bytes_per_event(), lag_p50_us([s]), lag_samples(s).len()
        );
        if let Some(o) = &s.serve {
            println!(
                "    serve: {} updates ({} deltas, {} resyncs) of {} versions, {} queries",
                o.updates, o.deltas, o.resyncs, o.versions, o.queries
            );
        }
    }
    println!("  setup repetitions: {setups:.3?} s");
    let mut lags: Vec<u64> = segs
        .iter()
        .flat_map(|s| lag_samples(s).iter().copied())
        .collect();
    lags.sort_unstable();
    if let Some((p, v)) = highest_supported_percentile(&lags) {
        println!(
            "  lag: p50 {:.1} us, p{p} {:.1} us over {} samples",
            percentile_sorted(&lags, 50.0) / 1e3,
            v / 1e3,
            lags.len()
        );
    }

    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    samples.insert("setup_s", setups);
    samples.insert("events_per_s", segs.iter().map(rate).collect());
    samples.insert(
        "app_ns_per_event",
        segs.iter().map(|s| s.app_ns_per_event).collect(),
    );
    samples.insert(
        "wire_bytes_per_event",
        segs.iter().map(|s| s.wire_bytes_per_event()).collect(),
    );
    samples.insert("lag_p50_us", segs.iter().map(|s| lag_p50_us([s])).collect());
    let metrics = crate::spec::END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            // The lag percentile is pooled over the segments' samples; the
            // rest are medians over segments.
            value: if m.name == "lag_p50_us" {
                lag_p50_us(&segs)
            } else {
                median(&samples[m.name])
            },
        })
        .collect();
    Ok(RunOutput {
        metrics,
        checks,
        samples,
    })
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`; 0 where that is not readable.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th overall, in clock ticks of 1/100 s.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 if unreadable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer numbers the sessions themselves yield: registry deltas,
/// outcome fields and client-side samples, summed over `segs`.
fn session_layers(segs: &[&Segment], put: &mut impl FnMut(&'static str, f64)) {
    let sum = |name: &str| segs.iter().map(|s| s.obs().counter(name)).sum::<u64>() as f64;
    let events = segs.iter().map(|s| s.events).sum::<u64>() as f64;
    let packs = segs.iter().map(|s| s.packs).sum::<u64>() as f64;
    let blocks = sum("vmpi_stream_blocks_sent_total");
    put(
        "vmpi.backpressure_waits_per_block",
        ratio(sum("vmpi_stream_backpressure_waits_total"), blocks),
    );
    put(
        "vmpi.eagain_ratio",
        ratio(
            sum("vmpi_stream_eagain_total"),
            sum("vmpi_stream_reads_total"),
        ),
    );
    put("vmpi.blocks_per_kevent", ratio(blocks * 1e3, events));
    put("vmpi.retransmits", sum("vmpi_stream_retransmits_total"));
    put(
        "runtime.socket_bytes_per_event",
        ratio(sum("transport_socket_bytes_sent_total"), events),
    );
    put(
        "runtime.socket_retransmits",
        sum("transport_socket_frames_retransmitted_total"),
    );
    put(
        "blackboard.jobs_per_pack",
        ratio(sum("blackboard_ks_invocations_total"), packs),
    );
    let backlog = segs
        .iter()
        .filter_map(|s| s.obs().histogram("blackboard_job_backlog"))
        .map(|h| h.quantile(0.99))
        .max()
        .unwrap_or(0);
    put("blackboard.backlog_p99", backlog as f64);
    put(
        "blackboard.drain_s",
        median(
            &segs
                .iter()
                .map(|s| s.wall_s - s.inner_wall_s)
                .collect::<Vec<_>>(),
        ),
    );

    let mut tree = opmr_reduce::ReduceStats::default();
    for (_, st) in segs.iter().flat_map(|s| s.reduce.iter()) {
        tree.absorb(st);
    }
    put(
        "reduce.bytes_out_per_in",
        ratio(tree.bytes_out as f64, tree.bytes_in as f64),
    );
    put(
        "reduce.windows_closed",
        ratio(tree.windows_closed as f64, segs.len() as f64),
    );

    let served: Vec<&ServeObs> = segs.iter().filter_map(|s| s.serve.as_ref()).collect();
    let lags = pooled_sorted(segs.iter().copied(), |o| &o.lags_ns);
    let queries = pooled_sorted(segs.iter().copied(), |o| &o.query_ns);
    let mut late: Vec<u64> = served
        .iter()
        .flat_map(|o| o.late_ns.iter().map(|&n| u64::from(n)))
        .collect();
    late.sort_unstable();
    // A tail percentile is quoted only with ten samples beyond it.
    let tail = |sorted: &[u64], p: f64| supported_percentile(sorted, p).unwrap_or(0.0) / 1e3;
    put("serve.lag_p99_us", tail(&lags, 99.0));
    put(
        "serve.lag_max_us",
        lags.last().map_or(0.0, |&ns| ns as f64 / 1e3),
    );
    put(
        "query_p50_us",
        if queries.is_empty() {
            0.0
        } else {
            percentile_sorted(&queries, 50.0) / 1e3
        },
    );
    put("serve.query_p99_us", tail(&queries, 99.0));
    let total = |f: fn(&ServeObs) -> u64| served.iter().map(|o| f(o)).sum::<u64>() as f64;
    let served_wall: f64 = segs
        .iter()
        .filter(|s| s.serve.is_some())
        .map(|s| s.wall_s)
        .sum();
    put(
        "serve.queries_per_s",
        ratio(total(|o| o.queries), served_wall),
    );
    put(
        "serve.updates_per_s",
        ratio(total(|o| o.updates), served_wall),
    );
    put(
        "serve.resync_ratio",
        ratio(total(|o| o.resyncs), total(|o| o.updates)),
    );
    put("serve.generator_late_us_p99", tail(&late, 99.0));
}

/// The traced run: a quick set-up, one untraced reference segment, traced
/// segments, the pipeline twin and (unless the caller measured it once
/// for the whole suite) the ledger. Writes `trace_<workload>.json`.
pub fn traced(
    w: &Workload,
    seed: u64,
    seconds: u64,
    suite_ledger: Option<&[Metric]>,
) -> Result<RunOutput, String> {
    let mut checks = Checks::default();
    setup(w, seed, 1, &mut checks)?;
    let cpu0 = process_cpu_s();

    // About a third of the run for the sessions, a tenth for the twin,
    // a third for the ledger.
    // Plain and traced segments alternate, so that the difference of
    // their medians is the tracing overhead and not the box drifting.
    let (units, pairs) = if w.serve.is_some() {
        (((w.units * seconds) as f64 / 10.0 * 0.3) as u64, 1)
    } else {
        (w.units, 2)
    };
    let units = units.max(w.gate_units);
    let budget = Duration::from_secs(seconds);
    let tracer = Arc::new(Tracer::new());
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        plain.extend(segments(w, seed, units, 1, budget, None, &mut checks)?);
        spanned.extend(segments(
            w,
            seed,
            units,
            1,
            budget,
            Some(&tracer),
            &mut checks,
        )?);
    }
    let cpu_s = process_cpu_s() - cpu0;

    let twin_packs = ((units as f64 * 0.5) as u64 / w.pack_capacity() as u64).max(64);
    let twin_packs = if w.serve.is_some() { 2_000 } else { twin_packs };
    let twin = twin::run(w, seed, twin_packs, &tracer)?;
    checks.absorb(twin.checks);

    let own_ledger;
    let ledger: &[Metric] = match suite_ledger {
        Some(l) => l,
        None => {
            own_ledger = ledger::run(seed, Duration::from_secs_f64(seconds as f64 * 0.3))?;
            &own_ledger
        }
    };

    let mut values: BTreeMap<&'static str, f64> =
        ledger.iter().map(|m| (m.name, m.value)).collect();
    let mut put = |name: &'static str, value: f64| {
        values.insert(name, value);
    };
    let all: Vec<&Segment> = plain.iter().chain(&spanned).collect();
    session_layers(&all, &mut put);

    let spans = tracer.spans();
    let totals = trace::layer_totals(&spans);
    let per_block = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| ratio(t.total_ns as f64, t.count as f64))
    };
    put("vmpi.write_ns_per_block", per_block("vmpi.write"));
    put("vmpi.read_ns_per_block", per_block("vmpi.read"));
    put("bench.twin_events_per_s", twin.events as f64 / twin.wall_s);

    let events: u64 = all.iter().map(|s| s.events).sum();
    put("process.peak_rss_mib", peak_rss_mib());
    put(
        "process.cpu_s_per_mevent",
        ratio(cpu_s * 1e6, events as f64),
    );
    let rates: Vec<f64> = all.iter().map(|s| rate(s)).collect();
    let walls: Vec<f64> = all.iter().map(|s| s.wall_s).collect();
    put("bench.segment_iqr_share", stats::iqr_share(&rates));
    put(
        "bench.slow_segments",
        walls.iter().filter(|&&t| t > 3.0 * median(&walls)).count() as f64,
    );
    let (plain_rate, traced_rate) = (
        median(&plain.iter().map(rate).collect::<Vec<_>>()),
        median(&spanned.iter().map(rate).collect::<Vec<_>>()),
    );
    put(
        "bench.trace_overhead_pct",
        (plain_rate - traced_rate) / plain_rate * 100.0,
    );
    put(
        "bench.unattributed_share",
        trace::unattributed_share(&spans, Some("session.run")),
    );

    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{}.json", w.name));
    std::fs::write(&path, trace::to_json(w.name, seed, &spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  wrote {} ({} spans)", path.display(), spans.len());
    for (name, t) in &totals {
        println!(
            "  span {name:<22} n {:>8}  total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }

    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            // A layer off this workload's path (no tree, no clients, no
            // socket) reads 0.
            value: values
                .get(m.name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0),
        })
        .collect();
    let mut samples = BTreeMap::new();
    samples.insert("events_per_s", rates);
    Ok(RunOutput {
        metrics,
        checks,
        samples,
    })
}
