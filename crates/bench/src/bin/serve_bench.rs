//! Live-serving benchmark: query throughput and subscription lag of the
//! serve plane (`Coupling::Serving`) under concurrent clients.
//!
//! Instrumented applications stream into the analyzer ranks, which
//! publish into the snapshot store, while client partitions read it
//! simultaneously on their own ranks: *queriers* issue point queries
//! (profile + per-rank density) in a closed loop with `QUERIER_THINK`
//! between rounds and *subscribers*
//! consume the per-shard snapshot-then-deltas stream, measuring the
//! publication-to-consumption lag of every update on the shared
//! in-process clock. Scenarios cover the slow-consumer resync path
//! (`laggy`), wide delivery at ≥256 subscribers beside five analyzer
//! ranks (`wide256`), and a greedy tenant pinned by a subscription quota
//! while compliant tenants ride along undisturbed.
//!
//! Every subscriber folds its update stream and digests the resulting
//! bytes per `(shard, version)`; the run asserts zero divergences across
//! subscribers *and* against the store's snapshots — the delta
//! chains must be byte-identical everywhere.
//!
//! Reports queries/sec plus p50/p99 subscription lag per scenario; CSV
//! lands in `out/serve_bench/`. Pass `--quick` for a CI-sized smoke run
//! (64-subscriber `wide64` + quota scenario included).

use opmr_bench::{out_dir, row};
use opmr_core::session::{Coupling, Session};
use opmr_serve::proto::QuotaKind;
use opmr_serve::{ServeConfig, ServeError, ServeStats, TenantQuota};
use opmr_vmpi::{Balance, StreamConfig};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Pause between a querier's rounds. Queries are answered on the
/// querier's own rank, so a loop without one is a busy loop that takes
/// the cores the application and the engine need.
const QUERIER_THINK: Duration = Duration::from_micros(100);

struct Scenario {
    name: &'static str,
    rounds: i32,
    /// Instrumented ring applications (2 ranks each); >1 populates
    /// multiple store shards.
    apps: usize,
    analyzers: usize,
    subscribers: usize,
    queriers: usize,
    /// Subscriber ranks under the quota-pinned "greedy" tenant.
    greedy: usize,
    serve: ServeConfig,
    /// Artificial per-update consumer delay (the slow-consumer knob).
    subscriber_delay: Duration,
}

struct Run {
    wall_s: f64,
    queries: u64,
    /// Subscription lags in nanoseconds, unsorted.
    lags: Vec<u64>,
    updates: u64,
    deltas: u64,
    stats: ServeStats,
    versions: u64,
    /// `(shard, version)` digest mismatches across subscribers or against
    /// the store's snapshots. The acceptance bar is zero.
    divergences: u64,
    /// Greedy-tenant subscriptions refused with the typed quota signal.
    rejected: u64,
}

/// FNV-1a over the folded snapshot bytes: cheap, deterministic, and
/// collision-resistant enough to catch any real chain divergence.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn aggregate(per_rank: &[(usize, ServeStats)]) -> ServeStats {
    let mut total = ServeStats::default();
    for (_, s) in per_rank {
        total.clients += s.clients;
        total.queries += s.queries;
        total.subscribes += s.subscribes;
        total.snapshots_sent += s.snapshots_sent;
        total.deltas_sent += s.deltas_sent;
        total.resyncs += s.resyncs;
        total.acks += s.acks;
        total.bad_requests += s.bad_requests;
        total.clients_lost += s.clients_lost;
        total.quota_rejections += s.quota_rejections;
        total.quota_throttles += s.quota_throttles;
    }
    total
}

fn run_scenario(sc: &Scenario) -> Result<Run, Box<dyn std::error::Error>> {
    let rounds = sc.rounds;
    let queries = Arc::new(Mutex::new(0u64));
    let lags = Arc::new(Mutex::new(Vec::<u64>::new()));
    let update_counts = Arc::new(Mutex::new((0u64, 0u64))); // (updates, deltas)
    let digests = Arc::new(Mutex::new(HashMap::<(u16, u64), u64>::new()));
    let divergences = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));

    let subscriber = |delay: Duration| {
        let l_sink = Arc::clone(&lags);
        let u_sink = Arc::clone(&update_counts);
        let d_sink = Arc::clone(&digests);
        let div = Arc::clone(&divergences);
        let rej = Arc::clone(&rejected);
        move |c: &mut opmr_serve::ServeClient| -> Result<(), opmr_runtime::RankError> {
            c.subscribe()?;
            loop {
                let u = match c.next_update() {
                    Err(ServeError::QuotaExceeded(QuotaKind::Subscriptions)) => {
                        rej.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                    other => other?.ok_or("stream ended before final")?,
                };
                l_sink.lock().push(u.lag_ns);
                let mut counts = u_sink.lock();
                counts.0 += 1;
                counts.1 += u.delta as u64;
                drop(counts);
                // Chain audit: every subscriber must fold the exact same
                // bytes at every (shard, version) it observes.
                let held = c
                    .shard_report(u.shard)
                    .ok_or("update landed no shard report")?;
                let digest = fnv1a64(&held.encoded);
                let stale = d_sink
                    .lock()
                    .insert((u.shard, u.version), digest)
                    .is_some_and(|prev| prev != digest);
                if stale {
                    div.fetch_add(1, Ordering::Relaxed);
                }
                if u.finished {
                    break;
                }
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            Ok(())
        }
    };

    let q_sink = Arc::clone(&queries);
    let mut builder = Session::builder()
        .analyzer_ranks(sc.analyzers)
        .coupling(Coupling::Serving)
        .serve_config(sc.serve.clone())
        .stream_config(StreamConfig::new(2048, 4, Balance::None));
    for app in 0..sc.apps.max(1) {
        builder = builder.app_try(&format!("workload-{app}"), 2, move |imp| {
            let w = imp.comm_world();
            let n = imp.size();
            let r = imp.rank();
            for round in 0..rounds {
                let req = imp.isend(&w, (r + 1) % n, round, vec![7u8; 512])?;
                imp.recv(
                    &w,
                    opmr_runtime::Src::Rank((r + n - 1) % n),
                    opmr_runtime::TagSel::Tag(round),
                )?;
                imp.wait(req)?;
                // Pace the stream so serving happens *during* the run.
                imp.compute(Duration::from_micros(100))?;
            }
            imp.barrier(&w)?;
            Ok(())
        });
    }
    builder = builder.client_try("queriers", sc.queriers, move |c| {
        c.wait_version(1)?;
        let mut n = 0u64;
        loop {
            let info = c.version_info()?;
            let _ = c.query_profile(0, 0, 0, u32::MAX)?;
            let (_, _, _density) = c.query_density(0, 0, 0, u32::MAX)?;
            n += 3;
            if info.finished {
                break;
            }
            std::thread::sleep(QUERIER_THINK);
        }
        *q_sink.lock() += n;
        Ok(())
    });
    let polite = subscriber(sc.subscriber_delay);
    builder = builder.client_try("subscribers", sc.subscribers, polite);
    if sc.greedy > 0 {
        builder = builder.client_try("greedy", sc.greedy, subscriber(Duration::ZERO));
    }
    let outcome = builder.run()?;

    let store = outcome
        .snapshot_store
        .ok_or("serving session lost its snapshot store")?;
    // Second half of the audit: the digests the subscribers agreed on
    // must match the store's bytes wherever the ring kept them.
    let mut divergences = divergences.load(Ordering::Relaxed);
    for (&(shard, version), &digest) in digests.lock().iter() {
        if let Some(entry) = store.shard(shard as usize).get(version) {
            if fnv1a64(&entry.encoded) != digest {
                divergences += 1;
            }
        }
    }

    let (updates, deltas) = *update_counts.lock();
    let queries = *queries.lock();
    let lags = lags.lock().clone();
    Ok(Run {
        wall_s: outcome.wall_s,
        queries,
        lags,
        updates,
        deltas,
        stats: aggregate(&outcome.serve_stats),
        versions: store.stats().published,
        divergences,
        rejected: rejected.load(Ordering::Relaxed),
    })
}

fn percentile_ms(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx] as f64 / 1e6
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds = if quick { 60 } else { 300 };
    let wide = if quick { 2 } else { 4 };
    // A tenant allowed one subscription per session: the surplus greedy
    // ranks must be refused with the typed signal while everyone else
    // rides along.
    let pinned = |sub_limit: u32| TenantQuota {
        max_subscriptions: sub_limit,
        max_queries_per_sec: 0,
        max_delta_bytes_per_sec: 0,
    };

    let mut scenarios = vec![
        // ≥4 concurrent clients, consumers keeping pace.
        Scenario {
            name: "smooth",
            rounds,
            apps: 1,
            analyzers: 2,
            subscribers: wide,
            queriers: wide,
            greedy: 0,
            serve: ServeConfig {
                publish_every_packs: 2,
                ring: 256,
                ..ServeConfig::default()
            },
            subscriber_delay: Duration::ZERO,
        },
        // Same load, but slow consumers against a two-deep ring: they
        // degrade to snapshot resyncs instead of buffering.
        Scenario {
            name: "laggy",
            rounds,
            apps: 1,
            analyzers: 2,
            subscribers: wide,
            queriers: wide,
            greedy: 0,
            serve: ServeConfig {
                publish_every_packs: 1,
                ring: 2,
                subscriber_credits: 1,
                ..ServeConfig::default()
            },
            subscriber_delay: Duration::from_millis(3),
        },
    ];
    // Wide delivery: many subscribers, two store shards, plus a
    // quota-pinned greedy tenant. CI runs 64 subscribers beside 3
    // analyzer ranks; the full profile 256 beside 5.
    let (name, analyzers, subscribers, queriers) = if quick {
        ("wide64", 3, 64, 4)
    } else {
        ("wide256", 5, 256, 8)
    };
    scenarios.push(Scenario {
        name,
        rounds,
        apps: 2,
        analyzers,
        subscribers,
        queriers,
        greedy: 8,
        serve: ServeConfig {
            publish_every_packs: 4,
            ring: 4096,
            shards: 2,
            tenant_quotas: vec![("greedy".to_string(), pinned(1))],
            ..ServeConfig::default()
        },
        subscriber_delay: Duration::ZERO,
    });

    let widths = [10, 8, 9, 10, 9, 8, 8, 8, 11, 11];
    row(
        &[
            "scenario".into(),
            "clients".into(),
            "versions".into(),
            "queries".into(),
            "qps".into(),
            "updates".into(),
            "deltas".into(),
            "resyncs".into(),
            "lag p50 ms".into(),
            "lag p99 ms".into(),
        ],
        &widths,
    );

    let mut csv = format!("{}\n", opmr_bench::SERVE_BENCH_CSV_HEADER);
    for sc in &scenarios {
        let mut run = run_scenario(sc)?;
        run.lags.sort_unstable();
        let clients = sc.subscribers + sc.queriers + sc.greedy;
        let qps = run.queries as f64 / run.wall_s.max(1e-9);
        let p50 = percentile_ms(&run.lags, 50.0);
        let p99 = percentile_ms(&run.lags, 99.0);
        row(
            &[
                sc.name.into(),
                format!("{clients}"),
                format!("{}", run.versions),
                format!("{}", run.queries),
                format!("{qps:.0}"),
                format!("{}", run.updates),
                format!("{}", run.deltas),
                format!("{}", run.stats.resyncs),
                format!("{p50:.3}"),
                format!("{p99:.3}"),
            ],
            &widths,
        );
        csv.push_str(&format!(
            "{},{clients},{},{},{qps:.1},{},{},{},{p50:.4},{p99:.4}\n",
            sc.name, run.versions, run.queries, run.updates, run.deltas, run.stats.resyncs
        ));

        assert!(run.queries > 0, "queriers issued no queries");
        assert!(run.updates > 0, "subscribers saw no updates");
        assert_eq!(
            run.divergences, 0,
            "{}: delta chains diverged across subscribers or from the store",
            sc.name
        );
        assert_eq!(run.stats.clients as usize, clients);
        assert_eq!(run.stats.clients_lost, 0, "clients must part cleanly");
        if sc.name == "laggy" {
            assert!(
                run.stats.resyncs > 0,
                "slow consumers must trigger resyncs, not buffering"
            );
        }
        if sc.greedy > 0 {
            assert!(
                run.rejected > 0,
                "{}: the greedy tenant was never refused",
                sc.name
            );
            assert!(
                run.stats.quota_rejections >= run.rejected,
                "{}: refusals seen outnumber the counted ones",
                sc.name
            );
        }
    }

    let path = out_dir("serve_bench")?.join("serve_bench.csv");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(csv.as_bytes())?;
    println!("\nwrote {}", path.display());
    Ok(())
}
