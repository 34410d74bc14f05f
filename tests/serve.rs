//! Acceptance tests for live report serving (`Coupling::Serving`).
//!
//! The contract under test: a client attached to a running session
//! observes a monotonically versioned stream where applying the delta
//! chain to its first full snapshot reproduces the store's snapshot
//! *byte-identically* at every version, and a deliberately slow
//! subscriber degrades to a typed, stats-counted snapshot resync instead
//! of unbounded buffering.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr::runtime::{Src, TagSel};
use opmr::serve::proto::ALL_RANKS;
use opmr::serve::{ServeConfig, ServeError};
use opmr::vmpi::{Balance, StreamConfig};
use opmr::{Coupling, Session, SessionBuilder};
use parking_lot::Mutex;
use std::sync::Arc;

/// Ring workload chatty enough to cross many pack boundaries (and thus
/// many publication windows) with a small stream block size. An optional
/// start gate lets subscriber tests hold the workload back until they
/// have subscribed — without it the whole run can finish first, leaving
/// the subscriber a single final snapshot.
fn ring_app(
    rounds: i32,
    gate: Option<Arc<std::sync::Barrier>>,
) -> impl Fn(&opmr::instrument::InstrumentedMpi) + Send + Sync + 'static {
    move |imp| {
        if let Some(g) = &gate {
            g.wait();
        }
        let w = imp.comm_world();
        let n = imp.size();
        let r = imp.rank();
        for round in 0..rounds {
            let req = imp.isend(&w, (r + 1) % n, round, vec![3u8; 256]).unwrap();
            imp.recv(&w, Src::Rank((r + n - 1) % n), TagSel::Tag(round))
                .unwrap();
            imp.wait(req).unwrap();
            if round % 16 == 0 {
                imp.barrier(&w).unwrap();
            }
        }
        imp.allreduce_sum(&w, &[r as u64]).unwrap();
    }
}

fn serving_session(
    rounds: i32,
    serve: ServeConfig,
    gate: Option<Arc<std::sync::Barrier>>,
) -> SessionBuilder {
    Session::builder()
        .analyzer_ranks(2)
        .coupling(Coupling::Serving)
        .serve_config(serve)
        // Small blocks => frequent packs => frequent publications.
        .stream_config(StreamConfig::new(1024, 4, Balance::None))
        .app("ring", 4, ring_app(rounds, gate))
}

#[derive(Clone, Copy)]
struct Seen {
    version: u64,
    delta: bool,
    resync: bool,
    finished: bool,
}

#[test]
fn subscriber_delta_chain_is_byte_identical_to_server() {
    let serve = ServeConfig {
        publish_every_packs: 2,
        ring: 4096, // retain everything: this test audits every version
        ..ServeConfig::default()
    };
    type SeenLog = Vec<(Seen, Vec<u8>)>;
    let seen: Arc<Mutex<SeenLog>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    // 4 ring ranks + the observer: the workload starts only once the
    // observer has subscribed, and runs long enough to publish many
    // versions.
    let gate = Arc::new(std::sync::Barrier::new(5));
    let observer_gate = Arc::clone(&gate);
    let outcome = serving_session(600, serve, Some(gate))
        .client("observer", 1, move |c| {
            c.subscribe().unwrap();
            c.version_info().unwrap();
            observer_gate.wait();
            loop {
                let u = c.next_update().unwrap().expect("stream ended early");
                let held = c.report().expect("subscribed client holds a report");
                assert_eq!(held.version, u.version);
                sink.lock().push((
                    Seen {
                        version: u.version,
                        delta: u.delta,
                        resync: u.resync,
                        finished: u.finished,
                    },
                    held.encoded.to_vec(),
                ));
                if u.finished {
                    break;
                }
            }
        })
        .run()
        .unwrap();

    let store = outcome.snapshot_store.expect("serving retains the store");
    let seen = seen.lock();
    assert!(
        seen.len() >= 3,
        "expected several versions, saw {}",
        seen.len()
    );

    // Monotone, contiguous, no resyncs (nothing ever left the ring).
    let (first, _) = &seen[0];
    assert!(!first.delta, "subscriptions open with a full snapshot");
    for window in seen.windows(2) {
        let (a, _) = &window[0];
        let (b, _) = &window[1];
        assert_eq!(b.version, a.version + 1, "delta chain must not skip");
        assert!(b.delta, "steady-state updates arrive as deltas");
    }
    assert!(seen.iter().all(|(s, _)| !s.resync));
    assert!(seen.iter().any(|(s, _)| s.delta), "no delta was applied");

    // The acceptance bar: the client's folded report is byte-identical to
    // the store's snapshot at every observed version.
    for (s, bytes) in seen.iter() {
        let entry = store.get(s.version).expect("ring retained everything");
        assert_eq!(
            bytes.as_slice(),
            entry.encoded.as_ref(),
            "version {} diverged",
            s.version
        );
        assert_eq!(s.finished, entry.is_final);
    }
    let (last, _) = seen.last().unwrap();
    assert!(last.finished);
    assert_eq!(last.version, store.current().unwrap().version);

    // The serving plane did not disturb the analysis result.
    assert_eq!(outcome.report.apps.len(), 1);
    assert_eq!(outcome.report.apps[0].ranks, 4);
    let resyncs: u64 = outcome.serve_stats.iter().map(|(_, s)| s.resyncs).sum();
    assert_eq!(resyncs, 0);
}

#[test]
fn slow_subscriber_degrades_to_counted_resync() {
    let serve = ServeConfig {
        publish_every_packs: 1,
        ring: 2, // tiny ring: a lagging subscriber falls off quickly
        subscriber_credits: 1,
        ..ServeConfig::default()
    };
    let seen: Arc<Mutex<Vec<Seen>>> = Arc::new(Mutex::new(Vec::new()));
    let last_bytes: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let bytes_sink = Arc::clone(&last_bytes);
    let gate = Arc::new(std::sync::Barrier::new(5));
    let laggard_gate = Arc::clone(&gate);
    // Long enough that the laggard provably falls off the two-deep ring
    // even when the whole test binary is competing for cores.
    let outcome = serving_session(400, serve, Some(gate))
        .client("laggard", 1, move |c| {
            c.subscribe().unwrap();
            c.version_info().unwrap();
            laggard_gate.wait();
            loop {
                let u = c.next_update().unwrap().expect("stream ended early");
                sink.lock().push(Seen {
                    version: u.version,
                    delta: u.delta,
                    resync: u.resync,
                    finished: u.finished,
                });
                if u.finished {
                    *bytes_sink.lock() = c.report().unwrap().encoded.to_vec();
                    break;
                }
                // Deliberately slower than the publication cadence.
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
        .run()
        .unwrap();

    let store = outcome.snapshot_store.expect("serving retains the store");
    let seen = seen.lock();

    // The slow consumer fell off the two-deep ring and was resynced — the
    // typed flag on the update...
    assert!(
        seen.iter().any(|s| s.resync),
        "laggard never saw a resync over {} updates",
        seen.len()
    );
    // ...and the counted signal in the serving stats.
    let resyncs: u64 = outcome.serve_stats.iter().map(|(_, s)| s.resyncs).sum();
    assert!(resyncs > 0, "no resync was counted");

    // Versions stay strictly monotone even across resync jumps, and the
    // client still converges on the store's final bytes.
    for w in seen.windows(2) {
        assert!(w[1].version > w[0].version, "version went backwards");
    }
    let last = store.current().unwrap();
    assert_eq!(
        last_bytes.lock().as_slice(),
        last.encoded.as_ref(),
        "laggard did not converge on the final snapshot"
    );
    // The producer never waited on the stalled subscriber: it published
    // every version while the laggard took fewer updates than that.
    assert!(
        (seen.len() as u64) < last.version,
        "the laggard saw {} updates of {} versions: publication waited for it",
        seen.len(),
        last.version
    );
}

#[test]
fn point_queries_answer_mid_run() {
    let serve = ServeConfig {
        publish_every_packs: 2,
        ..ServeConfig::default()
    };
    type Probe = (u64, u64, Vec<u64>);
    let probed: Arc<Mutex<Option<Probe>>> = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&probed);
    let outcome = serving_session(60, serve, None)
        .client("prober", 2, move |c| {
            // Mid-run: interrogate the first publication while the
            // application is still streaming. The engine publishes after
            // the fold, so version 1 already holds the packs that ticked it.
            let info = c.wait_version(1).unwrap();
            assert!(info.current >= 1);
            assert_eq!(info.apps, 1);
            let (v_mid, profile_mid) = c.query_profile(0, 0, 0, ALL_RANKS).unwrap();
            assert!(v_mid >= 1);
            assert!(profile_mid.events() > 0, "version {v_mid} holds no event");

            // Unknown app: typed not-found, not a dead stream.
            match c.query_profile(7, 0, 0, ALL_RANKS) {
                Err(ServeError::NotFound(opmr::serve::proto::NotFoundReason::UnknownApp)) => {}
                other => panic!("expected UnknownApp, got {:?}", other.map(|_| ())),
            }

            // Run out, then interrogate the final version (which covers
            // every rank deterministically).
            let fin = c.wait_version(u64::MAX).unwrap();
            assert!(fin.finished);
            let (v_fin, profile) = c.query_profile(0, 0, 0, ALL_RANKS).unwrap();
            assert!(v_fin >= v_mid);
            assert_eq!(profile.ranks(), 4);

            // Rank-range filtering: ranks [0, 2) of 4.
            let (_, lo, density) = c.query_density(0, 0, 0, 2).unwrap();
            assert_eq!(lo, 0);
            assert_eq!(density.len(), 2);
            assert!(density.iter().all(|&d| d > 0));

            let (_, topo) = c.query_topology(0, 0, 0, ALL_RANKS).unwrap();
            assert!(topo.edge_count() > 0);

            // No wait-state KS in this session: typed absence, not an error.
            let (_, ws) = c.query_waitstate(0, 0, 0, ALL_RANKS).unwrap();
            assert!(ws.is_none());

            sink.lock()
                .get_or_insert((v_fin, density[0], density.clone()));
        })
        .run()
        .unwrap();

    assert!(probed.lock().is_some(), "prober never ran its checks");
    // One stats row per prober rank.
    let clients: u64 = outcome.serve_stats.iter().map(|(_, s)| s.clients).sum();
    assert_eq!(clients, 2);
    let queries: u64 = outcome.serve_stats.iter().map(|(_, s)| s.queries).sum();
    assert!(queries >= 10);
}

#[test]
fn metric_time_series_ride_the_delta_chain_byte_identically() {
    use opmr::analysis::wire::decode_partials;

    let serve = ServeConfig {
        publish_every_packs: 2,
        ring: 4096, // retain everything: this test audits every version
        ..ServeConfig::default()
    };
    // Every observed (version, folded snapshot bytes, finished flag).
    type SeenLog = Vec<(u64, Vec<u8>, bool)>;
    let seen: Arc<Mutex<SeenLog>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let gate = Arc::new(std::sync::Barrier::new(5));
    let observer_gate = Arc::clone(&gate);
    let outcome = Session::builder()
        .analyzer_ranks(2)
        .coupling(Coupling::Serving)
        .serve_config(serve)
        .metrics(100_000) // 0.1 ms windows: many windows over the run
        .stream_config(StreamConfig::new(1024, 4, Balance::None))
        .app("ring", 4, ring_app(600, Some(gate)))
        .client("observer", 1, move |c| {
            c.subscribe().unwrap();
            c.version_info().unwrap();
            observer_gate.wait();
            loop {
                let u = c.next_update().unwrap().expect("stream ended early");
                let held = c.report().expect("subscribed client holds a report");
                sink.lock()
                    .push((u.version, held.encoded.to_vec(), u.finished));
                if u.finished {
                    // Point query against the final version: the metrics
                    // plane answers rank-filtered, like the other planes.
                    let (_, m) = c.query_metrics(0, 0, 0, ALL_RANKS).unwrap();
                    let m = m.expect("metrics KS is enabled in this session");
                    assert!(!m.is_empty(), "query returned an empty series");
                    break;
                }
            }
        })
        .run()
        .unwrap();

    let store = outcome.snapshot_store.expect("serving retains the store");
    let seen = seen.lock();
    assert!(seen.len() >= 3, "expected several versions");

    // The client reconstructs the full window history from the delta
    // chain: at every version its folded bytes equal the store's snapshot
    // and carry the metric series. The engine serializes snapshot capture
    // against its metrics fold (the publish gate), so the window count is
    // monotone non-decreasing along the version chain — an older fold can
    // never be published after a newer one.
    let mut last_windows = 0usize;
    let mut metric_deltas = 0usize;
    for (version, bytes, _) in seen.iter() {
        let entry = store.get(*version).expect("ring retained everything");
        assert_eq!(
            bytes.as_slice(),
            entry.encoded.as_ref(),
            "version {version} diverged from the store"
        );
        let parts = decode_partials(bytes).unwrap();
        let m = parts[0]
            .metrics
            .as_ref()
            .expect("every published snapshot carries the series");
        assert!(
            m.len() >= last_windows,
            "version {version}: window count went backwards ({} < {last_windows}); \
             snapshot publication raced the metrics fold",
            m.len()
        );
        if m.len() != last_windows {
            metric_deltas += 1;
        }
        last_windows = m.len();
    }
    assert!(last_windows > 0, "final snapshot has no metric windows");
    assert!(
        metric_deltas >= 2,
        "the series must actually evolve across the delta chain"
    );

    // The engine's final report and the served snapshot agree on the
    // series bytes.
    let (_, final_bytes, finished) = seen.last().unwrap();
    assert!(finished);
    let served = decode_partials(final_bytes).unwrap();
    let report_m = outcome.report.apps[0]
        .metrics
        .as_ref()
        .expect("session report carries the series");
    assert_eq!(
        served[0].metrics.as_ref().unwrap().encode(),
        report_m.encode(),
        "served series must equal the engine's final fold"
    );
}

#[test]
fn sharded_session_serves_per_shard_chains() {
    use std::collections::BTreeMap;

    let serve = ServeConfig {
        publish_every_packs: 2,
        ring: 4096,
        shards: 2, // apps 0 and 2 land on shard 0, app 1 on shard 1
        ..ServeConfig::default()
    };
    // (shard, version, delta?) per observed update, in arrival order.
    type SeenLog = Vec<(u16, u64, bool)>;
    let seen: Arc<Mutex<SeenLog>> = Arc::new(Mutex::new(Vec::new()));
    let finals: Arc<Mutex<BTreeMap<u16, Vec<u8>>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let sink = Arc::clone(&seen);
    let final_sink = Arc::clone(&finals);
    // Three apps of 2 ranks each (6 workload ranks) plus the observer.
    let gate = Arc::new(std::sync::Barrier::new(7));
    let observer_gate = Arc::clone(&gate);
    let outcome = Session::builder()
        .analyzer_ranks(2)
        .coupling(Coupling::Serving)
        .serve_config(serve)
        .stream_config(StreamConfig::new(1024, 4, Balance::None))
        .app("ring-a", 2, ring_app(300, Some(Arc::clone(&gate))))
        .app("ring-b", 2, ring_app(300, Some(Arc::clone(&gate))))
        .app("ring-c", 2, ring_app(300, Some(gate)))
        .client("observer", 1, move |c| {
            c.subscribe().unwrap();
            c.version_info().unwrap();
            observer_gate.wait();
            loop {
                let u = c.next_update().unwrap().expect("stream ended early");
                assert!(u.shard < 2, "update named an out-of-range shard");
                let held = c.shard_report(u.shard).expect("update landed a report");
                assert_eq!(held.version, u.version);
                sink.lock().push((u.shard, u.version, u.delta));
                if u.finished {
                    let mut out = final_sink.lock();
                    for (s, r) in c.reports() {
                        out.insert(s, r.encoded.to_vec());
                    }
                    break;
                }
            }
        })
        .run()
        .unwrap();

    let store = outcome.snapshot_store.expect("serving retains the store");
    assert_eq!(store.shards(), 2);
    let seen = seen.lock();

    // Each shard's chain is independently monotone and contiguous, and
    // every shard actually published (apps were routed across both).
    let mut last: BTreeMap<u16, u64> = BTreeMap::new();
    for &(shard, version, delta) in seen.iter() {
        match last.get(&shard) {
            None => assert!(!delta, "shard {shard} must open with a snapshot"),
            Some(&prev) => {
                assert_eq!(version, prev + 1, "shard {shard} chain skipped");
                assert!(delta, "shard {shard} steady state arrives as deltas");
            }
        }
        last.insert(shard, version);
    }
    assert_eq!(last.len(), 2, "both shards must deliver updates");
    assert!(seen.iter().filter(|(_, _, d)| *d).count() >= 2);

    // The folded per-shard reports are byte-identical to each shard's
    // final stored snapshot, and the app routing is stable.
    let finals = finals.lock();
    for shard in 0..2u16 {
        let entry = store.shard(shard as usize).current().unwrap();
        assert!(entry.is_final, "shard {shard} never finalized");
        assert_eq!(
            finals.get(&shard).map(Vec::as_slice),
            Some(entry.encoded.as_ref()),
            "shard {shard} diverged from the store"
        );
    }
    let (parts, versions) = store.assemble_current();
    assert_eq!(versions.len(), 2);
    assert_eq!(parts.len(), 3, "cross-shard assembly covers every app");
    for app in &parts {
        assert_eq!(store.shard_of_app(app.app_id), (app.app_id % 2) as usize);
    }
    assert_eq!(outcome.report.apps.len(), 3);
}

#[test]
fn every_subscriber_folds_the_stores_bytes() {
    let serve = ServeConfig {
        publish_every_packs: 2,
        ring: 4096,
        ..ServeConfig::default()
    };
    // Every subscriber's full (version -> bytes) log, one slot per rank.
    type VersionLog = Vec<(u64, Vec<u8>)>;
    let logs: Arc<Mutex<Vec<VersionLog>>> = Arc::new(Mutex::new(vec![Vec::new(); 4]));
    let sink = Arc::clone(&logs);
    let next_slot = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    // 4 ring ranks + 4 subscribers.
    let gate = Arc::new(std::sync::Barrier::new(8));
    let sub_gate = Arc::clone(&gate);
    let outcome = Session::builder()
        .analyzer_ranks(3)
        .coupling(Coupling::Serving)
        .serve_config(serve)
        .stream_config(StreamConfig::new(1024, 4, Balance::None))
        .app("ring", 4, ring_app(400, Some(gate)))
        .client("subscribers", 4, move |c| {
            let slot = next_slot.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            c.subscribe().unwrap();
            c.version_info().unwrap();
            sub_gate.wait();
            let mut log = Vec::new();
            loop {
                let u = c.next_update().unwrap().expect("stream ended early");
                let held = c.shard_report(u.shard).expect("update landed a report");
                log.push((u.version, held.encoded.to_vec()));
                if u.finished {
                    break;
                }
            }
            sink.lock()[slot] = log;
        })
        .run()
        .unwrap();

    let store = outcome.snapshot_store.expect("serving retains the store");
    let logs = logs.lock();

    // Every subscriber converged on the exact stored bytes at every
    // version it observed.
    for (slot, log) in logs.iter().enumerate() {
        assert!(
            log.len() >= 2,
            "subscriber {slot} saw too few updates ({})",
            log.len()
        );
        for (version, bytes) in log {
            let entry = store.get(*version).expect("ring retained everything");
            assert_eq!(
                bytes.as_slice(),
                entry.encoded.as_ref(),
                "subscriber {slot} diverged at version {version}"
            );
        }
        let (last_v, _) = log.last().unwrap();
        assert_eq!(*last_v, store.current().unwrap().version);
    }

    // One stats row per subscriber, each counting the deltas it selected
    // and every update it consumed.
    assert_eq!(outcome.serve_stats.len(), 4);
    assert!(outcome
        .serve_stats
        .iter()
        .all(|(_, s)| s.clients == 1 && s.deltas_sent > 0));
    let acks: u64 = outcome.serve_stats.iter().map(|(_, s)| s.acks).sum();
    let updates: usize = logs.iter().map(Vec::len).sum();
    assert_eq!(acks as usize, updates);
}

#[test]
fn tenant_quotas_reject_typed_and_counted_without_collateral() {
    use opmr::serve::{QuotaKind, TenantQuota};

    let serve = ServeConfig {
        publish_every_packs: 2,
        ring: 4096,
        tenant_quotas: vec![(
            "greedy".to_string(),
            TenantQuota {
                max_subscriptions: 1,
                max_queries_per_sec: 0,
                max_delta_bytes_per_sec: 0,
            },
        )],
        ..ServeConfig::default()
    };
    let rejected = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let admitted = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let polite_done = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let rej = Arc::clone(&rejected);
    let adm = Arc::clone(&admitted);
    let pol = Arc::clone(&polite_done);
    // The session keeps one quota book, so the subscription cap is a
    // global fact.
    let outcome = Session::builder()
        .analyzer_ranks(1)
        .coupling(Coupling::Serving)
        .serve_config(serve)
        .stream_config(StreamConfig::new(1024, 4, Balance::None))
        .app("ring", 4, ring_app(200, None))
        .client_try("greedy", 3, move |c| {
            c.subscribe()?;
            // The refusal is typed and arrives on the update stream; an
            // admitted subscription folds updates through to the final.
            loop {
                match c.next_update() {
                    Err(ServeError::QuotaExceeded(QuotaKind::Subscriptions)) => {
                        rej.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        return Ok(());
                    }
                    Ok(Some(u)) if u.finished => {
                        adm.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        return Ok(());
                    }
                    Ok(Some(_)) => {}
                    Ok(None) => return Err("stream ended before final".into()),
                    Err(e) => return Err(e.into()),
                }
            }
        })
        .client_try("polite", 2, move |c| {
            c.subscribe()?;
            loop {
                match c.next_update()? {
                    Some(u) if u.finished => break,
                    Some(_) => {}
                    None => return Err("stream ended before final".into()),
                }
            }
            c.version_info()?;
            pol.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        })
        .run()
        .unwrap();

    // Exactly one greedy rank held the sole subscription slot; the two
    // others were refused with the typed subscription-quota signal.
    assert_eq!(rejected.load(std::sync::atomic::Ordering::Relaxed), 2);
    assert_eq!(admitted.load(std::sync::atomic::Ordering::Relaxed), 1);
    // Compliant tenants were untouched: both polite ranks subscribed,
    // folded to the final version and kept querying.
    assert_eq!(polite_done.load(std::sync::atomic::Ordering::Relaxed), 2);

    // The refusals are visible in the serving stats — typed to the caller
    // AND counted.
    let stats_rejections: u64 = outcome
        .serve_stats
        .iter()
        .map(|(_, s)| s.quota_rejections)
        .sum();
    assert_eq!(stats_rejections, 2);
}

#[test]
fn clients_require_serving_coupling() {
    let res = Session::builder()
        .app("ring", 2, ring_app(4, None))
        .client("observer", 1, |_c| {})
        .run();
    assert!(matches!(res, Err(opmr::core::SessionError::Config(_))));
}

#[test]
fn throttled_subscriber_still_reaches_the_final_version() {
    use opmr::serve::TenantQuota;

    // A delta-byte budget far below what the run publishes: updates are
    // held back (counted), and the subscriber sleeps in short deadlines
    // rather than waiting for a publish that may never come.
    let serve = ServeConfig {
        publish_every_packs: 2,
        ring: 4096,
        quota: TenantQuota {
            max_delta_bytes_per_sec: 8_000,
            ..TenantQuota::default()
        },
        ..ServeConfig::default()
    };
    let outcome = serving_session(120, serve, None)
        .client("throttled", 1, |c| {
            c.subscribe().unwrap();
            while !c.next_update().unwrap().expect("final version").finished {}
            assert!(c.next_update().unwrap().is_none(), "nothing after final");
        })
        .run()
        .unwrap();
    let (_, s) = outcome.serve_stats[0];
    assert!(
        s.quota_throttles > 0,
        "the budget never held an update back"
    );
    assert_eq!(s.acks, s.snapshots_sent + s.deltas_sent);
}
