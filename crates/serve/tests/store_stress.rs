//! Concurrency stress for the versioned snapshot store: publishers
//! swapping `current` and evicting ring history while readers clone,
//! probe and walk delta chains. Seeded and iteration-bounded so failures
//! reproduce; every invariant below is checked from a reader's view of a
//! store that is being mutated underneath it.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_analysis::profiler::MpiProfile;
use opmr_analysis::topology::Topology;
use opmr_analysis::wire::{decode_partials, AppPartial};
use opmr_events::EventKind;
use opmr_serve::{apply_delta, ShardedStore, SnapshotStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Self-describing payload: every derived field is a fixed function of
/// `hits`, so a decoded snapshot can be checked for internal consistency
/// — a torn publish (fields from two different versions) cannot pass.
fn parts(hits: u64) -> Vec<AppPartial> {
    let mut profile = MpiProfile::new();
    profile.absorb_stats(0, EventKind::Send, hits, hits * 10, hits * 64, 10, 10);
    vec![AppPartial {
        app_id: 0,
        packs: hits,
        wire_bytes: hits * 48,
        decode_errors: 0,
        profile,
        topology: Topology::new(),
        waitstate: None,
        metrics: None,
    }]
}

fn check_consistent(encoded: &[u8], ctx: &str) -> u64 {
    let decoded = decode_partials(encoded).unwrap_or_else(|e| panic!("{ctx}: decode: {e:?}"));
    assert_eq!(decoded.len(), 1, "{ctx}: app count");
    let p = &decoded[0];
    assert_eq!(p.wire_bytes, p.packs * 48, "{ctx}: torn snapshot");
    let send = p.profile.kind(EventKind::Send).expect("send stats");
    assert_eq!(send.hits, p.packs, "{ctx}: torn snapshot");
    assert_eq!(send.bytes, p.packs * 64, "{ctx}: torn snapshot");
    p.packs
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn concurrent_publish_read_evict() {
    const RING: usize = 4;
    const PUBLISHERS: usize = 2;
    const PUBLISHES_EACH: usize = 400;
    const READERS: usize = 4;

    let store = Arc::new(SnapshotStore::new(RING));
    let done = Arc::new(AtomicBool::new(false));

    let mut workers = Vec::new();
    for p in 0..PUBLISHERS {
        let store = Arc::clone(&store);
        workers.push(std::thread::spawn(move || {
            let mut rng = 0xA11C_E000 + p as u64;
            for _ in 0..PUBLISHES_EACH {
                // The version is assigned under the store's writer mutex;
                // the payload only needs to be self-consistent.
                let hits = 1 + splitmix64(&mut rng) % 10_000;
                let v = store.publish(parts(hits)).unwrap();
                assert!(v >= 1);
                if hits.is_multiple_of(7) {
                    std::thread::yield_now();
                }
            }
        }));
    }

    let mut readers = Vec::new();
    for r in 0..READERS {
        let store = Arc::clone(&store);
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            let mut rng = 0xBEEF_0000 + r as u64;
            let mut last_seen = 0u64;
            let mut observations = 0u64;
            while !done.load(Ordering::Acquire) {
                // `current` only moves forward, and what it points at is
                // internally consistent even mid-eviction.
                if let Some(cur) = store.current() {
                    assert!(
                        cur.version >= last_seen,
                        "current went backwards: {} after {last_seen}",
                        cur.version
                    );
                    last_seen = cur.version;
                    check_consistent(&cur.encoded, "current");
                    observations += 1;
                }
                // The ring never holds more than its capacity, and `get`
                // answers exactly the retained span.
                let (front, back) = store.version_span();
                if back != 0 {
                    assert!(back - front < RING as u64, "span {front}..={back}");
                    let probe = front + splitmix64(&mut rng) % (back - front + 1);
                    if let Some(e) = store.get(probe) {
                        assert_eq!(e.version, probe);
                        check_consistent(&e.encoded, "get");
                        // Retained deltas chain: applying this entry's
                        // delta to its predecessor's encoding must land
                        // byte-identically on this entry. Both entries
                        // are immutable Arcs, so eviction racing past
                        // them cannot disturb the check.
                        if let (Some(prev), Some(delta)) =
                            (store.get(probe.wrapping_sub(1)), e.delta.as_ref())
                        {
                            let mut live = decode_partials(&prev.encoded).unwrap();
                            let (f, t) = apply_delta(&mut live, delta).unwrap();
                            assert_eq!((f, t), (probe - 1, probe));
                            assert_eq!(
                                opmr_analysis::wire::encode_partials(&live),
                                e.encoded,
                                "delta chain broke at {probe}"
                            );
                        }
                    }
                }
            }
            observations
        }));
    }

    for w in workers {
        w.join().expect("publisher");
    }
    done.store(true, Ordering::Release);
    let mut total_observations = 0u64;
    for r in readers {
        total_observations += r.join().expect("reader");
    }
    assert!(total_observations > 0, "readers never saw a snapshot");

    // Post-run accounting: every publish landed, eviction kept the ring.
    let stats = store.stats();
    assert_eq!(stats.published, (PUBLISHERS * PUBLISHES_EACH) as u64);
    assert_eq!(stats.evicted, stats.published - RING as u64);
    let (front, back) = store.version_span();
    assert_eq!(back, stats.published);
    assert_eq!(back - front + 1, RING as u64);

    // The final publish protocol still closes cleanly under the ring.
    let v = store.publish_final(parts(1)).unwrap();
    assert_eq!(v, stats.published + 1);
    assert!(store.finished());
    assert!(store.current().unwrap().is_final);
    assert_eq!(
        store.publish(parts(2)).unwrap(),
        v,
        "publish after final must no-op"
    );
}

/// Self-consistent payload for `apps` applications, one per shard-routable
/// id. Each app's derived fields are fixed functions of `hits + app_id`,
/// so a decoded shard slice is checkable exactly like the single-app case.
fn multi_parts(hits: u64, app_ids: &[u16]) -> Vec<AppPartial> {
    app_ids
        .iter()
        .map(|&id| {
            let h = hits + id as u64;
            let mut profile = MpiProfile::new();
            profile.absorb_stats(0, EventKind::Send, h, h * 10, h * 64, 10, 10);
            AppPartial {
                app_id: id,
                packs: h,
                wire_bytes: h * 48,
                decode_errors: 0,
                profile,
                topology: Topology::new(),
                waitstate: None,
                metrics: None,
            }
        })
        .collect()
}

/// Shard-boundary behavior under concurrent multi-shard publishes: every
/// shard's ring evicts independently, every shard's retained delta chain
/// stays byte-exact while other shards publish, and a reader that fell
/// off a shard's ring observes exactly the slow-consumer resync contract
/// (the version is gone; `current` is a consistent snapshot to restart
/// from) — all from a reader's view of a store being mutated underneath.
#[test]
fn sharded_concurrent_publish_keeps_per_shard_chains_exact() {
    const SHARDS: usize = 3;
    const RING: usize = 4;
    const PUBLISHERS: usize = 2;
    const PUBLISHES_EACH: usize = 300;
    const READERS: usize = 3;
    // Apps 0..6 spread over 3 shards, two apps per shard.
    const APPS: [u16; 6] = [0, 1, 2, 3, 4, 5];

    let store = Arc::new(ShardedStore::new(SHARDS, RING, PUBLISHERS));
    let done = Arc::new(AtomicBool::new(false));

    let mut workers = Vec::new();
    for p in 0..PUBLISHERS {
        let store = Arc::clone(&store);
        workers.push(std::thread::spawn(move || {
            let mut rng = 0x5A4D_E000 + p as u64;
            for _ in 0..PUBLISHES_EACH {
                let hits = 1 + splitmix64(&mut rng) % 10_000;
                // Sometimes publish only a subset of apps, leaving the
                // other shards' slices untouched that round.
                let apps: &[u16] = if hits.is_multiple_of(3) {
                    &APPS[..2]
                } else {
                    &APPS
                };
                store.publish(multi_parts(hits, apps)).unwrap();
                if hits.is_multiple_of(7) {
                    std::thread::yield_now();
                }
            }
        }));
    }

    let mut readers = Vec::new();
    for r in 0..READERS {
        let store = Arc::clone(&store);
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            let mut rng = 0xFACE_0000 + r as u64;
            let mut last_seen = [0u64; SHARDS];
            let mut chain_checks = 0u64;
            let mut resyncs = 0u64;
            while !done.load(Ordering::Acquire) {
                let s = (splitmix64(&mut rng) % SHARDS as u64) as usize;
                let shard = store.shard(s);
                // Per-shard versions only move forward, and every app in a
                // shard's snapshot actually routes to that shard.
                if let Some(cur) = shard.current() {
                    assert!(
                        cur.version >= last_seen[s],
                        "shard {s} went backwards: {} after {}",
                        cur.version,
                        last_seen[s]
                    );
                    last_seen[s] = cur.version;
                    let decoded = decode_partials(&cur.encoded).unwrap();
                    for app in &decoded {
                        assert_eq!(store.shard_of_app(app.app_id), s, "misrouted app");
                        assert_eq!(app.wire_bytes, app.packs * 48, "torn shard snapshot");
                    }
                }
                // The shard ring is bounded and its retained delta chain
                // applies byte-exactly, independent of the other shards'
                // concurrent publishes.
                let (front, back) = shard.version_span();
                if back != 0 {
                    assert!(
                        back - front < RING as u64,
                        "shard {s} span {front}..={back}"
                    );
                    let probe = front + splitmix64(&mut rng) % (back - front + 1);
                    if let (Some(prev), Some(e)) =
                        (shard.get(probe.wrapping_sub(1)), shard.get(probe))
                    {
                        if let Some(delta) = e.delta.as_ref() {
                            let mut live = decode_partials(&prev.encoded).unwrap();
                            let (f, t) = apply_delta(&mut live, delta).unwrap();
                            assert_eq!((f, t), (probe - 1, probe));
                            assert_eq!(
                                opmr_analysis::wire::encode_partials(&live),
                                e.encoded,
                                "shard {s} delta chain broke at {probe}"
                            );
                            chain_checks += 1;
                        }
                    }
                    // Slow-consumer contract: a version below the ring
                    // front is gone (forcing a resync), and the resync
                    // target is always available and consistent.
                    if front > 1 {
                        assert!(shard.get(front - 1).is_none(), "evicted version served");
                        assert!(shard.current().is_some(), "no resync target");
                        resyncs += 1;
                    }
                }
                // Cross-shard assembly stays decodable and sorted even
                // mid-publish (each shard is a consistent Arc'd entry).
                let (parts, versions) = store.assemble_current();
                assert_eq!(versions.len(), SHARDS);
                assert!(parts.windows(2).all(|w| w[0].app_id <= w[1].app_id));
            }
            (chain_checks, resyncs)
        }));
    }

    for w in workers {
        w.join().expect("publisher");
    }
    done.store(true, Ordering::Release);
    let (mut total_chain_checks, mut total_resyncs) = (0u64, 0u64);
    for r in readers {
        let (c, s) = r.join().expect("reader");
        total_chain_checks += c;
        total_resyncs += s;
    }
    assert!(total_chain_checks > 0, "readers never walked a shard chain");
    assert!(total_resyncs > 0, "eviction never forced the resync path");

    // Both publishers report done; the final version terminates every
    // shard's chain — including any shard the subset publishes starved.
    assert!(!store.mark_writer_done());
    assert!(store.mark_writer_done());
    store.publish_final(multi_parts(1, &APPS)).unwrap();
    assert!(store.finished());
    for s in 0..SHARDS {
        let cur = store.shard(s).current().expect("final on every shard");
        assert!(cur.is_final, "shard {s} chain not terminated");
    }
    let versions = store.versions();
    assert_eq!(versions.len(), SHARDS);
    assert!(versions.iter().all(|&v| v >= 1));
}
