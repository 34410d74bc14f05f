//! The serve plane works in O(change): what one update costs does not
//! depend on how long the session has been running.
//!
//! Two sessions that differ only in length — 500 against 5 000 closed
//! metrics windows of history — publish the same further updates. The
//! bytes both ends rewrite in their snapshot images and the series chunks
//! copied on write must then be the same per update, up to where the
//! update happens to fall relative to a chunk boundary. This is the
//! repeatable form of "lag stays flat over a session" that a wall clock
//! on a shared two-core box cannot give.
//!
//! One test in its own process: the counters it reads are process-wide.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_analysis::profiler::MpiProfile;
use opmr_analysis::topology::Topology;
use opmr_analysis::wire::AppPartial;
use opmr_events::{Event, EventKind};
use opmr_metrics::MetricsSeries;
use opmr_serve::{ClientReport, SnapshotStore};

const WINDOW_NS: u64 = 1_000_000;
/// Updates measured after the history is in place.
const UPDATES: u64 = 60;

fn counter(name: &str) -> u64 {
    opmr_obs::registry().snapshot().counter(name).unwrap_or(0)
}

/// Per-update costs of the `UPDATES` updates that follow `history` closed
/// windows: `(image bytes patched, chunks copied, image rebuilds)`.
fn session(history: u64) -> (u64, u64, u64) {
    let mut app = AppPartial {
        app_id: 0,
        packs: 0,
        wire_bytes: 0,
        decode_errors: 0,
        profile: MpiProfile::new(),
        topology: Topology::new(),
        waitstate: None,
        metrics: Some(MetricsSeries::new(WINDOW_NS)),
    };
    let store = SnapshotStore::new(4);
    let mut held: Option<ClientReport> = None;
    let mut measured_from = None;
    // Every update folds two packs' worth of a four-rank ring into two new
    // windows (plus the spill of the previous ones) and publishes, as
    // `publish_every_packs: 2` does under `.metrics(1 ms)`.
    for update in 0..history / 2 + UPDATES {
        if update == history / 2 {
            measured_from = Some((
                counter("serve_image_bytes_patched_total"),
                counter("metrics_chunks_copied_total"),
                counter("serve_image_rebuilds_total"),
            ));
        }
        let events: Vec<Event> = (0..16)
            .map(|i| {
                let t = update * 2 * WINDOW_NS + i * (WINDOW_NS / 8);
                let kind = [EventKind::Isend, EventKind::Recv, EventKind::Wait][i as usize % 3];
                Event::basic(kind, (i % 4) as u32, t, WINDOW_NS / 5)
            })
            .collect();
        app.profile.add_all(&events);
        app.metrics.as_mut().unwrap().fold_pack(&events);
        app.packs += 2;
        let version = store.publish(vec![app.clone()]).unwrap();
        let entry = store.get(version).unwrap();
        match (held.as_mut(), entry.delta.as_ref()) {
            (Some(report), Some(delta)) => report.apply_delta(version, delta).unwrap(),
            _ => held = Some(ClientReport::from_snapshot(version, &entry.encoded).unwrap()),
        }
        assert!(held.as_ref().unwrap().encoded[..] == entry.encoded[..]);
    }
    let (bytes, chunks, rebuilds) = measured_from.unwrap();
    assert!(app.metrics.as_ref().unwrap().len() as u64 >= history + 2 * UPDATES);
    (
        counter("serve_image_bytes_patched_total") - bytes,
        counter("metrics_chunks_copied_total") - chunks,
        counter("serve_image_rebuilds_total") - rebuilds,
    )
}

#[test]
fn update_cost_does_not_grow_with_session_length() {
    let (short_bytes, short_chunks, short_rebuilds) = session(500);
    let (long_bytes, long_chunks, long_rebuilds) = session(5_000);
    eprintln!(
        "per {UPDATES} updates — 500 windows: {short_bytes} B patched, {short_chunks} chunks copied; \
         5000 windows: {long_bytes} B patched, {long_chunks} chunks copied"
    );
    assert_eq!(
        (short_rebuilds, long_rebuilds),
        (0, 0),
        "a delta update re-encoded an image"
    );
    // Store and subscriber each rewrite a head and the windows an update
    // touched: the same bytes whatever came before.
    assert_eq!(
        short_bytes, long_bytes,
        "image bytes patched grew with history"
    );
    assert!(
        short_bytes / UPDATES < 4096,
        "{short_bytes} B over {UPDATES} updates is no patch"
    );
    // One copy of the chunk under the fold per publish (the snapshot still
    // shares it), one more where an update straddles a chunk boundary.
    assert!(
        short_chunks.abs_diff(long_chunks) <= 2,
        "{short_chunks} vs {long_chunks}"
    );
    assert!(
        long_chunks <= UPDATES + 4,
        "{long_chunks} chunk copies in {UPDATES} updates"
    );
}
