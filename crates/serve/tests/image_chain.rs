//! The patched snapshot image against its definition, at both ends.
//!
//! Random snapshot chains are published into a store and followed by a
//! subscriber's [`ClientReport`]. At every version the bytes each end
//! reached by patching must equal `encode_partials` of that version's
//! partials (the full encode is the reference, never the mechanism), and
//! must decode back to what encodes to the same bytes. A damaged delta
//! must come back as the typed error with bytes and parts still agreeing.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_analysis::profiler::MpiProfile;
use opmr_analysis::topology::Topology;
use opmr_analysis::waitstate::WaitStats;
use opmr_analysis::wire::{decode_partials, encode_partials, AppPartial, WireError};
use opmr_events::{Event, EventKind};
use opmr_metrics::MetricsSeries;
use opmr_serve::{ClientReport, ServeError, SnapshotStore};
use proptest::prelude::*;

/// Metrics window width of the generated apps: an [`Op::Fold`] burst of up
/// to 40 events 300 ns apart spans up to 24 windows, so a chain crosses
/// several 64-window chunks and early chunks become shared history.
const WINDOW_NS: u64 = 500;

fn new_app(app_id: u16, with_metrics: bool) -> AppPartial {
    AppPartial {
        app_id,
        packs: 0,
        wire_bytes: 0,
        decode_errors: 0,
        profile: MpiProfile::new(),
        topology: Topology::new(),
        waitstate: None,
        metrics: with_metrics.then(|| MetricsSeries::new(WINDOW_NS)),
    }
}

fn fold(app: &mut AppPartial, e: &Event) {
    app.profile.add(e);
    if let Some(m) = app.metrics.as_mut() {
        m.add(e);
    }
}

fn event(kind: EventKind, rank: u32, time_ns: u64, duration_ns: u64) -> Event {
    Event {
        bytes: 64,
        ..Event::basic(kind, rank, time_ns, duration_ns)
    }
}

/// The live aggregates a chain of snapshots is cloned from — what the
/// engine's app slots are to `snapshot_partials`.
struct Live {
    apps: Vec<AppPartial>,
    now: u64,
}

/// One mutation of the live aggregates: `(what, which app, r, p)`.
type Op = (u8, u16, u32, u64);

impl Live {
    fn apply(&mut self, (what, sel, r, p): Op) {
        let n = self.apps.len();
        let app = &mut self.apps[sel as usize % n];
        match what {
            // A pack's worth of events at the head of time.
            0..=2 => {
                for i in 0..1 + p % 40 {
                    self.now += 300;
                    let kind = [EventKind::Send, EventKind::Recv, EventKind::Wait][i as usize % 3];
                    fold(app, &event(kind, (r + i as u32) % 4, self.now, 100 + p));
                }
                app.packs += 1;
                app.wire_bytes += 48 * (1 + p % 40);
            }
            // A late event: lands in a window (and chunk) long since
            // closed and shared with earlier snapshots.
            3 => fold(
                app,
                &event(EventKind::Isend, r % 4, p % (self.now / 2 + 1), 50),
            ),
            // A rank never seen before.
            4 => fold(app, &event(EventKind::Send, 6 + r, self.now, 10)),
            // A new application, in front of, between or behind the others.
            5 => {
                let id = (sel % 5) * 3;
                if let Err(at) = self.apps.binary_search_by_key(&id, |a| a.app_id) {
                    self.apps.insert(at, new_app(id, p % 4 != 0));
                }
            }
            // Wait-state appears, then moves.
            6 => {
                let ws = app.waitstate.get_or_insert_with(WaitStats::default);
                ws.matched += 1 + p;
                *ws.late_sender_by_victim.entry(r % 4).or_default() += p;
            }
            // The head grows: a topology edge the section did not hold.
            7 => app
                .topology
                .add_weighted(r % 6, (r + 1 + sel as u32) % 6, 1, p, 1),
            // Aggregates shrink — the profile, the series' windows, or the
            // whole series, restarted at another width.
            8 => match p % 3 {
                0 => app.profile = MpiProfile::new(),
                1 => {
                    app.metrics = app
                        .metrics
                        .take()
                        .map(|m| m.filter_ranks(|rank| rank != r % 4))
                }
                _ => app.metrics = Some(MetricsSeries::new(WINDOW_NS + p)),
            },
            // An adaptive doubling: the series' windows fold pairwise
            // into windows twice as wide.
            10 => {
                if let Some(m) = app.metrics.as_mut() {
                    m.coarsen(2);
                }
            }
            // An application leaves: no delta can say so.
            9 if n > 1 => {
                self.apps.remove(sel as usize % n);
            }
            // Nothing happens (a publish that changes nothing).
            _ => {}
        }
    }
}

fn assert_is_the_encoding_of(bytes: &[u8], parts: &[AppPartial], what: &str) {
    assert!(
        bytes == &encode_partials(parts)[..],
        "{what}: bytes are not encode_partials(parts)"
    );
    let decoded = decode_partials(bytes).expect("a snapshot image decodes");
    assert!(
        bytes == &encode_partials(&decoded)[..],
        "{what}: decode(bytes) encodes differently"
    );
}

/// The typed error a damaged delta must yield, with the pair intact.
fn assert_refused_intact(base: &[u8], version: u64, delta: &[u8], what: &str) {
    let mut held = ClientReport::from_snapshot(version - 1, base).unwrap();
    match held.apply_delta(version, delta) {
        Err(ServeError::Wire(WireError::Truncated)) => {}
        other => panic!("{what}: expected a truncation error, got {:?}", other.err()),
    }
    assert_is_the_encoding_of(&held.encoded, &held.parts, what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn patched_images_equal_the_full_encoding_at_every_version(
        steps in proptest::collection::vec(
            proptest::collection::vec((0u8..12, 0u16..8, 0u32..8, 0u64..200), 1..5),
            2..24,
        ),
        cut in any::<proptest::sample::Index>(),
    ) {
        let mut live = Live { apps: vec![new_app(3, true)], now: 0 };
        let store = SnapshotStore::new(steps.len() + 1);
        let mut held: Option<ClientReport> = None;
        for ops in steps {
            for op in ops {
                live.apply(op);
            }
            let snapshot = live.apps.clone();
            let Some(version) = store.publish_if_changed(snapshot.clone()).unwrap() else {
                let current = store.current().expect("only a second publish can be skipped");
                prop_assert!(current.encoded == encode_partials(&snapshot), "skipped a change");
                continue;
            };
            let entry = store.get(version).unwrap();
            assert_is_the_encoding_of(&entry.encoded, &snapshot, "store");
            assert_is_the_encoding_of(&entry.encoded, &entry.parts, "store parts");

            match (held.as_mut(), entry.delta.as_ref()) {
                (Some(report), Some(delta)) => {
                    let base = report.encoded.to_vec();
                    assert_refused_intact(&base, version, &delta[..cut.index(delta.len())], "cut");
                    // One more app announced than the delta carries.
                    let mut lying = delta.to_vec();
                    let n_apps = u16::from_le_bytes([lying[22], lying[23]]) + 1;
                    lying[22..24].copy_from_slice(&n_apps.to_le_bytes());
                    assert_refused_intact(&base, version, &lying, "count");
                    report.apply_delta(version, delta).unwrap();
                }
                // The opener, or a version no delta leads to: resync.
                _ => held = Some(ClientReport::from_snapshot(version, &entry.encoded).unwrap()),
            }
            let report = held.as_ref().unwrap();
            prop_assert_eq!(report.version, version);
            prop_assert!(report.encoded[..] == entry.encoded[..], "client and store bytes differ");
            assert_is_the_encoding_of(&report.encoded, &report.parts, "client");
        }
    }
}
