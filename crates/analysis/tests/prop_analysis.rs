//! Property tests for the analysis aggregates: merges are order-insensitive
//! and lossless, renderings never panic, wire round-trips are exact.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use bytes::BytesMut;
use opmr_analysis::wire;
use opmr_analysis::{DensityMap, MpiProfile, Topology};
use opmr_events::wire::Reader;
use opmr_events::{Event, EventKind};
use proptest::prelude::*;

fn arb_event() -> impl Strategy<Value = Event> {
    (
        0u64..1_000_000,
        0u64..10_000,
        0..EventKind::ALL.len(),
        0u32..16,
        -1i32..16,
        0u64..1_000_000,
    )
        .prop_map(|(t, d, k, rank, peer, bytes)| Event {
            time_ns: t,
            duration_ns: d,
            kind: EventKind::ALL[k],
            rank,
            peer,
            tag: 0,
            comm: 0,
            bytes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting an event stream at any point and merging the two partial
    /// profiles equals folding the whole stream.
    #[test]
    fn profile_merge_is_split_invariant(
        events in proptest::collection::vec(arb_event(), 1..120),
        split in any::<proptest::sample::Index>(),
    ) {
        let cut = split.index(events.len());
        let mut whole = MpiProfile::new();
        whole.add_all(&events);
        let mut a = MpiProfile::new();
        a.add_all(&events[..cut]);
        let mut b = MpiProfile::new();
        b.add_all(&events[cut..]);
        a.merge(&b);
        prop_assert_eq!(whole.events(), a.events());
        prop_assert_eq!(whole.ranks(), a.ranks());
        prop_assert_eq!(whole.span_ns(), a.span_ns());
        for kind in whole.kinds() {
            prop_assert_eq!(whole.kind(kind), a.kind(kind));
        }
    }

    /// Profile wire round-trip preserves every aggregate.
    #[test]
    fn profile_wire_roundtrip(events in proptest::collection::vec(arb_event(), 0..100)) {
        let mut p = MpiProfile::new();
        p.add_all(&events);
        let mut buf = BytesMut::new();
        wire::encode_profile(&p, &mut buf);
        let q = wire::decode_profile(&mut Reader::new(&buf)).unwrap();
        prop_assert_eq!(p.events(), q.events());
        for kind in p.kinds() {
            prop_assert_eq!(p.kind(kind), q.kind(kind));
        }
        for rank in 0..p.ranks() {
            for kind in p.kinds() {
                prop_assert_eq!(p.rank_kind(rank, kind), q.rank_kind(rank, kind));
            }
        }
    }

    /// Topology split-merge invariance + wire round-trip.
    #[test]
    fn topology_merge_and_wire(
        events in proptest::collection::vec(arb_event(), 1..120),
        split in any::<proptest::sample::Index>(),
    ) {
        let cut = split.index(events.len());
        let mut whole = Topology::new();
        whole.add_all(&events);
        let mut a = Topology::new();
        a.add_all(&events[..cut]);
        let mut b = Topology::new();
        b.add_all(&events[cut..]);
        a.merge(&b);
        prop_assert_eq!(whole.edge_count(), a.edge_count());
        for ((s, d), w) in whole.sorted_edges() {
            prop_assert_eq!(a.edge(s, d), Some(&w));
        }
        let mut buf = BytesMut::new();
        wire::encode_topology(&whole, &mut buf);
        let q = wire::decode_topology(&mut Reader::new(&buf)).unwrap();
        prop_assert_eq!(q.edge_count(), whole.edge_count());
        for ((s, d), w) in whole.sorted_edges() {
            prop_assert_eq!(q.edge(s, d), Some(&w));
        }
    }

    /// Density renderings are total: any value vector renders without
    /// panicking, with consistent dimensions.
    #[test]
    fn density_renderings_are_total(
        values in proptest::collection::vec(-1.0e12f64..1.0e12, 0..200),
        pixel in 1usize..6,
    ) {
        let m = DensityMap::new("prop", values.clone());
        let ascii = m.ascii();
        if values.is_empty() {
            prop_assert!(ascii.is_empty());
        } else {
            let (cols, rows) = m.grid_shape();
            prop_assert!(cols * rows >= values.len());
            let body_chars: usize = ascii.lines().skip(1).map(|l| l.len()).sum();
            prop_assert_eq!(body_chars, values.len());
        }
        let pgm = m.to_pgm(pixel);
        prop_assert!(pgm.starts_with(b"P5\n"));
        let s = m.stats();
        prop_assert!(s.min <= s.max || values.is_empty());
        prop_assert!(s.cv >= 0.0);
    }

    /// The temporal map conserves the total busy time of MPI calls: every
    /// nanosecond of a call lands in exactly one column, whatever the
    /// window width, and at most 64 columns cover the run.
    #[test]
    fn temporal_map_columns_conserve_mpi_busy_time(
        events in proptest::collection::vec(arb_event(), 0..150),
        window_ns in 1u64..5_000,
    ) {
        let mut series = opmr_metrics::MetricsSeries::new(window_ns);
        for e in &events {
            series.add(e);
        }
        let (_, map) = series.activity_map();
        let expect: u64 = events
            .iter()
            .filter(|e| e.kind.is_mpi())
            .map(|e| e.duration_ns)
            .sum();
        prop_assert_eq!(map.iter().flatten().sum::<u64>(), expect);
        prop_assert!(map.iter().all(|row| row.len() <= 64));
    }

    /// The pattern classifier is total and its coverage is a valid score.
    #[test]
    fn classifier_is_total(events in proptest::collection::vec(arb_event(), 0..150)) {
        let mut t = Topology::new();
        t.add_all(&events);
        let m = opmr_analysis::classify(&t);
        prop_assert!((0.0..=1.0).contains(&m.coverage) || m.coverage == 0.35,
            "coverage {}", m.coverage);
    }
}

/// Pinned replay of the shrunken failure recorded in
/// `prop_analysis.proptest-regressions`
/// (`values = [-400385209142.7387, 0.0], pixel = 1`): a two-value map whose
/// huge negative outlier once broke the rendering invariants. The vendored
/// proptest shim does not read regression files, so the case is kept alive
/// here as a plain deterministic test; keep it in sync with that file.
#[test]
fn regression_two_value_map_with_huge_negative_outlier() {
    let values = vec![-400385209142.7387_f64, 0.0];
    let m = DensityMap::new("prop", values.clone());
    let ascii = m.ascii();
    let (cols, rows) = m.grid_shape();
    assert!(cols * rows >= values.len());
    let body_chars: usize = ascii.lines().skip(1).map(|l| l.len()).sum();
    assert_eq!(body_chars, values.len());
    let pgm = m.to_pgm(1);
    assert!(pgm.starts_with(b"P5\n"));
    let s = m.stats();
    assert!(s.min <= s.max);
    assert!(s.cv >= 0.0);
}
