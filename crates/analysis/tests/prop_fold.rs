//! The pack fold against its per-event reference: for any event sequence
//! cut into packs at any points, `fold_pack` leaves every aggregate as
//! `MpiProfile::add` / `Topology::add` / `AdaptiveTimeline::add` /
//! `WaitStateAnalysis::add` / `MetricsSeries::add`, event by event, do.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_analysis::fold::{fold_pack, Aggregates, FoldTarget};
use opmr_analysis::timeline::AdaptiveTimeline;
use opmr_analysis::{AnalysisEngine, EngineConfig, MpiProfile, Topology, WaitStateAnalysis};
use opmr_events::{Event, EventKind, EventPack};
use opmr_metrics::{MetricsConfig, MetricsSeries};
use proptest::prelude::*;

/// Wide enough that the longest generated call spans a few windows only.
const WINDOW_NS: u64 = 1 << 40;

/// All 26 kinds, a handful of ranks and peers, and durations at both ends
/// (0 and 2⁴⁴) so `min_ns` / `max_ns` merge through the `u64::MAX` default.
fn arb_event() -> impl Strategy<Value = Event> {
    (
        0u64..1_000_000,
        prop_oneof![Just(0u64), 0u64..10_000, Just(1u64 << 44)],
        0..EventKind::ALL.len(),
        0u32..6,
        -1i32..6,
        0u64..1_000_000,
    )
        .prop_map(|(time_ns, duration_ns, k, rank, peer, bytes)| Event {
            time_ns,
            duration_ns,
            kind: EventKind::ALL[k],
            rank,
            peer,
            tag: 0,
            comm: 0,
            bytes,
        })
}

/// Runs of same-rank events: what a recorder streams (`single_rank`) or,
/// with the rank drawn per event, what a trace replay may hand-build.
fn arb_events(single_rank: bool) -> impl Strategy<Value = Vec<Event>> {
    (0u32..6, proptest::collection::vec(arb_event(), 0..160)).prop_map(move |(rank, mut events)| {
        if single_rank {
            for e in &mut events {
                e.rank = rank;
            }
        }
        events
    })
}

/// Cuts `events` into packs at `cuts` (any order, repeats allowed, so
/// empty packs occur), each encoded and decoded as a stream block is. A
/// pack is its first event's rank's, and numbered per rank from 0, as a
/// recorder numbers its packs.
fn cut_into_packs(events: &[Event], cuts: &[proptest::sample::Index]) -> Vec<EventPack> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c.index(events.len() + 1)).collect();
    at.extend([0, events.len()]);
    at.sort_unstable();
    let mut seqs = std::collections::HashMap::new();
    at.windows(2)
        .map(|w| {
            let run = &events[w[0]..w[1]];
            let rank = run.first().map_or(0, |e| e.rank);
            let seq = seqs.entry(rank).or_insert(0u32);
            *seq += 1;
            EventPack::new(0, rank, *seq - 1, run.to_vec())
        })
        .collect()
}

#[derive(Default)]
struct Plain {
    packs: u64,
    wire_bytes: u64,
    profile: MpiProfile,
    topology: Topology,
}

impl FoldTarget for Plain {
    fn aggregates(&mut self) -> Aggregates<'_> {
        Aggregates {
            packs: &mut self.packs,
            wire_bytes: &mut self.wire_bytes,
            profile: &mut self.profile,
            topology: &mut self.topology,
            timeline: None,
            waitstate: None,
            metrics: None,
        }
    }
}

fn assert_profiles_equal(got: &MpiProfile, want: &MpiProfile) {
    assert_eq!(got.events(), want.events());
    assert_eq!(got.ranks(), want.ranks());
    assert_eq!(got.span_ns(), want.span_ns());
    assert_eq!(got.kinds(), want.kinds());
    for kind in EventKind::ALL {
        assert_eq!(got.kind(kind), want.kind(kind), "{}", kind.name());
        for rank in 0..want.ranks() {
            assert_eq!(
                got.rank_kind(rank, kind),
                want.rank_kind(rank, kind),
                "rank {rank} {}",
                kind.name()
            );
        }
    }
}

fn assert_topologies_equal(got: &Topology, want: &Topology) {
    assert_eq!(got.ranks(), want.ranks());
    assert_eq!(got.sorted_edges(), want.sorted_edges());
}

fn check_plain_fold(events: &[Event], cuts: &[proptest::sample::Index]) {
    let packs = cut_into_packs(events, cuts);
    let mut folded = Plain::default();
    for pack in &packs {
        fold_pack(&pack.header, &pack.events, 7, || &mut folded);
    }
    let mut profile = MpiProfile::new();
    let mut topology = Topology::new();
    for e in events {
        profile.add(e);
        topology.add(e);
    }
    assert_eq!(folded.packs, packs.len() as u64);
    assert_eq!(folded.wire_bytes, 7 * packs.len() as u64);
    assert_profiles_equal(&folded.profile, &profile);
    assert_topologies_equal(&folded.topology, &topology);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn single_rank_packs_fold_as_the_per_event_reference(
        events in arb_events(true),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..8),
    ) {
        check_plain_fold(&events, &cuts);
    }

    #[test]
    fn packs_whose_rank_changes_mid_way_fold_as_the_per_event_reference(
        events in arb_events(false),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..8),
    ) {
        check_plain_fold(&events, &cuts);
    }

    /// Through the engine, one block at a time on the calling thread so
    /// the order-dependent folds see the reference's order.
    #[test]
    fn the_engine_folds_every_aggregate_as_the_per_event_reference(
        events in arb_events(false),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..8),
    ) {
        let cfg = EngineConfig { workers: 0, ..EngineConfig::default() };
        let engine = AnalysisEngine::new(cfg);
        engine.enable_waitstate();
        engine.enable_metrics(MetricsConfig { window_ns: WINDOW_NS });
        let packs = cut_into_packs(&events, &cuts);
        let mut wire_bytes = 0;
        for (i, pack) in packs.iter().enumerate() {
            let encoding = [opmr_events::PackEncoding::Fixed, opmr_events::PackEncoding::Delta][i % 2];
            let block = pack.encode_with(encoding);
            wire_bytes += block.len() as u64;
            engine.post_block(block);
            engine.blackboard().run_inline();
        }
        let report = engine.finish();
        let app = &report.apps[0];

        let mut profile = MpiProfile::new();
        let mut topology = Topology::new();
        let mut timeline = AdaptiveTimeline::new(cfg.timeline_bins, EventKind::is_mpi);
        let mut waitstate = WaitStateAnalysis::new();
        let mut metrics = MetricsSeries::new(WINDOW_NS);
        for e in &events {
            profile.add(e);
            topology.add(e);
            timeline.add(e);
            waitstate.add(e);
            metrics.add(e);
        }
        prop_assert_eq!(app.packs, packs.len() as u64);
        prop_assert_eq!(app.wire_bytes, wire_bytes);
        prop_assert_eq!(app.events, events.len() as u64);
        assert_profiles_equal(&app.profile, &profile);
        assert_topologies_equal(&app.topology, &topology);
        let (got, want) = (app.timeline.as_ref().unwrap(), timeline.snapshot());
        prop_assert_eq!((got.ranks(), got.bins()), (want.ranks(), want.bins()));
        for rank in 0..want.ranks() {
            for bin in 0..want.bins() {
                prop_assert_eq!(got.fraction(rank, bin), want.fraction(rank, bin));
            }
        }
        let mut got = bytes::BytesMut::new();
        let mut want = bytes::BytesMut::new();
        opmr_analysis::wire::encode_waitstats(app.waitstate.as_ref().unwrap(), &mut got);
        opmr_analysis::wire::encode_waitstats(waitstate.finish(), &mut want);
        prop_assert_eq!(got.to_vec(), want.to_vec());
        prop_assert_eq!(app.metrics.as_ref().unwrap(), &metrics);
    }

    /// Recorder-shaped packs (one rank each, numbered per rank) posted in
    /// any interleaving to an engine folding on several workers: the wait
    /// states are still the per-event reference's, which only the order of
    /// each rank's own events decides.
    #[test]
    fn wait_states_do_not_depend_on_the_order_packs_arrive_in(
        events in arb_events(false),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..8),
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 0..64),
    ) {
        let mut packs = Vec::new();
        for rank in 0..6u32 {
            let own: Vec<Event> = events.iter().filter(|e| e.rank == rank).copied().collect();
            let mut at: Vec<usize> = cuts.iter().map(|c| c.index(own.len() + 1)).collect();
            at.extend([0, own.len()]);
            at.sort_unstable();
            for (seq, w) in at.windows(2).enumerate() {
                packs.push(EventPack::new(0, rank, seq as u32, own[w[0]..w[1]].to_vec()));
            }
        }
        let engine = AnalysisEngine::new(EngineConfig::default());
        engine.enable_waitstate();
        engine.start();
        for i in 0..packs.len() {
            let k = picks.get(i).map_or(0, |p| p.index(packs.len()));
            engine.post_block(packs.swap_remove(k).encode());
        }
        let report = engine.finish();

        let mut waitstate = WaitStateAnalysis::new();
        for e in &events {
            waitstate.add(e);
        }
        let mut got = bytes::BytesMut::new();
        let mut want = bytes::BytesMut::new();
        opmr_analysis::wire::encode_waitstats(report.apps[0].waitstate.as_ref().unwrap(), &mut got);
        opmr_analysis::wire::encode_waitstats(waitstate.finish(), &mut want);
        prop_assert_eq!(got.to_vec(), want.to_vec());
    }
}
