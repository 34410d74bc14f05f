//! A pack is one knowledge-source invocation — the dispatcher decodes and
//! folds it — whatever the level has enabled, plus one per plug-in KS
//! registered on `<level>/events`. One test alone in its file: the counter
//! is process-wide, and a test binary runs its tests concurrently.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_analysis::{AnalysisEngine, EngineConfig};
use opmr_blackboard::{type_id, KnowledgeSource};
use opmr_events::{Event, EventKind, EventPack};
use opmr_metrics::MetricsConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn ks_invocations_grow_by_one_per_pack_and_by_one_more_per_events_ks() {
    let invocations = opmr_obs::registry().counter("blackboard_ks_invocations_total");
    for (extras, events_ks) in [(false, false), (true, false), (false, true)] {
        let what = format!("waitstate + metrics {extras}, events KS {events_ks}");
        let engine = AnalysisEngine::new(EngineConfig {
            workers: 0,
            ..EngineConfig::default()
        });
        if extras {
            engine.enable_waitstate();
            engine.enable_metrics(MetricsConfig { window_ns: 1000 });
        }
        let seen = Arc::new(AtomicU64::new(0));
        if events_ks {
            let seen = Arc::clone(&seen);
            engine.blackboard().register(KnowledgeSource::new(
                "events-counter",
                vec![type_id("app0", "events")],
                move |_bb, entries| {
                    let pack = entries[0].downcast_ref::<EventPack>().unwrap();
                    seen.fetch_add(pack.events.len() as u64, Ordering::Relaxed);
                },
            ));
        }
        let per_pack = 1 + events_ks as u64;
        for seq in 0..40u32 {
            let events = vec![Event::basic(EventKind::Barrier, 1, 100 * seq as u64, 10); 5];
            let before = invocations.get();
            engine.post_block(EventPack::new(0, 1, seq, events).encode());
            engine.blackboard().run_inline();
            assert_eq!(invocations.get() - before, per_pack, "{what}, pack {seq}");
        }
        assert_eq!(engine.blackboard().stats().jobs_executed, per_pack * 40);
        let report = engine.finish();
        assert_eq!(report.apps[0].events, 200, "{what}");
        assert_eq!(report.apps[0].waitstate.is_some(), extras, "{what}");
        // Every level folds a series: `.metrics(w)`'s width, or an
        // adaptive one (the 40 packs end at 3.9 µs, inside the first).
        let width = report.apps[0].metrics.as_ref().map(|m| m.window_ns());
        let want = if extras {
            1000
        } else {
            opmr_metrics::ADAPTIVE_START_NS
        };
        assert_eq!(width, Some(want), "{what}");
        let want_seen = if events_ks { 200 } else { 0 };
        assert_eq!(seen.load(Ordering::Relaxed), want_seen, "{what}");
    }
}
