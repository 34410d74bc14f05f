//! A pack is three knowledge-source invocations — dispatcher, unpacker,
//! fold — whatever the level has enabled. Alone in its file: the counter
//! is process-wide, and a test binary runs its tests concurrently.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_analysis::{AnalysisEngine, EngineConfig};
use opmr_events::{Event, EventKind, EventPack};
use opmr_metrics::MetricsConfig;

#[test]
fn ks_invocations_grow_by_three_per_pack_with_or_without_waitstate_and_metrics() {
    let invocations = opmr_obs::registry().counter("blackboard_ks_invocations_total");
    for extras in [false, true] {
        let engine = AnalysisEngine::new(EngineConfig {
            workers: 0,
            ..EngineConfig::default()
        });
        if extras {
            engine.enable_waitstate();
            engine.enable_metrics(MetricsConfig { window_ns: 1000 });
        }
        for seq in 0..40u32 {
            let events = vec![Event::basic(EventKind::Barrier, 1, 100 * seq as u64, 10); 5];
            let before = invocations.get();
            engine.post_block(EventPack::new(0, 1, seq, events).encode());
            engine.blackboard().run_inline();
            assert_eq!(invocations.get() - before, 3, "extras {extras}, pack {seq}");
        }
        assert_eq!(engine.blackboard().stats().jobs_executed, 3 * 40);
        let report = engine.finish();
        assert_eq!(report.apps[0].events, 200);
        assert_eq!(report.apps[0].waitstate.is_some(), extras);
        assert_eq!(report.apps[0].metrics.is_some(), extras);
    }
}
