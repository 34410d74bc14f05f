//! Deterministic fault injection at the transport boundary.
//!
//! A [`FaultPlan`] describes the faults any backend can have — delay, slow
//! rank, writer crash — each keyed by a `u64` seed and a per-edge
//! probability. The plan is installed on the [`crate::Launcher`] and
//! evaluated by the [`FaultLayer`] inside `send`/`isend` on the
//! [`crate::Context::Stream`] plane, just before the envelope is handed to
//! the transport.
//!
//! Every decision is a pure function of `(seed, src, dst, per-edge sequence
//! number, fault kind)`: the n-th stream-plane message on an edge sees the
//! same verdict in every run with the same plan, regardless of thread
//! interleaving. That is what makes chaos runs replayable — rerunning with
//! the seed printed by a failing test reproduces the exact fault schedule.
//!
//! The plan never drops, duplicates or reorders an envelope: the transport
//! is reliable and non-overtaking, as MPI is. Loss lives where it can
//! happen, under the socket link ([`crate::LinkFault`]), which recovers it
//! before any envelope reaches a mailbox.

use crate::RtError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Permanently disable a rank's stream-plane sends after it has issued a
/// number of them — the harness's model of a writer process dying
/// mid-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterCrash {
    /// World rank that crashes.
    pub rank: usize,
    /// Number of stream-plane sends the rank completes before dying.
    pub after_sends: u64,
}

/// A seeded, deterministic fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed keying every per-edge decision.
    pub seed: u64,
    /// Probability a message is delayed by [`FaultPlan::delay`].
    pub delay_p: f64,
    /// Delay applied when the delay fault fires.
    pub delay: Duration,
    /// Ranks whose every send is slowed by [`FaultPlan::slow_delay`].
    pub slow_ranks: Vec<usize>,
    /// Extra latency per send from a slow rank.
    pub slow_delay: Duration,
    /// Optional mid-stream writer death.
    pub crash: Option<WriterCrash>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_p: 0.0,
            delay: Duration::from_micros(200),
            slow_ranks: Vec::new(),
            slow_delay: Duration::from_micros(200),
            crash: None,
        }
    }

    /// Enables message delay with probability `p` and the given duration.
    pub fn with_delay(mut self, p: f64, by: Duration) -> Self {
        self.delay_p = p;
        self.delay = by;
        self
    }

    /// Marks `rank` as slow: every send from it sleeps `by` first.
    pub fn with_slow_rank(mut self, rank: usize, by: Duration) -> Self {
        self.slow_ranks.push(rank);
        self.slow_delay = by;
        self
    }

    /// Kills `rank`'s stream transport after `after_sends` sends: every
    /// later send from it fails with [`RtError::Unreachable`].
    pub fn with_crash(mut self, rank: usize, after_sends: u64) -> Self {
        self.crash = Some(WriterCrash { rank, after_sends });
        self
    }
}

/// Counters of faults actually injected, readable after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub delays: u64,
    pub slow_hits: u64,
    pub crashed_sends: u64,
}

impl FaultStats {
    /// Total faults of any kind.
    pub fn total(&self) -> u64 {
        self.delays + self.slow_hits + self.crashed_sends
    }
}

// Registry mirrors of the per-layer fault counters, so chaos runs show up
// in the self-monitoring snapshot next to the stream/serve metrics.
mod obs {
    use opmr_obs::{registry, Counter};
    use std::sync::{Arc, OnceLock};

    pub(super) struct FaultMetrics {
        pub delays: Arc<Counter>,
        pub slow_hits: Arc<Counter>,
        pub crashed_sends: Arc<Counter>,
    }

    pub(super) fn m() -> &'static FaultMetrics {
        static M: OnceLock<FaultMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            FaultMetrics {
                delays: r.counter("fault_delays_total"),
                slow_hits: r.counter("fault_slow_hits_total"),
                crashed_sends: r.counter("fault_crashed_sends_total"),
            }
        })
    }
}

// Salt of the delay decision stream.
const SALT_DELAY: u64 = 0x6465_6c79; // "dely"

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Evaluates a [`FaultPlan`] against live traffic.
pub struct FaultLayer {
    plan: FaultPlan,
    /// Per-edge sequence numbers keying the delay rolls.
    edges: Mutex<HashMap<(usize, usize), u64>>,
    /// Sends attempted by the crash rank (crash trigger input).
    crash_rank_sends: AtomicU64,
    delays: AtomicU64,
    slow_hits: AtomicU64,
    crashed_sends: AtomicU64,
}

impl FaultLayer {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultLayer {
            plan,
            edges: Mutex::new(HashMap::new()),
            crash_rank_sends: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            slow_hits: AtomicU64::new(0),
            crashed_sends: AtomicU64::new(0),
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of the injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            delays: self.delays.load(Ordering::Relaxed),
            slow_hits: self.slow_hits.load(Ordering::Relaxed),
            crashed_sends: self.crashed_sends.load(Ordering::Relaxed),
        }
    }

    fn delay_hits(&self, src: usize, dst: usize, seq: u64) -> bool {
        let p = self.plan.delay_p;
        if p >= 1.0 {
            return true;
        }
        let mut h = splitmix64(self.plan.seed ^ SALT_DELAY);
        for v in [src as u64, dst as u64, seq] {
            h = splitmix64(h ^ v);
        }
        h < (p * u64::MAX as f64) as u64
    }

    /// Decides the fate of one stream-plane message from `src` to `dst`:
    /// how long to sleep before delivering it, or
    /// [`RtError::Unreachable`] when `src` has crashed.
    pub(crate) fn on_send(&self, src: usize, dst: usize) -> crate::Result<Option<Duration>> {
        if let Some(c) = self.plan.crash.filter(|c| c.rank == src) {
            if self.crash_rank_sends.fetch_add(1, Ordering::Relaxed) >= c.after_sends {
                self.crashed_sends.fetch_add(1, Ordering::Relaxed);
                obs::m().crashed_sends.inc();
                return Err(RtError::Unreachable { dst });
            }
        }

        let mut sleep = None;
        if self.plan.slow_ranks.contains(&src) {
            self.slow_hits.fetch_add(1, Ordering::Relaxed);
            obs::m().slow_hits.inc();
            sleep = Some(self.plan.slow_delay);
        }
        if self.plan.delay_p > 0.0 {
            let seq = {
                let mut edges = self.edges.lock();
                let next = edges.entry((src, dst)).or_default();
                *next += 1;
                *next - 1
            };
            if self.delay_hits(src, dst, seq) {
                self.delays.fetch_add(1, Ordering::Relaxed);
                obs::m().delays.inc();
                sleep = Some(sleep.unwrap_or_default() + self.plan.delay);
            }
        }
        Ok(sleep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_passes_everything_through() {
        let l = FaultLayer::new(FaultPlan::seeded(1));
        for _ in 0..100 {
            assert_eq!(l.on_send(0, 1), Ok(None));
        }
        assert_eq!(l.stats().total(), 0);
    }

    #[test]
    fn decisions_are_deterministic_per_edge_sequence() {
        let plan = FaultPlan::seeded(42).with_delay(0.3, Duration::from_micros(5));
        let run = |l: &FaultLayer| -> Vec<_> { (0..200).map(|_| l.on_send(2, 5)).collect() };
        let a = run(&FaultLayer::new(plan.clone()));
        let b = run(&FaultLayer::new(plan));
        assert_eq!(a, b);
        assert!(a.contains(&Ok(None)), "some sends pass undelayed at p=0.3");
        assert!(
            a.contains(&Ok(Some(Duration::from_micros(5)))),
            "some delays expected at p=0.3"
        );
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mk = |seed| {
            let l = FaultLayer::new(FaultPlan::seeded(seed).with_delay(0.5, Duration::ZERO));
            (0..64).map(|_| l.on_send(0, 1)).collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn crash_kills_all_later_sends_from_the_rank() {
        let counter = || {
            opmr_obs::registry()
                .counter("fault_crashed_sends_total")
                .get()
        };
        let before = counter();
        let l = FaultLayer::new(FaultPlan::seeded(9).with_crash(3, 2));
        assert_eq!(l.on_send(3, 1), Ok(None));
        assert_eq!(l.on_send(3, 1), Ok(None));
        assert_eq!(
            l.on_send(3, 1),
            Err(RtError::Unreachable { dst: 1 }),
            "third send dies"
        );
        // Every later send from the crashed rank fails, to any peer.
        assert_eq!(l.on_send(3, 4), Err(RtError::Unreachable { dst: 4 }));
        // Other ranks are unaffected.
        assert_eq!(l.on_send(2, 1), Ok(None));
        assert_eq!(l.stats().crashed_sends, 2);
        // No other test in this binary crashes a rank, so the registry
        // moved by exactly the refused sends: once per send.
        assert_eq!(counter() - before, 2);
    }

    #[test]
    fn slow_rank_gets_a_sleep_and_delay_adds_one() {
        let l = FaultLayer::new(
            FaultPlan::seeded(5)
                .with_slow_rank(1, Duration::from_micros(10))
                .with_delay(1.0, Duration::from_micros(20)),
        );
        assert_eq!(l.on_send(1, 2), Ok(Some(Duration::from_micros(30))));
        assert_eq!(l.on_send(0, 2), Ok(Some(Duration::from_micros(20))));
    }
}
