//! The rank clock: event timestamps at the cost of a cycle-counter read.
//!
//! `Mpi::wtime_ns` is every rank's reference clock, but it is an `Instant`
//! read, about half of an instrumented call. A [`RankClock`] reads a tick
//! counter instead (`ticks`: the CPU's time-stamp counter on x86_64, wall
//! nanoseconds elsewhere) and maps ticks onto `wtime_ns` from its
//! latest anchor:
//!
//! `now = anchor_ns + (ticks − anchor_ticks) × scale`
//!
//! with `scale` (nanoseconds per tick, 32.32 fixed point) taken over the
//! longest baseline there is, from the first anchor to the latest one.
//!
//! - **Anchors.** The clock re-anchors against `wtime_ns` every
//!   [`ANCHOR_EVERY`] reads, and sooner when a read lies further past the
//!   latest anchor than the baseline is long (a rank that slept), so an
//!   error in the scale never spreads over more time than it was measured
//!   over. An anchor returns the `wtime_ns` it read.
//! - **Brackets.** An anchor reads ticks, `wtime_ns`, ticks, and pairs the
//!   wall read with the tick midpoint. A bracket more than twice as wide as
//!   the narrowest one seen (the thread was preempted inside it) is sampled
//!   again, up to [`BRACKET_TRIES`] times; the narrowest sample is kept.
//! - **No calibration wait.** Until the baseline covers
//!   [`MIN_BASELINE_NS`] of wall time every read is an anchor, so the clock
//!   returns `wtime_ns` itself; nothing sleeps or spins at start-up.
//! - **Monotone.** The clock never returns less than it returned before. A
//!   tick source that steps back behind the latest anchor restarts the
//!   baseline.

use std::sync::OnceLock;
use std::time::Instant;

/// Reads between two scheduled anchors.
pub const ANCHOR_EVERY: u32 = 256;
/// Wall time the baseline must cover before reads interpolate.
pub const MIN_BASELINE_NS: u64 = 100_000;
/// Bracketed samples an anchor takes at most.
pub const BRACKET_TRIES: u32 = 4;
/// Bracket width (ticks) below which no sample is called wide: keeps the
/// "twice the narrowest" rule meaningful for a coarse or stepping source.
const WIDTH_FLOOR: u64 = 64;

mod obs {
    use opmr_obs::{registry, Histogram};
    use std::sync::{Arc, OnceLock};

    /// `|interpolated − wtime_ns|` at each anchor that a read could have
    /// interpolated to: the error the served timestamps carry.
    pub(super) fn gap_ns() -> &'static Arc<Histogram> {
        static M: OnceLock<Arc<Histogram>> = OnceLock::new();
        M.get_or_init(|| registry().histogram("instrument_clock_gap_ns"))
    }
}

/// The tick source every [`RankClock`] reads: the time-stamp counter on
/// x86_64, `wall_ticks` (scale 1) on every other target.
#[inline(always)]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        tsc_ticks()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        wall_ticks()
    }
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn tsc_ticks() -> u64 {
    // SAFETY: `rdtsc` belongs to the x86_64 base instruction set; it reads
    // the time-stamp counter into registers and touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Wall nanoseconds since this process first asked: the tick source on
/// targets without a cycle counter read here. It compiles everywhere, so
/// the x86_64 tests run it too.
#[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
fn wall_ticks() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A tick count and the `wtime_ns` read it bracketed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Anchor {
    ticks: u64,
    ns: u64,
}

/// `dt` ticks in nanoseconds at `scale` (32.32 fixed point).
#[inline(always)]
fn scaled(dt: u64, scale: u64) -> u64 {
    ((u128::from(dt) * u128::from(scale)) >> 32) as u64
}

/// One rank's clock: `wtime_ns` interpolated from a tick counter (module
/// docs). Its owner keeps one per rank and passes the reference clock to
/// every read.
#[derive(Debug)]
pub struct RankClock {
    /// First anchor of the baseline the scale is taken over.
    base: Anchor,
    /// Latest anchor: reads interpolate from here. Its ticks start at the
    /// top of the range, so the first anchor restarts the baseline just as
    /// a tick source stepping back does.
    last: Anchor,
    /// Nanoseconds per tick, 32.32 fixed point.
    scale: u64,
    /// Ticks past `last` a read may interpolate over: the baseline's
    /// length, 0 (every read anchors) until it covers `MIN_BASELINE_NS`.
    span: u64,
    /// Reads left before the next scheduled anchor.
    reads_left: u32,
    /// Narrowest bracket seen, in ticks.
    min_width: u64,
    /// The last value returned.
    out: u64,
}

impl Default for RankClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RankClock {
    /// A clock with no anchor yet: its first read returns `wall()`.
    pub const fn new() -> Self {
        RankClock {
            base: Anchor { ticks: 0, ns: 0 },
            last: Anchor {
                ticks: u64::MAX,
                ns: 0,
            },
            scale: 0,
            span: 0,
            reads_left: 0,
            min_width: u64::MAX,
            out: 0,
        }
    }

    /// The time on `wall`'s scale: interpolated from the tick counter, or read
    /// from `wall` (the rank's `wtime_ns`) when an anchor is due. Never
    /// less than the previous value.
    #[inline]
    pub fn now(&mut self, wall: impl FnMut() -> u64) -> u64 {
        self.read(ticks, wall)
    }

    #[inline(always)]
    fn read(&mut self, mut ticks: impl FnMut() -> u64, wall: impl FnMut() -> u64) -> u64 {
        // A tick count behind `last` wraps to a huge `dt`: it anchors.
        let dt = ticks().wrapping_sub(self.last.ticks);
        let t = if self.reads_left == 0 || dt >= self.span {
            self.anchor(ticks, wall)
        } else {
            self.reads_left -= 1;
            self.last.ns + scaled(dt, self.scale)
        };
        self.out = self.out.max(t);
        self.out
    }

    #[cold]
    #[inline(never)]
    fn anchor(&mut self, ticks: impl FnMut() -> u64, wall: impl FnMut() -> u64) -> u64 {
        let s = self.sample(ticks, wall);
        if s.ticks <= self.last.ticks || s.ns < self.last.ns {
            // The first anchor, or the ticks stepped back: a new baseline.
            self.base = s;
            self.scale = 0;
            self.span = 0;
        } else {
            let since = s.ticks - self.last.ticks;
            if since < self.span {
                let predicted = self.last.ns + scaled(since, self.scale);
                obs::gap_ns().record(predicted.abs_diff(s.ns));
            }
            let (dt, dns) = (s.ticks - self.base.ticks, s.ns - self.base.ns);
            if dns >= MIN_BASELINE_NS {
                self.scale =
                    ((u128::from(dns) << 32) / u128::from(dt)).min(u128::from(u64::MAX)) as u64;
                self.span = dt;
            }
        }
        self.last = s;
        self.reads_left = ANCHOR_EVERY - 1;
        s.ns
    }

    /// One bracketed `(ticks, wall)` pair: re-sampled while the bracket is
    /// wide, the narrowest kept. The first anchor takes every try.
    fn sample(&mut self, mut ticks: impl FnMut() -> u64, mut wall: impl FnMut() -> u64) -> Anchor {
        let limit = match self.min_width {
            u64::MAX => 0,
            w => w.max(WIDTH_FLOOR).saturating_mul(2),
        };
        let mut best = (u64::MAX, Anchor { ticks: 0, ns: 0 });
        for _ in 0..BRACKET_TRIES {
            let a = ticks();
            let ns = wall();
            let b = ticks();
            // A step back inside the bracket leaves no midpoint: keep the
            // later read, as the widest kind of sample.
            let (mid, width) = match b.checked_sub(a) {
                Some(w) => (a + w / 2, w),
                None => (b, u64::MAX),
            };
            self.min_width = self.min_width.min(width);
            if width <= best.0 {
                best = (width, Anchor { ticks: mid, ns });
            }
            if width <= limit {
                break;
            }
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A made-up machine: one wall clock in nanoseconds that every read
    /// advances by `step`, and a tick counter at `num / den` ticks per
    /// nanosecond plus an adjustable offset.
    struct Fake {
        ns: Cell<u64>,
        step: u64,
        num: u64,
        den: u64,
        offset: Cell<i64>,
        /// Nanoseconds the next wall read is late by (a preemption).
        preempt: Cell<u64>,
        walls: Cell<u64>,
    }

    impl Fake {
        fn new(step: u64, num: u64, den: u64) -> Fake {
            Fake {
                ns: Cell::new(1_000_000_000_000),
                step,
                num,
                den,
                offset: Cell::new(0),
                preempt: Cell::new(0),
                walls: Cell::new(0),
            }
        }

        fn advance(&self) -> u64 {
            self.ns.set(self.ns.get() + self.step);
            self.ns.get()
        }

        fn tick(&self) -> u64 {
            let t = u128::from(self.advance()) * u128::from(self.num) / u128::from(self.den);
            (t as i64 + self.offset.get()) as u64
        }

        fn wall(&self) -> u64 {
            self.walls.set(self.walls.get() + 1);
            self.ns.set(self.ns.get() + self.preempt.take());
            self.advance()
        }

        fn read(&self, clock: &mut RankClock) -> u64 {
            clock.read(|| self.tick(), || self.wall())
        }
    }

    #[test]
    fn the_scale_converges_at_a_2_5_ghz_tick_rate() {
        let f = Fake::new(13, 5, 2);
        let mut clock = RankClock::new();
        let mut worst = 0;
        for i in 0..200_000 {
            let t = f.read(&mut clock);
            if i > 20_000 {
                worst = worst.max(t.abs_diff(f.ns.get()));
            }
        }
        // 0.4 ns per tick = 0.4 × 2^32 in 32.32.
        let want = (0.4 * (1u64 << 32) as f64) as u64;
        assert!(
            clock.scale.abs_diff(want) <= want / 1_000_000,
            "{}",
            clock.scale
        );
        assert!(clock.span > 0);
        assert!(worst <= 30, "interpolation off by {worst} ns");
    }

    #[test]
    fn a_backwards_tick_step_stays_monotone_and_the_next_anchor_corrects_it() {
        let f = Fake::new(10, 3, 1);
        let mut clock = RankClock::new();
        let mut prev = 0;
        let mut read = |clock: &mut RankClock| {
            let t = f.read(clock);
            assert!(t >= prev, "clock went back: {t} < {prev}");
            prev = t;
            t
        };
        for _ in 0..50_000 {
            read(&mut clock);
        }
        while clock.reads_left > 0 {
            read(&mut clock);
        }
        for _ in 0..200 {
            read(&mut clock);
        }
        // Small step, still past the latest anchor: reads hold still
        // until the next scheduled anchor, which returns the wall clock.
        let wall_reads = f.walls.get();
        f.offset.set(f.offset.get() - 2_000);
        while f.walls.get() == wall_reads {
            read(&mut clock);
        }
        assert_eq!(clock.out, clock.last.ns);
        assert!(clock.span > 0, "a step after the anchor keeps the baseline");
        // Large step, behind the latest anchor: the next read anchors and
        // the baseline restarts, returning the wall clock meanwhile.
        f.offset.set(f.offset.get() - 1_000_000_000);
        let t = read(&mut clock);
        assert_eq!(clock.span, 0);
        assert_eq!(t, clock.last.ns);
        for _ in 0..100_000 {
            let t = read(&mut clock);
            assert!(t.abs_diff(f.ns.get()) <= 30);
        }
        assert!(clock.span > 0, "the new baseline calibrates");
    }

    #[test]
    fn a_wide_bracket_is_rejected_and_sampled_again() {
        let f = Fake::new(10, 3, 1);
        let mut clock = RankClock::new();
        while clock.span == 0 {
            f.read(&mut clock);
        }
        while clock.reads_left > 0 {
            f.read(&mut clock);
        }
        // The next read anchors; its first wall read is 50 µs late.
        f.preempt.set(50_000);
        let walls = f.walls.get();
        let t = f.read(&mut clock);
        assert_eq!(
            f.walls.get() - walls,
            2,
            "the wide bracket is sampled again"
        );
        // The kept sample's midpoint is its wall read's own tick count.
        assert_eq!(clock.last.ticks, t * 3);
        assert_eq!(clock.last.ns, t);
    }

    #[test]
    fn the_wall_source_runs_at_scale_one() {
        // Ticks and wall read one counter: the tick midpoint is the wall
        // read, so the scale is exactly 1 and every read is the wall.
        let f = Fake::new(7, 1, 1);
        let mut clock = RankClock::new();
        for _ in 0..100_000 {
            let before = f.ns.get();
            let t = f.read(&mut clock);
            assert!(before < t && t <= f.ns.get());
        }
        assert_eq!(clock.scale, 1 << 32);
        // The real wall source: scale 1 within its brackets' jitter, and
        // every read inside the wall reads around it.
        let mut clock = RankClock::new();
        for _ in 0..200_000 {
            let before = wall_ticks();
            let t = clock.read(wall_ticks, wall_ticks);
            let after = wall_ticks();
            assert!(before.saturating_sub(5_000) <= t && t <= after + 5_000);
        }
        assert!(
            clock.scale.abs_diff(1 << 32) <= (1 << 32) / 100,
            "{}",
            clock.scale
        );
    }

    #[test]
    fn the_clock_returns_the_wall_until_the_baseline_is_reached() {
        let f = Fake::new(10, 3, 1);
        let mut clock = RankClock::new();
        let start = f.ns.get();
        while f.ns.get() - start < MIN_BASELINE_NS - 100 {
            let walls = f.walls.get();
            let t = f.read(&mut clock);
            assert!(f.walls.get() > walls, "every read anchors");
            assert_eq!(t, clock.last.ns);
            assert_eq!(clock.span, 0);
        }
        for _ in 0..100 {
            f.read(&mut clock);
        }
        assert!(clock.span > 0);
        let walls = f.walls.get();
        for _ in 0..ANCHOR_EVERY {
            f.read(&mut clock);
        }
        assert_eq!(
            f.walls.get() - walls,
            1,
            "one anchor per {ANCHOR_EVERY} reads"
        );
        // A rank that slept for longer than the baseline: its next read
        // anchors at once instead of stretching the scale over the gap.
        f.read(&mut clock);
        assert!(clock.reads_left > 0);
        f.ns.set(f.ns.get() + 10 * MIN_BASELINE_NS);
        let walls = f.walls.get();
        let t = f.read(&mut clock);
        assert_eq!(f.walls.get() - walls, 1, "the read past the span anchors");
        assert_eq!(t, clock.last.ns);
    }
}
