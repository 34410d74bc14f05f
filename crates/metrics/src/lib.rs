//! # opmr-metrics — time-resolved standard metrics
//!
//! The report plane (`opmr-analysis`) answers *"what did the run do
//! overall"*; this crate answers *"when did it go wrong"*. It folds the
//! same event stream into fixed-width time windows and keeps, per window
//! and per rank, a handful of integer accumulators — enough to derive the
//! standard efficiency metrics of trace-based analyses (POP-style load
//! balance, communication efficiency, the serialization/transfer
//! decomposition, waitstate fraction) without retaining a trace, the same
//! discipline as `analysis::timeline`.
//!
//! Two design rules make the series safe to ship through every coupling
//! mode (direct engine, TBON reduction, serve-plane snapshots):
//!
//! 1. **Pure integer fold.** [`MetricsSeries::add`] splits an event's
//!    duration exactly at window boundaries and adds nanosecond chunks
//!    into `u64` cells. No floats are stored or encoded, so online
//!    (pack-by-pack) and offline (whole-trace) folds are bit-identical,
//!    and a seeded chaos replay that re-delivers the same events in any
//!    order produces the same bytes.
//! 2. **Order-independent merge.** [`MetricsSeries::merge`] is cell-wise
//!    addition over a canonically ordered map, so a TBON tree merging
//!    partial series in any shape equals the flat computation, byte for
//!    byte.
//!
//! Derived efficiencies ([`WindowMetrics`]) are computed from the integer
//! cells at presentation time only and never travel on the wire.

mod series;
mod view;

pub use series::{MetricsConfig, MetricsSeries, WindowCell, WindowCells, DEFAULT_WINDOW_NS};
pub use view::{WindowMetrics, WINDOW_CSV_HEADER};

pub(crate) mod obs {
    use opmr_obs::{registry, Counter, Histogram};
    use std::sync::{Arc, OnceLock};

    pub(crate) struct MetricsObs {
        /// Windows opened by the fold (first event landing in a window).
        pub windows_opened: Arc<Counter>,
        /// Events folded into some series.
        pub events_folded: Arc<Counter>,
        /// Series merges that had to drop the other side because its
        /// window width differed (misconfigured reduction tree).
        pub merge_mismatches: Arc<Counter>,
        /// Chunks copied because a snapshot still shared them when the
        /// fold (or a merge, or a delta) wrote into them.
        pub chunks_copied: Arc<Counter>,
        /// Per-pack fold cost, nanoseconds.
        pub fold_ns: Arc<Histogram>,
    }

    pub(crate) fn m() -> &'static MetricsObs {
        static M: OnceLock<MetricsObs> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            MetricsObs {
                windows_opened: r.counter("metrics_windows_opened_total"),
                events_folded: r.counter("metrics_events_folded_total"),
                merge_mismatches: r.counter("metrics_merge_mismatch_total"),
                chunks_copied: r.counter("metrics_chunks_copied_total"),
                fold_ns: r.histogram("metrics_fold_ns"),
            }
        })
    }
}
