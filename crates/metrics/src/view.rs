//! Presentation-time derivation of the standard metrics from the integer
//! cells. Nothing here is encoded or merged — floats stay out of the wire
//! format by construction.

use crate::series::{MetricsSeries, ADAPTIVE_WINDOWS};

/// CSV header of [`MetricsSeries::to_csv`] (pinned by the bench
/// golden-shape tests, like the serve/TBON bench headers).
pub const WINDOW_CSV_HEADER: &str =
    "window,start_ns,ranks,lb_eff,comm_eff,ser_frac,xfer_frac,wait_frac,bytes,hits";

/// The derived standard metrics of one window.
///
/// Conventions (POP-style, over the ranks the series has seen):
/// * *useful* time of a rank = window width − its MPI time (clamped);
///   ranks with no cell in a window count as fully useful.
/// * [`WindowMetrics::lb_efficiency`] = mean(useful) / max(useful) —
///   1.0 when perfectly balanced, small when stragglers dominate.
/// * [`WindowMetrics::comm_efficiency`] = max(useful) / window width —
///   the ceiling communication imposes even on the best rank.
/// * [`WindowMetrics::serialization_fraction`] /
///   [`WindowMetrics::transfer_fraction`] decompose MPI time into
///   wait-family and data-movement shares.
/// * [`WindowMetrics::wait_fraction`] = waiting share of the *total*
///   window time across ranks (the waitstate fraction of this window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowMetrics {
    /// Window index (start = `window * window_ns`).
    pub window: u64,
    /// Window start, nanoseconds of application time.
    pub start_ns: u64,
    /// Ranks the whole series has seen (the denominator population).
    pub ranks: u32,
    pub lb_efficiency: f64,
    pub comm_efficiency: f64,
    pub serialization_fraction: f64,
    pub transfer_fraction: f64,
    pub wait_fraction: f64,
    /// Payload bytes of calls beginning in this window.
    pub bytes: u64,
    /// MPI calls beginning in this window.
    pub hits: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl MetricsSeries {
    /// Derives the standard metrics for every window, in time order.
    pub fn window_metrics(&self) -> Vec<WindowMetrics> {
        let ranks = self.ranks();
        let wn = self.window_ns();
        self.window_indices()
            .map(|w| self.one_window(w, ranks, wn))
            .collect()
    }

    fn one_window(&self, w: u64, ranks: u32, wn: u64) -> WindowMetrics {
        let empty = std::collections::BTreeMap::new();
        let cells = self.window(w).unwrap_or(&empty);
        let mut useful_sum = 0u64;
        let mut useful_max = 0u64;
        let mut mpi_sum = 0u64;
        let mut wait_sum = 0u64;
        let mut xfer_sum = 0u64;
        let mut bytes = 0u64;
        let mut hits = 0u64;
        for r in 0..ranks {
            let (mpi, wait, xfer) = cells
                .get(&r)
                .map(|c| (c.mpi_ns, c.wait_ns, c.xfer_ns))
                .unwrap_or((0, 0, 0));
            let useful = wn.saturating_sub(mpi);
            useful_sum += useful;
            useful_max = useful_max.max(useful);
            mpi_sum += mpi;
            wait_sum += wait;
            xfer_sum += xfer;
        }
        for c in cells.values() {
            bytes += c.bytes;
            hits += c.hits;
        }
        let lb = if useful_max == 0 {
            1.0
        } else {
            useful_sum as f64 / ranks.max(1) as f64 / useful_max as f64
        };
        WindowMetrics {
            window: w,
            start_ns: w.saturating_mul(wn),
            ranks,
            lb_efficiency: lb,
            comm_efficiency: ratio(useful_max, wn),
            serialization_fraction: ratio(wait_sum, mpi_sum),
            transfer_fraction: ratio(xfer_sum, mpi_sum),
            wait_fraction: ratio(wait_sum, wn.saturating_mul(ranks as u64)),
            bytes,
            hits,
        }
    }

    /// The temporal map: the column width, ns, and per rank the MPI ns of
    /// each column, which sums the least `2^j` windows that fit the run
    /// into [`ADAPTIVE_WINDOWS`] columns (one, for an adaptive series).
    pub fn activity_map(&self) -> (u64, Vec<Vec<u64>>) {
        let last = self.window_indices().last().unwrap_or(0);
        let group = (last / ADAPTIVE_WINDOWS + 1).next_power_of_two();
        let mut rows = vec![vec![0; (last / group + 1) as usize]; self.ranks() as usize];
        for (w, r, c) in self.cells() {
            rows[r as usize][(w / group) as usize] += c.mpi_ns;
        }
        (group.saturating_mul(self.window_ns()), rows)
    }

    /// Renders the derived series as CSV under [`WINDOW_CSV_HEADER`].
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(WINDOW_CSV_HEADER);
        out.push('\n');
        for m in self.window_metrics() {
            let _ = writeln!(
                out,
                "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{},{}",
                m.window,
                m.start_ns,
                m.ranks,
                m.lb_efficiency,
                m.comm_efficiency,
                m.serialization_fraction,
                m.transfer_fraction,
                m.wait_fraction,
                m.bytes,
                m.hits
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use opmr_events::{Event, EventKind};

    fn ev(kind: EventKind, rank: u32, t: u64, d: u64) -> Event {
        Event::basic(kind, rank, t, d)
    }

    #[test]
    fn balanced_window_scores_one() {
        let mut s = MetricsSeries::new(1000);
        for r in 0..4 {
            s.add(&ev(EventKind::Send, r, 0, 100));
        }
        let m = &s.window_metrics()[0];
        assert!((m.lb_efficiency - 1.0).abs() < 1e-12);
        assert!((m.comm_efficiency - 0.9).abs() < 1e-12);
    }

    #[test]
    fn straggler_depresses_lb_efficiency() {
        let mut s = MetricsSeries::new(1000);
        s.add(&ev(EventKind::Send, 0, 0, 900)); // straggler: 100 useful
        s.add(&ev(EventKind::Send, 1, 0, 100)); // 900 useful
        let m = &s.window_metrics()[0];
        // mean useful = 500, max useful = 900.
        assert!((m.lb_efficiency - 500.0 / 900.0).abs() < 1e-12);
    }

    #[test]
    fn idle_rank_counts_as_fully_useful() {
        let mut s = MetricsSeries::new(1000);
        s.add(&ev(EventKind::Send, 0, 0, 500));
        s.add(&ev(EventKind::Send, 1, 1000, 10)); // rank 1 idle in window 0
        let m = &s.window_metrics()[0];
        assert_eq!(m.ranks, 2);
        // useful: rank0 = 500, rank1 = 1000 → lb = 750/1000.
        assert!((m.lb_efficiency - 0.75).abs() < 1e-12);
        assert!((m.comm_efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decomposition_fractions() {
        let mut s = MetricsSeries::new(1000);
        s.add(&ev(EventKind::Wait, 0, 0, 300));
        s.add(&ev(EventKind::Allreduce, 0, 300, 500));
        s.add(&ev(EventKind::Init, 0, 800, 200)); // neither wait nor transfer
        let m = &s.window_metrics()[0];
        assert!((m.serialization_fraction - 0.3).abs() < 1e-12);
        assert!((m.transfer_fraction - 0.5).abs() < 1e-12);
        assert!((m.wait_fraction - 0.3).abs() < 1e-12);
    }

    #[test]
    fn csv_shape_matches_header() {
        let mut s = MetricsSeries::new(100);
        s.add(&ev(EventKind::Send, 0, 0, 10));
        s.add(&ev(EventKind::Send, 1, 250, 10));
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), WINDOW_CSV_HEADER);
        let cols = WINDOW_CSV_HEADER.split(',').count();
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 2, "one row per non-empty window");
        for row in rows {
            assert_eq!(row.split(',').count(), cols, "row shape: {row}");
        }
    }
}
