//! # opmr-bench — the figure/table regeneration harness
//!
//! One binary per evaluation artifact of the paper:
//!
//! | target | artifact |
//! |---|---|
//! | `fig14` | Figure 14 — VMPI stream throughput vs writer/reader ratio |
//! | `fig15` | Figure 15 — relative overhead, NAS + EulerMHD, 1:1 ratio |
//! | `fig16` | Figure 16 — tool comparison on SP.D (Curie) |
//! | `fig17` | Figure 17 — communication matrices and topology graphs |
//! | `fig18` | Figure 18 — density maps (LU.D @1024, BT.D @8281) |
//! | `bi_table` | in-text `Bi` values and trace volumes |
//! | `tbon_compare` | Section V — TBON overlay vs the analytic model |
//! | `serve_bench`, `codec_bench`, `metrics_bench`, `obs_bench` | audits of the serve plane, pack codec, metrics fold and obs registry |
//!
//! Timing lives in the repo benchmark (`perf/`, `bash perf/run.sh`): end
//! to end per workload and per layer in its ledger.

use opmr_analysis::Topology;
use opmr_netsim::{Op, Phase, Workload};
use std::path::PathBuf;

/// CSV header written by the `serve_bench` binary. Pinned by the
/// golden-shape regression tests: dashboards and CI scripts scrape these
/// columns, so renaming or reordering them is a breaking change that must
/// show up in a test diff, not in a consumer's silent parse failure.
pub const SERVE_BENCH_CSV_HEADER: &str =
    "scenario,clients,versions,queries,qps,updates,deltas,resyncs,lag_p50_ms,lag_p99_ms";

/// CSV header written by the `tbon_compare` binary (same contract as
/// [`SERVE_BENCH_CSV_HEADER`]).
pub const TBON_COMPARE_CSV_HEADER: &str =
    "source,leaves,reduction,tbon_gbs,direct_gbs,internal_nodes";

/// CSV header written by the `codec_bench` binary (same contract as
/// [`SERVE_BENCH_CSV_HEADER`]). The nightly golden-number CI step scrapes
/// `bytes_per_event` and `events_per_sec` by column name.
pub const CODEC_BENCH_CSV_HEADER: &str =
    "workload,class,ranks,events,encoding,events_per_sec,bytes_per_event,reduction_vs_fixed";

/// Output directory for figure artifacts (`out/<sub>` under the workspace).
pub fn out_dir(sub: &str) -> std::io::Result<PathBuf> {
    let base = std::env::var("OPMR_OUT").unwrap_or_else(|_| "out".to_string());
    let dir = PathBuf::from(base).join(sub);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Prints one aligned table row to stdout.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        line.push_str(&format!("{c:>w$}  "));
    }
    println!("{}", line.trim_end());
}

/// Pattern extraction: everything a rank's program sends, without running
/// the simulator (iteration counts applied analytically).
pub mod shape {
    use super::*;

    fn visit_ops(w: &Workload, rank: usize, mut f: impl FnMut(&Op, u64)) {
        let prog = &w.programs[rank];
        for op in &prog.prologue {
            f(op, 1);
        }
        for op in &prog.body {
            f(op, prog.iters as u64);
        }
        for op in &prog.epilogue {
            f(op, 1);
        }
    }

    /// Builds the static communication topology of a workload: `Send` ops
    /// produce directed edges, `Exchange` ops both directions.
    pub fn topology_of(w: &Workload) -> Topology {
        let mut topo = Topology::new();
        for rank in 0..w.ranks() {
            visit_ops(w, rank, |op, mult| match *op {
                Op::Send { to, bytes } => {
                    topo.add_weighted(rank as u32, to, mult, bytes * mult, 0);
                }
                Op::Exchange { peer, bytes } => {
                    topo.add_weighted(rank as u32, peer, mult, bytes * mult, 0);
                }
                _ => {}
            });
        }
        topo
    }

    /// Per-rank `(send hits, send bytes)` including exchanges.
    pub fn send_maps(w: &Workload) -> (Vec<f64>, Vec<f64>) {
        let n = w.ranks();
        let mut hits = vec![0.0; n];
        let mut bytes = vec![0.0; n];
        for rank in 0..n {
            visit_ops(w, rank, |op, mult| match *op {
                Op::Send { bytes: b, .. } | Op::Exchange { bytes: b, .. } => {
                    hits[rank] += mult as f64;
                    bytes[rank] += (b * mult) as f64;
                }
                _ => {}
            });
        }
        (hits, bytes)
    }

    /// Sanity helper for tests: total comm ops per the linearized programs
    /// must match `Workload::total_comm_ops`.
    pub fn comm_ops_by_walk(w: &Workload) -> u64 {
        let mut total = 0;
        for rank in 0..w.ranks() {
            let prog = &w.programs[rank];
            let mut phase = Phase::start().normalize(prog);
            while let Some(cur) = phase {
                if prog.op_at(cur).is_some_and(|op| op.is_comm()) {
                    total += 1;
                }
                phase = cur.advance(prog);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_netsim::tera100;
    use opmr_workloads::{Benchmark, Class};

    #[test]
    fn static_topology_matches_walked_programs() {
        let m = tera100();
        let w = Benchmark::EulerMhd
            .build(Class::S, 16, &m, Some(4))
            .unwrap();
        assert_eq!(shape::comm_ops_by_walk(&w), w.total_comm_ops());
        let topo = shape::topology_of(&w);
        // 4×4 grid halo: symmetric edges.
        assert!(topo.is_symmetric_in_hits());
        assert_eq!(topo.ranks(), 16);
        // Interior rank 5 has 4 partners.
        assert_eq!((0..16).filter(|&d| topo.edge(5, d).is_some()).count(), 4);
    }

    #[test]
    fn lu_send_map_shows_degree_gradient() {
        let m = tera100();
        let w = Benchmark::Lu.build(Class::A, 16, &m, Some(2)).unwrap();
        let (hits, _bytes) = shape::send_maps(&w);
        // Corner (rank 0) sends less than interior (rank 5).
        assert!(hits[0] < hits[5]);
    }

    #[test]
    fn out_dir_creates_directories() {
        let d = out_dir("test_tmp").unwrap();
        assert!(d.exists());
        let _ = std::fs::remove_dir_all(d);
    }
}
