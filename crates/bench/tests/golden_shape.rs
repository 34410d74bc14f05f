//! Golden-shape regression tests for the bench binaries' CSV artifacts.
//!
//! `serve_bench` and `tbon_compare` write CSVs that external dashboards
//! and the CI smoke scripts scrape by column name. The cheap tests pin
//! the header strings; the `#[ignore]`d tests (run by the nightly
//! `--include-ignored` job) execute the binaries in `--quick` mode and
//! verify the emitted files actually match the pinned shape — header
//! first, rectangular rows, numeric columns that parse.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_bench::{CODEC_BENCH_CSV_HEADER, SERVE_BENCH_CSV_HEADER, TBON_COMPARE_CSV_HEADER};
use std::path::PathBuf;
use std::process::Command;

#[test]
fn serve_bench_csv_header_is_pinned() {
    // Renaming/reordering a column is a breaking change for every
    // consumer of out/serve_bench/serve_bench.csv; change it here only
    // together with those consumers.
    assert_eq!(
        SERVE_BENCH_CSV_HEADER,
        "scenario,clients,versions,queries,qps,updates,deltas,resyncs,lag_p50_ms,lag_p99_ms"
    );
}

#[test]
fn tbon_compare_csv_header_is_pinned() {
    assert_eq!(
        TBON_COMPARE_CSV_HEADER,
        "source,leaves,reduction,tbon_gbs,direct_gbs,internal_nodes"
    );
}

#[test]
fn codec_bench_csv_header_is_pinned() {
    // The nightly golden-number CI step scrapes bytes_per_event and
    // events_per_sec by column name; change them only together.
    assert_eq!(
        CODEC_BENCH_CSV_HEADER,
        "workload,class,ranks,events,encoding,events_per_sec,bytes_per_event,reduction_vs_fixed"
    );
}

#[test]
fn metrics_bench_csv_header_is_pinned() {
    // The canonical per-window series header (`MetricsSeries::to_csv`),
    // written by metrics_bench and scraped by the CI metrics smoke step.
    assert_eq!(
        opmr_metrics::WINDOW_CSV_HEADER,
        "window,start_ns,ranks,lb_eff,comm_eff,ser_frac,xfer_frac,wait_frac,bytes,hits"
    );
}

/// Runs a bench binary with `--quick` into a scratch OPMR_OUT and returns
/// the CSV it wrote.
fn run_quick(bin: &str, rel_csv: &str) -> String {
    let label = std::path::Path::new(bin)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench");
    let out = std::env::temp_dir().join(format!("opmr_golden_{}_{}", label, std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(bin)
        .arg("--quick")
        .env("OPMR_OUT", &out)
        .status()
        .expect("spawn bench binary");
    assert!(status.success(), "{bin} --quick failed: {status}");
    let path: PathBuf = out.join(rel_csv);
    let csv =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let _ = std::fs::remove_dir_all(&out);
    csv
}

/// Shape check: pinned header, rectangular rows, numeric data columns.
fn check_shape(csv: &str, header: &str, text_cols: &[usize], min_rows: usize) {
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(header), "header drifted");
    let cols = header.split(',').count();
    let mut rows = 0usize;
    for (i, line) in lines.enumerate() {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), cols, "row {i} is not rectangular: {line:?}");
        for (c, f) in fields.iter().enumerate() {
            if text_cols.contains(&c) {
                assert!(!f.is_empty(), "row {i} col {c} empty");
            } else {
                f.parse::<f64>()
                    .unwrap_or_else(|e| panic!("row {i} col {c} ({f:?}) not numeric: {e}"));
            }
        }
        rows += 1;
    }
    assert!(
        rows >= min_rows,
        "expected >= {min_rows} data rows, got {rows}"
    );
}

#[test]
#[ignore = "executes the serve_bench binary; run via --include-ignored"]
fn serve_bench_quick_emits_the_pinned_shape() {
    let csv = run_quick(
        env!("CARGO_BIN_EXE_serve_bench"),
        "serve_bench/serve_bench.csv",
    );
    // Column 0 (scenario) is text; everything else is numeric.
    check_shape(&csv, SERVE_BENCH_CSV_HEADER, &[0], 2);
    // The quick run still covers the scenarios the dashboard keys on.
    assert!(csv.contains("\nlaggy,"), "laggy scenario row missing");
}

#[test]
#[ignore = "executes the metrics_bench binary; run via --include-ignored"]
fn metrics_bench_quick_emits_the_pinned_shape() {
    let csv = run_quick(
        env!("CARGO_BIN_EXE_metrics_bench"),
        "metrics_bench/metrics_windows.csv",
    );
    // Every column of the window series is numeric.
    check_shape(&csv, opmr_metrics::WINDOW_CSV_HEADER, &[], 2);
}

#[test]
#[ignore = "executes the codec_bench binary; run via --include-ignored"]
fn codec_bench_quick_emits_the_pinned_shape() {
    let csv = run_quick(env!("CARGO_BIN_EXE_codec_bench"), "codec/codec_bench.csv");
    // Columns 0/1/4 (workload, class, encoding) are text; the rest numeric.
    check_shape(&csv, CODEC_BENCH_CSV_HEADER, &[0, 1, 4], 12);
    // The acceptance bar: the delta layout alone moves >= 4.5x fewer bytes
    // per event than fixed on every catalog workload in the table.
    for line in csv.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f[4] != "fixed" {
            let reduction: f64 = f[7].parse().unwrap();
            assert!(
                reduction >= 4.5,
                "{} {} reduced only {reduction:.2}x vs fixed",
                f[0],
                f[4]
            );
        }
    }
}

#[test]
#[ignore = "executes the tbon_compare binary; run via --include-ignored"]
fn tbon_compare_quick_emits_the_pinned_shape() {
    let csv = run_quick(env!("CARGO_BIN_EXE_tbon_compare"), "tbon/tbon_compare.csv");
    // Column 0 (source) is text; everything else, the reduction ratio
    // included, is numeric.
    check_shape(&csv, TBON_COMPARE_CSV_HEADER, &[0], 2);
    // Both the calibrated model and the executable overlay contribute.
    assert!(csv.contains("\nmodel,"), "model rows missing");
    assert!(csv.contains("\nmeasured-"), "measured rows missing");
}
