//! Flow model of VMPI-stream throughput (Figure 14).
//!
//! Figure 14 sweeps the number of writer processes and the writer/reader
//! ratio while each writer pushes 1 GB in 1 MB blocks. The achieved global
//! throughput is the minimum of three saturating resources:
//!
//! * the writers' aggregate production bandwidth (per-writer NIC share),
//! * the readers' aggregate drain bandwidth (per-reader processing rate),
//! * the cross-partition bisection (scales with the nodes involved).
//!
//! The model also exposes the paper's file-system comparison: the FS share
//! of an allocation (`Machine::fs_share_bps`) and the writer/reader ratio
//! at which streams stop being competitive (≈1:25 on Tera 100).

use crate::machine::Machine;

/// One cell of the Figure-14 surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPoint {
    pub writers: usize,
    pub readers: usize,
    pub ratio: f64,
    /// Global throughput, bytes/s.
    pub throughput_bps: f64,
    /// Time to drain 1 GB per writer, seconds.
    pub elapsed_s: f64,
}

/// Readers for a writer count at a given ratio: `Nr = floor(Nw/ratio)`,
/// minimum 1 (the paper's formula).
pub fn readers_for(writers: usize, ratio: f64) -> usize {
    ((writers as f64 / ratio).floor() as usize).max(1)
}

/// Global stream throughput for a writer/reader allocation, bytes/s.
pub fn stream_throughput_bps(m: &Machine, writers: usize, readers: usize) -> f64 {
    let produce = writers as f64 * m.writer_stream_bw;
    let drain = readers as f64 * m.reader_drain_bw;
    let nodes = m.nodes_for(writers).min(m.nodes_for(readers)).max(1);
    let bisection = nodes as f64 * m.bisection_per_node;
    produce.min(drain).min(bisection)
}

/// Evaluates one Figure-14 cell: `writers` ranks each shipping
/// `bytes_per_writer` through the stream fabric.
pub fn evaluate(m: &Machine, writers: usize, ratio: f64, bytes_per_writer: u64) -> StreamPoint {
    let readers = readers_for(writers, ratio);
    let throughput = stream_throughput_bps(m, writers, readers);
    let total = writers as f64 * bytes_per_writer as f64;
    StreamPoint {
        writers,
        readers,
        ratio,
        throughput_bps: throughput,
        elapsed_s: total / throughput,
    }
}

/// Largest ratio at which streams still beat the allocation's file-system
/// share (the paper's "competitive until ≈1:25" claim).
pub fn crossover_ratio(m: &Machine, writers: usize) -> f64 {
    // The paper scales the 500 GB/s machine figure to the writers' cores
    // ("scaled back to 2560 cores … 9.1 GB/s").
    let fs = m.fs_share_bps(writers);
    let mut ratio = 1.0;
    while ratio < 512.0 {
        let readers = readers_for(writers, ratio);
        if stream_throughput_bps(m, writers, readers) < fs {
            return ratio;
        }
        ratio += 1.0;
    }
    ratio
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::tera100;

    #[test]
    fn readers_formula_matches_paper() {
        assert_eq!(readers_for(2560, 1.0), 2560);
        assert_eq!(readers_for(2560, 25.0), 102);
        assert_eq!(readers_for(10, 32.0), 1, "default of one reader");
        assert_eq!(readers_for(64, 8.0), 8);
    }

    #[test]
    fn peak_throughput_near_98_gbs() {
        // The calibration anchor: 2560 writers and readers ⇒ ~98.5 GB/s.
        let m = tera100();
        let p = evaluate(&m, 2560, 1.0, 1 << 30);
        assert_eq!(p.readers, 2560);
        assert!(
            (p.throughput_bps / 1e9 - 98.5).abs() < 2.0,
            "got {} GB/s",
            p.throughput_bps / 1e9
        );
    }

    #[test]
    fn throughput_monotone_in_writers_at_fixed_ratio() {
        let m = tera100();
        let mut last = 0.0;
        for writers in [32, 64, 256, 1024, 2560] {
            let p = evaluate(&m, writers, 1.0, 1 << 30);
            assert!(p.throughput_bps >= last);
            last = p.throughput_bps;
        }
    }

    #[test]
    fn throughput_decreases_with_ratio() {
        let m = tera100();
        let mut last = f64::INFINITY;
        for ratio in [1.0, 2.0, 5.0, 10.0, 30.0, 70.0] {
            let p = evaluate(&m, 2560, ratio, 1 << 30);
            assert!(p.throughput_bps <= last, "ratio {ratio}");
            last = p.throughput_bps;
        }
    }

    #[test]
    fn crossover_near_one_to_25() {
        // "VMPI Streams are competitive with the file-system approach until
        // a ratio of one reader for ≈25 writers."
        let m = tera100();
        let x = crossover_ratio(&m, 2560);
        assert!(
            (15.0..40.0).contains(&x),
            "crossover ratio {x} out of the paper's ballpark"
        );
    }

    #[test]
    fn reader_limited_regime_scales_with_readers() {
        let m = tera100();
        let a = stream_throughput_bps(&m, 2560, 10);
        let b = stream_throughput_bps(&m, 2560, 20);
        assert!((b / a - 2.0).abs() < 0.01, "drain-limited regime is linear");
    }

    #[test]
    fn elapsed_is_total_over_throughput() {
        let m = tera100();
        let p = evaluate(&m, 128, 4.0, 1 << 30);
        let expect = 128.0 * (1u64 << 30) as f64 / p.throughput_bps;
        assert!((p.elapsed_s - expect).abs() < 1e-9);
    }
}
