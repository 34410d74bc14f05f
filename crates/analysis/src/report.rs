//! Profiling-report generation.
//!
//! The paper's analyzer emits "a latex document of 20 to 70 pages …
//! structured with one chapter per instrumented application". This module
//! renders a [`MultiReport`] the same way — as LaTeX — and additionally as
//! Markdown for terminals and CI.

use crate::density::glyph;
use crate::engine::{AppReport, MultiReport};
use crate::topology::WeightKind;
use std::fmt::Write as _;

fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.3} s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.3} ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.3} µs", v / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Order-sensitive FNV-1a digest of the report's *timing- and
/// wire-independent* content: per-`(rank, kind)` hit and byte counts,
/// topology edge weights, decode-error totals — everything except
/// durations (which necessarily differ between two runs) and framing
/// artifacts (pack and wire-byte totals move with the negotiated pack
/// encoding and compression, not with the workload). Two runs of the
/// same deterministic workload produce the same digest regardless of
/// scheduling, transport backend, codec, or wall time, so this is the
/// acceptance check for "the analysis output is byte-identical".
pub fn stable_digest(report: &MultiReport) -> u64 {
    stable_digest_filtered(report, |_| true)
}

/// [`stable_digest`] over the subset of applications `keep` accepts —
/// e.g. excluding a self-monitoring chapter, whose sample counts are
/// inherently run-specific.
pub fn stable_digest_filtered(report: &MultiReport, keep: impl Fn(&AppReport) -> bool) -> u64 {
    use crate::profiler::MpiProfile;
    use crate::topology::Topology;
    use crate::wire::{encode_partials, AppPartial};
    let mut apps: Vec<&AppReport> = report.apps.iter().filter(|a| keep(a)).collect();
    apps.sort_by_key(|a| a.app_id);
    let parts: Vec<AppPartial> = apps
        .into_iter()
        .map(|a| {
            let mut profile = MpiProfile::new();
            for kind in a.profile.kinds() {
                for rank in 0..a.profile.ranks() {
                    if let Some(c) = a.profile.rank_kind(rank, kind) {
                        profile.absorb_stats(rank, kind, c.hits, 0, c.bytes, 0, 0);
                    }
                }
            }
            let mut topology = Topology::new();
            for ((s, d), w) in a.topology.sorted_edges() {
                topology.add_weighted(s, d, w.hits, w.bytes, 0);
            }
            AppPartial {
                app_id: a.app_id,
                // Pack and wire-byte totals are framing artifacts: the
                // same workload legitimately yields different counts
                // under delta/varint packing or block compression.
                packs: 0,
                wire_bytes: 0,
                decode_errors: a.decode_errors,
                profile,
                topology,
                // Timing-dependent planes stay out of the stable digest.
                waitstate: None,
                metrics: None,
            }
        })
        .collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in encode_partials(&parts).iter() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders the whole report as Markdown.
pub fn to_markdown(report: &MultiReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Online profiling report");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{} application(s) profiled concurrently.\n",
        report.apps.len()
    );
    for app in &report.apps {
        app_markdown(&mut out, app);
    }
    out
}

fn app_markdown(out: &mut String, app: &AppReport) {
    let _ = writeln!(out, "## Application `{}` (id {})", app.name, app.app_id);
    let _ = writeln!(out);
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| ranks | {} |", app.ranks);
    let _ = writeln!(out, "| events | {} |", app.events);
    let _ = writeln!(out, "| event packs | {} |", app.packs);
    let _ = writeln!(out, "| streamed volume | {} |", fmt_bytes(app.wire_bytes));
    let _ = writeln!(out, "| decode errors | {} |", app.decode_errors);
    let _ = writeln!(
        out,
        "| instrumented span | {} |",
        fmt_ns(app.profile.span_ns())
    );
    let _ = writeln!(
        out,
        "| total MPI time | {} |",
        fmt_ns(app.profile.total_mpi_ns())
    );
    let _ = writeln!(
        out,
        "| total MPI volume | {} |",
        fmt_bytes(app.profile.total_mpi_bytes())
    );
    let _ = writeln!(out);

    // Per-call profile table.
    let _ = writeln!(out, "### MPI interface profile");
    let _ = writeln!(out);
    let _ = writeln!(out, "| call | hits | total time | mean | total size |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for kind in app.profile.kinds() {
        let Some(s) = app.profile.kind(kind) else {
            continue;
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            kind.name(),
            s.hits,
            fmt_ns(s.time_ns),
            fmt_ns(s.mean_ns() as u64),
            fmt_bytes(s.bytes),
        );
    }
    let _ = writeln!(out);

    // Topology summary.
    let _ = writeln!(out, "### Topology");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{} directed edge(s), mean out-degree {:.2}, {}symmetric in hits.",
        app.topology.edge_count(),
        app.topology.mean_degree(),
        if app.topology.is_symmetric_in_hits() {
            ""
        } else {
            "NOT "
        }
    );
    let detected = crate::patterns::classify(&app.topology);
    let _ = writeln!(
        out,
        "Detected pattern: {} (coverage {:.0}%).",
        detected.pattern.describe(),
        detected.coverage * 100.0
    );
    let _ = writeln!(out);

    // Density maps.
    if !app.density.is_empty() {
        let _ = writeln!(out, "### Density maps");
        let _ = writeln!(out);
        let _ = writeln!(out, "| map | min | max | mean | imbalance (cv) |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for map in &app.density {
            let s = map.stats();
            let _ = writeln!(
                out,
                "| {} | {:.3e} | {:.3e} | {:.3e} | {:.3} |",
                map.title, s.min, s.max, s.mean, s.cv
            );
        }
        let _ = writeln!(out);
        for map in &app.density {
            let _ = writeln!(out, "```text");
            out.push_str(&map.ascii());
            let _ = writeln!(out, "```");
            let _ = writeln!(out);
        }
    }

    // Wait-state analysis (skipped when no point-to-point traffic fed it).
    if let Some(ws) = app
        .waitstate
        .as_ref()
        .filter(|w| w.matched + w.unmatched > 0)
    {
        let _ = writeln!(out, "### Wait states");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} transfers matched ({} unmatched); late-sender time {}, late-receiver time {}.",
            ws.matched,
            ws.unmatched,
            fmt_ns(ws.total_late_sender_ns),
            fmt_ns(ws.total_late_receiver_ns),
        );
        let culprits = ws.worst_culprits(5);
        if !culprits.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "| late-sender culprit rank | wait caused |");
            let _ = writeln!(out, "|---|---|");
            for (rank, ns) in culprits {
                let _ = writeln!(out, "| {rank} | {} |", fmt_ns(ns));
            }
        }
        let _ = writeln!(out);
    }

    // Time-resolved standard metrics (windowed series).
    if let Some(m) = app.metrics.as_ref().filter(|m| !m.is_empty()) {
        let _ = writeln!(out, "### Time-resolved metrics");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} window(s) of {} over {} rank(s).",
            m.len(),
            fmt_ns(m.window_ns()),
            m.ranks()
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "| window | LB | comm | ser | xfer | wait | bytes |");
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        let rows = m.window_metrics();
        // Evenly sample long series so the chapter stays one screen tall.
        let stride = rows.len().div_ceil(12).max(1);
        for wm in rows.iter().step_by(stride) {
            let _ = writeln!(
                out,
                "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {} |",
                wm.window,
                wm.lb_efficiency,
                wm.comm_efficiency,
                wm.serialization_fraction,
                wm.transfer_fraction,
                wm.wait_fraction,
                fmt_bytes(wm.bytes),
            );
        }
        let _ = writeln!(out);
    }

    // Selective-trace proxy.
    if let Some((path, seen, written)) = &app.proxy {
        let _ = writeln!(
            out,
            "### Selective trace\n\n{written} of {seen} events selected into `{}`.\n",
            path.display()
        );
    }

    // Temporal map from the same series: a glyph per rank and column.
    if let Some(m) = app.metrics.as_ref().filter(|m| !m.is_empty()) {
        let (column_ns, rows) = m.activity_map();
        let _ = writeln!(out, "### Temporal map (MPI activity per rank)");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} column(s) of {}.",
            rows.first().map_or(0, Vec::len),
            fmt_ns(column_ns)
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "```text");
        for row in &rows {
            for &ns in row {
                out.push(glyph(ns as f64 / column_ns as f64));
            }
            out.push('\n');
        }
        let _ = writeln!(out, "```");
        let _ = writeln!(out);
    }
}

/// Renders the whole report as LaTeX (one chapter per application,
/// mirroring the paper's output format).
pub fn to_latex(report: &MultiReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\\documentclass{{report}}");
    let _ = writeln!(out, "\\usepackage{{graphicx,longtable}}");
    let _ = writeln!(out, "\\title{{Online profiling report}}");
    let _ = writeln!(out, "\\begin{{document}}");
    let _ = writeln!(out, "\\maketitle");
    for app in &report.apps {
        let _ = writeln!(out, "\\chapter{{Application {}}}", tex_escape(&app.name));
        let _ = writeln!(
            out,
            "{} ranks, {} events in {} packs ({}).",
            app.ranks,
            app.events,
            app.packs,
            tex_escape(&fmt_bytes(app.wire_bytes))
        );
        let _ = writeln!(out, "\\section{{MPI interface profile}}");
        let _ = writeln!(out, "\\begin{{longtable}}{{lrrrr}}");
        let _ = writeln!(out, "call & hits & time & mean & size \\\\ \\hline");
        for kind in app.profile.kinds() {
            let Some(s) = app.profile.kind(kind) else {
                continue;
            };
            let _ = writeln!(
                out,
                "{} & {} & {} & {} & {} \\\\",
                tex_escape(kind.name()),
                s.hits,
                tex_escape(&fmt_ns(s.time_ns)),
                tex_escape(&fmt_ns(s.mean_ns() as u64)),
                tex_escape(&fmt_bytes(s.bytes)),
            );
        }
        let _ = writeln!(out, "\\end{{longtable}}");
        let _ = writeln!(out, "\\section{{Topology}}");
        let _ = writeln!(
            out,
            "{} directed edges, mean out-degree {:.2}.",
            app.topology.edge_count(),
            app.topology.mean_degree()
        );
        if !app.density.is_empty() {
            let _ = writeln!(out, "\\section{{Density maps}}");
            let _ = writeln!(out, "\\begin{{longtable}}{{lrrrr}}");
            let _ = writeln!(out, "map & min & max & mean & cv \\\\ \\hline");
            for map in &app.density {
                let s = map.stats();
                let _ = writeln!(
                    out,
                    "{} & {:.3e} & {:.3e} & {:.3e} & {:.3} \\\\",
                    tex_escape(&map.title),
                    s.min,
                    s.max,
                    s.mean,
                    s.cv
                );
            }
            let _ = writeln!(out, "\\end{{longtable}}");
        }
    }
    let _ = writeln!(out, "\\end{{document}}");
    out
}

/// Writes the report's artifacts (markdown, latex, DOT graphs, matrices,
/// PGM density maps) under a directory. Returns the written paths.
pub fn write_artifacts(
    report: &MultiReport,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    let mut put = |name: String, data: Vec<u8>| -> std::io::Result<()> {
        let path = dir.join(name);
        std::fs::write(&path, data)?;
        paths.push(path);
        Ok(())
    };
    put("report.md".into(), to_markdown(report).into_bytes())?;
    put("report.tex".into(), to_latex(report).into_bytes())?;
    for app in &report.apps {
        for kind in [WeightKind::Hits, WeightKind::Bytes, WeightKind::TimeNs] {
            let tag = match kind {
                WeightKind::Hits => "hits",
                WeightKind::Bytes => "size",
                WeightKind::TimeNs => "time",
            };
            put(
                format!("{}_topology_{tag}.dot", app.name),
                app.topology.to_dot(&app.name, kind).into_bytes(),
            )?;
        }
        if app.topology.ranks() <= 512 {
            put(
                format!("{}_matrix_size.txt", app.name),
                app.topology.matrix_text(WeightKind::Bytes).into_bytes(),
            )?;
        }
        for (i, map) in app.density.iter().enumerate() {
            put(format!("{}_density_{i}.pgm", app.name), map.to_pgm(8))?;
        }
    }
    Ok(paths)
}

fn tex_escape(s: &str) -> String {
    s.replace('\\', "\\textbackslash{}")
        .replace('_', "\\_")
        .replace('%', "\\%")
        .replace('&', "\\&")
        .replace('#', "\\#")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnalysisEngine, EngineConfig};
    use opmr_events::{Event, EventKind, EventPack};

    fn sample_report() -> MultiReport {
        let engine = AnalysisEngine::new(EngineConfig::default());
        engine.set_app_name(0, "bt");
        engine.set_app_name(1, "euler_mhd");
        engine.start();
        for rank in 0..4u32 {
            let events = vec![
                Event {
                    time_ns: 10,
                    duration_ns: 100,
                    kind: EventKind::Send,
                    rank,
                    peer: ((rank + 1) % 4) as i32,
                    tag: 1,
                    comm: 0,
                    bytes: 256,
                },
                Event::basic(EventKind::Barrier, rank, 200, 50),
            ];
            engine.post_block(EventPack::new(0, rank, 0, events.clone()).encode());
            engine.post_block(EventPack::new(1, rank, 0, events).encode());
        }
        engine.finish()
    }

    #[test]
    fn markdown_has_one_chapter_per_app() {
        let md = to_markdown(&sample_report());
        assert!(md.contains("## Application `bt`"));
        assert!(md.contains("## Application `euler_mhd`"));
        assert!(md.contains("MPI_Send"));
        assert!(md.contains("MPI_Barrier"));
        assert!(md.contains("Density maps"));
    }

    #[test]
    fn latex_is_structurally_valid() {
        let tex = to_latex(&sample_report());
        assert!(tex.starts_with("\\documentclass"));
        assert_eq!(tex.matches("\\chapter{").count(), 2);
        assert!(tex.contains("euler\\_mhd"), "underscores escaped");
        assert!(tex.trim_end().ends_with("\\end{document}"));
        assert_eq!(
            tex.matches("\\begin{longtable}").count(),
            tex.matches("\\end{longtable}").count()
        );
    }

    #[test]
    fn artifacts_written_to_disk() {
        let dir = std::env::temp_dir().join(format!("opmr_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_artifacts(&sample_report(), &dir).unwrap();
        assert!(paths.iter().any(|p| p.ends_with("report.md")));
        assert!(paths.iter().any(|p| p.ends_with("report.tex")));
        assert!(paths
            .iter()
            .any(|p| p.to_string_lossy().contains("topology_size.dot")));
        assert!(paths
            .iter()
            .any(|p| p.extension().is_some_and(|e| e == "pgm")));
        for p in &paths {
            assert!(p.exists());
            assert!(std::fs::metadata(p).unwrap().len() > 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn format_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 << 30), "3.00 GiB");
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(1_500), "1.500 µs");
        assert_eq!(fmt_ns(2_000_000), "2.000 ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.200 s");
    }
}
