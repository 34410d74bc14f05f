//! `--compare a.json b.json`: two result sets against the benchmark's own
//! bounds — the tool the "two sets of runs agree" criterion is checked
//! with, and the one a later change's no-regression table comes from.

use crate::json::{self, Value};
use crate::spec::{Better, END_TO_END};

/// How `b` stands against `a` on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    Better,
    /// Worse than `a` by more than the bound.
    Regression,
    /// The spread a set's own segments put on its median exceeds the
    /// bound, so a difference of that size says nothing.
    Unresolved,
}

/// By what share of `a` the value `b` is worse (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(better: Better, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    let w = worse_by(better, a, b);
    if spread > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Regression
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn num(v: Option<&Value>, key: &str) -> Option<f64> {
    v?.get(key)?.as_f64()
}

/// The spread a median over a metric's segments inherits from them:
/// 1.25 x IQR / sqrt(n) as a share of the median (the sampling spread of a
/// median of n roughly normal values). A single long segment has none.
fn median_spread(metric: Option<&Value>) -> f64 {
    let n = metric
        .and_then(|m| m.get("segments"))
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    if n < 2 {
        return 0.0;
    }
    1.25 * num(metric, "segment_iqr_share").unwrap_or(0.0) / (n as f64).sqrt()
}

/// Prints one row per workload × end-to-end metric; `Ok(true)` when no
/// row is a regression or unresolved and no set saw a slow segment.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or(format!("{path_a}: no workloads"))?;
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound", "spread"
    );
    let mut clean = true;
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<16} missing from {path_b}");
            clean = false;
            continue;
        };
        for m in &END_TO_END {
            let (ma, mb) = (
                wa.get("end_to_end").and_then(|e| e.get(m.name)),
                wb.get("end_to_end").and_then(|e| e.get(m.name)),
            );
            let (Some(va), Some(vb)) = (num(ma, "value"), num(mb, "value")) else {
                continue;
            };
            let spread = median_spread(ma).max(median_spread(mb));
            let v = verdict(m.better, m.bound, va, vb, spread);
            clean &= matches!(v, Verdict::Same | Verdict::Better);
            println!(
                "{name:<16} {:<22} {:>16.4} {:>16.4} {:>+8.1}% {:>6.0}% {:>7.1}%  {}",
                m.name,
                va,
                vb,
                worse_by(m.better, va, vb) * 100.0,
                m.bound * 100.0,
                spread * 100.0,
                match v {
                    Verdict::Same => "same",
                    Verdict::Better => "better",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for (set, w) in [(path_a, wa), (path_b, wb)] {
            let slow = num(
                w.get("per_layer")
                    .and_then(|p| p.get("bench.slow_segments")),
                "value",
            );
            if slow.is_some_and(|n| n > 0.0) {
                println!(
                    "{name:<16} bench.slow_segments = {} in {set}",
                    slow.unwrap_or(0.0)
                );
                clean = false;
            }
            if w.get("correct") != Some(&Value::Bool(true)) {
                println!("{name:<16} failed its output checks in {set}");
                clean = false;
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(Lower, 0.10, 100.0, 109.0, 0.02), Verdict::Same);
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 111.0, 0.02),
            Verdict::Regression
        );
        assert_eq!(verdict(Higher, 0.10, 100.0, 120.0, 0.02), Verdict::Better);
        assert_eq!(
            verdict(Higher, 0.10, 100.0, 80.0, 0.02),
            Verdict::Regression
        );
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 150.0, 0.12),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 100.0, 0.12),
            Verdict::Unresolved
        );
    }
}
