//! `opmr-perf`: the repo benchmark. See `perf/README.md`.
//!
//! ```text
//! opmr-perf --workload W --seed N --seconds S --trace 0|1    one run; the result JSON is the last line
//! opmr-perf [--only W] [--seed N] [--seconds S] [--trace 0|1] the suite; writes perf/out/results.json
//! opmr-perf --compare a.json b.json                           two result sets against the bounds
//! opmr-perf --manifest                                        what BENCHMARK.json must hold
//! opmr-perf --catalogue                                       the metric tables of the README
//! ```

mod compare;
mod gen;
mod json;
mod ledger;
mod run;
mod spec;
mod stats;
mod trace;
mod twin;
mod workloads;

use json::Value;
use run::RunOutput;
use std::path::PathBuf;
use std::time::Duration;
use workloads::Workload;

/// Where results, traces and scratch files go: inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perf/out")
}

/// The pinned default seed.
const DEFAULT_SEED: u64 = 20_130_901;
/// How long one run measures: `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 14;

/// `BENCHMARK.json`, from the catalogue (a test holds the committed file
/// to this).
fn manifest() -> String {
    let rows = |items: Vec<String>| items.join(",\n    ");
    let workloads = workloads::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    let end_to_end = spec::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str()),
                json::num(m.bound)
            )
        })
        .collect();
    let per_layer = spec::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"perf/run.sh\"],\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}

/// The catalogue as the Markdown tables `perf/README.md` carries.
fn catalogue() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | what it is |\n|---|---|---|---|---|\n",
    );
    for m in &spec::END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    out += "\n| layer metric | unit | source | should move | what is timed or counted |\n|---|---|---|---|---|\n";
    for m in &spec::PER_LAYER {
        let moves: Vec<String> = m
            .moves
            .iter()
            .map(|(metric, w)| format!("`{metric}` @ {w}"))
            .collect();
        out += &format!(
            "| `{}` | {} | {:?} | {} | {} |\n",
            m.name,
            m.unit,
            m.source,
            moves.join(", "),
            m.what
        );
    }
    out
}

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

struct Args {
    workload: Option<String>,
    only: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    compare: Option<(String, String)>,
    manifest: bool,
    catalogue: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        only: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: None,
        compare: None,
        manifest: false,
        catalogue: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(val("a workload name")?),
            "--only" => a.only = Some(val("a workload name")?),
            "--seed" => {
                a.seed = val("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = val("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = Some(match val("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--manifest" => a.manifest = true,
            "--catalogue" => a.catalogue = true,
            "--compare" => a.compare = Some((val("two result files")?, val("two result files")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&a.seconds) {
        return Err("--seconds takes 1 to 60".into());
    }
    Ok(a)
}

/// The driver's result line.
fn result_line(out: &RunOutput) -> String {
    let metrics = json::object(out.metrics.iter().map(|m| {
        let fields = [("value", Value::Num(m.value)), ("unit", json::text(m.unit))];
        (m.name, json::object(fields))
    }));
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics.render()
    )
}

fn print_metrics(w: &Workload, out: &RunOutput) {
    for m in &out.metrics {
        println!(
            "{:<16} {:<36} {:>20} {}",
            w.name,
            m.name,
            json::num(m.value),
            m.unit
        );
    }
    println!(
        "{:<16} {:<36} {:>20} failed/attempted",
        w.name,
        "fail_ratio",
        format!("{}/{}", out.checks.failed, out.checks.attempted)
    );
}

/// One workload's entry of `results.json`.
fn workload_entry(w: &Workload, timed: Option<&RunOutput>, traced: Option<&RunOutput>) -> Value {
    let mut fields = vec![("why", json::text(w.why))];
    let (mut attempted, mut failed) = (0, 0);
    if let Some(out) = timed {
        attempted += out.checks.attempted;
        failed += out.checks.failed;
        let metrics = out.metrics.iter().filter_map(|m| {
            let spec = spec::end_to_end(m.name)?;
            let samples = out.samples.get(m.name).cloned().unwrap_or_default();
            Some((
                m.name.to_string(),
                json::object([
                    ("value", Value::Num(m.value)),
                    ("unit", json::text(m.unit)),
                    ("better", json::text(spec.better.as_str())),
                    ("bound", Value::Num(spec.bound)),
                    ("segment_iqr_share", Value::Num(stats::iqr_share(&samples))),
                    (
                        "segments",
                        Value::Array(samples.into_iter().map(Value::Num).collect()),
                    ),
                ]),
            ))
        });
        fields.push(("end_to_end", json::object(metrics)));
    }
    if let Some(out) = traced {
        attempted += out.checks.attempted;
        failed += out.checks.failed;
        let metrics = out.metrics.iter().zip(&spec::PER_LAYER).map(|(m, spec)| {
            let moves = spec.moves.iter().map(|(metric, workload)| {
                json::object([
                    ("metric", json::text(metric)),
                    ("workload", json::text(workload)),
                ])
            });
            (
                m.name.to_string(),
                json::object([
                    ("value", Value::Num(m.value)),
                    ("unit", json::text(m.unit)),
                    ("better", json::text(spec.better.as_str())),
                    ("moves", Value::Array(moves.collect())),
                ]),
            )
        });
        fields.push(("per_layer", json::object(metrics)));
    }
    fields.push(("attempted", Value::Num(attempted as f64)));
    fields.push(("failed", Value::Num(failed as f64)));
    fields.push(("correct", Value::Bool(failed == 0)));
    json::object(fields)
}

/// Runs every workload (or `--only` one): the timed run, then the traced
/// run with one ledger shared by all workloads. Prints every metric by
/// name and writes `results.json`.
fn suite(args: &Args) -> Result<bool, String> {
    let selected: Vec<&Workload> = match &args.only {
        Some(name) => vec![workloads::by_name(name).ok_or(format!("unknown workload {name:?}"))?],
        None => workloads::WORKLOADS.iter().collect(),
    };
    let (do_timed, do_traced) = (args.trace != Some(true), args.trace != Some(false));
    // One second per cell: the ledger does not depend on the workload, so
    // the suite measures it once, longer than a single traced run can.
    let shared_ledger = if do_traced {
        println!("== ledger");
        Some(ledger::run(
            args.seed,
            Duration::from_secs(u64::from(ledger::TIMED_CELLS)),
        )?)
    } else {
        None
    };
    let mut entries = Vec::new();
    let mut ok = true;
    for w in selected {
        println!(
            "== {} (seed {}, {} s): {}",
            w.name, args.seed, args.seconds, w.why
        );
        let timed = do_timed
            .then(|| run::timed(w, args.seed, args.seconds))
            .transpose()?;
        let mut traced = do_traced
            .then(|| run::traced(w, args.seed, args.seconds, shared_ledger.as_deref()))
            .transpose()?;
        // The timed run has the more segments: its spread is the one to show.
        if let (Some(t), Some(tr)) = (&timed, &mut traced) {
            let rates = &t.samples["events_per_s"];
            let slow = rates
                .iter()
                .filter(|&&r| r * 3.0 < stats::median(rates))
                .count();
            for m in &mut tr.metrics {
                match m.name {
                    "bench.segment_iqr_share" => m.value = stats::iqr_share(rates),
                    "bench.slow_segments" => m.value = slow as f64,
                    _ => {}
                }
            }
        }
        for out in timed.iter().chain(&traced) {
            print_metrics(w, out);
            ok &= out.checks.failed == 0;
        }
        entries.push((
            w.name.to_string(),
            workload_entry(w, timed.as_ref(), traced.as_ref()),
        ));
    }
    let results = json::object([
        ("schema", Value::Num(1.0)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds as f64)),
        (
            "available_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads", json::object(entries)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("results.json");
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn run(args: Args) -> Result<bool, String> {
    if args.manifest {
        print!("{}", manifest());
        return Ok(true);
    }
    if args.catalogue {
        print!("{}", catalogue());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if let Some(name) = &args.workload {
        // The driver's contract: one workload, one mode, the result JSON
        // as the last line of standard output.
        let w = workloads::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
        let out = if args.trace == Some(true) {
            run::traced(w, args.seed, args.seconds, None)?
        } else {
            run::timed(w, args.seed, args.seconds)?
        };
        print_metrics(w, &out);
        println!("{}", result_line(&out));
        return Ok(out.checks.failed == 0);
    }
    suite(&args)
}

fn main() {
    let code = match parse_args().and_then(run) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("opmr-perf: {e}");
            2
        }
    };
    let _ = std::fs::remove_dir_all(out_dir().join("tmp"));
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Checks;

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `perf/run.sh --manifest > BENCHMARK.json`"
        );
        let parsed = json::parse(&committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    fn fake(metrics: Vec<Metric>) -> RunOutput {
        let samples = metrics
            .iter()
            .map(|m| (m.name, vec![1.0, 2.0, 3.0]))
            .collect();
        RunOutput {
            metrics,
            checks: Checks {
                attempted: 3,
                failed: 0,
            },
            samples,
        }
    }

    #[test]
    fn results_json_carries_unit_direction_bound_and_predictions() {
        let timed = fake(
            spec::END_TO_END
                .iter()
                .map(|m| Metric {
                    name: m.name,
                    unit: m.unit,
                    value: 2.0,
                })
                .collect(),
        );
        let traced = fake(
            spec::PER_LAYER
                .iter()
                .map(|m| Metric {
                    name: m.name,
                    unit: m.unit,
                    value: 1.5,
                })
                .collect(),
        );
        let w = &workloads::WORKLOADS[0];
        let entry = json::parse(&workload_entry(w, Some(&timed), Some(&traced)).render())
            .expect("entry parses");

        let e2e = entry
            .get("end_to_end")
            .and_then(Value::as_object)
            .expect("end_to_end");
        assert_eq!(e2e.len(), spec::END_TO_END.len());
        for (name, m) in e2e {
            let spec = spec::end_to_end(name).expect("a catalogued metric");
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(spec.unit));
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(spec.better.as_str())
            );
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(spec.bound));
            assert_eq!(
                m.get("segments")
                    .and_then(Value::as_array)
                    .map(<[Value]>::len),
                Some(3)
            );
            assert_eq!(
                m.get("segment_iqr_share").and_then(Value::as_f64),
                Some(1.0)
            );
        }
        let layers = entry
            .get("per_layer")
            .and_then(Value::as_object)
            .expect("per_layer");
        assert_eq!(layers.len(), spec::PER_LAYER.len());
        for (name, m) in layers {
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
            assert!(m.get("better").and_then(Value::as_str).is_some(), "{name}");
            let moves = m.get("moves").and_then(Value::as_array).expect("moves");
            assert!(!moves.is_empty(), "{name} predicts nothing");
            for mv in moves {
                let metric = mv.get("metric").and_then(Value::as_str).expect("metric");
                assert!(spec::end_to_end(metric).is_some(), "{name}: {metric}");
                assert!(
                    mv.get("workload").and_then(Value::as_str).is_some(),
                    "{name}"
                );
            }
        }
        assert_eq!(entry.get("attempted").and_then(Value::as_f64), Some(6.0));
        assert_eq!(entry.get("correct"), Some(&Value::Bool(true)));
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let out = fake(vec![Metric {
            name: "setup_s",
            unit: "s",
            value: 0.8127,
        }]);
        let v = json::parse(&result_line(&out)).expect("result line parses");
        let keys: Vec<&str> = v
            .as_object()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
    }
}
