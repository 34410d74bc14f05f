//! `opmr` — command-line front end.
//!
//! ```text
//! opmr demo                          run the multi-app online demo
//! opmr simulate [options]            run one workload on the DES
//! opmr report <trace-dir> [--out DIR] replay a recorded .opmr/.sion directory
//! opmr stream-table                  print the Figure-14 throughput table
//! opmr help
//! ```

use opmr::analysis::report;
use opmr::core::{LiveOptions, Session};
use opmr::launch::{
    emit_stats, parse_hostfile, run_job, HeartbeatEmitter, Host, JobReport, JobSpec, LocalSpawner,
    Spawner, SshSpawner, WorkerCommand, WorkerEnv,
};
use opmr::netsim::{curie, simulate, stream_model, tera100, Machine, ToolModel};
use opmr::workloads::{by_name, Class};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "opmr — online performance measurement reduction (ICPP 2013 reproduction)

USAGE:
    opmr demo [--transport socket] [--procs N]
        Profile CG + EulerMHD concurrently and print the multi-application
        report. With `--transport socket` the demo hosts process 0 (the
        analyzer) itself and launches N - 1 workers (default N = 2) the
        way `opmr launch` does, over a Unix-domain socket mesh; the
        report is identical either way.

    opmr simulate [--bench BT|CG|FT|LU|SP|EulerMHD|Irregular|Straggler|Bursty]
                  [--class S..D]
                  [--ranks N] [--iters N] [--machine tera100|curie]
                  [--tool none|online|profile|trace|scalasca]
        Run one workload on the discrete-event simulator and print timing,
        overhead-relevant stats and Bi.

    opmr report <trace-dir> [--out DIR]
        Post-mortem analysis of a recorded directory: every
        app<a>_rank<r>.opmr trace file and app<a>.sion container is
        replayed through an ordinary analysis session (the classical
        workflow, same pipeline as the online path). A misnamed,
        truncated or incomplete recording is an error naming the file.

    opmr launch [--hostfile FILE] [--procs N] [--endpoint unix:PATH|tcp:ADDR]
                [--placement i,j,...] [--sever-after N] [--restart-once]
                [-- demo]
        mpirun-style multi-process launch of the demo session: spawn one
        worker per process (locally, or via ssh for non-local hostfile
        entries), supervise them over stdout heartbeats, classify exits,
        tear the job down on the first failure, and print a JSON summary
        with the aggregated obs counters. `--sever-after N` severs every
        socket link once after N data frames to exercise the reconnect
        path; `--placement` pins application partitions to processes.

    opmr stream-table
        Print the Figure-14 stream-throughput table on the Tera 100 model."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("demo") => demo(&args[1..]),
        Some("launch") => exit_code(try_launch(&args[1..])),
        Some("__launch-worker") => exit_code(try_launch_worker(&args[1..])),
        Some("simulate") => simulate_cmd(&args[1..]),
        Some("report") => report_cmd(&args[1..]),
        Some("stream-table") => stream_table(),
        _ => usage(),
    }
}

fn demo(args: &[String]) -> ExitCode {
    let socket = match flag(args, "--transport") {
        None => false,
        Some("socket") => true,
        Some(other) => return bad_input(&format!("bad --transport {other:?} (use socket)")),
    };
    let procs = match parsed_flag(args, "--procs", 2usize) {
        Ok(p) => p,
        Err(e) => return bad_input(&e),
    };
    exit_code(if socket {
        try_demo_socket(procs)
    } else {
        try_demo()
    })
}

/// A subcommand's exit status: success, or its error on stderr and 1.
fn exit_code(result: Result<(), Box<dyn std::error::Error>>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every process of a socket-transport demo must build the identical
/// session; both the parent and the launched workers call this.
fn demo_session() -> Result<opmr::core::SessionBuilder, Box<dyn std::error::Error>> {
    let m = tera100();
    let cg = opmr::workloads::Benchmark::Cg.build(Class::S, 8, &m, Some(3))?;
    let euler = opmr::workloads::Benchmark::EulerMhd.build(Class::S, 9, &m, Some(4))?;
    Ok(Session::builder()
        .analyzer_ranks(3)
        .waitstate()
        .metrics(1_000_000) // 1 ms windows for the time-resolved series
        .app_workload("cg", cg, LiveOptions::default())
        .app_workload("euler_mhd", euler, LiveOptions::default()))
}

/// The workload catalog, one line per entry (printed by `opmr demo` and
/// pinned by the catalog round-trip test).
fn catalog_listing() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("workload catalog (opmr simulate --bench <name>):\n");
    for b in opmr::workloads::BENCHMARKS {
        let _ = writeln!(
            out,
            "  {:<10} {:>4} nominal iterations at class S",
            b.name(),
            b.nominal_iters(Class::S)
        );
    }
    out
}

fn try_demo() -> Result<(), Box<dyn std::error::Error>> {
    let outcome = demo_session()?.run()?;
    println!("{}", outcome.markdown());
    println!("---");
    print!("{}", catalog_listing());
    eprintln!(
        "(in-process; stable digest {:016x})",
        report::stable_digest(&outcome.report)
    );
    Ok(())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `opmr launch`: run the demo session as a supervised multi-process
/// job through the `crates/launch` control plane.
fn try_launch(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    // Trailing `-- <session>` selects what the workers run (only the
    // demo session exists today).
    if let Some(sep) = args.iter().position(|a| a == "--") {
        let session: Vec<&str> = args[sep + 1..].iter().map(String::as_str).collect();
        if !(session.is_empty() || session == ["demo"]) {
            return Err(format!("unknown launch session {session:?} (only: demo)").into());
        }
    }
    let hosts = match flag(args, "--hostfile") {
        Some(path) => parse_hostfile(&std::fs::read_to_string(path)?)?,
        None => vec![Host::new("localhost")],
    };
    let procs: usize = flag(args, "--procs")
        .map(str::parse)
        .transpose()?
        .unwrap_or(3);
    if procs < 2 {
        return Err("a multi-process launch needs --procs >= 2".into());
    }
    let placement = flag(args, "--placement")
        .map(|raw| {
            raw.split(',')
                .map(|t| t.trim().parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()
        .map_err(|_| "bad --placement (expected comma-separated process indices)")?;
    let sever_after: Option<u64> = flag(args, "--sever-after").map(str::parse).transpose()?;

    // Default endpoint: a per-job Unix socket under the temp dir.
    let mut scratch = None;
    let endpoint = match flag(args, "--endpoint") {
        Some(e) => {
            opmr::launch::parse_endpoint(e)?; // validate notation up front
            e.to_string()
        }
        None => scratch.insert(ScratchDir::new("launch")?).endpoint(),
    };

    let mut spec = JobSpec::new(procs);
    spec.hosts = hosts;
    spec.restart_once = has_flag(args, "--restart-once");
    let all_local = spec.hosts.iter().all(Host::is_local);
    let local = LocalSpawner;
    let ssh = SshSpawner::default();
    let spawner: &dyn Spawner = if all_local { &local } else { &ssh };

    let mut job = demo_job(procs, endpoint);
    job.placement = placement;
    job.sever_after = sever_after;
    let report = run_job(&spec, spawner, &demo_workers(job, None)?)?;
    let snap = opmr::obs::registry().snapshot();
    println!("{}", launch_summary_json(&report, procs, &snap));
    job_failed(&report)
}

/// Hand-rolled JSON (the workspace carries no serde): job outcome plus
/// the launcher-side `launch_*` counters and the workers' summed
/// `transport_*`/`launch_*` counters.
fn launch_summary_json(
    report: &JobReport,
    procs: usize,
    snap: &opmr::obs::MetricsSnapshot,
) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let fields = |pairs: Vec<(&str, u64)>| {
        let fields: Vec<_> = pairs
            .iter()
            .map(|(name, value)| format!("\"{}\":{value}", esc(name)))
            .collect();
        fields.join(",")
    };
    let outcomes: Vec<_> = report
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{{\"proc\":{},\"host\":\"{}\",\"clean\":{},\"torn_down\":{},\"message\":\"{}\"}}",
                o.proc,
                esc(&o.host),
                o.kind.is_none(),
                o.torn_down,
                esc(&o.message)
            )
        })
        .collect();
    let launch = snap
        .counters
        .iter()
        .filter(|c| c.name.starts_with("launch_"));
    let workers = report
        .stats
        .iter()
        .filter(|(name, _)| name.starts_with("transport_") || name.starts_with("launch_"));
    format!(
        "{{\"procs\":{procs},\"attempts\":{},\"success\":{},\"outcomes\":[{}],\"launch\":{{{}}},\"workers\":{{{}}}}}",
        report.attempts,
        report.success(),
        outcomes.join(","),
        fields(launch.map(|c| (c.name.as_str(), c.value)).collect()),
        fields(workers.map(|(name, v)| (name.as_str(), *v)).collect()),
    )
}

/// Hidden worker half of `opmr launch`: runs one process of the demo
/// session, heartbeating on stdout and dumping obs counters at the end.
fn try_launch_worker(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(session) = args.first() {
        if session != "demo" {
            return Err(format!("unknown worker session {session:?}").into());
        }
    }
    let env = WorkerEnv::from_env()?
        .ok_or("not launched: the OPMR_LAUNCH_* environment contract is missing")?;
    let hb = HeartbeatEmitter::start(env.proc_index, Duration::from_millis(250));
    let cfg = env.socket_config()?;
    let builder = demo_session()?;
    let outcome = match env.placement.clone() {
        Some(p) => builder.run_multiproc_placed(cfg, env.proc_index, env.num_procs, p)?,
        None => builder.run_multiproc(cfg, env.proc_index, env.num_procs)?,
    };
    if env.proc_index == 0 {
        // Forwarded by the supervisor as `[p0] stable-digest …`; the CI
        // smoke compares it against the in-process demo's digest.
        println!(
            "stable-digest {:016x}",
            report::stable_digest(&outcome.report)
        );
    }
    drop(hb);
    emit_stats(&mut std::io::stdout().lock())?;
    Ok(())
}

/// The `OPMR_LAUNCH_*` contract every process of a demo job shares; each
/// worker's copy gets its own index.
fn demo_job(procs: usize, endpoint: String) -> WorkerEnv {
    let mut env = WorkerEnv::new(0, procs, endpoint);
    env.connect_timeout = Some(Duration::from_secs(30));
    env
}

/// `run_job`'s `make_cmd` for the demo session, shared by `opmr launch`
/// and `opmr demo --transport socket`: this binary as `__launch-worker
/// demo`, carrying `job` with the worker's index filled in. The index
/// `hosted` runs in the calling process instead.
fn demo_workers(
    job: WorkerEnv,
    hosted: Option<usize>,
) -> std::io::Result<impl Fn(usize, &Host) -> Option<WorkerCommand>> {
    let exe = std::env::current_exe()?;
    Ok(move |proc, _host: &Host| {
        if Some(proc) == hosted {
            return None;
        }
        let env = WorkerEnv {
            proc_index: proc,
            ..job.clone()
        };
        let cmd = WorkerCommand::new(&exe).arg("__launch-worker").arg("demo");
        Some(env.vars().into_iter().fold(cmd, |c, (k, v)| c.env(k, v)))
    })
}

/// A job's private directory under the temp dir (it holds the mesh
/// socket), removed on every way out.
struct ScratchDir(PathBuf);

impl ScratchDir {
    /// `$TMP/opmr-<tag>-<pid>`.
    fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let dir = std::env::temp_dir().join(format!("opmr-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// A Unix-domain mesh endpoint inside the directory.
    fn endpoint(&self) -> String {
        format!("unix:{}", self.0.join("mesh.sock").display())
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Split the demo across OS processes: this process hosts process 0 (the
/// analyzer and the report) on a thread, and `run_job` supervises the
/// application workers, so every event pack crosses the Unix-domain
/// socket mesh. A worker that dies surfaces as its typed outcome at
/// once, instead of leaving process 0 blocked until the mesh gives up.
fn try_demo_socket(procs: usize) -> Result<(), Box<dyn std::error::Error>> {
    if procs < 2 {
        return Err("--transport socket needs at least 2 processes (--procs)".into());
    }
    let scratch = ScratchDir::new("demo")?;
    let job = demo_job(procs, scratch.endpoint());
    let cfg = job.socket_config()?;
    let builder = demo_session()?;
    let coordinator = std::thread::spawn(move || builder.run_multiproc(cfg, 0, procs));
    let report = run_job(
        &JobSpec::new(procs),
        &LocalSpawner,
        &demo_workers(job, Some(0))?,
    )?;
    if !report.success() && !coordinator.is_finished() {
        return job_failed(&report);
    }
    let outcome = coordinator
        .join()
        .map_err(|_| "demo coordinator thread panicked")??;
    job_failed(&report)?;
    println!("{}", outcome.markdown());
    eprintln!(
        "(socket transport, {procs} OS processes; stable digest {:016x})",
        report::stable_digest(&outcome.report)
    );
    Ok(())
}

/// `Err` naming the job's root-cause failures with their typed kinds,
/// `Ok` if every worker exited cleanly.
fn job_failed(report: &JobReport) -> Result<(), Box<dyn std::error::Error>> {
    let roots: Vec<_> = report
        .failures()
        .filter_map(|f| {
            let kind = f.kind?;
            Some(format!(
                "worker p{} on {} {} ({kind:?})",
                f.proc, f.host, f.message
            ))
        })
        .collect();
    if roots.is_empty() {
        Ok(())
    } else {
        Err(roots.join("; ").into())
    }
}

/// Prints `message` as a usage error and exits 2.
fn bad_input(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::from(2)
}

/// `--name`'s value parsed as `T`, or `default` when the flag is absent.
/// A value that does not parse is an error naming the flag.
fn parsed_flag<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad {name} {raw:?} (expected a number)")),
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn simulate_cmd(args: &[String]) -> ExitCode {
    let bench = match by_name(flag(args, "--bench").unwrap_or("SP")) {
        Ok(b) => b,
        Err(e) => return bad_input(&e.to_string()),
    };
    let Some(class) = Class::parse(flag(args, "--class").unwrap_or("C")) else {
        return bad_input("bad --class (use S, W, A, B, C or D)");
    };
    let (ranks, iters): (usize, u32) = match (
        parsed_flag(args, "--ranks", 256),
        parsed_flag(args, "--iters", 10),
    ) {
        (Ok(r), Ok(i)) => (r, i),
        (Err(e), _) | (_, Err(e)) => return bad_input(&e),
    };
    let machine: Machine = match flag(args, "--machine").unwrap_or("tera100") {
        "tera100" => tera100(),
        "curie" => curie(),
        other => return bad_input(&format!("bad --machine {other:?} (use tera100 or curie)")),
    };
    let tool = match flag(args, "--tool").unwrap_or("online") {
        "none" => ToolModel::None,
        "online" => ToolModel::online_coupling(1.0),
        "profile" => ToolModel::scorep_profile(),
        "trace" => ToolModel::scorep_trace(),
        "scalasca" => ToolModel::scalasca(),
        other => {
            return bad_input(&format!(
                "bad --tool {other:?} (use none, online, profile, trace or scalasca)"
            ))
        }
    };

    let w = match bench.build(class, ranks, &machine, Some(iters)) {
        Ok(w) => w,
        Err(e) => return bad_input(&e.to_string()),
    };
    let (reference, run) = match simulate(&w, &machine, &ToolModel::None)
        .and_then(|r| simulate(&w, &machine, &tool).map(|t| (r, t)))
    {
        Ok(pair) => pair,
        Err(e) => return bad_input(&e.to_string()),
    };
    println!(
        "{}.{class} on {ranks} ranks ({}), {iters} simulated iterations",
        bench.name(),
        machine.name
    );
    println!("  reference      : {:.4} s", reference.elapsed_s);
    println!(
        "  instrumented   : {:.4} s  ({:+.2}% overhead)",
        run.elapsed_s,
        (run.elapsed_s - reference.elapsed_s) / reference.elapsed_s * 100.0
    );
    println!(
        "  events         : {} ({} comm ops)",
        run.stats.events, run.stats.comm_ops
    );
    println!(
        "  measurement    : {:.2} MB, Bi = {:.2} MB/s",
        run.stats.event_bytes as f64 / 1e6,
        run.bi_bps() / 1e6
    );
    println!(
        "  stall / fs     : {:.3} s / {:.3} s (aggregate across ranks)",
        run.stats.stall_ns / 1e9,
        run.stats.fs_ns / 1e9
    );
    ExitCode::SUCCESS
}

fn report_cmd(args: &[String]) -> ExitCode {
    let Some(dir) = args.first().filter(|a| !a.starts_with("--")) else {
        return bad_input("report needs a trace directory");
    };
    let multi = match Session::replay(dir).run() {
        Ok(outcome) => outcome.report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report::to_markdown(&multi));
    if let Some(out) = flag(args, "--out") {
        match report::write_artifacts(&multi, std::path::Path::new(out)) {
            Ok(paths) => eprintln!("wrote {} artifacts under {out}", paths.len()),
            Err(e) => {
                eprintln!("error writing artifacts: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn stream_table() -> ExitCode {
    let m = tera100();
    println!("VMPI stream throughput (GB/s), Tera 100 model — Figure 14");
    print!("{:>8}", "writers");
    let ratios = [1.0, 2.0, 5.0, 10.0, 25.0, 70.0];
    for r in ratios {
        print!("{:>8}", format!("1:{r:.0}"));
    }
    println!();
    for writers in [64usize, 256, 1024, 2560] {
        print!("{writers:>8}");
        for ratio in ratios {
            let p = stream_model::evaluate(&m, writers, ratio, 1 << 30);
            print!("{:>8.1}", p.throughput_bps / 1e9);
        }
        println!();
    }
    println!(
        "\nfile-system share @2560 cores: {:.1} GB/s; crossover ≈ 1:{:.0}",
        m.fs_share_bps(2560) / 1e9,
        stream_model::crossover_ratio(&m, 2560)
    );
    ExitCode::SUCCESS
}
