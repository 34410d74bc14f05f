//! Quickstart: profile one small application online and print its report.
//!
//! ```sh
//! cargo run --example quickstart           # human-readable Markdown
//! cargo run --example quickstart -- --json # machine-readable summary
//! cargo run --example quickstart -- --transport socket --procs 2
//!                                          # same job across OS processes
//! ```
//!
//! Launches a 8-rank application plus a 2-rank analyzer partition. The
//! application's MPI calls are intercepted, streamed as event packs over
//! VMPI streams — no trace file — and reduced by the parallel blackboard
//! into a profiling report. A second run routes the same streams through
//! the TBON reduction overlay (`Coupling::Tbon`) and prints the per-node
//! overlay counters.
//!
//! By default everything runs in one process (threads as ranks). With
//! `--transport socket` the example splits the job across genuine OS
//! processes over a Unix-domain socket mesh: it hosts process 0 (the
//! analyzer) itself and starts `--procs - 1` copies of itself through the
//! launch plane (`opmr::launch::run_job`), which hands each its index and
//! endpoint in the `OPMR_LAUNCH_*` environment. The application ranks run
//! in the workers, and every event pack crosses a real wire. The reported
//! `stable_digest` — an order-sensitive digest of the timing-independent
//! report content — is identical between the two transports.

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples favour brevity

use opmr::analysis::report::{stable_digest, stable_digest_filtered};
use opmr::core::{Coupling, LiveOptions, Session, SessionOutcome};
use opmr::launch::{run_job, HeartbeatEmitter, JobSpec, LocalSpawner, WorkerCommand, WorkerEnv};
use opmr::runtime::{Src, TagSel};
use std::time::Duration;

fn ring_session() -> opmr::core::SessionBuilder {
    Session::builder()
        .analyzer_ranks(2)
        .metrics(500_000) // 0.5 ms windows: the time-resolved metrics plane
        .app("ring_demo", 8, |imp| {
            let world = imp.comm_world();
            let (r, n) = (imp.rank(), imp.size());
            // A classic ring with some collectives sprinkled in.
            for round in 0..50 {
                let req = imp
                    .isend(&world, (r + 1) % n, round, vec![r as u8; 4096])
                    .expect("isend");
                imp.recv(&world, Src::Rank((r + n - 1) % n), TagSel::Tag(round))
                    .expect("recv");
                imp.wait(req).expect("wait");
                if round % 10 == 0 {
                    imp.barrier(&world).expect("barrier");
                }
            }
            imp.allreduce_sum(&world, &[r as u64]).expect("allreduce");
            imp.compute(std::time::Duration::from_millis(2))
                .expect("compute");
        })
}

/// The per-app summary rows shared by every JSON shape below.
fn apps_json(outcome: &SessionOutcome) -> String {
    let mut out = String::new();
    for (i, app) in outcome.report.apps.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ranks\": {}, \"events\": {}, \"packs\": {}, \
             \"wire_bytes\": {}, \"edges\": {}, \"metric_windows\": {}}}",
            app.name,
            app.ranks,
            app.events,
            app.packs,
            app.wire_bytes,
            app.topology.edge_count(),
            app.metrics.as_ref().map_or(0, |m| m.len())
        ));
    }
    out
}

/// Hand-rolled JSON (the build is registry-free, so no serde): the session
/// and overlay counters a dashboard or CI script would scrape.
fn to_json(direct: &SessionOutcome, tbon: &SessionOutcome) -> String {
    let mut out = String::from("{\n  \"apps\": [\n");
    out.push_str(&apps_json(direct));
    out.push_str("\n  ],\n");
    // The digest skips the `__obs` self-monitor chapter (its sample count
    // depends on scheduling) so it is comparable to a socket-transport run.
    out.push_str(&format!(
        "  \"stable_digest\": \"{:016x}\",\n",
        stable_digest_filtered(&direct.report, |a| a.name != "__obs")
    ));
    out.push_str(&format!("  \"wall_s\": {:.6},\n", direct.wall_s));
    let recorder_events: u64 = direct.recorders.iter().map(|(_, s)| s.events).sum();
    out.push_str(&format!("  \"recorder_events\": {recorder_events},\n"));
    // The observability registry is process-wide and cumulative, so the
    // snapshot taken after the second (TBON) run covers both sessions:
    // stream counters, reduce window latencies, mailbox depths, …
    out.push_str(&format!("  \"metrics\": {},\n", tbon.metrics.to_json(2)));
    out.push_str("  \"tbon\": {\n");
    out.push_str(&format!(
        "    \"wall_s\": {:.6},\n    \"nodes\": [\n",
        tbon.wall_s
    ));
    for (i, (node, s)) in tbon.reduce_stats.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "      {{\"node\": {node}, \"blocks_in\": {}, \"blocks_forwarded\": {}, \
             \"bytes_in\": {}, \"bytes_out\": {}, \"merges\": {}, \"windows\": {}}}",
            s.blocks_in, s.blocks_forwarded, s.bytes_in, s.bytes_out, s.merges, s.windows_closed
        ));
    }
    out.push_str("\n    ]\n  }\n}");
    out
}

/// JSON shape for a `--transport socket` run: the report summary, the
/// timing-scrubbed digest, and the socket-transport counters a CI smoke
/// job asserts on.
fn socket_json(outcome: &SessionOutcome, procs: usize) -> String {
    let mut out = String::from("{\n  \"transport\": \"socket\",\n");
    out.push_str(&format!("  \"procs\": {procs},\n"));
    out.push_str("  \"apps\": [\n");
    out.push_str(&apps_json(outcome));
    out.push_str("\n  ],\n");
    out.push_str(&format!("  \"wall_s\": {:.6},\n", outcome.wall_s));
    out.push_str(&format!(
        "  \"stable_digest\": \"{:016x}\",\n",
        stable_digest(&outcome.report)
    ));
    out.push_str("  \"socket\": {");
    let counters = [
        "transport_socket_frames_sent_total",
        "transport_socket_frames_received_total",
        "transport_socket_bytes_sent_total",
        "transport_socket_bytes_received_total",
        "transport_socket_connect_timeouts_total",
        "transport_socket_handshake_rejected_total",
        "transport_socket_peer_disconnects_total",
        "transport_socket_reconnect_attempts_total",
        "transport_socket_reconnects_total",
        "transport_socket_reconnect_exhausted_total",
        "transport_socket_frames_retransmitted_total",
    ];
    for (i, name) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{name}\": {}",
            outcome.metrics.counter(name).unwrap_or(0)
        ));
    }
    out.push_str("\n  }\n}");
    out
}

/// Parent half of `--transport socket`: host process 0 (analyzer +
/// blackboard) on a thread and let the launch plane start this binary
/// once per worker process. Only process 0's outcome carries the report.
fn run_socket(json: bool, procs: usize) {
    assert!(procs >= 2, "--transport socket needs at least 2 processes");
    let dir = std::env::temp_dir().join(format!("opmr-quickstart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let endpoint = format!("unix:{}", dir.join("mesh.sock").display());
    let mut job = WorkerEnv::new(0, procs, endpoint);
    job.connect_timeout = Some(Duration::from_secs(30));

    let cfg = job.socket_config().expect("socket config");
    let coordinator = std::thread::spawn(move || ring_session().run_multiproc(cfg, 0, procs));
    let exe = std::env::current_exe().expect("current exe");
    let report = run_job(&JobSpec::new(procs), &LocalSpawner, &|proc, _host| {
        let env = WorkerEnv {
            proc_index: proc,
            ..job.clone()
        };
        let cmd = WorkerCommand::new(&exe);
        (proc != 0).then(|| env.vars().into_iter().fold(cmd, |c, (k, v)| c.env(k, v)))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let report = report.expect("launch workers");
    if let Some(f) = report.failures().next() {
        panic!("worker p{} {} ({:?})", f.proc, f.message, f.kind.unwrap());
    }
    let outcome = coordinator
        .join()
        .expect("coordinator thread")
        .expect("socket session");

    if json {
        println!("{}", socket_json(&outcome, procs));
        return;
    }
    println!("{}", opmr::analysis::report::to_markdown(&outcome.report));
    println!("---");
    println!(
        "socket transport across {procs} OS processes; wall time: {:.3} s",
        outcome.wall_s
    );
    println!(
        "stable digest: {:016x} (identical to the in-process run)",
        stable_digest(&outcome.report)
    );
    let m = &outcome.metrics;
    println!(
        "socket: {} frames / {} B sent, {} frames / {} B received",
        m.counter("transport_socket_frames_sent_total").unwrap_or(0),
        m.counter("transport_socket_bytes_sent_total").unwrap_or(0),
        m.counter("transport_socket_frames_received_total")
            .unwrap_or(0),
        m.counter("transport_socket_bytes_received_total")
            .unwrap_or(0),
    );
}

fn main() {
    // Worker half of a `--transport socket` run: the launch plane started
    // this binary with the `OPMR_LAUNCH_*` contract in the environment.
    // Workers run the *identical* session; the analyzer partition and
    // engine live in process 0, so a worker's outcome carries no report.
    if let Some(env) = WorkerEnv::from_env().expect("launch contract") {
        let _hb = HeartbeatEmitter::start(env.proc_index, Duration::from_millis(250));
        let cfg = env.socket_config().expect("socket config");
        ring_session()
            .run_multiproc(cfg, env.proc_index, env.num_procs)
            .expect("worker session");
        return;
    }

    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let socket = args
        .windows(2)
        .any(|w| w[0] == "--transport" && w[1] == "socket");
    let procs = args
        .windows(2)
        .find(|w| w[0] == "--procs")
        .map(|w| w[1].parse().expect("--procs takes a number"))
        .unwrap_or(2);
    if socket {
        run_socket(json, procs);
        return;
    }

    // The first run also carries the self-monitoring app: a hidden
    // one-rank partition streams the process's own metric registry
    // through the same VMPI machinery it measures, so the report gains
    // an `__obs` chapter profiling the profiler.
    let outcome = ring_session()
        .self_monitor(std::time::Duration::from_millis(10))
        .run()
        .expect("session");

    // LiveOptions is used by workload-driven sessions; mention it so the
    // example doubles as documentation.
    let _ = LiveOptions::default();

    // Same application, this time through the in-network reduction
    // overlay: analyzer ranks double as a fanout-2 TBON, the root posts
    // surviving blocks into the engine (ρ = 1 pass-through — the report
    // is identical to the direct run, modulo wall-clock jitter).
    let tbon = ring_session()
        .coupling(Coupling::Tbon { fanout: 2 })
        .run()
        .expect("tbon session");

    if json {
        println!("{}", to_json(&outcome, &tbon));
        return;
    }

    println!("{}", opmr::analysis::report::to_markdown(&outcome.report));
    println!("---");
    println!(
        "session wall time: {:.3} s; packs streamed: {}",
        outcome.wall_s,
        outcome.report.apps.iter().map(|a| a.packs).sum::<u64>()
    );
    println!(
        "stable digest: {:016x} (timing-scrubbed, `__obs` excluded; \
         identical under `--transport socket`)",
        stable_digest_filtered(&outcome.report, |a| a.name != "__obs")
    );
    println!("---");
    println!("TBON overlay (fanout 2, pass-through) — per-node counters:");
    for (node, s) in &tbon.reduce_stats {
        println!(
            "  node {node}: {} blocks in / {} forwarded, {} B in / {} B out, \
             {} merges, {} windows",
            s.blocks_in, s.blocks_forwarded, s.bytes_in, s.bytes_out, s.merges, s.windows_closed
        );
    }
    println!("---");
    println!("observability registry (excerpt; full set via --json):");
    let m = &tbon.metrics;
    println!(
        "  stream: {} blocks sent ({} B), {} EAGAIN polls, {} backpressure waits",
        m.counter("vmpi_stream_blocks_sent_total").unwrap_or(0),
        m.counter("vmpi_stream_write_bytes_total").unwrap_or(0),
        m.counter("vmpi_stream_eagain_total").unwrap_or(0),
        m.counter("vmpi_stream_backpressure_waits_total")
            .unwrap_or(0),
    );
    if let Some(h) = m.histogram("runtime_mailbox_wait_ns") {
        println!(
            "  waits: {} caught spinning, {} slept, length p50 ≤ {} ns, p99 ≤ {} ns",
            m.counter("runtime_mailbox_spin_hits_total").unwrap_or(0),
            m.counter("runtime_mailbox_parks_total").unwrap_or(0),
            h.quantile(0.5),
            h.quantile(0.99),
        );
    }
    if let Some(h) = m.histogram("reduce_window_merge_latency_ns") {
        println!(
            "  reduce: {} windows closed, merge latency p50 ≤ {} ns, p99 ≤ {} ns",
            h.count,
            h.quantile(0.5),
            h.quantile(0.99),
        );
    }
    println!(
        "  blackboard: {} entries posted, {} KS invocations",
        m.counter("blackboard_entries_posted_total").unwrap_or(0),
        m.counter("blackboard_ks_invocations_total").unwrap_or(0),
    );
}
