//! EulerMHD walkthrough: instrument the 2-D MHD mini-app, inspect the
//! spatial analyses the paper showcases (topology of Figure 17c, density
//! maps of Figure 18) and compare the online report with the classical
//! trace-based workflow on the same run.
//!
//! ```sh
//! cargo run --example euler_mhd
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples favour brevity

use opmr::analysis::WeightKind;
use opmr::core::{LiveOptions, Session, Sink};
use opmr::events::EventKind;
use opmr::netsim::tera100;
use opmr::workloads::euler::{self, EulerParams};

fn main() {
    let m = tera100();
    let params = EulerParams {
        mesh: 512,
        steps: 10,
        ..EulerParams::default()
    };
    let ranks = 16;
    let w = euler::workload(params, ranks, &m, None).expect("euler workload");

    // --- Online run -----------------------------------------------------
    let outcome = Session::builder()
        .analyzer_ranks(2)
        .app_workload("euler_mhd", w.clone(), LiveOptions::default())
        .run()
        .expect("online session");
    let app = &outcome.report.apps[0];

    println!("EulerMHD on {ranks} ranks — online profile");
    println!("  events     : {}", app.events);
    println!(
        "  exchanges  : {}",
        app.profile
            .kind(EventKind::Sendrecv)
            .map(|s| s.hits)
            .unwrap_or(0)
    );
    println!(
        "  allreduces : {}",
        app.profile
            .kind(EventKind::Allreduce)
            .map(|s| s.hits)
            .unwrap_or(0)
    );
    println!(
        "  topology   : {} edges, symmetric={} (4-neighbour halo)",
        app.topology.edge_count(),
        app.topology.is_symmetric_in_hits()
    );

    for map in &app.density {
        println!("\n{}", map.ascii());
    }

    let dir = std::path::Path::new("out/euler_mhd");
    std::fs::create_dir_all(dir).expect("out dir");
    std::fs::write(
        dir.join("topology_size.dot"),
        app.topology.to_dot("euler_mhd", WeightKind::Bytes),
    )
    .expect("write dot");
    println!("wrote {}", dir.join("topology_size.dot").display());

    // --- Trace-based baseline on the identical workload ------------------
    // Record to per-rank trace files, then replay them: the post-mortem pass.
    let trace_dir = dir.join("traces");
    let _ = std::fs::remove_dir_all(&trace_dir);
    Session::builder()
        .sink(Sink::TraceDir(trace_dir.clone()))
        .app_workload("euler_mhd", w, LiveOptions::default())
        .run()
        .expect("trace recording");
    let sizes: Vec<u64> = std::fs::read_dir(&trace_dir)
        .expect("trace dir")
        .map(|e| e.and_then(|e| e.metadata()).map_or(0, |m| m.len()))
        .collect();
    let trace = Session::replay(&trace_dir).run().expect("replay");
    let tapp = &trace.report.apps[0];
    println!("\nClassical trace workflow on the same run:");
    let (bytes, files) = (sizes.iter().sum::<u64>(), sizes.len());
    println!("  trace bytes on disk : {bytes} ({files} files)");
    println!(
        "  post-mortem events  : {} (online saw {})",
        tapp.events, app.events
    );
    assert_eq!(
        tapp.profile.kind(EventKind::Sendrecv).map(|s| s.hits),
        app.profile.kind(EventKind::Sendrecv).map(|s| s.hits),
        "streamed analysis must equal post-mortem analysis"
    );
    println!("  profiles match — streaming replaced the file system without losing anything.");
}
