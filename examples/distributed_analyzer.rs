//! Distributed analysis (the paper's Section VI direction): no shared
//! engine — the analyzer ranks form a reduction tree whose frontier nodes
//! each fold their own share of the event streams, and partial profiles,
//! topologies and wait-state aggregates merge upward to the root
//! (`Coupling::Tbon` with `ReduceOp::Aggregate`).
//!
//! ```sh
//! cargo run --release --example distributed_analyzer
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples favour brevity

use opmr::core::{Coupling, LiveOptions, Session};
use opmr::netsim::tera100;
use opmr::reduce::ReduceOp;
use opmr::workloads::{Benchmark, Class};

fn main() {
    let m = tera100();
    let lu = Benchmark::Lu
        .build(Class::S, 12, &m, Some(3))
        .expect("LU.S");
    let cg = Benchmark::Cg.build(Class::S, 8, &m, Some(3)).expect("CG.S");

    let outcome = Session::builder()
        .analyzer_ranks(4)
        // Analysis state per frontier rank, merged up a fanout-2 tree.
        .coupling(Coupling::Tbon { fanout: 2 })
        .reduce_op(ReduceOp::Aggregate)
        .waitstate()
        .app_workload("lu", lu, LiveOptions::default())
        .app_workload("cg", cg, LiveOptions::default())
        .run()
        .expect("distributed session");

    println!(
        "distributed analyzer (4-rank aggregate tree) profiled {} applications:\n",
        outcome.report.apps.len()
    );
    for app in &outcome.report.apps {
        let detected = opmr::analysis::classify(&app.topology);
        println!(
            "  {:>3}: {} events from {} ranks over {} packs; topology: {} \
             ({:.0}% coverage); wait states matched: {}",
            app.name,
            app.events,
            app.ranks,
            app.packs,
            detected.pattern.describe(),
            detected.coverage * 100.0,
            app.waitstate.as_ref().map(|w| w.matched).unwrap_or(0),
        );
    }
    // Wait-state matching needs a channel's send and receive side by
    // side, and the leaf mapping spreads ranks across frontier nodes; each
    // merge re-feeds the dangling halves through a matcher, so transfers
    // split across nodes are still paired by the time they reach the root.
    println!("\nfull report:\n");
    println!("{}", outcome.markdown());
}
