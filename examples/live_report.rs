//! Live report serving: watch an analysis converge while the application
//! is still running.
//!
//! ```sh
//! cargo run --example live_report
//! ```
//!
//! Launches a 6-rank ring application, a 2-rank analyzer publishing into
//! a snapshot store (`Coupling::Serving`) and two client partitions, each
//! reading the store on its own rank: a *subscriber* that
//! folds the snapshot-then-deltas stream into a local report and prints
//! each version as it lands, and a *prober* that issues point queries
//! (version info, rank-filtered profile, per-rank event density) against
//! whatever is current mid-run.

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples favour brevity

use opmr::core::{Coupling, Session};
use opmr::runtime::{Src, TagSel};
use opmr::serve::proto::ALL_RANKS;
use opmr::serve::ServeConfig;
use opmr::vmpi::{Balance, StreamConfig};
use std::time::Duration;

fn main() {
    let outcome = Session::builder()
        .analyzer_ranks(2)
        .coupling(Coupling::Serving)
        .serve_config(ServeConfig {
            publish_every_packs: 2,
            ..ServeConfig::default()
        })
        // Small stream blocks => frequent packs => frequent publications.
        .stream_config(StreamConfig::new(2048, 4, Balance::None))
        .app("ring_live", 6, |imp| {
            let w = imp.comm_world();
            let (r, n) = (imp.rank(), imp.size());
            for round in 0..80 {
                let req = imp.isend(&w, (r + 1) % n, round, vec![1u8; 1024]).unwrap();
                imp.recv(&w, Src::Rank((r + n - 1) % n), TagSel::Tag(round))
                    .unwrap();
                imp.wait(req).unwrap();
                // Pace the ring so "live" is observable.
                imp.compute(Duration::from_micros(300)).unwrap();
            }
            imp.barrier(&w).unwrap();
        })
        .client("subscriber", 1, |c| {
            c.subscribe().expect("subscribe");
            loop {
                let u = c
                    .next_update()
                    .expect("subscription update")
                    .expect("stream ended before the final version");
                let held = c.report().expect("subscribed client holds a report");
                let events: u64 = held.parts.iter().map(|p| p.profile.events()).sum();
                println!(
                    "  [subscriber] v{:<3} {}  {:>6} events  lag {:>6.2} ms{}{}",
                    u.version,
                    if u.delta { "delta   " } else { "snapshot" },
                    events,
                    u.lag_ns as f64 / 1e6,
                    if u.resync { "  (resync)" } else { "" },
                    if u.finished { "  FINAL" } else { "" },
                );
                if u.finished {
                    break;
                }
            }
        })
        .client("prober", 1, |c| {
            let info = c.wait_version(2).expect("publications");
            let (v, profile) = c.query_profile(0, 0, 0, ALL_RANKS).expect("profile");
            println!(
                "  [prober] mid-run: versions {}..{}, profile@v{v} holds {} events",
                info.oldest,
                info.current,
                profile.events()
            );
            let fin = c.wait_version(u64::MAX).expect("final version");
            let (_, lo, density) = c.query_density(0, 0, 0, ALL_RANKS).expect("density");
            println!(
                "  [prober] final v{}: per-rank events from rank {lo}: {:?}",
                fin.current, density
            );
        })
        .run()
        .expect("serving session");

    println!("---");
    let store = outcome
        .snapshot_store
        .as_ref()
        .expect("serving retains the store");
    let s = store.stats();
    println!(
        "store: {} versions published, {} evicted from the ring",
        s.published, s.evicted
    );
    for (rank, st) in &outcome.serve_stats {
        println!(
            "client rank {rank}: {} queries, {} snapshots / {} deltas folded, {} resyncs",
            st.queries, st.snapshots_sent, st.deltas_sent, st.resyncs
        );
    }
    println!("---");
    println!("{}", outcome.markdown());
}
