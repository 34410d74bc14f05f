//! Micro-benchmark for the observability registry hot paths.
//!
//! The instrumentation idiom caches metric handles in per-module
//! `OnceLock` structs, so the steady-state cost of counting is one
//! relaxed `fetch_add` — the acceptance bar is ~10 ns per counter
//! increment on a laptop core. This binary measures that directly (the
//! loop is too tight to need statistics machinery) along
//! with the other paths a layer can hit: gauge updates, histogram
//! records, the `OnceLock` re-read, and the mutex-guarded registry
//! lookup that the idiom keeps off the hot path.
//!
//! ```sh
//! cargo run --release --bin obs_bench
//! ```

use opmr_obs::{registry, Counter, Gauge, Histogram, Registry};
use std::hint::black_box;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

const ITERS: u64 = 20_000_000;
const LOOKUP_ITERS: u64 = 200_000;

fn ns_per_op(iters: u64, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    // Dedicated registry so the numbers are not skewed by whatever the
    // process registered before; the global `registry()` is measured
    // separately for the lookup path.
    let reg = Registry::new();
    let counter: Arc<Counter> = reg.counter("bench_counter_total");
    let gauge: Arc<Gauge> = reg.gauge("bench_gauge");
    let hist: Arc<Histogram> = reg.histogram("bench_hist");

    println!("obs registry hot paths ({ITERS} iterations each)\n");

    let c = ns_per_op(ITERS, || {
        for _ in 0..ITERS {
            black_box(&counter).inc();
        }
    });
    println!("  counter.inc()            {c:7.2} ns/op   (bar: <= ~10 ns)");

    let a = ns_per_op(ITERS, || {
        for i in 0..ITERS {
            black_box(&counter).add(i & 7);
        }
    });
    println!("  counter.add(n)           {a:7.2} ns/op");

    let g = ns_per_op(ITERS, || {
        for i in 0..ITERS {
            let gr = black_box(&gauge);
            if i & 1 == 0 {
                gr.inc();
            } else {
                gr.dec();
            }
        }
    });
    println!("  gauge.inc()/dec()        {g:7.2} ns/op");

    let h = ns_per_op(ITERS, || {
        for i in 0..ITERS {
            black_box(&hist).record(i);
        }
    });
    println!("  histogram.record(v)      {h:7.2} ns/op");

    // The idiom's per-call overhead on top of the raw atomic: reading the
    // initialized OnceLock that caches the handle struct.
    static CACHED: OnceLock<Arc<Counter>> = OnceLock::new();
    let global = registry();
    CACHED.get_or_init(|| global.counter("obs_bench_cached_total"));
    let o = ns_per_op(ITERS, || {
        for _ in 0..ITERS {
            if let Some(c) = black_box(CACHED.get()) {
                c.inc();
            }
        }
    });
    println!("  OnceLock handle + inc()  {o:7.2} ns/op");

    // The cold path the idiom avoids: a by-name registry lookup (mutex +
    // hash) per increment. Printed as the "why handles are cached" datum.
    let l = ns_per_op(LOOKUP_ITERS, || {
        for _ in 0..LOOKUP_ITERS {
            global.counter("obs_bench_lookup_total").inc();
        }
    });
    println!("  registry lookup + inc()  {l:7.2} ns/op   ({LOOKUP_ITERS} iterations)");

    let snap_t0 = Instant::now();
    let snap = global.snapshot();
    println!(
        "\n  snapshot(): {} metrics in {:.1} us",
        snap.counters.len() + snap.gauges.len() + snap.histograms.len(),
        snap_t0.elapsed().as_nanos() as f64 / 1e3
    );

    assert_eq!(counter.get(), ITERS + ITERS / 8 * 28); // keep the loops honest
    let _ = black_box(gauge.get());
    let _ = black_box(hist.count());
}
