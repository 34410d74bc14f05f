//! "A row at wire cost", as a repeatable count: once warm, an instrumented
//! call allocates nothing for its row, and a pack costs at most the one
//! block-sized frame the stream's mailbox keeps (see vmpi's
//! `alloc_per_block.rs`). A recorder block that grew past its capacity, a
//! staged `Event` batch or a per-call buffer would each show up here.
//!
//! Its own test binary: the counting allocator is process-wide. Only
//! allocations on the application rank's thread are counted.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_events::{EventKind, PackEncoding};
use opmr_instrument::InstrumentedMpi;
use opmr_runtime::Launcher;
use opmr_vmpi::map::map_partitions;
use opmr_vmpi::{Balance, Map, MapPolicy, ReadMode, ReadStream, StreamConfig, Vmpi};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Allocations at least this large are "block-sized".
const BIG: usize = 4000;
const BLOCK: usize = 4096;
/// Amortised growth of the receiving mailbox's queue, allocated on the
/// sending thread: logarithmic in the backlog, not per pack.
const QUEUE_GROWTH: u64 = 16;

thread_local! {
    /// Set on the application rank's thread for the counted stretch.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a const thread-local and atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if layout.size() >= BIG {
                BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        }
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn cfg() -> StreamConfig {
    StreamConfig::new(BLOCK, 4, Balance::RoundRobin)
        .with_pack_encoding(PackEncoding::Delta)
        .with_read_timeout(Duration::from_secs(30))
}

/// The firehose mix: POSIX writes and reads, markers, empty computes.
fn calls(imp: &InstrumentedMpi, n: u64) {
    for i in 0..n {
        match i % 4 {
            0 => imp
                .posix(EventKind::PosixWrite, 4096, Duration::from_nanos(300))
                .unwrap(),
            1 => imp
                .posix(EventKind::PosixRead, 512, Duration::from_nanos(120))
                .unwrap(),
            2 => imp.marker((i % 8) as i32).unwrap(),
            _ => imp.compute(Duration::ZERO).unwrap(),
        }
    }
}

#[test]
fn a_warm_call_allocates_nothing_and_a_pack_one_frame() {
    const CALLS: u64 = 200_000;
    let packs = opmr_obs::registry().counter("instrument_packs_encoded_total");
    let counted_packs = std::sync::Arc::new(AtomicU64::new(0));
    let counted = std::sync::Arc::clone(&counted_packs);
    Launcher::new()
        .partition("app", 1, move |mpi| {
            let imp = InstrumentedMpi::init(mpi, "Analyzer", cfg(), 0, 0).unwrap();
            // Warm-up: enough rows for a few packs, so every buffer the
            // path reuses exists before the count starts.
            calls(&imp, 5_000);
            let before = packs.get();
            COUNTING.with(|c| c.set(true));
            calls(&imp, CALLS);
            COUNTING.with(|c| c.set(false));
            counted.store(packs.get() - before, Ordering::SeqCst);
            imp.finalize().unwrap();
        })
        .partition("Analyzer", 1, |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut map = Map::new();
            map_partitions(&v, 0, MapPolicy::RoundRobin, &mut map).unwrap();
            let mut st = ReadStream::open_map(&v, &map, cfg(), 0).unwrap();
            while st.read(ReadMode::Blocking).unwrap().is_some() {}
        })
        .run()
        .unwrap();
    let packs = counted_packs.load(Ordering::SeqCst);
    let (allocs, big) = (
        ALLOCS.load(Ordering::SeqCst),
        BIG_ALLOCS.load(Ordering::SeqCst),
    );
    // Full 4 KiB Delta blocks carry hundreds of firehose rows each.
    assert!(
        packs > 0 && packs * 100 < CALLS,
        "{packs} packs for {CALLS} calls"
    );
    // One frame per pack, plus the few doublings of the analyzer's
    // mailbox queue the eager stream may cause when the application
    // outruns the analyzer (ROADMAP item 2); a per-row allocation would be
    // 200 000, a second one per pack ≈ 300.
    assert!(
        big <= packs + QUEUE_GROWTH && allocs <= packs + QUEUE_GROWTH,
        "{allocs} allocations ({big} >= {BIG} B) for {CALLS} calls in {packs} packs"
    );
}
