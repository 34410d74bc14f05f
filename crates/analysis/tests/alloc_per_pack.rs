//! "Fold off the bytes", as a repeatable count: from `post_block` through
//! the fold, a warmed engine allocates at most two blocks of memory per
//! pack — the board entry's `Arc` and the fold's per-pack cell list. The
//! decoded events go into a buffer the worker reuses. The count does not
//! grow with the rows in a pack: a full 4 KiB Delta block (≈ 500 rows)
//! allocates what a 76-row one does.
//!
//! Its own test binary, one test: the counting allocator is process-wide.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use bytes::Bytes;
use opmr_analysis::{AnalysisEngine, EngineConfig};
use opmr_events::{Event, EventKind, EventPack, PackEncoding};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM: usize = 50;
const PACKS: usize = 1000;

/// A firehose rank's calls: POSIX writes and reads of assorted sizes,
/// markers and zero-length compute intervals, with monotone timestamps.
fn firehose(rank: u32) -> impl Iterator<Item = Event> {
    const SIZES: [u64; 6] = [64, 512, 4096, 65_536, 1 << 20, 8 << 20];
    let mut t = 1_000u64;
    (0u64..).map(move |i| {
        t += 90 + (i * 7) % 40;
        let bytes = SIZES[(i * 5 % 6) as usize] + i % 64;
        let (kind, tag, bytes, duration_ns) = match i % 20 {
            0..=7 => (EventKind::PosixWrite, -1, bytes, 200 + i * 37 % 50_000),
            8..=13 => (EventKind::PosixRead, -1, bytes, 200 + i * 53 % 50_000),
            14..=16 => (EventKind::Marker, (i % 32) as i32, 0, 0),
            _ => (EventKind::Compute, -1, 0, 30),
        };
        Event {
            time_ns: t,
            duration_ns,
            kind,
            rank,
            peer: -1,
            tag,
            comm: 0,
            bytes,
        }
    })
}

/// How many of `events` the recorder packs into one block: the pack grows
/// while its encoding leaves room for one more worst-case row (found by
/// bisection, since the encoding grows with the pack).
fn byte_cut(block: usize, encoding: PackEncoding, events: &[Event]) -> usize {
    let room = |n: usize| {
        let len = EventPack::new(0, 0, 0, events[..n].to_vec())
            .encode_with(encoding)
            .len();
        len + encoding.max_event_wire_size() <= block
    };
    let (mut lo, mut hi) = (1, events.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if room(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Blocks of `block` bytes under `encoding`, two ranks interleaved. Each
/// pack holds the guaranteed `capacity_for_block_with` events or, when
/// `full`, as many as the recorder's byte rule packs.
fn blocks(block: usize, encoding: PackEncoding, full: bool) -> Vec<Bytes> {
    // No row is shorter than 3 bytes, so no pack holds more events.
    let most = if full {
        block / 3
    } else {
        EventPack::capacity_for_block_with(block, encoding)
    };
    let mut ranks = [firehose(0), firehose(1)];
    let mut ahead = [Vec::new(), Vec::new()];
    (0..WARM + PACKS)
        .map(|i| {
            let (rank, seq) = (i % 2, i / 2);
            let buf = &mut ahead[rank];
            buf.extend(ranks[rank].by_ref().take(most - buf.len()));
            let n = if full {
                byte_cut(block, encoding, buf)
            } else {
                most
            };
            let events = buf.drain(..n).collect();
            EventPack::new(0, rank as u32, seq as u32, events).encode_with(encoding)
        })
        .collect()
}

#[test]
fn a_warmed_engine_allocates_at_most_two_times_per_pack() {
    for (block, encoding, full) in [
        (4 << 10, PackEncoding::Delta, false),
        (4 << 10, PackEncoding::Delta, true),
        (64 << 10, PackEncoding::Fixed, false),
    ] {
        let mut warm = blocks(block, encoding, full);
        assert!(warm.iter().all(|b| b.len() <= block));
        let counted = warm.split_off(WARM);
        let engine = AnalysisEngine::new(EngineConfig {
            workers: 0,
            ..EngineConfig::default()
        });
        // Warmed means the worker's reused decode buffer has grown to the
        // largest pack it will see. Full blocks vary in rows from pack to
        // pack, so the warm-up repeats the largest one.
        let rows_in = |b: &Bytes| EventPack::decode(b).unwrap().header.count;
        let largest = counted.iter().max_by_key(|b| rows_in(b)).unwrap().clone();
        for b in warm.into_iter().chain([largest]) {
            engine.post_block(b);
            engine.blackboard().run_inline();
        }
        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        for b in counted {
            engine.post_block(b);
            engine.blackboard().run_inline();
        }
        COUNTING.store(false, Ordering::SeqCst);
        let allocs = ALLOCS.load(Ordering::SeqCst);
        let report = engine.finish();
        assert_eq!(report.apps[0].packs, (WARM + 1 + PACKS) as u64);
        let rows = report.apps[0].events as f64 / (WARM + 1 + PACKS) as f64;
        assert_eq!(report.apps[0].decode_errors, 0);
        let per_pack = allocs as f64 / PACKS as f64;
        eprintln!(
            "{encoding} {} KiB, {rows:.0} rows: {per_pack:.2} allocations per pack",
            block >> 10
        );
        assert!(
            allocs <= 2 * PACKS as u64,
            "{encoding} {} KiB: {allocs} allocations for {PACKS} packs ({per_pack:.2} per pack)",
            block >> 10
        );
    }
}
