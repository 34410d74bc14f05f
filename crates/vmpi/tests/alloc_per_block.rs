//! "One copy per block", as a repeatable count: a writer that fills its
//! block in place and a reader that drains it may together allocate at
//! most one block-sized buffer per block — the right-sized frame the
//! mailbox keeps — and barely more bytes than the payload itself.
//!
//! Its own test binary: the counting allocator is process-wide.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_runtime::Launcher;
use opmr_vmpi::{Balance, ReadMode, ReadStream, StreamConfig, Vmpi, WriteStream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Allocations at least this large are "block-sized".
const BIG: usize = 4096;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
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

#[test]
fn a_64k_block_costs_one_allocation_and_one_copy() {
    const BLOCK: usize = 1 << 16;
    const BLOCKS: u64 = 1000;
    let cfg = StreamConfig::new(BLOCK, 3, Balance::None)
        .with_read_timeout(std::time::Duration::from_secs(30));
    // Both ranks open their ends and warm one block through untimed, meet
    // at the barrier, and only then does the counted stretch begin.
    let warm = Arc::new(Barrier::new(2));
    let (w_warm, r_warm) = (Arc::clone(&warm), warm);
    Launcher::new()
        .partition("w", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = WriteStream::open_to(&v, vec![1], cfg, 1).unwrap();
            let mut block = st.new_block();
            for i in 0..=BLOCKS {
                if i == 1 {
                    w_warm.wait();
                }
                block.resize(opmr_vmpi::stream::BLOCK_HEADROOM + BLOCK, i as u8);
                st.send_block(&mut block).unwrap();
            }
            st.close().unwrap();
        })
        .partition("r", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], cfg, 1).unwrap();
            assert_eq!(
                st.read(ReadMode::Blocking).unwrap().unwrap().data.len(),
                BLOCK
            );
            COUNTING.store(true, Ordering::SeqCst);
            r_warm.wait();
            let mut seen = 0u64;
            while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                assert_eq!(b.data.len(), BLOCK);
                seen += 1;
                if seen == BLOCKS {
                    COUNTING.store(false, Ordering::SeqCst);
                }
            }
            assert_eq!(seen, BLOCKS);
        })
        .run()
        .unwrap();
    let (big, bytes) = (
        BIG_ALLOCS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    );
    let payload = BLOCKS * BLOCK as u64;
    assert!(
        big <= BLOCKS,
        "{big} allocations >= {BIG} B for {BLOCKS} blocks"
    );
    assert!(
        bytes as f64 <= 1.1 * payload as f64,
        "{bytes} bytes allocated for {payload} payload bytes ({:.2}x)",
        bytes as f64 / payload as f64
    );
    // The bound is tight from below too: the mailbox's copy is real.
    assert!(big >= BLOCKS - 1 && bytes >= payload - BLOCK as u64);
}
