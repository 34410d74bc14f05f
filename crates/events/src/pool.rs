//! Pooled block buffers for the event hot path.
//!
//! Steady-state encoding must not allocate: the recorder, the stream
//! writer and the compressor all borrow scratch buffers from a
//! [`BufferPool`] and hand them back when the block has been shipped.
//! The pool is a plain LIFO of [`BytesMut`] under a mutex — checkout is
//! two pointer moves, far off the per-event path (one checkout per
//! *block*, i.e. per thousands of events) — with hit/miss/return counters
//! so tests (and the obs layer) can prove the steady state recycles
//! rather than allocates.

use bytes::BytesMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on buffers retained per pool; beyond this, returned
/// buffers are dropped (freed) instead of pooled.
const MAX_POOLED: usize = 64;

/// Pool usage counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from the pool.
    pub hits: u64,
    /// Checkouts that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers handed back.
    pub returns: u64,
}

/// A LIFO free-list of reusable [`BytesMut`] block buffers.
pub struct BufferPool {
    free: Mutex<Vec<BytesMut>>,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new()
    }
}

impl BufferPool {
    /// An empty pool.
    pub const fn new() -> BufferPool {
        BufferPool {
            free: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
        }
    }

    /// Checks out an empty buffer with at least `min_capacity` bytes of
    /// capacity, recycling a pooled one when available.
    pub fn get(&self, min_capacity: usize) -> BytesMut {
        let popped = {
            let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
            free.pop()
        };
        match popped {
            Some(mut buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                if buf.capacity() < min_capacity {
                    buf.reserve(min_capacity - buf.len());
                }
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                BytesMut::with_capacity(min_capacity)
            }
        }
    }

    /// Returns a buffer to the pool. Contents are discarded; buffers past
    /// the retention cap (and ones that never allocated) are freed.
    pub fn put(&self, mut buf: BytesMut) {
        self.returns.fetch_add(1, Ordering::Relaxed);
        buf.clear();
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.len() < MAX_POOLED && buf.capacity() > 0 {
            free.push(buf);
        }
    }

    /// Buffers currently sitting in the free list.
    pub fn pooled(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Monotonic usage counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide block-buffer pool shared by recorders, stream
/// writers and compressors.
pub fn global_pool() -> &'static BufferPool {
    static POOL: OnceLock<BufferPool> = OnceLock::new();
    POOL.get_or_init(BufferPool::new)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn checkout_recycles() {
        let pool = BufferPool::new();
        let a = pool.get(1024);
        assert_eq!(pool.stats().misses, 1);
        pool.put(a);
        let b = pool.get(512);
        assert_eq!(pool.stats().hits, 1);
        assert!(b.capacity() >= 512);
        assert_eq!(pool.pooled(), 0);
        pool.put(b);
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn steady_state_never_misses() {
        let pool = BufferPool::new();
        // Warm-up allocates once; afterwards the same buffer cycles.
        for _ in 0..100 {
            let mut buf = pool.get(4096);
            buf.extend_from_slice(&[0u8; 4096]);
            pool.put(buf);
        }
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 99);
        assert_eq!(s.returns, 100);
    }

    #[test]
    fn retention_is_bounded() {
        let pool = BufferPool::new();
        let bufs: Vec<_> = (0..MAX_POOLED + 10).map(|_| pool.get(16)).collect();
        for b in bufs {
            pool.put(b);
        }
        assert_eq!(pool.pooled(), MAX_POOLED);
    }
}
