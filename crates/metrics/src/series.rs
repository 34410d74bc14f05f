//! The windowed integer fold, its wire codec and the order-independent
//! merge.

use bytes::BufMut;
use opmr_events::wire::{Reader, Truncated, Width};
use opmr_events::Event;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default window width: 1 ms of application time.
pub const DEFAULT_WINDOW_NS: u64 = 1_000_000;

/// Configuration of the windowed fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Window width in nanoseconds of application time (clamped to ≥ 1).
    pub window_ns: u64,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            window_ns: DEFAULT_WINDOW_NS,
        }
    }
}

/// Per-(window, rank) integer accumulators. Everything the derived
/// efficiency metrics need, nothing an individual event could be
/// reconstructed from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCell {
    /// Nanoseconds spent inside MPI calls overlapping this window.
    pub mpi_ns: u64,
    /// Subset of [`WindowCell::mpi_ns`] spent in `MPI_Wait`-family calls
    /// (the serialization half of the decomposition).
    pub wait_ns: u64,
    /// Subset of [`WindowCell::mpi_ns`] spent in data-movement calls
    /// (point-to-point or collective — the transfer half).
    pub xfer_ns: u64,
    /// Payload bytes of calls that *began* in this window.
    pub bytes: u64,
    /// MPI calls that began in this window.
    pub hits: u64,
}

impl WindowCell {
    fn absorb(&mut self, other: &WindowCell) {
        self.mpi_ns += other.mpi_ns;
        self.wait_ns += other.wait_ns;
        self.xfer_ns += other.xfer_ns;
        self.bytes += other.bytes;
        self.hits += other.hits;
    }

    fn is_zero(&self) -> bool {
        *self == WindowCell::default()
    }
}

/// One window's per-rank cells, ordered by rank.
pub type WindowCells = BTreeMap<u32, WindowCell>;

/// Windows per copy-on-write chunk. Chunk `k` holds exactly the windows
/// `k * CHUNK_WINDOWS ..= k * CHUNK_WINDOWS + CHUNK_WINDOWS - 1`, so the
/// chunking is a function of the window set alone and equal series have
/// equal chunks.
const CHUNK_WINDOWS: u64 = 64;

/// A fixed run of consecutive windows, the unit a snapshot shares with
/// the live series: a closed window never changes, so all but the newest
/// chunk or two stay shared for good.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Chunk {
    /// Slot `window % CHUNK_WINDOWS`; an empty map is an absent window.
    windows: [WindowCells; CHUNK_WINDOWS as usize],
    /// Non-empty slots (never 0 for a chunk held by a series).
    live: u32,
}

impl Chunk {
    fn empty() -> Chunk {
        Chunk {
            windows: std::array::from_fn(|_| WindowCells::new()),
            live: 0,
        }
    }

    fn slot(window: u64) -> usize {
        (window % CHUNK_WINDOWS) as usize
    }

    /// The cell of `(window, rank)`, opening the window if need be.
    fn cell_mut(&mut self, window: u64, rank: u32) -> &mut WindowCell {
        let cells = &mut self.windows[Chunk::slot(window)];
        if cells.is_empty() {
            self.live += 1;
            crate::obs::m().windows_opened.inc();
        }
        cells.entry(rank).or_default()
    }

    /// Ordered `(window, cells)` of the non-empty slots.
    fn iter(&self, key: u64) -> impl Iterator<Item = (u64, &WindowCells)> {
        let base = key * CHUNK_WINDOWS;
        self.windows
            .iter()
            .enumerate()
            .filter(|(_, cells)| !cells.is_empty())
            .map(move |(i, cells)| (base + i as u64, cells))
    }
}

type Chunks = BTreeMap<u64, Arc<Chunk>>;

/// Write access to a chunk. This is where copy-on-write is paid: a chunk
/// some snapshot still shares is copied first (counted in
/// `metrics_chunks_copied_total`). Callers fold a whole run of events
/// through the returned reference, so the shared-or-not check costs one
/// atomic per (pack, chunk), not one per cell.
fn unshare(chunk: &mut Arc<Chunk>) -> &mut Chunk {
    if Arc::strong_count(chunk) > 1 {
        crate::obs::m().chunks_copied.inc();
    }
    Arc::make_mut(chunk)
}

/// [`unshare`]d chunk `key`, created on first use (the caller opens a
/// window in it, so no empty chunk is left behind).
fn chunk_mut(chunks: &mut Chunks, key: u64) -> &mut Chunk {
    unshare(
        chunks
            .entry(key)
            .or_insert_with(|| Arc::new(Chunk::empty())),
    )
}

/// A time-resolved metric series: per-window, per-rank integer cells over
/// a fixed window width. Windows are kept in canonical order and in
/// canonical chunks, so the encoding of a given logical state is unique —
/// the property every byte-identity acceptance test in the serve and
/// reduce planes leans on. Chunks sit behind `Arc`: cloning a series
/// (a report snapshot under the engine's slot lock) costs one pointer per
/// chunk, and only the chunks written afterwards are copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSeries {
    window_ns: u64,
    /// `chunks[window / CHUNK_WINDOWS]`; no chunk is ever empty.
    chunks: Chunks,
    /// Highest rank holding a cell, plus one (0 for an empty series).
    ranks: u32,
}

impl MetricsSeries {
    /// An empty series with the given window width (clamped to ≥ 1 ns).
    pub fn new(window_ns: u64) -> MetricsSeries {
        MetricsSeries {
            window_ns: window_ns.max(1),
            chunks: Chunks::new(),
            ranks: 0,
        }
    }

    /// Window width, nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Number of windows holding at least one cell.
    pub fn len(&self) -> usize {
        self.chunks.values().map(|c| c.live as usize).sum()
    }

    /// True when no event has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Distinct ranks seen across all windows (highest rank + 1).
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Ordered `(window_index, cells)` of the windows at or after `from`.
    pub fn windows_from(&self, from: u64) -> impl Iterator<Item = (u64, &WindowCells)> {
        self.chunks
            .range(from / CHUNK_WINDOWS..)
            .flat_map(|(key, chunk)| chunk.iter(*key))
            .skip_while(move |(w, _)| *w < from)
    }

    /// Ordered iteration over `(window_index, rank, cell)`.
    pub fn cells(&self) -> impl Iterator<Item = (u64, u32, &WindowCell)> {
        self.windows_from(0)
            .flat_map(|(w, cells)| cells.iter().map(move |(r, c)| (w, *r, c)))
    }

    /// The cell of one window/rank, if any event touched it.
    pub fn cell(&self, window: u64, rank: u32) -> Option<&WindowCell> {
        self.window(window).and_then(|cells| cells.get(&rank))
    }

    /// Ordered window indices.
    pub fn window_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.windows_from(0).map(|(w, _)| w)
    }

    /// One window's ordered per-rank cells.
    pub fn window(&self, window: u64) -> Option<&WindowCells> {
        let cells = &self.chunks.get(&(window / CHUNK_WINDOWS))?.windows[Chunk::slot(window)];
        (!cells.is_empty()).then_some(cells)
    }

    /// Replaces one window's cells wholesale (the serve plane's sparse
    /// delta application: windows are replacement values, like profile
    /// cells). An empty replacement removes the window.
    pub fn replace_window(&mut self, window: u64, cells: WindowCells) {
        let key = window / CHUNK_WINDOWS;
        if cells.is_empty() && self.window(window).is_none() {
            return;
        }
        let top = |cells: &WindowCells| cells.keys().next_back().map_or(0, |r| r + 1);
        let new_top = top(&cells);
        let chunk = chunk_mut(&mut self.chunks, key);
        let slot = &mut chunk.windows[Chunk::slot(window)];
        let old_top = top(slot);
        chunk.live = chunk.live + u32::from(!cells.is_empty()) - u32::from(!slot.is_empty());
        *slot = cells;
        if chunk.live == 0 {
            self.chunks.remove(&key);
        }
        if new_top >= old_top {
            self.ranks = self.ranks.max(new_top);
        } else if old_top == self.ranks {
            // The replaced window held the highest rank and the new cells
            // do not: only a full walk can tell what the maximum is now.
            self.ranks = self.windows_from(0).map(|(_, c)| top(c)).max().unwrap_or(0);
        }
    }

    /// Folds `events` in order. MPI calls only; a duration is split
    /// exactly at window boundaries (integer arithmetic, no rounding),
    /// bytes and hit count go to the window the call began in.
    /// Zero-duration events still count a hit. Events arrive nearly
    /// sorted, so the chunk under the cursor is looked up (and unshared)
    /// once per run of events that stay inside it.
    fn fold(&mut self, events: &[Event]) {
        let wn = self.window_ns;
        let chunks = &mut self.chunks;
        let mut cursor: Option<(u64, &mut Chunk)> = None;
        for e in events.iter().filter(|e| e.kind.is_mpi()) {
            self.ranks = self.ranks.max(e.rank.saturating_add(1));
            let wait = e.kind.is_wait();
            let xfer = e.kind.is_transfer();
            let end = e.end_ns();
            let mut t = e.time_ns;
            let mut first = true;
            while first || t < end {
                let w = t / wn;
                let key = w / CHUNK_WINDOWS;
                if cursor.as_ref().map(|(k, _)| *k) != Some(key) {
                    cursor = Some((key, chunk_mut(chunks, key)));
                }
                let Some((_, chunk)) = cursor.as_mut() else {
                    break;
                };
                let cell = chunk.cell_mut(w, e.rank);
                if first {
                    cell.hits += 1;
                    cell.bytes += e.bytes;
                    first = false;
                }
                let w_end = (w + 1).saturating_mul(wn).max(t.saturating_add(1));
                let piece = end.min(w_end).saturating_sub(t);
                cell.mpi_ns += piece;
                if wait {
                    cell.wait_ns += piece;
                }
                if xfer {
                    cell.xfer_ns += piece;
                }
                t = w_end;
            }
        }
    }

    /// Folds one event (see [`MetricsSeries::fold_pack`]).
    pub fn add(&mut self, e: &Event) {
        self.fold(std::slice::from_ref(e));
    }

    /// Folds a pack's worth of events, recording the fold cost and event
    /// count into the observability registry.
    pub fn fold_pack(&mut self, events: &[Event]) {
        let t0 = std::time::Instant::now();
        self.fold(events);
        let o = crate::obs::m();
        o.events_folded.add(events.len() as u64);
        o.fold_ns.record(t0.elapsed().as_nanos() as u64);
    }

    /// Cell-wise addition — commutative and associative, so any merge
    /// tree (TBON shapes, distributed analyzer ranks) yields the same
    /// series as the flat fold. A mismatched window width cannot be
    /// combined meaningfully: when `self` already holds data the other
    /// side is dropped (counted in `metrics_merge_mismatch_total`); an
    /// empty `self` adopts the other side's width instead.
    pub fn merge(&mut self, other: &MetricsSeries) {
        if self.window_ns != other.window_ns {
            if self.chunks.is_empty() {
                self.window_ns = other.window_ns;
            } else if other.chunks.is_empty() {
                return;
            } else {
                crate::obs::m().merge_mismatches.inc();
                return;
            }
        }
        self.ranks = self.ranks.max(other.ranks);
        for (key, theirs) in &other.chunks {
            match self.chunks.entry(*key) {
                // Nothing to add to: share the other side's chunk.
                Entry::Vacant(slot) => {
                    crate::obs::m().windows_opened.add(u64::from(theirs.live));
                    slot.insert(Arc::clone(theirs));
                }
                Entry::Occupied(slot) => {
                    let ours = unshare(slot.into_mut());
                    for (w, cells) in theirs.iter(*key) {
                        for (r, c) in cells {
                            ours.cell_mut(w, *r).absorb(c);
                        }
                    }
                }
            }
        }
    }

    /// The windows of `self` that are new or differ relative to `prev`, in
    /// ascending order — or `None` when `self` is not `prev` plus
    /// replacements (another window width, or a window of `prev` is gone),
    /// which a changed-window patch cannot express. Chunks the two series
    /// still share are skipped by pointer, so the cost follows what was
    /// written since `prev` was cloned, not the length of the series.
    pub fn changed_since(&self, prev: &MetricsSeries) -> Option<Vec<u64>> {
        if self.window_ns != prev.window_ns {
            return None;
        }
        let mut changed = Vec::new();
        // Both maps are ordered: one pass pairs the chunks up.
        let mut theirs = prev.chunks.iter().peekable();
        for (key, ours) in &self.chunks {
            match theirs.next_if(|(k, _)| *k <= key) {
                Some((k, _)) if k < key => return None,
                Some((_, old)) if Arc::ptr_eq(ours, old) => {}
                Some((_, old)) => {
                    for (slot, (new, old)) in ours.windows.iter().zip(&old.windows).enumerate() {
                        if new.is_empty() && !old.is_empty() {
                            return None;
                        }
                        if new != old {
                            changed.push(key * CHUNK_WINDOWS + slot as u64);
                        }
                    }
                }
                None => changed.extend(ours.iter(*key).map(|(w, _)| w)),
            }
        }
        // A chunk of `prev` left over is one `self` no longer holds.
        theirs.next().is_none().then_some(changed)
    }

    /// The sub-series of ranks accepted by `keep` (serve-plane rank-range
    /// queries). Empty windows disappear; the window width is preserved.
    pub fn filter_ranks(&self, keep: impl Fn(u32) -> bool) -> MetricsSeries {
        let mut out = MetricsSeries::new(self.window_ns);
        for (w, cells) in self.windows_from(0) {
            let kept: WindowCells = cells
                .iter()
                .filter(|(r, _)| keep(**r))
                .map(|(r, c)| (*r, *c))
                .collect();
            out.replace_window(w, kept);
        }
        out
    }

    /// Exact size of [`MetricsSeries::encode_into`]'s output, bytes.
    pub fn encoded_size(&self) -> usize {
        12 + self
            .windows_from(0)
            .map(|(_, cells)| 12 + cells.len() * 44)
            .sum::<usize>()
    }

    /// Appends the canonical wire image:
    ///
    /// ```text
    /// u64 window_ns · u32 n_windows
    ///   per window: u64 index · u32 n_ranks
    ///     per rank: u32 rank · u64 mpi_ns · u64 wait_ns · u64 xfer_ns ·
    ///               u64 bytes · u64 hits
    /// ```
    ///
    /// Both levels iterate in ascending key order, so equal series always
    /// produce equal bytes.
    pub fn encode_into(&self, out: &mut impl BufMut) {
        self.encode_header_into(out);
        for (w, cells) in self.windows_from(0) {
            MetricsSeries::encode_window(w, cells, out);
        }
    }

    /// Appends the part of the wire image in front of the first window:
    /// `u64 window_ns · u32 n_windows`.
    pub fn encode_header_into(&self, out: &mut impl BufMut) {
        out.put_u64_le(self.window_ns);
        out.put_u32_le(self.len() as u32);
    }

    /// Appends one window in the per-window layout of
    /// [`MetricsSeries::encode_into`] (`u64 index · u32 n_ranks · cells`)
    /// — the unit the serve plane's sparse deltas travel in.
    pub fn encode_window(window: u64, cells: &WindowCells, out: &mut impl BufMut) {
        out.put_u64_le(window);
        out.put_u32_le(cells.len() as u32);
        for (r, c) in cells {
            out.put_u32_le(*r);
            out.put_u64_le(c.mpi_ns);
            out.put_u64_le(c.wait_ns);
            out.put_u64_le(c.xfer_ns);
            out.put_u64_le(c.bytes);
            out.put_u64_le(c.hits);
        }
    }

    /// [`MetricsSeries::encode_window`] of a window of this series; one
    /// the series does not hold encodes as zero ranks.
    pub fn encode_window_into(&self, window: u64, out: &mut impl BufMut) {
        match self.window(window) {
            Some(cells) => MetricsSeries::encode_window(window, cells, out),
            None => MetricsSeries::encode_window(window, &WindowCells::new(), out),
        }
    }

    /// Decodes one window image written by
    /// [`MetricsSeries::encode_window`], advancing `r` past it.
    /// Zero cells are dropped so the result is canonical.
    pub fn decode_window(r: &mut Reader<'_>) -> Result<(u64, WindowCells), Truncated> {
        let w = r.u64()?;
        let n_ranks = r.count(Width::U32, 44)?;
        let mut cells = BTreeMap::new();
        for _ in 0..n_ranks {
            let rank = r.u32()?;
            let cell = WindowCell {
                mpi_ns: r.u64()?,
                wait_ns: r.u64()?,
                xfer_ns: r.u64()?,
                bytes: r.u64()?,
                hits: r.u64()?,
            };
            if !cell.is_zero() {
                cells.insert(rank, cell);
            }
        }
        Ok((w, cells))
    }

    /// The canonical wire image as a standalone buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_size());
        self.encode_into(&mut out);
        out
    }

    /// Decodes one wire image, advancing `r` past it.
    pub fn decode(r: &mut Reader<'_>) -> Result<MetricsSeries, Truncated> {
        let mut series = MetricsSeries::new(r.u64()?);
        // No window is shorter than its index and rank count.
        let n_windows = r.count(Width::U32, 12)?;
        for _ in 0..n_windows {
            let (w, cells) = MetricsSeries::decode_window(r)?;
            series.replace_window(w, cells);
        }
        Ok(series)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use opmr_events::EventKind;
    use proptest::prelude::*;

    fn ev(kind: EventKind, rank: u32, t: u64, d: u64, bytes: u64) -> Event {
        Event {
            time_ns: t,
            duration_ns: d,
            kind,
            rank,
            peer: -1,
            tag: -1,
            comm: 0,
            bytes,
        }
    }

    #[test]
    fn event_is_split_exactly_at_window_boundaries() {
        let mut s = MetricsSeries::new(100);
        // 250..=420: 50 ns in window 2, 100 in window 3, 20 in window 4.
        s.add(&ev(EventKind::Send, 1, 250, 170, 64));
        assert_eq!(s.cell(2, 1).unwrap().mpi_ns, 50);
        assert_eq!(s.cell(3, 1).unwrap().mpi_ns, 100);
        assert_eq!(s.cell(4, 1).unwrap().mpi_ns, 20);
        // Hits and bytes only in the starting window.
        assert_eq!(s.cell(2, 1).unwrap().hits, 1);
        assert_eq!(s.cell(2, 1).unwrap().bytes, 64);
        assert_eq!(s.cell(3, 1).unwrap().hits, 0);
        let total: u64 = s.cells().map(|(_, _, c)| c.mpi_ns).sum();
        assert_eq!(total, 170, "no nanosecond lost or invented");
    }

    #[test]
    fn wait_and_transfer_classification() {
        let mut s = MetricsSeries::new(1000);
        s.add(&ev(EventKind::Wait, 0, 0, 100, 0));
        s.add(&ev(EventKind::Allreduce, 0, 100, 200, 8));
        s.add(&ev(EventKind::Init, 0, 300, 50, 0));
        let c = s.cell(0, 0).unwrap();
        assert_eq!(c.mpi_ns, 350);
        assert_eq!(c.wait_ns, 100);
        assert_eq!(c.xfer_ns, 200);
        assert_eq!(c.hits, 3);
    }

    #[test]
    fn non_mpi_events_are_ignored() {
        let mut s = MetricsSeries::new(1000);
        s.add(&ev(EventKind::Compute, 0, 0, 500, 0));
        s.add(&ev(EventKind::PosixWrite, 0, 0, 500, 4096));
        s.add(&ev(EventKind::Marker, 0, 0, 0, 0));
        assert!(s.is_empty());
    }

    #[test]
    fn zero_duration_event_still_counts_a_hit() {
        let mut s = MetricsSeries::new(1000);
        s.add(&ev(EventKind::Probe, 2, 1500, 0, 0));
        let c = s.cell(1, 2).unwrap();
        assert_eq!((c.hits, c.mpi_ns), (1, 0));
    }

    #[test]
    fn merge_equals_flat_fold_regardless_of_split() {
        let events: Vec<Event> = (0..200)
            .map(|i| {
                ev(
                    if i % 3 == 0 {
                        EventKind::Wait
                    } else {
                        EventKind::Isend
                    },
                    i % 5,
                    (i as u64) * 37,
                    (i as u64 % 11) * 13,
                    i as u64,
                )
            })
            .collect();
        let mut flat = MetricsSeries::new(64);
        for e in &events {
            flat.add(e);
        }
        for split in [1usize, 7, 50, 199] {
            let mut acc = MetricsSeries::new(64);
            for chunk in events.chunks(split) {
                let mut part = MetricsSeries::new(64);
                for e in chunk {
                    part.add(e);
                }
                acc.merge(&part);
            }
            assert_eq!(acc, flat, "chunk size {split}");
            assert_eq!(acc.encode(), flat.encode(), "chunk size {split} bytes");
        }
    }

    #[test]
    fn mismatched_window_width_is_dropped_not_mixed() {
        let mut a = MetricsSeries::new(100);
        a.add(&ev(EventKind::Send, 0, 10, 10, 1));
        let mut b = MetricsSeries::new(200);
        b.add(&ev(EventKind::Send, 0, 10, 10, 1));
        let before = a.clone();
        a.merge(&b);
        assert_eq!(a, before, "mismatched width must not corrupt the series");
        // An empty series adopts the other side's width.
        let mut empty = MetricsSeries::new(100);
        empty.merge(&b);
        assert_eq!(empty, b);
    }

    #[test]
    fn codec_roundtrips_and_size_is_exact() {
        let mut s = MetricsSeries::new(250);
        for i in 0..50u64 {
            s.add(&ev(EventKind::Sendrecv, (i % 3) as u32, i * 100, 80, 32));
        }
        let bytes = s.encode();
        assert_eq!(bytes.len(), s.encoded_size());
        let mut view = Reader::new(&bytes);
        let back = MetricsSeries::decode(&mut view).unwrap();
        assert_eq!(back, s);
        assert_eq!(view.remaining(), 0, "decode must consume exactly one image");
        assert_eq!(back.encode(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn filter_ranks_preserves_width_and_drops_empty_windows() {
        let mut s = MetricsSeries::new(100);
        s.add(&ev(EventKind::Send, 0, 0, 10, 1));
        s.add(&ev(EventKind::Send, 5, 500, 10, 1));
        let only5 = s.filter_ranks(|r| r == 5);
        assert_eq!(only5.window_ns(), 100);
        assert_eq!(only5.len(), 1);
        assert!(only5.cell(5, 5).is_some());
        assert!(only5.cell(0, 0).is_none());
    }

    #[test]
    fn a_snapshot_is_unmoved_by_what_the_live_series_folds_next() {
        let mut live = MetricsSeries::new(100);
        for i in 0..500u64 {
            live.add(&ev(EventKind::Send, (i % 3) as u32, i * 100, 60, 8));
        }
        let snapshot = live.clone();
        let bytes = snapshot.encode();
        // The head of time, a late event deep in shared history, a new rank.
        live.add(&ev(EventKind::Send, 0, 500 * 100, 60, 8));
        live.add(&ev(EventKind::Wait, 1, 7 * 100, 30, 0));
        live.add(&ev(EventKind::Send, 9, 130 * 100, 10, 1));
        assert_eq!(snapshot.encode(), bytes, "a write reached a shared chunk");
        assert_eq!((snapshot.ranks(), live.ranks()), (3, 10));
        assert_eq!(live.changed_since(&snapshot), Some(vec![7, 130, 500]));
        assert_eq!(snapshot.changed_since(&live), None, "window 500 is gone");
        assert_eq!(live.clone().changed_since(&live), Some(vec![]));
    }

    #[test]
    fn equal_states_are_equal_however_they_were_reached() {
        let events: Vec<Event> = (0..300u64)
            .map(|i| ev(EventKind::Isend, (i % 5) as u32, i * 70, 90, i))
            .collect();
        let mut folded = MetricsSeries::new(100);
        folded.fold_pack(&events);
        // Decoded, merged into an empty series (which shares the chunks),
        // and folded with a detour through a far window that is then
        // removed again: the same state, so `==` and the same bytes.
        let decoded = MetricsSeries::decode(&mut Reader::new(&folded.encode())).unwrap();
        let mut merged = MetricsSeries::new(100);
        merged.merge(&folded);
        let mut detour = folded.clone();
        detour.add(&ev(EventKind::Send, 40, 1_000_000, 10, 1));
        detour.replace_window(10_000, BTreeMap::new());
        for other in [&decoded, &merged, &detour] {
            assert_eq!(other, &folded);
            assert_eq!(other.encode(), folded.encode());
            assert_eq!((other.len(), other.ranks()), (folded.len(), 5));
        }
    }

    proptest! {
        /// `changed_since` is the window-by-window comparison, whatever
        /// the two series share.
        #[test]
        fn changed_since_is_the_window_by_window_diff(
            base in proptest::collection::vec((0u64..40_000, 0u64..300, 0u32..4), 0..60),
            more in proptest::collection::vec((0u64..60_000, 0u64..300, 0u32..6), 0..30),
            related in any::<bool>(),
        ) {
            let mut prev = MetricsSeries::new(100);
            for &(t, d, r) in &base {
                prev.add(&ev(EventKind::Send, r, t, d, 1));
            }
            let mut next = if related { prev.clone() } else { MetricsSeries::new(100) };
            for &(t, d, r) in &more {
                next.add(&ev(EventKind::Recv, r, t, d, 1));
            }
            let expect = prev
                .window_indices()
                .all(|w| next.window(w).is_some())
                .then(|| {
                    next.window_indices()
                        .filter(|&w| prev.window(w) != next.window(w))
                        .collect::<Vec<u64>>()
                });
            prop_assert_eq!(next.changed_since(&prev), expect);
        }

        /// Fold order and batching never change the series bytes, and the
        /// folded nanoseconds are conserved.
        #[test]
        fn fold_is_order_independent_and_mass_conserving(
            mut times in proptest::collection::vec((0u64..50_000, 0u64..5_000, 0u32..6), 1..80),
            window in 1u64..10_000,
        ) {
            let events: Vec<Event> = times
                .iter()
                .map(|&(t, d, r)| ev(EventKind::Isend, r, t, d, 1))
                .collect();
            let mut forward = MetricsSeries::new(window);
            for e in &events {
                forward.add(e);
            }
            times.reverse();
            let mut backward = MetricsSeries::new(window);
            for &(t, d, r) in &times {
                backward.add(&ev(EventKind::Isend, r, t, d, 1));
            }
            prop_assert_eq!(forward.encode(), backward.encode());
            let mass: u64 = forward.cells().map(|(_, _, c)| c.mpi_ns).sum();
            let expect: u64 = times.iter().map(|&(_, d, _)| d).sum();
            prop_assert_eq!(mass, expect);
        }
    }
}
