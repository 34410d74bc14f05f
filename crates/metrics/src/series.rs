//! The windowed integer fold, its wire codec and the order-independent
//! merge.

use bytes::BufMut;
use opmr_events::wire::{Reader, Truncated, Width};
use opmr_events::Event;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Windows an adaptive series spans before its width doubles; also the
/// temporal map's column count.
pub const ADAPTIVE_WINDOWS: u64 = 64;

/// An adaptive series' first width: 1 ms over [`ADAPTIVE_WINDOWS`].
pub const ADAPTIVE_START_NS: u64 = 1_000_000 / ADAPTIVE_WINDOWS;

/// A fixed window width for the windowed fold (without one, a level's
/// series is adaptive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Window width in nanoseconds of application time (clamped to ≥ 1).
    pub window_ns: u64,
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
/// one window width. Windows are kept in canonical order and in
/// canonical chunks, so the encoding of a given logical state is unique —
/// the property every byte-identity acceptance test in the serve and
/// reduce planes leans on. Chunks sit behind `Arc`: cloning a series
/// (a report snapshot under the engine's slot lock) costs one pointer per
/// chunk, and only the chunks written afterwards are copied.
///
/// The width is fixed, or adaptive: then it doubles before a call would
/// touch window [`ADAPTIVE_WINDOWS`], so it depends on the latest call alone.
#[derive(Debug, Clone)]
pub struct MetricsSeries {
    window_ns: u64,
    /// Widen rather than open window [`ADAPTIVE_WINDOWS`]. How the series
    /// folds, not what it holds: not encoded, not compared.
    adaptive: bool,
    /// `chunks[window / CHUNK_WINDOWS]`; no chunk is ever empty.
    chunks: Chunks,
    /// Highest rank holding a cell, plus one (0 for an empty series).
    ranks: u32,
}

impl PartialEq for MetricsSeries {
    fn eq(&self, other: &MetricsSeries) -> bool {
        (self.window_ns, self.ranks, &self.chunks) == (other.window_ns, other.ranks, &other.chunks)
    }
}

impl Eq for MetricsSeries {}

/// An empty adaptive series (a level's without `.metrics(w)`): windows of
/// [`ADAPTIVE_START_NS`], doubled before a call would touch window 64.
impl Default for MetricsSeries {
    fn default() -> MetricsSeries {
        MetricsSeries {
            adaptive: true,
            ..MetricsSeries::new(ADAPTIVE_START_NS)
        }
    }
}

/// The last nanosecond an MPI call touches (its start, for a call of no
/// duration, whose hit still lands in a window).
fn last_ns(e: &Event) -> u64 {
    e.time_ns.saturating_add(e.duration_ns.saturating_sub(1))
}

impl MetricsSeries {
    /// An empty series of a fixed window width (clamped to ≥ 1 ns).
    pub fn new(window_ns: u64) -> MetricsSeries {
        MetricsSeries {
            window_ns: window_ns.max(1),
            adaptive: false,
            chunks: Chunks::new(),
            ranks: 0,
        }
    }

    /// The series a level folds: `cfg`'s fixed width, else adaptive.
    pub fn for_level(cfg: Option<MetricsConfig>) -> MetricsSeries {
        cfg.map_or_else(MetricsSeries::default, |c| MetricsSeries::new(c.window_ns))
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
    /// Zero-duration events still count a hit. An adaptive series widens
    /// before the first call that would touch window [`ADAPTIVE_WINDOWS`],
    /// then folds on from that call.
    fn fold(&mut self, mut events: &[Event]) {
        while let Some(at) = self.fold_within(events) {
            while last_ns(&events[at]) / self.window_ns >= ADAPTIVE_WINDOWS {
                self.coarsen(2);
            }
            events = &events[at..];
        }
    }

    /// [`MetricsSeries::fold`] up to the first call past an adaptive
    /// series' last window, whose index it returns. Events arrive nearly
    /// sorted, so the chunk under the cursor is looked up (and unshared)
    /// once per run of events that stay inside it.
    fn fold_within(&mut self, events: &[Event]) -> Option<usize> {
        let wn = self.window_ns;
        let limit = wn.checked_mul(ADAPTIVE_WINDOWS).filter(|_| self.adaptive);
        let chunks = &mut self.chunks;
        let mut cursor: Option<(u64, &mut Chunk)> = None;
        for (i, e) in events.iter().enumerate() {
            if !e.kind.is_mpi() {
                continue;
            }
            if limit.is_some_and(|limit| last_ns(e) >= limit) {
                return Some(i);
            }
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
        None
    }

    /// Widens every window `k`-fold: window `w` folds into `w / k`. Exact,
    /// the fold at the wider width: a call's hit stays with the window it
    /// began in, and each piece of its duration lies inside one window.
    pub fn coarsen(&mut self, k: u64) {
        let k = k.max(1);
        self.window_ns = self.window_ns.saturating_mul(k);
        if k == 1 {
            return;
        }
        let old = std::mem::take(&mut self.chunks);
        for (key, chunk) in &old {
            for (w, cells) in chunk.iter(*key) {
                let into = chunk_mut(&mut self.chunks, w / k / CHUNK_WINDOWS);
                for (r, c) in cells {
                    into.cell_mut(w / k, *r).absorb(c);
                }
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
    /// series as the flat fold. The finer operand is coarsened to the
    /// coarser width when that is a multiple of it (adaptive widths always
    /// are); otherwise an empty side takes the other's width, or the other
    /// side is dropped (counted in `metrics_merge_mismatch_total`).
    pub fn merge(&mut self, other: &MetricsSeries) {
        let (ours, theirs) = (self.window_ns, other.window_ns);
        if theirs != ours {
            if theirs % ours == 0 {
                self.coarsen(theirs / ours);
            } else if ours % theirs == 0 {
                let mut other = other.clone();
                other.coarsen(ours / theirs);
                return self.merge(&other);
            } else if self.chunks.is_empty() {
                self.window_ns = theirs;
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
    fn a_width_that_is_no_multiple_is_dropped_not_mixed() {
        let mut a = MetricsSeries::new(100);
        a.add(&ev(EventKind::Send, 0, 10, 10, 1));
        let mut b = MetricsSeries::new(150);
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
    fn a_merge_coarsens_the_finer_operand() {
        // 100 ns windows 1 and 3 fold into 400 ns window 0.
        let mut fine = MetricsSeries::new(100);
        fine.add(&ev(EventKind::Send, 0, 150, 10, 1));
        fine.add(&ev(EventKind::Wait, 1, 350, 80, 0));
        let mut coarse = MetricsSeries::new(400);
        coarse.add(&ev(EventKind::Send, 0, 420, 10, 2));
        let mut flat = MetricsSeries::new(400);
        for e in [
            (EventKind::Send, 0, 150, 10, 1),
            (EventKind::Wait, 1, 350, 80, 0),
        ] {
            flat.add(&ev(e.0, e.1, e.2, e.3, e.4));
        }
        flat.add(&ev(EventKind::Send, 0, 420, 10, 2));
        let mut a = fine.clone();
        a.merge(&coarse);
        let mut b = coarse.clone();
        b.merge(&fine);
        assert_eq!((a.window_ns(), b.window_ns()), (400, 400));
        assert_eq!(a, flat);
        assert_eq!(b, flat);
    }

    #[test]
    fn an_adaptive_series_doubles_before_window_64() {
        let mut s = MetricsSeries::default();
        assert_eq!(s.window_ns(), ADAPTIVE_START_NS);
        // The last nanosecond of window 63: no widening.
        s.add(&ev(EventKind::Send, 0, 0, 64 * ADAPTIVE_START_NS, 1));
        assert_eq!(s.window_ns(), ADAPTIVE_START_NS);
        // A call of no duration at window 64 doubles the width once.
        s.add(&ev(EventKind::Probe, 1, 64 * ADAPTIVE_START_NS, 0, 0));
        assert_eq!(s.window_ns(), 2 * ADAPTIVE_START_NS);
        assert_eq!(s.cell(32, 1).unwrap().hits, 1);
        // Non-MPI calls never widen it, however late.
        s.add(&ev(EventKind::Compute, 0, u64::MAX / 2, 10, 0));
        assert_eq!(s.window_ns(), 2 * ADAPTIVE_START_NS);
    }

    #[test]
    fn a_ten_second_adaptive_series_holds_at_most_64_windows() {
        // MPI calls across 10 s of application time, pack by pack.
        let mut s = MetricsSeries::default();
        for pack in 0..1_000u64 {
            let events: Vec<Event> = (0..10u64)
                .map(|i| {
                    ev(
                        EventKind::Isend,
                        (i % 4) as u32,
                        (pack * 10 + i) * 1_000_000,
                        50_000,
                        8,
                    )
                })
                .collect();
            s.fold_pack(&events);
        }
        assert!(s.len() <= 64, "{} windows", s.len());
        assert!(s.window_indices().all(|w| w < ADAPTIVE_WINDOWS));
        // 10 s ≥ 64 × 2^13 × 15.625 µs = 8.19 s: the width is 2^14 × the first.
        assert_eq!(s.window_ns(), ADAPTIVE_START_NS << 14);
        let mass: u64 = s.cells().map(|(_, _, c)| c.mpi_ns).sum();
        assert_eq!(mass, 10_000 * 50_000);
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

    /// An MPI event of a few ranks and kinds over `0..span` ns.
    fn arb_events(span: u64) -> impl Strategy<Value = Vec<Event>> {
        let kinds = [
            EventKind::Isend,
            EventKind::Wait,
            EventKind::Allreduce,
            EventKind::Probe,
        ];
        proptest::collection::vec(
            (
                0u64..span,
                prop_oneof![Just(0u64), 0u64..span / 8],
                0u32..4,
                0..kinds.len(),
                0u64..100,
            ),
            0..60,
        )
        .prop_map(move |v| {
            v.into_iter()
                .map(|(t, d, r, k, b)| ev(kinds[k], r, t, d, b))
                .collect()
        })
    }

    fn fold_at(window_ns: u64, events: &[Event]) -> MetricsSeries {
        let mut s = MetricsSeries::new(window_ns);
        s.fold_pack(events);
        s
    }

    /// The adaptive rule, stated independently of the fold: the first
    /// width, doubled until the latest nanosecond any MPI call touches
    /// lies below window 64.
    fn adaptive_width(events: &[Event]) -> u64 {
        let last = events.iter().map(last_ns).max().unwrap_or(0);
        let mut w = ADAPTIVE_START_NS;
        while last / w >= ADAPTIVE_WINDOWS {
            w *= 2;
        }
        w
    }

    proptest! {
        /// Coarsening a fold is the fold at the wider width, exactly.
        #[test]
        fn coarsen_is_the_fold_at_the_wider_width(
            events in arb_events(50_000),
            window in 1u64..2_000,
            k in 1u64..40,
        ) {
            let mut coarse = fold_at(window, &events);
            coarse.coarsen(k);
            let flat = fold_at(window * k, &events);
            prop_assert_eq!(coarse.encode(), flat.encode());
            prop_assert_eq!(coarse, flat);
        }

        /// Merges of series whose widths divide each other are
        /// commutative and associative, and equal the flat fold at the
        /// widest width.
        #[test]
        fn mixed_width_merges_commute_and_associate(
            a in arb_events(40_000),
            b in arb_events(40_000),
            c in arb_events(40_000),
            exps in (0u32..4, 0u32..4, 0u32..4),
            base in 1u64..300,
        ) {
            let widths = [base << exps.0, base << exps.1, base << exps.2];
            let parts = [fold_at(widths[0], &a), fold_at(widths[1], &b), fold_at(widths[2], &c)];
            let merged = |x: &MetricsSeries, y: &MetricsSeries| {
                let mut m = x.clone();
                m.merge(y);
                m
            };
            let [x, y, z] = &parts;
            prop_assert_eq!(merged(x, y), merged(y, x));
            let left = merged(&merged(x, y), z);
            let right = merged(x, &merged(y, z));
            prop_assert_eq!(&left, &right);
            let all: Vec<Event> = a.iter().chain(&b).chain(&c).copied().collect();
            let flat = fold_at(*widths.iter().max().unwrap(), &all);
            prop_assert_eq!(left.encode(), flat.encode());
        }

        /// An adaptive fold of any split of the events into packs, in
        /// any order and merged in any order, is one flat fold at the
        /// width the adaptive rule gives the whole set — never more than
        /// 64 windows.
        #[test]
        fn an_adaptive_fold_of_any_split_is_the_flat_fold_at_the_final_width(
            mut events in arb_events(1 << 26),
            cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..6),
            seed in any::<u64>(),
        ) {
            let width = adaptive_width(&events);
            let flat = fold_at(width, &events);
            let mut one = MetricsSeries::default();
            one.fold_pack(&events);
            prop_assert_eq!(&one, &flat);
            // Shuffle, cut into packs, fold each alone, merge.
            let n = events.len();
            for i in (1..n).rev() {
                events.swap(i, (seed.rotate_left(i as u32) as usize) % (i + 1));
            }
            let mut at: Vec<usize> = cuts.iter().map(|c| c.index(n + 1)).collect();
            at.extend([0, n]);
            at.sort_unstable();
            let mut merged = MetricsSeries::default();
            let mut folded = MetricsSeries::default();
            for w in at.windows(2) {
                let mut part = MetricsSeries::default();
                part.fold_pack(&events[w[0]..w[1]]);
                merged.merge(&part);
                folded.fold_pack(&events[w[0]..w[1]]);
            }
            prop_assert_eq!(&merged, &flat);
            prop_assert_eq!(&folded, &flat);
            prop_assert!(flat.window_indices().all(|w| w < ADAPTIVE_WINDOWS));
        }

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
