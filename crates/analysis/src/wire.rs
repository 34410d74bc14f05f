//! Wire serialization for analysis aggregates.
//!
//! The paper's Section VI plans "extending data-flow outside of nodes
//! boundaries": analyzer ranks each reduce their share of the event stream
//! and the partial aggregates travel over MPI to be merged. This module is
//! that wire format — compact little-endian encodings for [`MpiProfile`],
//! [`Topology`] and [`WaitStats`], with merge-compatible round-trips.

use crate::profiler::{CallStats, MpiProfile};
use crate::topology::Topology;
use crate::waitstate::{RecvSide, SendSide, WaitStateAnalysis, WaitStats};
use bytes::{BufMut, Bytes, BytesMut};
use opmr_events::wire::{Reader, Truncated, Width};
use opmr_events::EventKind;
use opmr_metrics::MetricsSeries;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    Truncated,
    BadTag(u8),
    BadKind(u16),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated aggregate"),
            WireError::BadTag(t) => write!(f, "unknown aggregate tag {t}"),
            WireError::BadKind(k) => write!(f, "unknown event kind {k}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> WireError {
        WireError::Truncated
    }
}

// ---------------------------------------------------------------------
// MpiProfile.
// ---------------------------------------------------------------------

/// Encodes a profile as its `(rank, kind) → stats` table.
pub fn encode_profile(p: &MpiProfile, out: &mut impl BufMut) {
    // Reconstructable view: per-rank-kind stats (per-kind is derivable).
    let mut entries: Vec<(u32, EventKind, CallStats)> = Vec::new();
    for rank in 0..p.ranks() {
        for kind in p.kinds() {
            if let Some(s) = p.rank_kind(rank, kind) {
                entries.push((rank, kind, *s));
            }
        }
    }
    out.put_u32_le(entries.len() as u32);
    out.put_u32_le(p.ranks());
    out.put_u64_le(p.span_ns());
    for (rank, kind, s) in entries {
        out.put_u32_le(rank);
        out.put_u16_le(kind as u16);
        out.put_u64_le(s.hits);
        out.put_u64_le(s.time_ns);
        out.put_u64_le(s.bytes);
        out.put_u64_le(s.min_ns);
        out.put_u64_le(s.max_ns);
    }
}

/// Decodes a profile; the result merges into any other profile.
pub fn decode_profile(r: &mut Reader<'_>) -> Result<MpiProfile, WireError> {
    let n = r.count(Width::U32, 4 + 2 + 5 * 8)?;
    let _ranks = r.u32()?;
    let span = r.u64()?;
    let mut p = MpiProfile::new();
    for _ in 0..n {
        let rank = r.u32()?;
        let kind_raw = r.u16()?;
        let kind = EventKind::from_u16(kind_raw).ok_or(WireError::BadKind(kind_raw))?;
        let (hits, time_ns, bytes) = (r.u64()?, r.u64()?, r.u64()?);
        let (min_ns, max_ns) = (r.u64()?, r.u64()?);
        p.absorb_stats(rank, kind, hits, time_ns, bytes, min_ns, max_ns);
    }
    p.absorb_span(span);
    Ok(p)
}

// ---------------------------------------------------------------------
// Topology.
// ---------------------------------------------------------------------

/// Encodes a topology as its edge list.
pub fn encode_topology(t: &Topology, out: &mut impl BufMut) {
    let edges = t.sorted_edges();
    out.put_u32_le(edges.len() as u32);
    out.put_u32_le(t.ranks());
    for ((s, d), w) in edges {
        out.put_u32_le(s);
        out.put_u32_le(d);
        out.put_u64_le(w.hits);
        out.put_u64_le(w.bytes);
        out.put_u64_le(w.time_ns);
    }
}

/// Decodes a topology.
pub fn decode_topology(r: &mut Reader<'_>) -> Result<Topology, WireError> {
    let n = r.count(Width::U32, 8 + 3 * 8)?;
    let _ranks = r.u32()?;
    let mut t = Topology::new();
    for _ in 0..n {
        let (s, d) = (r.u32()?, r.u32()?);
        let (hits, bytes, time) = (r.u64()?, r.u64()?, r.u64()?);
        t.add_weighted(s, d, hits, bytes, time);
    }
    Ok(t)
}

// ---------------------------------------------------------------------
// WaitStats.
// ---------------------------------------------------------------------

fn encode_map(m: &std::collections::HashMap<u32, u64>, out: &mut impl BufMut) {
    out.put_u32_le(m.len() as u32);
    let mut items: Vec<(u32, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
    items.sort_unstable();
    for (k, v) in items {
        out.put_u32_le(k);
        out.put_u64_le(v);
    }
}

fn decode_map(r: &mut Reader<'_>) -> Result<std::collections::HashMap<u32, u64>, WireError> {
    let n = r.count(Width::U32, 12)?;
    let mut m = std::collections::HashMap::with_capacity(n);
    for _ in 0..n {
        m.insert(r.u32()?, r.u64()?);
    }
    Ok(m)
}

/// Encodes wait-state statistics, including the dangling halves (they are
/// needed so the merge root can match transfers whose send and receive were
/// analyzed on different ranks).
pub fn encode_waitstats(w: &WaitStats, out: &mut impl BufMut) {
    out.put_u64_le(w.matched);
    out.put_u64_le(w.unmatched);
    out.put_u64_le(w.total_late_sender_ns);
    out.put_u64_le(w.total_late_receiver_ns);
    encode_map(&w.late_sender_by_victim, out);
    encode_map(&w.late_sender_by_culprit, out);
    encode_map(&w.late_receiver_by_victim, out);
    out.put_u32_le(w.pending_sends.len() as u32);
    for &(src, dst, s) in &w.pending_sends {
        out.put_u32_le(src);
        out.put_u32_le(dst);
        out.put_u64_le(s.start_ns);
        out.put_u64_le(s.end_ns);
        out.put_u64_le(s.bytes);
    }
    out.put_u32_le(w.pending_recvs.len() as u32);
    for &(src, dst, r) in &w.pending_recvs {
        out.put_u32_le(src);
        out.put_u32_le(dst);
        out.put_u64_le(r.start_ns);
    }
}

/// Decodes wait-state statistics.
pub fn decode_waitstats(r: &mut Reader<'_>) -> Result<WaitStats, WireError> {
    let matched = r.u64()?;
    let unmatched = r.u64()?;
    let total_late_sender_ns = r.u64()?;
    let total_late_receiver_ns = r.u64()?;
    let late_sender_by_victim = decode_map(r)?;
    let late_sender_by_culprit = decode_map(r)?;
    let late_receiver_by_victim = decode_map(r)?;
    let n_sends = r.count(Width::U32, 8 + 3 * 8)?;
    let mut pending_sends = Vec::with_capacity(n_sends);
    for _ in 0..n_sends {
        let (src, dst) = (r.u32()?, r.u32()?);
        pending_sends.push((
            src,
            dst,
            SendSide {
                start_ns: r.u64()?,
                end_ns: r.u64()?,
                bytes: r.u64()?,
            },
        ));
    }
    let n_recvs = r.count(Width::U32, 8 + 8)?;
    let mut pending_recvs = Vec::with_capacity(n_recvs);
    for _ in 0..n_recvs {
        let (src, dst) = (r.u32()?, r.u32()?);
        pending_recvs.push((src, dst, RecvSide { start_ns: r.u64()? }));
    }
    Ok(WaitStats {
        matched,
        unmatched,
        pending_sends,
        pending_recvs,
        total_late_sender_ns,
        total_late_receiver_ns,
        late_sender_by_victim,
        late_sender_by_culprit,
        late_receiver_by_victim,
    })
}

/// Merges wait-state partials. Counters add up; each side's dangling halves
/// are re-fed through a matcher so a send analyzed on one rank still matches
/// its receive analyzed on another (the common case: the two halves of a
/// transfer are recorded by different writers, which stream to different
/// analyzer ranks).
pub fn merge_waitstats(into: &mut WaitStats, other: &WaitStats) {
    let mut ws = WaitStateAnalysis::from_stats(into);
    ws.absorb(other);
    *into = ws.finish().clone();
}

/// One application's complete partial aggregate (what an analyzer rank
/// ships to the merge root).
#[derive(Debug, Clone)]
pub struct AppPartial {
    pub app_id: u16,
    pub packs: u64,
    pub wire_bytes: u64,
    pub decode_errors: u64,
    pub profile: MpiProfile,
    pub topology: Topology,
    pub waitstate: Option<WaitStats>,
    /// The level's time-resolved series (every engine level folds one).
    pub metrics: Option<MetricsSeries>,
}

impl AppPartial {
    /// Adds another analyzer rank's partial of the same application.
    pub fn merge(&mut self, p: AppPartial) {
        self.packs += p.packs;
        self.wire_bytes += p.wire_bytes;
        self.decode_errors += p.decode_errors;
        self.profile.merge(&p.profile);
        self.topology.merge(&p.topology);
        match (&mut self.waitstate, p.waitstate) {
            (Some(a), Some(b)) => merge_waitstats(a, &b),
            (slot @ None, Some(b)) => *slot = Some(b),
            _ => {}
        }
        match (&mut self.metrics, p.metrics) {
            (Some(a), Some(b)) => a.merge(&b),
            (slot @ None, Some(b)) => *slot = Some(b),
            _ => {}
        }
    }
}

/// Appends one application's section after its id and before its first
/// metrics window: counters, profile, topology, wait-state, and the
/// metrics presence byte with the series header. Small, and the only part
/// of a section that changes without growing it at the end.
fn encode_app_head(a: &AppPartial, out: &mut impl BufMut) {
    out.put_u64_le(a.packs);
    out.put_u64_le(a.wire_bytes);
    out.put_u64_le(a.decode_errors);
    encode_profile(&a.profile, out);
    encode_topology(&a.topology, out);
    match &a.waitstate {
        Some(w) => {
            out.put_u8(1);
            encode_waitstats(w, out);
        }
        None => out.put_u8(0),
    }
    match &a.metrics {
        Some(m) => {
            out.put_u8(1);
            m.encode_header_into(out);
        }
        None => out.put_u8(0),
    }
}

/// Appends everything of one application's section after its id (the
/// form a full per-app replacement travels in inside a serve delta).
pub fn encode_app_body(a: &AppPartial, out: &mut impl BufMut) {
    encode_app_head(a, out);
    for (w, cells) in a.metrics.iter().flat_map(|m| m.windows_from(0)) {
        MetricsSeries::encode_window(w, cells, out);
    }
}

/// Decodes what [`encode_app_body`] wrote.
pub fn decode_app_body(app_id: u16, r: &mut Reader<'_>) -> Result<AppPartial, WireError> {
    let packs = r.u64()?;
    let wire_bytes = r.u64()?;
    let decode_errors = r.u64()?;
    let profile = decode_profile(r)?;
    let topology = decode_topology(r)?;
    let waitstate = match r.u8()? {
        0 => None,
        1 => Some(decode_waitstats(r)?),
        t => return Err(WireError::BadTag(t)),
    };
    let metrics = match r.u8()? {
        0 => None,
        1 => Some(MetricsSeries::decode(r)?),
        t => return Err(WireError::BadTag(t)),
    };
    Ok(AppPartial {
        app_id,
        packs,
        wire_bytes,
        decode_errors,
        profile,
        topology,
        waitstate,
        metrics,
    })
}

/// Encodes a set of per-application partials into one buffer:
/// `u32 n_apps`, then per app `u16 app_id` and its [`encode_app_body`].
pub fn encode_partials(apps: &[AppPartial]) -> Bytes {
    let mut out = BytesMut::new();
    out.put_u32_le(apps.len() as u32);
    for a in apps {
        out.put_u16_le(a.app_id);
        encode_app_body(a, &mut out);
    }
    out.freeze()
}

/// Decodes a partial set.
pub fn decode_partials(buf: &[u8]) -> Result<Vec<AppPartial>, WireError> {
    let mut r = Reader::new(buf);
    // No app section is shorter than its id, counters and empty tables.
    let n = r.count(Width::U32, 52)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let app_id = r.u16()?;
        out.push(decode_app_body(app_id, &mut r)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The patched snapshot image.
// ---------------------------------------------------------------------

/// What one delta changed in one application's section of a snapshot —
/// reported by the serve plane's delta encoder and applier, consumed by
/// [`SnapshotImage::patch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppChange {
    /// The section is byte-identical.
    Unchanged,
    /// Fields in front of the metrics windows moved, and the windows at or
    /// after `windows_from` were replaced or appeared (`None`: no window
    /// changed). Windows in front of it are as they were.
    Sparse { windows_from: Option<u64> },
    /// Anything else: a new application or a wholesale replacement.
    Full,
}

/// Where one application's section lies inside a [`SnapshotImage`].
struct AppSection {
    app_id: u16,
    /// Bytes from the app id up to the first metrics window.
    head_len: usize,
    /// `(window index, byte offset from the first window)` of every
    /// encoded window, ascending in both.
    windows: Vec<(u64, usize)>,
    /// Bytes the encoded windows take.
    windows_len: usize,
}

/// Replaces `bytes[range]` by `new`: in place when the length holds, at
/// the end of the buffer without moving anything, by a splice otherwise.
fn replace(bytes: &mut Vec<u8>, range: std::ops::Range<usize>, new: &[u8]) {
    if range.len() == new.len() {
        bytes[range].copy_from_slice(new);
    } else if range.end == bytes.len() {
        bytes.truncate(range.start);
        bytes.extend_from_slice(new);
    } else {
        bytes.splice(range, new.iter().copied());
    }
}

impl AppSection {
    /// Appends `a`'s section to `bytes` and indexes it.
    fn append(a: &AppPartial, bytes: &mut Vec<u8>) -> AppSection {
        let start = bytes.len();
        bytes.put_u16_le(a.app_id);
        encode_app_head(a, bytes);
        let head_len = bytes.len() - start;
        let first = bytes.len();
        let mut windows = Vec::new();
        for (w, cells) in a.metrics.iter().flat_map(|m| m.windows_from(0)) {
            windows.push((w, bytes.len() - first));
            MetricsSeries::encode_window(w, cells, bytes);
        }
        AppSection {
            app_id: a.app_id,
            head_len,
            windows,
            windows_len: bytes.len() - first,
        }
    }

    /// Brings the section (at `start` in `bytes`) up to `a`, given that
    /// only its head and its windows from `windows_from` on differ:
    /// truncates the windows at the lowest changed one, appends the
    /// re-encoded tail, then re-encodes the head (which carries
    /// `n_windows`). Returns the bytes written, or `None` when `a` cannot
    /// be what the section plus that change describes.
    fn patch(
        &mut self,
        bytes: &mut Vec<u8>,
        start: usize,
        a: &AppPartial,
        windows_from: Option<u64>,
        scratch: &mut Vec<u8>,
    ) -> Option<usize> {
        let mut written = 0;
        if let Some(from) = windows_from {
            let series = a.metrics.as_ref()?;
            let keep = self.windows.partition_point(|(w, _)| *w < from);
            let cut = self
                .windows
                .get(keep)
                .map_or(self.windows_len, |(_, at)| *at);
            self.windows.truncate(keep);
            scratch.clear();
            for (w, cells) in series.windows_from(from) {
                self.windows.push((w, cut + scratch.len()));
                MetricsSeries::encode_window(w, cells, scratch);
            }
            let first = start + self.head_len;
            replace(bytes, first + cut..first + self.windows_len, scratch);
            self.windows_len = cut + scratch.len();
            written += scratch.len();
        }
        if self.windows.len() != a.metrics.as_ref().map_or(0, |m| m.len()) {
            return None;
        }
        scratch.clear();
        scratch.put_u16_le(a.app_id);
        encode_app_head(a, scratch);
        replace(bytes, start..start + self.head_len, scratch);
        self.head_len = scratch.len();
        Some(written + scratch.len())
    }
}

/// The [`encode_partials`] bytes of a report snapshot, kept together with
/// the offsets needed to bring them up to the next snapshot by rewriting
/// only what a delta changed: each application's head is re-encoded, its
/// metrics windows are cut at the lowest changed window and the tail is
/// appended again. A window that has closed never changes, so under a
/// growing series the work per version follows the delta, not the
/// snapshot. Both ends of the serve plane hold one — the store to produce
/// each version's bytes, a subscriber to hold them — and both patch it
/// through [`SnapshotImage::patch`], which is what keeps them
/// byte-identical.
pub struct SnapshotImage {
    bytes: Vec<u8>,
    apps: Vec<AppSection>,
    /// Reused encode buffer for heads and window tails.
    scratch: Vec<u8>,
}

impl Default for SnapshotImage {
    /// The image of the empty snapshot.
    fn default() -> Self {
        SnapshotImage::build(&[])
    }
}

impl std::ops::Deref for SnapshotImage {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl SnapshotImage {
    /// Encodes `parts` in full: `image[..] == encode_partials(parts)[..]`.
    pub fn build(parts: &[AppPartial]) -> SnapshotImage {
        let mut bytes = Vec::new();
        bytes.put_u32_le(parts.len() as u32);
        let apps = parts
            .iter()
            .map(|a| AppSection::append(a, &mut bytes))
            .collect();
        SnapshotImage {
            bytes,
            apps,
            scratch: Vec::new(),
        }
    }

    /// Brings the image up to `parts`, the snapshot it encoded plus the
    /// per-application `changes` of one delta (in `parts` order). Returns
    /// the bytes it rewrote — or `None` when it encoded `parts` in full
    /// instead, because the change is not a patch: the application set
    /// moved, an application was replaced wholesale, or `changes` does not
    /// line up with `parts`. Either way the image equals
    /// `encode_partials(parts)` afterwards, provided every window in front
    /// of each `windows_from` is unchanged.
    pub fn patch(&mut self, parts: &[AppPartial], changes: &[(u16, AppChange)]) -> Option<usize> {
        let aligned = self.apps.len() == parts.len()
            && changes.len() == parts.len()
            && (self.apps.iter().zip(parts).zip(changes)).all(|((section, a), (id, change))| {
                section.app_id == a.app_id && *id == a.app_id && *change != AppChange::Full
            });
        let patched = aligned
            .then(|| self.patch_sections(parts, changes))
            .flatten();
        if patched.is_none() {
            *self = SnapshotImage::build(parts);
        }
        patched
    }

    fn patch_sections(
        &mut self,
        parts: &[AppPartial],
        changes: &[(u16, AppChange)],
    ) -> Option<usize> {
        let mut start = 4;
        let mut written = 0;
        for ((section, a), (_, change)) in self.apps.iter_mut().zip(parts).zip(changes) {
            if let AppChange::Sparse { windows_from } = *change {
                written +=
                    section.patch(&mut self.bytes, start, a, windows_from, &mut self.scratch)?;
            }
            start += section.head_len + section.windows_len;
        }
        Some(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_events::Event;

    fn sample_profile() -> MpiProfile {
        let mut p = MpiProfile::new();
        for i in 0..40u32 {
            p.add(&Event {
                time_ns: i as u64 * 100,
                duration_ns: 10 + i as u64,
                kind: EventKind::ALL[(i % 9) as usize + 2],
                rank: i % 4,
                peer: ((i + 1) % 4) as i32,
                tag: 0,
                comm: 0,
                bytes: i as u64 * 8,
            });
        }
        p
    }

    #[test]
    fn profile_roundtrip_preserves_aggregates() {
        let p = sample_profile();
        let mut buf = BytesMut::new();
        encode_profile(&p, &mut buf);
        let q = decode_profile(&mut Reader::new(&buf)).unwrap();
        assert_eq!(p.events(), q.events());
        assert_eq!(p.ranks(), q.ranks());
        assert_eq!(p.span_ns(), q.span_ns());
        for kind in p.kinds() {
            assert_eq!(p.kind(kind), q.kind(kind), "{}", kind.name());
        }
    }

    #[test]
    fn decoded_profile_merges_like_the_original() {
        let a = sample_profile();
        let mut direct = MpiProfile::new();
        direct.merge(&a);
        direct.merge(&a);
        let mut buf = BytesMut::new();
        encode_profile(&a, &mut buf);
        let decoded = decode_profile(&mut Reader::new(&buf)).unwrap();
        let mut via_wire = MpiProfile::new();
        via_wire.merge(&decoded);
        via_wire.merge(&decoded);
        for kind in direct.kinds() {
            assert_eq!(direct.kind(kind), via_wire.kind(kind));
        }
    }

    #[test]
    fn topology_roundtrip() {
        let mut t = Topology::new();
        t.add_weighted(0, 1, 3, 300, 30);
        t.add_weighted(5, 2, 1, 100, 10);
        let mut buf = BytesMut::new();
        encode_topology(&t, &mut buf);
        let q = decode_topology(&mut Reader::new(&buf)).unwrap();
        assert_eq!(q.edge_count(), 2);
        assert_eq!(q.edge(0, 1).unwrap().bytes, 300);
        assert_eq!(q.edge(5, 2).unwrap().hits, 1);
        assert_eq!(q.ranks(), 6);
    }

    #[test]
    fn waitstats_roundtrip_and_merge() {
        let mut w = WaitStats {
            matched: 10,
            total_late_sender_ns: 500,
            ..Default::default()
        };
        w.late_sender_by_victim.insert(3, 500);
        w.late_sender_by_culprit.insert(1, 500);
        let mut buf = BytesMut::new();
        encode_waitstats(&w, &mut buf);
        let q = decode_waitstats(&mut Reader::new(&buf)).unwrap();
        assert_eq!(q.matched, 10);
        assert_eq!(q.late_sender_by_victim.get(&3), Some(&500));

        let mut merged = WaitStats::default();
        merge_waitstats(&mut merged, &w);
        merge_waitstats(&mut merged, &q);
        assert_eq!(merged.matched, 20);
        assert_eq!(merged.late_sender_by_victim.get(&3), Some(&1000));
    }

    #[test]
    fn partials_roundtrip() {
        let apps = vec![
            AppPartial {
                app_id: 0,
                packs: 7,
                wire_bytes: 999,
                decode_errors: 0,
                profile: sample_profile(),
                topology: Topology::new(),
                waitstate: None,
                metrics: None,
            },
            AppPartial {
                app_id: 3,
                packs: 1,
                wire_bytes: 48,
                decode_errors: 1,
                profile: MpiProfile::new(),
                topology: {
                    let mut t = Topology::new();
                    t.add_weighted(1, 0, 5, 50, 5);
                    t
                },
                waitstate: Some(WaitStats {
                    matched: 4,
                    ..WaitStats::default()
                }),
                metrics: Some({
                    let mut m = MetricsSeries::new(1000);
                    m.add(&opmr_events::Event::basic(EventKind::Send, 2, 500, 800));
                    m
                }),
            },
        ];
        let enc = encode_partials(&apps);
        let dec = decode_partials(&enc).unwrap();
        assert_eq!(dec.len(), 2);
        assert_eq!(dec[0].app_id, 0);
        assert_eq!(dec[0].packs, 7);
        assert_eq!(dec[0].profile.events(), 40);
        assert!(dec[0].metrics.is_none());
        assert_eq!(dec[1].decode_errors, 1);
        assert_eq!(dec[1].topology.edge(1, 0).unwrap().hits, 5);
        assert_eq!(dec[1].waitstate.as_ref().unwrap().matched, 4);
        assert_eq!(dec[1].metrics, apps[1].metrics);
    }

    #[test]
    fn image_patch_rewrites_only_what_changed_and_equals_the_full_encoding() {
        let app = |app_id: u16| AppPartial {
            app_id,
            packs: 1,
            wire_bytes: 48,
            decode_errors: 0,
            profile: sample_profile(),
            topology: Topology::new(),
            waitstate: None,
            metrics: Some({
                let mut m = MetricsSeries::new(1000);
                for i in 0..200u64 {
                    m.add(&Event::basic(
                        EventKind::Send,
                        (i % 4) as u32,
                        i * 1000,
                        400,
                    ));
                }
                m
            }),
        };
        let mut parts = vec![app(1), app(4)];
        let mut image = SnapshotImage::build(&parts);
        assert_eq!(&image[..], &encode_partials(&parts)[..]);
        let full = image.len();

        // App 1 (not the last section: the splice path) gains a window,
        // an older one moves and its head grows by a topology edge; app 4
        // only counts a pack (same length: the in-place path).
        let m = parts[0].metrics.as_mut().unwrap();
        m.add(&Event::basic(EventKind::Wait, 2, 200_000, 300));
        m.add(&Event::basic(EventKind::Wait, 2, 150_000, 300));
        parts[0].topology.add_weighted(0, 1, 1, 64, 10);
        parts[1].packs += 1;
        let changes = [
            (
                1,
                AppChange::Sparse {
                    windows_from: Some(150),
                },
            ),
            (4, AppChange::Sparse { windows_from: None }),
        ];
        let written = image
            .patch(&parts, &changes)
            .expect("a patch, not a rebuild");
        assert_eq!(&image[..], &encode_partials(&parts)[..]);
        assert!(written < full / 2, "{written} of {full} bytes rewritten");

        // A change set that does not line up is answered by a full encode.
        parts.remove(0);
        assert_eq!(image.patch(&parts, &changes), None);
        assert_eq!(&image[..], &encode_partials(&parts)[..]);
    }
}
