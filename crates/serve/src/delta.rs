//! Delta encoding between consecutive report snapshot versions.
//!
//! A delta carries *replacement values*, not arithmetic differences:
//! `CallStats.min_ns`/`max_ns` are not additive, so a changed
//! `(rank, kind)` profile cell, topology edge or wait-state block travels
//! as its full new value. Because `analysis::wire` encodes profiles and
//! topologies by deterministic iteration over exactly those cells (and
//! derives rank counts from them), reconstructing the cell set exactly
//! reconstructs the *encoded snapshot* byte-for-byte — the property the
//! subscription protocol is built on.
//!
//! Aggregates normally only grow, but the encoder does not assume it: an
//! application whose cells shrank or vanished (e.g. snapshots racing on
//! the publisher side) falls back to a full per-app replacement, keeping
//! the apply path correct for arbitrary snapshot pairs.

use bytes::{BufMut, Bytes, BytesMut};
use opmr_analysis::profiler::{CallStats, MpiProfile};
use opmr_analysis::topology::Topology;
use opmr_analysis::wire::{
    decode_app_body, decode_waitstats, encode_app_body, encode_waitstats, AppChange, AppPartial,
    SnapshotImage, WireError,
};
use opmr_events::wire::{Reader, Width};
use opmr_events::EventKind;
use opmr_metrics::MetricsSeries;
use std::collections::BTreeMap;

/// Magic prefix of an encoded snapshot delta ("OPSD").
pub const DELTA_MAGIC: u32 = u32::from_le_bytes(*b"OPSD");
/// Wire version of the delta encoding.
pub const DELTA_VERSION: u16 = 1;

const APP_FULL: u8 = 1;
const APP_SPARSE: u8 = 2;

/// Typed overflow error from the snapshot/delta encoders. The wire format
/// caps entry counts (`u16` app counts, `u32` cell/edge/window counts);
/// a snapshot past those caps must fail loudly instead of truncating the
/// count and silently corrupting the frame for every subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// More apps in one snapshot than a `u16` count can carry.
    TooManyApps(usize),
    /// More changed profile cells than a `u32` count can carry.
    TooManyCells(usize),
    /// More changed topology edges than a `u32` count can carry.
    TooManyEdges(usize),
    /// More changed metrics windows than a `u32` count can carry.
    TooManyWindows(usize),
    /// An app present in `from` is missing from `to`. The delta format has
    /// no tombstones (apps never leave a live report), so a shrinking app
    /// set cannot be expressed as a delta and must resync instead.
    AppRemoved(u16),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::TooManyApps(n) => write!(f, "{n} apps exceed the u16 wire count"),
            EncodeError::TooManyCells(n) => {
                write!(f, "{n} profile cells exceed the u32 wire count")
            }
            EncodeError::TooManyEdges(n) => {
                write!(f, "{n} topology edges exceed the u32 wire count")
            }
            EncodeError::TooManyWindows(n) => {
                write!(f, "{n} metrics windows exceed the u32 wire count")
            }
            EncodeError::AppRemoved(id) => {
                write!(
                    f,
                    "app {id} left the snapshot; deltas cannot express removal"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Ticks the overflow counter at the point an [`EncodeError`] is made, so
/// every rejected encode is visible even where the caller degrades
/// gracefully (e.g. the store falling back from delta to resync).
fn overflow(e: EncodeError) -> EncodeError {
    obs::obs().encode_overflows.inc();
    e
}

pub(crate) fn checked_u16(n: usize, e: EncodeError) -> Result<u16, EncodeError> {
    u16::try_from(n).map_err(|_| overflow(e))
}

fn checked_u32(n: usize, e: EncodeError) -> Result<u32, EncodeError> {
    u32::try_from(n).map_err(|_| overflow(e))
}

mod obs {
    use opmr_obs::{registry, Counter};
    use std::sync::{Arc, OnceLock};

    pub struct Obs {
        pub encode_overflows: Arc<Counter>,
        /// Snapshot-image bytes rewritten by delta patches (store and
        /// subscribers alike): follows the deltas, not the snapshots.
        pub image_bytes_patched: Arc<Counter>,
        /// Snapshot images encoded in full: a first version, a resync
        /// payload, an app-set change or an unencodable delta.
        pub image_rebuilds: Arc<Counter>,
    }

    pub fn obs() -> &'static Obs {
        static OBS: OnceLock<Obs> = OnceLock::new();
        OBS.get_or_init(|| {
            let r = registry();
            Obs {
                encode_overflows: r.counter("serve_encode_overflows_total"),
                image_bytes_patched: r.counter("serve_image_bytes_patched_total"),
                image_rebuilds: r.counter("serve_image_rebuilds_total"),
            }
        })
    }
}

fn profile_cells(p: &MpiProfile) -> BTreeMap<(u32, u16), CallStats> {
    let mut cells = BTreeMap::new();
    for kind in p.kinds() {
        for rank in 0..p.ranks() {
            if let Some(s) = p.rank_kind(rank, kind) {
                cells.insert((rank, kind as u16), *s);
            }
        }
    }
    cells
}

fn rebuild_profile(cells: &BTreeMap<(u32, u16), CallStats>, span_ns: u64) -> MpiProfile {
    let mut p = MpiProfile::new();
    for (&(rank, kind_raw), s) in cells {
        // Kinds are validated on decode; an unknown one can only mean the
        // cell map was built from corrupt state, so skip it rather than
        // abort the whole rebuild.
        let Some(kind) = EventKind::from_u16(kind_raw) else {
            continue;
        };
        p.absorb_stats(rank, kind, s.hits, s.time_ns, s.bytes, s.min_ns, s.max_ns);
    }
    p.absorb_span(span_ns);
    p
}

fn topology_edges(t: &Topology) -> BTreeMap<(u32, u32), (u64, u64, u64)> {
    t.sorted_edges()
        .into_iter()
        .map(|((s, d), w)| ((s, d), (w.hits, w.bytes, w.time_ns)))
        .collect()
}

fn rebuild_topology(edges: &BTreeMap<(u32, u32), (u64, u64, u64)>) -> Topology {
    let mut t = Topology::new();
    for (&(s, d), &(hits, bytes, time_ns)) in edges {
        t.add_weighted(s, d, hits, bytes, time_ns);
    }
    t
}

fn encoded_waitstate(a: &AppPartial) -> Option<Bytes> {
    a.waitstate.as_ref().map(|w| {
        let mut buf = BytesMut::new();
        encode_waitstats(w, &mut buf);
        buf.freeze()
    })
}

/// Encodes `to` as a sparse cell/edge/window update on `from` and reports
/// what that changes in `to`'s snapshot section. Writes nothing and
/// returns `None` when `to` is not `from` plus replacements — something
/// shrank or disappeared — so it must travel as a full replacement.
fn encode_app_sparse(
    from: &AppPartial,
    to: &AppPartial,
    out: &mut BytesMut,
) -> Result<Option<AppChange>, EncodeError> {
    let from_cells = profile_cells(&from.profile);
    let to_cells = profile_cells(&to.profile);
    let from_edges = topology_edges(&from.topology);
    let to_edges = topology_edges(&to.topology);
    if !from_cells.keys().all(|k| to_cells.contains_key(k))
        || !from_edges.keys().all(|k| to_edges.contains_key(k))
        // A wait-state block that vanished cannot be patched sparsely.
        || (from.waitstate.is_some() && to.waitstate.is_none())
    {
        return Ok(None);
    }
    // Metrics windows only accumulate, so changed (or new) windows travel
    // as per-window replacement values — the "delta chain over windows" —
    // and the snapshot section is rewritten from the first of them. A
    // series at another width (an adaptive series coarsened) travels as
    // its new width and every window, which the receiver takes as a
    // restarted series, so the whole section is rewritten. A vanished
    // series or window travels full.
    let (windows, windows_from) = match (&from.metrics, &to.metrics) {
        (Some(_), None) => return Ok(None),
        (None, None) => (None, None),
        (None, Some(m)) => {
            let windows: Vec<u64> = m.window_indices().collect();
            let first = windows.first().copied();
            (Some(windows), first)
        }
        (Some(prev), Some(m)) if m.window_ns() != prev.window_ns() => {
            (Some(m.window_indices().collect()), Some(0))
        }
        (Some(prev), Some(m)) => match m.changed_since(prev) {
            None => return Ok(None),
            Some(changed) => {
                let first = changed.first().copied();
                (first.map(|_| changed), first)
            }
        },
    };

    out.put_u8(APP_SPARSE);
    out.put_u64_le(to.packs);
    out.put_u64_le(to.wire_bytes);
    out.put_u64_le(to.decode_errors);
    out.put_u64_le(to.profile.span_ns());
    let mut head_moved = (from.packs, from.wire_bytes, from.decode_errors)
        != (to.packs, to.wire_bytes, to.decode_errors)
        || from.profile.span_ns() != to.profile.span_ns();

    let changed: Vec<(&(u32, u16), &CallStats)> = to_cells
        .iter()
        .filter(|(k, s)| from_cells.get(*k) != Some(*s))
        .collect();
    head_moved |= !changed.is_empty();
    out.put_u32_le(checked_u32(
        changed.len(),
        EncodeError::TooManyCells(changed.len()),
    )?);
    for (&(rank, kind_raw), s) in changed {
        out.put_u32_le(rank);
        out.put_u16_le(kind_raw);
        out.put_u64_le(s.hits);
        out.put_u64_le(s.time_ns);
        out.put_u64_le(s.bytes);
        out.put_u64_le(s.min_ns);
        out.put_u64_le(s.max_ns);
    }

    let changed: Vec<_> = to_edges
        .iter()
        .filter(|(k, w)| from_edges.get(*k) != Some(*w))
        .collect();
    head_moved |= !changed.is_empty();
    out.put_u32_le(checked_u32(
        changed.len(),
        EncodeError::TooManyEdges(changed.len()),
    )?);
    for (&(s, d), &(hits, bytes, time_ns)) in changed {
        out.put_u32_le(s);
        out.put_u32_le(d);
        out.put_u64_le(hits);
        out.put_u64_le(bytes);
        out.put_u64_le(time_ns);
    }

    match (
        &to.waitstate,
        encoded_waitstate(from) == encoded_waitstate(to),
    ) {
        (Some(w), false) => {
            head_moved = true;
            out.put_u8(1);
            encode_waitstats(w, out);
        }
        _ => out.put_u8(0),
    }

    match (&to.metrics, &windows) {
        (Some(to_m), Some(changed)) => {
            out.put_u8(1);
            out.put_u64_le(to_m.window_ns());
            out.put_u32_le(checked_u32(
                changed.len(),
                EncodeError::TooManyWindows(changed.len()),
            )?);
            for w in changed {
                to_m.encode_window_into(*w, out);
            }
        }
        _ => out.put_u8(0),
    }
    Ok(Some(match windows {
        None if !head_moved => AppChange::Unchanged,
        _ => AppChange::Sparse { windows_from },
    }))
}

/// Encodes the delta turning snapshot `from` (version `from_version`) into
/// snapshot `to` (version `to_version`). Both partial lists must be sorted
/// by `app_id` (as `AnalysisEngine::snapshot_partials` produces them).
pub fn encode_delta(
    from_version: u64,
    from: &[AppPartial],
    to_version: u64,
    to: &[AppPartial],
) -> Result<Bytes, EncodeError> {
    encode_delta_changes(from_version, from, to_version, to).map(|(delta, _)| delta)
}

/// [`encode_delta`], plus what the delta changes in each of `to`'s
/// snapshot sections (in `to` order) — the dirty set the store patches its
/// [`SnapshotImage`] from, and whose being all
/// [`AppChange::Unchanged`] is the test for "nothing to publish".
pub(crate) fn encode_delta_changes(
    from_version: u64,
    from: &[AppPartial],
    to_version: u64,
    to: &[AppPartial],
) -> Result<(Bytes, Vec<(u16, AppChange)>), EncodeError> {
    let mut out = BytesMut::new();
    out.put_u32_le(DELTA_MAGIC);
    out.put_u16_le(DELTA_VERSION);
    out.put_u64_le(from_version);
    out.put_u64_le(to_version);
    let base: BTreeMap<u16, &AppPartial> = from.iter().map(|a| (a.app_id, a)).collect();
    // Every `to` app is included (counters move every window). The format
    // has no tombstones, so an app that vanished from `to` is unencodable:
    // applying such a delta would silently retain the stale app. Refuse,
    // and let the caller fall back to a full-snapshot resync.
    if let Some(gone) = base
        .keys()
        .find(|id| to.binary_search_by_key(*id, |a| a.app_id).is_err())
    {
        return Err(overflow(EncodeError::AppRemoved(*gone)));
    }
    out.put_u16_le(checked_u16(to.len(), EncodeError::TooManyApps(to.len()))?);
    let mut changes = Vec::with_capacity(to.len());
    for a in to {
        out.put_u16_le(a.app_id);
        let sparse = match base.get(&a.app_id) {
            Some(prev) => encode_app_sparse(prev, a, &mut out)?,
            None => None,
        };
        changes.push((
            a.app_id,
            sparse.unwrap_or_else(|| {
                out.put_u8(APP_FULL);
                encode_app_body(a, &mut out);
                AppChange::Full
            }),
        ));
    }
    Ok((out.freeze(), changes))
}

/// Reads `(from_version, to_version, n_apps)` off the front of a delta.
fn decode_header(r: &mut Reader<'_>) -> Result<(u64, u64, usize), WireError> {
    let magic = r.u32()?;
    if magic != DELTA_MAGIC {
        return Err(WireError::BadTag((magic & 0xff) as u8));
    }
    let version = r.u16()?;
    if version != DELTA_VERSION {
        return Err(WireError::BadTag(version as u8));
    }
    let from_version = r.u64()?;
    let to_version = r.u64()?;
    // No per-app block is shorter than its id and tag.
    let n_apps = r.count(Width::U16, 3)?;
    Ok((from_version, to_version, n_apps))
}

/// Reads the `(from_version, to_version)` pair off an encoded delta
/// without applying it.
pub fn delta_versions(buf: &[u8]) -> Result<(u64, u64), WireError> {
    let (from, to, _) = decode_header(&mut Reader::new(buf))?;
    Ok((from, to))
}

/// Applies one sparse per-app block; reports the lowest metrics window it
/// replaced (window 0 when it had to restart the series).
fn apply_app_sparse(base: &mut AppPartial, r: &mut Reader<'_>) -> Result<AppChange, WireError> {
    base.packs = r.u64()?;
    base.wire_bytes = r.u64()?;
    base.decode_errors = r.u64()?;
    let span_ns = r.u64()?;

    let n_cells = r.count(Width::U32, 4 + 2 + 5 * 8)?;
    let mut cells = profile_cells(&base.profile);
    for _ in 0..n_cells {
        let rank = r.u32()?;
        let kind_raw = r.u16()?;
        EventKind::from_u16(kind_raw).ok_or(WireError::BadKind(kind_raw))?;
        cells.insert(
            (rank, kind_raw),
            CallStats {
                hits: r.u64()?,
                time_ns: r.u64()?,
                bytes: r.u64()?,
                min_ns: r.u64()?,
                max_ns: r.u64()?,
            },
        );
    }
    base.profile = rebuild_profile(&cells, span_ns);

    let n_edges = r.count(Width::U32, 8 + 3 * 8)?;
    let mut edges = topology_edges(&base.topology);
    for _ in 0..n_edges {
        let (s, d) = (r.u32()?, r.u32()?);
        edges.insert((s, d), (r.u64()?, r.u64()?, r.u64()?));
    }
    base.topology = rebuild_topology(&edges);

    match r.u8()? {
        0 => {}
        1 => base.waitstate = Some(decode_waitstats(r)?),
        t => return Err(WireError::BadTag(t)),
    }

    let mut windows_from = None;
    match r.u8()? {
        0 => {}
        1 => {
            let window_ns = r.u64()?;
            let n_windows = r.count(Width::U32, 12)?;
            let m = match &mut base.metrics {
                Some(m) if m.window_ns() == window_ns => m,
                slot => {
                    windows_from = Some(0);
                    slot.insert(MetricsSeries::new(window_ns))
                }
            };
            for _ in 0..n_windows {
                let (w, cells) = MetricsSeries::decode_window(r)?;
                windows_from = Some(windows_from.map_or(w, |lowest: u64| lowest.min(w)));
                m.replace_window(w, cells);
            }
        }
        t => return Err(WireError::BadTag(t)),
    }
    Ok(AppChange::Sparse { windows_from })
}

/// Applies an encoded delta to `base` (sorted by `app_id`), mutating it
/// into the target snapshot. Returns `(from_version, to_version)`; the
/// caller is responsible for checking `from_version` against the version
/// `base` currently represents.
pub fn apply_delta(base: &mut Vec<AppPartial>, buf: &[u8]) -> Result<(u64, u64), WireError> {
    let versions = delta_versions(buf)?;
    apply_delta_changes(base, buf)?;
    Ok(versions)
}

/// [`apply_delta`], plus what the delta changed in each snapshot section
/// it names (in delta order) — the dirty set a subscriber patches its
/// [`SnapshotImage`] from. On an error `base` may be left half-applied.
pub(crate) fn apply_delta_changes(
    base: &mut Vec<AppPartial>,
    buf: &[u8],
) -> Result<Vec<(u16, AppChange)>, WireError> {
    let mut r = Reader::new(buf);
    let (_, _, n_apps) = decode_header(&mut r)?;
    let mut changes = Vec::with_capacity(n_apps);
    for _ in 0..n_apps {
        let app_id = r.u16()?;
        let tag = r.u8()?;
        let change = match tag {
            APP_FULL => {
                let app = decode_app_body(app_id, &mut r)?;
                match base.binary_search_by_key(&app_id, |a| a.app_id) {
                    Ok(i) => base[i] = app,
                    Err(i) => base.insert(i, app),
                }
                AppChange::Full
            }
            APP_SPARSE => {
                let i = base
                    .binary_search_by_key(&app_id, |a| a.app_id)
                    .map_err(|_| WireError::BadTag(tag))?;
                apply_app_sparse(&mut base[i], &mut r)?
            }
            t => return Err(WireError::BadTag(t)),
        };
        changes.push((app_id, change));
    }
    Ok(changes)
}

/// Encodes `parts` in full (counted): a subscriber's snapshot or resync.
pub(crate) fn build_image(parts: &[AppPartial]) -> SnapshotImage {
    obs::obs().image_rebuilds.inc();
    SnapshotImage::build(parts)
}

/// Brings `image` up to `parts` through [`SnapshotImage::patch`] — the one
/// path by which the store and every subscriber move their snapshot bytes
/// from version to version — and counts what it cost.
pub(crate) fn patch_image(
    image: &mut SnapshotImage,
    parts: &[AppPartial],
    changes: &[(u16, AppChange)],
) {
    match image.patch(parts, changes) {
        Some(bytes) => obs::obs().image_bytes_patched.add(bytes as u64),
        None => obs::obs().image_rebuilds.inc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_analysis::waitstate::WaitStats;
    use opmr_analysis::wire::encode_partials;
    use opmr_events::Event;

    fn events_at(rounds: u32) -> Vec<Event> {
        let mut v = Vec::new();
        for i in 0..rounds {
            for rank in 0..4u32 {
                v.push(Event {
                    time_ns: i as u64 * 1000 + rank as u64,
                    duration_ns: 10 + (i % 7) as u64,
                    kind: if i % 3 == 0 {
                        EventKind::Send
                    } else {
                        EventKind::Recv
                    },
                    rank,
                    peer: ((rank + 1) % 4) as i32,
                    tag: 0,
                    comm: 0,
                    bytes: 64 + i as u64,
                });
            }
        }
        v
    }

    fn profile_at(rounds: u32) -> MpiProfile {
        let mut p = MpiProfile::new();
        for e in events_at(rounds) {
            p.add(&e);
        }
        p
    }

    fn metrics_at(rounds: u32) -> MetricsSeries {
        let mut m = MetricsSeries::new(500);
        for e in events_at(rounds) {
            m.add(&e);
        }
        m
    }

    fn partial_at(app_id: u16, rounds: u32) -> AppPartial {
        let mut topology = Topology::new();
        for rank in 0..4u32 {
            topology.add_weighted(rank, (rank + 1) % 4, rounds as u64, rounds as u64 * 64, 10);
        }
        AppPartial {
            app_id,
            packs: rounds as u64,
            wire_bytes: rounds as u64 * 48,
            decode_errors: 0,
            profile: profile_at(rounds),
            topology,
            waitstate: Some(WaitStats {
                matched: rounds as u64,
                ..WaitStats::default()
            }),
            metrics: Some(metrics_at(rounds)),
        }
    }

    #[test]
    fn applied_delta_reencodes_byte_identically() {
        // The load-bearing property of the subscription protocol.
        let mut versions: Vec<Vec<AppPartial>> = Vec::new();
        for rounds in [3u32, 7, 7, 19, 40] {
            versions.push(vec![partial_at(0, rounds), partial_at(5, rounds * 2)]);
        }
        let mut live = versions[0].clone();
        for w in versions.windows(2) {
            let d = encode_delta(1, &w[0], 2, &w[1]).unwrap();
            let (f, t) = apply_delta(&mut live, &d).unwrap();
            assert_eq!((f, t), (1, 2));
            assert_eq!(
                encode_partials(&live),
                encode_partials(&w[1]),
                "delta application diverged from target snapshot"
            );
        }
    }

    #[test]
    fn removed_app_refuses_to_encode() {
        // No tombstones on the wire: applying a delta can never drop an
        // app, so encoding one from a shrunken snapshot must fail loudly
        // (the store then degrades that version to a snapshot resync).
        let v1 = vec![partial_at(0, 5), partial_at(4, 3)];
        let v2 = vec![partial_at(0, 6)];
        assert_eq!(
            encode_delta(1, &v1, 2, &v2),
            Err(EncodeError::AppRemoved(4))
        );
    }

    #[test]
    fn new_app_travels_full() {
        let v1 = vec![partial_at(0, 5)];
        let v2 = vec![partial_at(0, 6), partial_at(9, 2)];
        let d = encode_delta(1, &v1, 2, &v2).unwrap();
        let mut live = v1.clone();
        apply_delta(&mut live, &d).unwrap();
        assert_eq!(encode_partials(&live), encode_partials(&v2));
        assert_eq!(live.len(), 2);
        assert_eq!(live[1].app_id, 9);
    }

    #[test]
    fn unchanged_apps_cost_little() {
        let v = vec![partial_at(0, 50)];
        let d = encode_delta(1, &v, 2, &v).unwrap();
        let full = encode_partials(&v);
        assert!(
            d.len() < full.len() / 2,
            "no-change delta ({}) should be far smaller than a snapshot ({})",
            d.len(),
            full.len()
        );
        let mut live = v.clone();
        apply_delta(&mut live, &d).unwrap();
        assert_eq!(encode_partials(&live), full);
    }

    #[test]
    fn shrinking_aggregates_fall_back_to_full_replacement() {
        // Not reachable from a monotone publisher, but the codec must not
        // silently corrupt if it ever happens.
        let big = vec![partial_at(0, 20)];
        let small = vec![partial_at(0, 4)];
        let d = encode_delta(1, &big, 2, &small).unwrap();
        let mut live = big.clone();
        apply_delta(&mut live, &d).unwrap();
        assert_eq!(encode_partials(&live), encode_partials(&small));
    }

    #[test]
    fn metrics_window_width_change_travels_sparse_and_smaller() {
        let v1 = vec![partial_at(0, 40)];
        let mut v2 = vec![partial_at(0, 41)];
        // An adaptive doubling, and a width whose windows all lie after
        // the old series' first ones.
        let mut doubled = metrics_at(41);
        doubled.coarsen(2);
        let mut later = MetricsSeries::new(1_000);
        for e in events_at(41).iter().filter(|e| e.time_ns >= 20_000) {
            later.add(e);
        }
        for series in [doubled, later] {
            let width = series.window_ns();
            v2[0].metrics = Some(series);
            let (d, changes) = encode_delta_changes(1, &v1, 2, &v2).unwrap();
            assert_eq!(
                changes,
                [(
                    0,
                    AppChange::Sparse {
                        windows_from: Some(0)
                    }
                )],
                "a new width rewrites the whole series section"
            );
            let mut full = BytesMut::new();
            encode_app_body(&v2[0], &mut full);
            assert!(
                d.len() < full.len(),
                "{} B against {} B",
                d.len(),
                full.len()
            );
            let mut live = v1.clone();
            apply_delta(&mut live, &d).unwrap();
            assert_eq!(encode_partials(&live), encode_partials(&v2));
            assert_eq!(live[0].metrics.as_ref().map(|m| m.window_ns()), Some(width));
            let mut image = SnapshotImage::build(&v1);
            assert!(image.patch(&v2, &changes).is_some(), "patched, not rebuilt");
            assert!(image[..] == encode_partials(&v2)[..]);
        }
    }

    #[test]
    fn appearing_metrics_patch_sparsely() {
        let mut v1 = vec![partial_at(0, 5)];
        v1[0].metrics = None;
        let v2 = vec![partial_at(0, 6)];
        let d = encode_delta(1, &v1, 2, &v2).unwrap();
        let mut live = v1.clone();
        apply_delta(&mut live, &d).unwrap();
        assert_eq!(encode_partials(&live), encode_partials(&v2));
    }

    #[test]
    fn app_count_overflow_is_typed_and_counted() {
        // 65536 apps cannot be counted in the u16 wire field; the encoder
        // must refuse (and tick the overflow counter) rather than truncate
        // to 0 and corrupt the frame.
        let minimal = |app_id: u16| AppPartial {
            app_id,
            packs: 0,
            wire_bytes: 0,
            decode_errors: 0,
            profile: MpiProfile::new(),
            topology: Topology::new(),
            waitstate: None,
            metrics: None,
        };
        let before = opmr_obs::registry()
            .snapshot()
            .counter("serve_encode_overflows_total")
            .unwrap_or(0);
        let at_cap: Vec<AppPartial> = (0..u16::MAX).map(minimal).collect();
        assert!(encode_delta(1, &[], 2, &at_cap).is_ok());
        let mut past_cap = at_cap;
        past_cap.push(minimal(u16::MAX));
        // 65536 distinct app ids don't exist; the count check fires first.
        assert_eq!(
            encode_delta(1, &[], 2, &past_cap),
            Err(EncodeError::TooManyApps(65536))
        );
        let after = opmr_obs::registry()
            .snapshot()
            .counter("serve_encode_overflows_total")
            .unwrap_or(0);
        assert!(after > before, "overflow counter did not move");
    }

    #[test]
    fn checked_counts_hold_exactly_at_the_type_boundary() {
        assert_eq!(
            checked_u16(u16::MAX as usize, EncodeError::TooManyApps(0)),
            Ok(u16::MAX)
        );
        assert_eq!(
            checked_u16(u16::MAX as usize + 1, EncodeError::TooManyApps(65536)),
            Err(EncodeError::TooManyApps(65536))
        );
        assert_eq!(
            checked_u32(u32::MAX as usize, EncodeError::TooManyCells(0)),
            Ok(u32::MAX)
        );
        assert_eq!(
            checked_u32(u32::MAX as usize + 1, EncodeError::TooManyEdges(1)),
            Err(EncodeError::TooManyEdges(1))
        );
    }

    #[test]
    fn delta_versions_peeks_without_applying() {
        let v = vec![partial_at(0, 2)];
        let d = encode_delta(41, &v, 42, &v).unwrap();
        assert_eq!(delta_versions(&d).unwrap(), (41, 42));
        assert!(delta_versions(&d[..10]).is_err());
        assert!(delta_versions(b"OPMRxxxxxxxxxxxxxxxxxxxxxx").is_err());
    }
}
