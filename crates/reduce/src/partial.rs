//! Wire format for reduced partials travelling *up the tree*.
//!
//! Leaf traffic is raw event packs (`OPMR` magic, one pack per stream
//! block); once a frontier node has aggregated a window, the upward
//! traffic becomes *partial sets* — per-application [`ReducePartial`]s
//! under a distinct `OPRD` magic so a misrouted buffer is detectable
//! immediately. Partial sets can exceed one stream block, so they travel
//! length-prefixed ([`frame`]) and are reassembled per source with
//! [`FrameBuf`].

use crate::reducible::{EventDensity, Reducible};
use bytes::{BufMut, Bytes, BytesMut};
use opmr_analysis::profiler::MpiProfile;
use opmr_analysis::topology::Topology;
use opmr_analysis::waitstate::WaitStats;
use opmr_analysis::wire::{
    decode_profile, decode_topology, decode_waitstats, encode_profile, encode_topology,
    encode_waitstats, merge_waitstats, AppPartial, WireError,
};
use opmr_events::wire::{Reader, Width};
use opmr_metrics::MetricsSeries;

/// Magic prefix of an encoded partial set ("OPRD").
pub const REDUCE_MAGIC: u32 = u32::from_le_bytes(*b"OPRD");
/// Wire version of the partial-set encoding.
pub const REDUCE_VERSION: u16 = 1;

/// One application's aggregate as reduced by a tree node.
#[derive(Debug, Clone, Default)]
pub struct ReducePartial {
    pub app_id: u16,
    /// Event packs absorbed at the frontier on behalf of this aggregate.
    pub packs: u64,
    /// Leaf wire bytes those packs occupied.
    pub wire_bytes: u64,
    /// Blocks that failed pack decoding at the frontier.
    pub decode_errors: u64,
    pub profile: MpiProfile,
    pub topology: Topology,
    pub density: EventDensity,
    pub waitstate: Option<WaitStats>,
    pub metrics: Option<MetricsSeries>,
}

impl ReducePartial {
    pub fn new(app_id: u16) -> ReducePartial {
        ReducePartial {
            app_id,
            ..Default::default()
        }
    }

    /// The `analysis::wire` partial this aggregate merges into at the
    /// root (density is a derived view and stays overlay-local).
    pub fn to_app_partial(&self) -> AppPartial {
        AppPartial {
            app_id: self.app_id,
            packs: self.packs,
            wire_bytes: self.wire_bytes,
            decode_errors: self.decode_errors,
            profile: self.profile.clone(),
            topology: self.topology.clone(),
            waitstate: self.waitstate.clone(),
            metrics: self.metrics.clone(),
        }
    }
}

impl Reducible for ReducePartial {
    fn merge_from(&mut self, other: &Self) {
        debug_assert_eq!(self.app_id, other.app_id, "merging across applications");
        self.packs += other.packs;
        self.wire_bytes += other.wire_bytes;
        self.decode_errors += other.decode_errors;
        self.profile.merge_from(&other.profile);
        self.topology.merge_from(&other.topology);
        self.density.merge_from(&other.density);
        match (&mut self.waitstate, &other.waitstate) {
            (Some(into), Some(w)) => merge_waitstats(into, w),
            (None, Some(w)) => self.waitstate = Some(w.clone()),
            _ => {}
        }
        match (&mut self.metrics, &other.metrics) {
            (Some(into), Some(m)) => into.merge(m),
            (None, Some(m)) => self.metrics = Some(m.clone()),
            _ => {}
        }
    }
}

/// Encodes a set of per-application partials (one node's window).
pub fn encode_partial_set(parts: &[ReducePartial]) -> Bytes {
    let mut out = BytesMut::new();
    out.put_u32_le(REDUCE_MAGIC);
    out.put_u16_le(REDUCE_VERSION);
    out.put_u16_le(parts.len() as u16);
    for p in parts {
        out.put_u16_le(p.app_id);
        out.put_u64_le(p.packs);
        out.put_u64_le(p.wire_bytes);
        out.put_u64_le(p.decode_errors);
        encode_profile(&p.profile, &mut out);
        encode_topology(&p.topology, &mut out);
        out.put_u32_le(p.density.counts().len() as u32);
        for &c in p.density.counts() {
            out.put_u64_le(c);
        }
        match &p.waitstate {
            Some(w) => {
                out.put_u8(1);
                encode_waitstats(w, &mut out);
            }
            None => out.put_u8(0),
        }
        match &p.metrics {
            Some(m) => {
                out.put_u8(1);
                m.encode_into(&mut out);
            }
            None => out.put_u8(0),
        }
    }
    out.freeze()
}

/// Decodes a partial set; rejects buffers that do not start with `OPRD`.
pub fn decode_partial_set(buf: &[u8]) -> Result<Vec<ReducePartial>, WireError> {
    let mut r = Reader::new(buf);
    let magic = r.u32()?;
    if magic != REDUCE_MAGIC {
        return Err(WireError::BadTag((magic & 0xff) as u8));
    }
    let version = r.u16()?;
    if version != REDUCE_VERSION {
        return Err(WireError::BadTag(version as u8));
    }
    // No partial is shorter than its id, counters and empty tables.
    let n = r.count(Width::U16, 2 + 24 + 16 + 8 + 4 + 1 + 1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let app_id = r.u16()?;
        let packs = r.u64()?;
        let wire_bytes = r.u64()?;
        let decode_errors = r.u64()?;
        let profile = decode_profile(&mut r)?;
        let topology = decode_topology(&mut r)?;
        let ranks = r.count(Width::U32, 8)?;
        let mut counts = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            counts.push(r.u64()?);
        }
        let density = EventDensity::from_counts(counts);
        let waitstate = match r.u8()? {
            0 => None,
            1 => Some(decode_waitstats(&mut r)?),
            t => return Err(WireError::BadTag(t)),
        };
        let metrics = match r.u8()? {
            0 => None,
            1 => Some(MetricsSeries::decode(&mut r)?),
            t => return Err(WireError::BadTag(t)),
        };
        out.push(ReducePartial {
            app_id,
            packs,
            wire_bytes,
            decode_errors,
            profile,
            topology,
            density,
            waitstate,
            metrics,
        });
    }
    Ok(out)
}

// Framing lives in `opmr_events::frame` (shared with the serve protocol);
// re-exported here so overlay code keeps addressing it as `partial::frame`.
pub use opmr_events::frame::{frame, try_frame, FrameBuf};

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_events::{Event, EventKind};

    fn sample_partial(app_id: u16) -> ReducePartial {
        let mut p = ReducePartial::new(app_id);
        let mut metrics = MetricsSeries::new(100);
        for r in 0..4u32 {
            let e = Event {
                time_ns: r as u64 * 50,
                duration_ns: 7,
                kind: EventKind::Send,
                rank: r,
                peer: ((r + 1) % 4) as i32,
                tag: 3,
                comm: 0,
                bytes: 256,
            };
            p.profile.add(&e);
            metrics.add(&e);
            p.topology.add_weighted(r, (r + 1) % 4, 1, 256, 7);
            p.density.add_event(r);
        }
        p.metrics = Some(metrics);
        p.packs = 2;
        p.wire_bytes = 999;
        p
    }

    #[test]
    fn partial_set_roundtrip() {
        let parts = vec![sample_partial(0), sample_partial(3)];
        let enc = encode_partial_set(&parts);
        let dec = decode_partial_set(&enc).unwrap();
        assert_eq!(dec.len(), 2);
        assert_eq!(dec[0].app_id, 0);
        assert_eq!(dec[1].app_id, 3);
        assert_eq!(dec[0].profile.events(), 4);
        assert_eq!(dec[0].topology.edge_count(), 4);
        assert_eq!(dec[0].density.total(), 4);
        assert_eq!(dec[0].packs, 2);
        assert_eq!(dec[0].wire_bytes, 999);
        assert_eq!(dec[0].metrics, parts[0].metrics);
    }

    #[test]
    fn event_pack_bytes_are_rejected_as_partials() {
        // The leaf wire format must never decode as a partial set.
        let pack = opmr_events::EventPack::new(0, 1, 0, Vec::new()).encode();
        assert!(matches!(
            decode_partial_set(&pack),
            Err(WireError::BadTag(_))
        ));
    }

    #[test]
    fn framing_survives_arbitrary_chunking() {
        let records: Vec<Bytes> = (0..5)
            .map(|i| encode_partial_set(&[sample_partial(i)]))
            .collect();
        let mut wire = BytesMut::new();
        for r in &records {
            wire.put_slice(&frame(r));
        }
        // Feed in ragged chunks; all records must come back intact.
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(13) {
            fb.push(chunk);
            while let Some(payload) = fb.next_frame().unwrap() {
                got.push(payload);
            }
        }
        assert_eq!(got, records);
        assert_eq!(fb.residual(), 0);
    }

    #[test]
    fn merged_partial_accumulates() {
        let mut a = sample_partial(0);
        let b = sample_partial(0);
        a.merge_from(&b);
        assert_eq!(a.packs, 4);
        assert_eq!(a.profile.events(), 8);
        assert_eq!(a.topology.edge(0, 1).unwrap().hits, 2);
        assert_eq!(a.density.total(), 8);
    }
}
