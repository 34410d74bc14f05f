//! The serve-plane wire protocol.
//!
//! Requests flow client → server, responses and subscription updates flow
//! server → client, both as length-prefixed records
//! (`opmr_events::frame`) over one duplex VMPI stream per client. All
//! encodings are little-endian; each record starts with a one-byte
//! message tag.

use bytes::{BufMut, Bytes, BytesMut};
use opmr_analysis::wire::WireError;
use opmr_events::wire::Reader;

/// Stream id of the serve plane. Duplex streams derive their two
/// directions as `2*id` / `2*id + 1`, so this keeps serve traffic clear
/// of the instrumentation stream (id 0) and the reduction overlay.
pub const SERVE_STREAM_ID: u16 = 0x0100;

/// `rank_hi` value meaning "no upper bound".
pub const ALL_RANKS: u32 = u32::MAX;

const REQ_QUERY: u8 = 0x01;
const REQ_VERSION: u8 = 0x02;
const REQ_SUBSCRIBE: u8 = 0x03;
const REQ_ACK: u8 = 0x04;
const REQ_BYE: u8 = 0x05;
const REQ_HELLO: u8 = 0x07;

const RSP_QUERY_RESULT: u8 = 0x81;
const RSP_NOT_FOUND: u8 = 0x82;
const RSP_VERSION_INFO: u8 = 0x83;
const RSP_SNAPSHOT: u8 = 0x84;
const RSP_DELTA: u8 = 0x85;
const RSP_QUOTA_EXCEEDED: u8 = 0x87;

/// What a point query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `encode_profile` bytes of the (rank-filtered) MPI profile.
    Profile = 1,
    /// `encode_topology` bytes of the (source-rank-filtered) topology.
    Topology = 2,
    /// Optional `encode_waitstats` bytes (one presence byte first).
    Waitstate = 3,
    /// Per-rank event counts over the rank range: `u32 lo, u32 n, n×u64`.
    Density = 4,
    /// Optional rank-filtered time-resolved metrics series (one presence
    /// byte, then `MetricsSeries::encode_into` bytes).
    Metrics = 5,
}

impl QueryKind {
    fn from_u8(v: u8) -> Option<QueryKind> {
        match v {
            1 => Some(QueryKind::Profile),
            2 => Some(QueryKind::Topology),
            3 => Some(QueryKind::Waitstate),
            4 => Some(QueryKind::Density),
            5 => Some(QueryKind::Metrics),
            _ => None,
        }
    }
}

/// Why a query produced no payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotFoundReason {
    /// Nothing published yet.
    NoSnapshot = 1,
    /// The requested version aged out of the ring (or never existed).
    VersionGone = 2,
    /// The snapshot has no such application.
    UnknownApp = 3,
    /// The request did not parse.
    BadRequest = 4,
}

impl NotFoundReason {
    fn from_u8(v: u8) -> Option<NotFoundReason> {
        match v {
            1 => Some(NotFoundReason::NoSnapshot),
            2 => Some(NotFoundReason::VersionGone),
            3 => Some(NotFoundReason::UnknownApp),
            4 => Some(NotFoundReason::BadRequest),
            _ => None,
        }
    }
}

/// Which tenant quota refused a request (see [`crate::quota`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaKind {
    /// Concurrent-subscription cap.
    Subscriptions = 1,
    /// Point-query rate limit.
    QueryRate = 2,
    /// Subscription delta-bytes/s limit (throttles delivery; reported on
    /// the wire only for diagnostics, never as a rejection).
    DeltaRate = 3,
}

impl QuotaKind {
    fn from_u8(v: u8) -> Option<QuotaKind> {
        match v {
            1 => Some(QuotaKind::Subscriptions),
            2 => Some(QuotaKind::QueryRate),
            3 => Some(QuotaKind::DeltaRate),
            _ => None,
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point query against `version` (0 = current) over `[rank_lo,
    /// rank_hi)`.
    Query {
        req_id: u32,
        kind: QueryKind,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    },
    /// What versions does the server hold?
    VersionInfo { req_id: u32 },
    /// Tenant announcement, sent once on connect before any other
    /// request. The tenant name is the client partition's name; clients
    /// that never send one are the anonymous tenant `""`.
    Hello { tenant: String },
    /// Start the snapshot-then-deltas subscription (one chain per shard).
    Subscribe,
    /// Flow control: the subscriber consumed the update for `version` of
    /// `shard`, returning one credit.
    Ack { shard: u16, version: u64 },
    /// Orderly goodbye; the server closes its direction in response.
    Bye,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    QueryResult {
        req_id: u32,
        kind: QueryKind,
        /// Version the payload was evaluated against.
        version: u64,
        payload: Bytes,
    },
    NotFound {
        req_id: u32,
        reason: NotFoundReason,
    },
    VersionInfo {
        req_id: u32,
        /// Latest version (0 = nothing published yet).
        current: u64,
        /// Oldest version still in the ring.
        oldest: u64,
        /// Applications in the current snapshot.
        apps: u16,
        /// The final version has been published.
        finished: bool,
    },
    /// Full snapshot of one shard (`encode_partials` payload): the
    /// subscription opener, or a slow-consumer resync when `resync` is
    /// set. `finished` marks the shard's *final* version; the client
    /// aggregates per-shard finals into subscription completion using
    /// `shards` (the store's shard count).
    Snapshot {
        shard: u16,
        shards: u16,
        version: u64,
        publish_ns: u64,
        resync: bool,
        finished: bool,
        payload: Bytes,
    },
    /// Incremental update (`delta` payload) advancing the subscriber by
    /// exactly one version of `shard` (`finished`/`shards` as in
    /// [`Response::Snapshot`]).
    Delta {
        shard: u16,
        shards: u16,
        version: u64,
        publish_ns: u64,
        finished: bool,
        payload: Bytes,
    },
    /// The request was refused under a tenant quota (`req_id` 0 for
    /// subscription rejections, which have no request id).
    QuotaExceeded {
        req_id: u32,
        kind: QuotaKind,
    },
}

impl Response {
    /// Variant name for typed protocol-violation reports (a `Debug`
    /// rendering would drag whole snapshot payloads into the message).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Response::QueryResult { .. } => "query result",
            Response::NotFound { .. } => "not-found answer",
            Response::VersionInfo { .. } => "version info",
            Response::Snapshot { .. } => "snapshot update",
            Response::Delta { .. } => "delta update",
            Response::QuotaExceeded { .. } => "quota rejection",
        }
    }
}

impl Request {
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        match self {
            Request::Query {
                req_id,
                kind,
                app_id,
                version,
                rank_lo,
                rank_hi,
            } => {
                out.put_u8(REQ_QUERY);
                out.put_u32_le(*req_id);
                out.put_u8(*kind as u8);
                out.put_u16_le(*app_id);
                out.put_u64_le(*version);
                out.put_u32_le(*rank_lo);
                out.put_u32_le(*rank_hi);
            }
            Request::VersionInfo { req_id } => {
                out.put_u8(REQ_VERSION);
                out.put_u32_le(*req_id);
            }
            Request::Hello { tenant } => {
                out.put_u8(REQ_HELLO);
                // Tenant names are partition names; clip, don't fail, in
                // the (absurd) >64KiB case.
                let bytes = tenant.as_bytes();
                let n = bytes.len().min(u16::MAX as usize);
                out.put_u16_le(n as u16);
                out.put_slice(&bytes[..n]);
            }
            Request::Subscribe => out.put_u8(REQ_SUBSCRIBE),
            Request::Ack { shard, version } => {
                out.put_u8(REQ_ACK);
                out.put_u16_le(*shard);
                out.put_u64_le(*version);
            }
            Request::Bye => out.put_u8(REQ_BYE),
        }
        out.freeze()
    }

    pub fn decode(buf: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(buf);
        match r.u8()? {
            REQ_QUERY => {
                let req_id = r.u32()?;
                let kind_raw = r.u8()?;
                let kind = QueryKind::from_u8(kind_raw).ok_or(WireError::BadTag(kind_raw))?;
                Ok(Request::Query {
                    req_id,
                    kind,
                    app_id: r.u16()?,
                    version: r.u64()?,
                    rank_lo: r.u32()?,
                    rank_hi: r.u32()?,
                })
            }
            REQ_VERSION => Ok(Request::VersionInfo { req_id: r.u32()? }),
            REQ_HELLO => {
                let n = r.u16()? as usize;
                let tenant = String::from_utf8_lossy(r.bytes(n)?).into_owned();
                Ok(Request::Hello { tenant })
            }
            REQ_SUBSCRIBE => Ok(Request::Subscribe),
            REQ_ACK => Ok(Request::Ack {
                shard: r.u16()?,
                version: r.u64()?,
            }),
            REQ_BYE => Ok(Request::Bye),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Response {
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        match self {
            Response::QueryResult {
                req_id,
                kind,
                version,
                payload,
            } => {
                out.put_u8(RSP_QUERY_RESULT);
                out.put_u32_le(*req_id);
                out.put_u8(*kind as u8);
                out.put_u64_le(*version);
                out.put_slice(payload);
            }
            Response::NotFound { req_id, reason } => {
                out.put_u8(RSP_NOT_FOUND);
                out.put_u32_le(*req_id);
                out.put_u8(*reason as u8);
            }
            Response::VersionInfo {
                req_id,
                current,
                oldest,
                apps,
                finished,
            } => {
                out.put_u8(RSP_VERSION_INFO);
                out.put_u32_le(*req_id);
                out.put_u64_le(*current);
                out.put_u64_le(*oldest);
                out.put_u16_le(*apps);
                out.put_u8(*finished as u8);
            }
            Response::Snapshot {
                shard,
                shards,
                version,
                publish_ns,
                resync,
                finished,
                payload,
            } => {
                out.put_u8(RSP_SNAPSHOT);
                out.put_u16_le(*shard);
                out.put_u16_le(*shards);
                out.put_u64_le(*version);
                out.put_u64_le(*publish_ns);
                out.put_u8(*resync as u8);
                out.put_u8(*finished as u8);
                out.put_slice(payload);
            }
            Response::Delta {
                shard,
                shards,
                version,
                publish_ns,
                finished,
                payload,
            } => {
                out.put_u8(RSP_DELTA);
                out.put_u16_le(*shard);
                out.put_u16_le(*shards);
                out.put_u64_le(*version);
                out.put_u64_le(*publish_ns);
                out.put_u8(*finished as u8);
                out.put_slice(payload);
            }
            Response::QuotaExceeded { req_id, kind } => {
                out.put_u8(RSP_QUOTA_EXCEEDED);
                out.put_u32_le(*req_id);
                out.put_u8(*kind as u8);
            }
        }
        out.freeze()
    }

    pub fn decode(buf: &Bytes) -> Result<Response, WireError> {
        let mut r = Reader::new(buf);
        // What follows the fixed fields, as a zero-copy slice of `buf`.
        let tail = |r: &Reader<'_>| buf.slice(buf.len() - r.remaining()..);
        match r.u8()? {
            RSP_QUERY_RESULT => {
                let req_id = r.u32()?;
                let kind_raw = r.u8()?;
                let kind = QueryKind::from_u8(kind_raw).ok_or(WireError::BadTag(kind_raw))?;
                Ok(Response::QueryResult {
                    req_id,
                    kind,
                    version: r.u64()?,
                    payload: tail(&r),
                })
            }
            RSP_NOT_FOUND => {
                let req_id = r.u32()?;
                let reason_raw = r.u8()?;
                Ok(Response::NotFound {
                    req_id,
                    reason: NotFoundReason::from_u8(reason_raw)
                        .ok_or(WireError::BadTag(reason_raw))?,
                })
            }
            RSP_VERSION_INFO => Ok(Response::VersionInfo {
                req_id: r.u32()?,
                current: r.u64()?,
                oldest: r.u64()?,
                apps: r.u16()?,
                finished: r.u8()? != 0,
            }),
            RSP_SNAPSHOT => Ok(Response::Snapshot {
                shard: r.u16()?,
                shards: r.u16()?,
                version: r.u64()?,
                publish_ns: r.u64()?,
                resync: r.u8()? != 0,
                finished: r.u8()? != 0,
                payload: tail(&r),
            }),
            RSP_DELTA => Ok(Response::Delta {
                shard: r.u16()?,
                shards: r.u16()?,
                version: r.u64()?,
                publish_ns: r.u64()?,
                finished: r.u8()? != 0,
                payload: tail(&r),
            }),
            RSP_QUOTA_EXCEEDED => {
                let req_id = r.u32()?;
                let kind_raw = r.u8()?;
                Ok(Response::QuotaExceeded {
                    req_id,
                    kind: QuotaKind::from_u8(kind_raw).ok_or(WireError::BadTag(kind_raw))?,
                })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// A server's answer to [`Request::VersionInfo`], decoded for callers.
/// With a sharded store the fields aggregate: `current` is the max over
/// shards, `oldest` the min over non-empty shards, `apps` the total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionInfo {
    pub current: u64,
    pub oldest: u64,
    pub apps: u16,
    pub finished: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Query {
                req_id: 7,
                kind: QueryKind::Profile,
                app_id: 3,
                version: 42,
                rank_lo: 1,
                rank_hi: 5,
            },
            Request::Query {
                req_id: 8,
                kind: QueryKind::Density,
                app_id: 0,
                version: 0,
                rank_lo: 0,
                rank_hi: ALL_RANKS,
            },
            Request::Query {
                req_id: 10,
                kind: QueryKind::Metrics,
                app_id: 1,
                version: 3,
                rank_lo: 0,
                rank_hi: ALL_RANKS,
            },
            Request::VersionInfo { req_id: 9 },
            Request::Hello {
                tenant: "dash-a".to_string(),
            },
            Request::Hello {
                tenant: String::new(),
            },
            Request::Subscribe,
            Request::Ack {
                shard: 3,
                version: 17,
            },
            Request::Bye,
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for rsp in [
            Response::QueryResult {
                req_id: 7,
                kind: QueryKind::Topology,
                version: 5,
                payload: Bytes::from_static(b"edges"),
            },
            Response::NotFound {
                req_id: 8,
                reason: NotFoundReason::VersionGone,
            },
            Response::VersionInfo {
                req_id: 9,
                current: 12,
                oldest: 5,
                apps: 2,
                finished: true,
            },
            Response::Snapshot {
                shard: 1,
                shards: 4,
                version: 3,
                publish_ns: 999,
                resync: true,
                finished: false,
                payload: Bytes::from_static(b"full"),
            },
            Response::Delta {
                shard: 0,
                shards: 1,
                version: 4,
                publish_ns: 1000,
                finished: true,
                payload: Bytes::from_static(b"sparse"),
            },
            Response::QuotaExceeded {
                req_id: 11,
                kind: QuotaKind::QueryRate,
            },
            Response::QuotaExceeded {
                req_id: 0,
                kind: QuotaKind::Subscriptions,
            },
        ] {
            assert_eq!(Response::decode(&rsp.encode()).unwrap(), rsp);
        }
    }

    /// Unknown tags and enum codes are typed rejections (truncation of
    /// every message kind is `tests/wire_hostile.rs`'s job).
    #[test]
    fn junk_is_rejected() {
        assert_eq!(Request::decode(&[0xee]), Err(WireError::BadTag(0xee)));
        assert_eq!(
            Response::decode(&Bytes::from_static(b"\x7f")),
            Err(WireError::BadTag(0x7f))
        );
        // The retired ping / pong keepalive tags.
        assert_eq!(Request::decode(&[0x06]), Err(WireError::BadTag(0x06)));
        assert_eq!(
            Response::decode(&Bytes::from_static(b"\x86")),
            Err(WireError::BadTag(0x86))
        );
        assert_eq!(
            Response::decode(&Bytes::from_static(b"\x87\x01\x02\x03\x04\x09")),
            Err(WireError::BadTag(9))
        );
    }
}
