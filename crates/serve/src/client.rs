//! The client-partition side of the serve plane.
//!
//! A [`ServeClient`] holds one duplex VMPI stream to the serving rank it
//! was mapped onto (clients spread round-robin over them), issues
//! framed point queries and — once subscribed — folds the
//! snapshot-then-deltas stream into locally held per-shard
//! [`ClientReport`]s. Because deltas carry replacement values and the wire
//! codecs encode deterministically, a folded shard report encodes to bytes
//! identical to the server's stored shard snapshot at every version; the
//! acceptance tests assert exactly that. The held bytes are a
//! [`SnapshotImage`] the client patches from each delta the same way the
//! store patched its own, so holding them costs what the delta changed.
//!
//! Each update names its store shard; the `finished` flag on the wire is
//! *per shard*, and the client aggregates the per-shard finals (using the
//! `shards` count every update carries) into whole-subscription
//! completion ([`Update::finished`]). A tenant announces itself with
//! [`ServeClient::connect_as`]; quota refusals surface as
//! [`ServeError::QuotaExceeded`].

use crate::delta::{apply_delta_changes, build_image, delta_versions, patch_image};
use crate::proto::{NotFoundReason, QueryKind, Request, Response, VersionInfo, SERVE_STREAM_ID};
use crate::{mono_ns, ServeConfig, ServeError};
use bytes::Bytes;
use opmr_analysis::profiler::MpiProfile;
use opmr_analysis::topology::Topology;
use opmr_analysis::waitstate::WaitStats;
use opmr_analysis::wire::{
    decode_partials, decode_profile, decode_topology, decode_waitstats, AppPartial, SnapshotImage,
    WireError,
};
use opmr_events::frame::{try_frame, FrameBuf};
use opmr_events::wire::{Reader, Width};
use opmr_vmpi::{DuplexStream, ReadMode, Vmpi, VmpiError};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The report a subscribed client currently holds for one store shard.
pub struct ClientReport {
    /// Shard version this report corresponds to.
    pub version: u64,
    /// Decoded per-application reports.
    pub parts: Vec<AppPartial>,
    /// `encode_partials` bytes of the held report — byte-identical to the
    /// server's stored shard snapshot of the same version.
    pub encoded: SnapshotImage,
}

impl ClientReport {
    /// The report a full snapshot payload (a subscription opener or a
    /// resync) carries.
    pub fn from_snapshot(version: u64, payload: &[u8]) -> Result<ClientReport, WireError> {
        let parts = decode_partials(payload)?;
        let encoded = build_image(&parts);
        Ok(ClientReport {
            version,
            parts,
            encoded,
        })
    }

    /// Folds the delta payload of an update to `version`: applies it to
    /// the parts and patches the held bytes from what it changed. A delta
    /// that does not lead from the held version to `version` is refused
    /// untouched. A malformed one yields the typed error and may leave the
    /// parts half-applied under the old version number — the bytes are
    /// then re-encoded from them, so the two never disagree.
    pub fn apply_delta(&mut self, version: u64, payload: &[u8]) -> crate::Result<()> {
        let (from, to) = delta_versions(payload)?;
        if from != self.version || to != version {
            return Err(ServeError::ProtocolViolation {
                expected: "a delta extending the held shard version",
                got: format!("delta {from}->{to} against held version {}", self.version),
            });
        }
        match apply_delta_changes(&mut self.parts, payload) {
            Ok(changes) => patch_image(&mut self.encoded, &self.parts, &changes),
            Err(e) => {
                self.encoded = build_image(&self.parts);
                return Err(e.into());
            }
        }
        self.version = version;
        Ok(())
    }
}

/// One consumed subscription update.
#[derive(Debug, Clone, Copy)]
pub struct Update {
    /// Store shard this update advanced.
    pub shard: u16,
    /// Version the client now holds for that shard.
    pub version: u64,
    /// Server publication timestamp ([`crate::mono_ns`] clock).
    pub publish_ns: u64,
    /// Publication-to-consumption lag on the shared in-process clock.
    pub lag_ns: u64,
    /// This update was a full-snapshot resync after falling off the
    /// server's delta ring (the typed slow-consumer signal).
    pub resync: bool,
    /// This update arrived as an incremental delta.
    pub delta: bool,
    /// This update carried its shard's final version.
    pub shard_final: bool,
    /// Every shard has delivered its final version: the subscription is
    /// complete (aggregated client-side from the per-shard finals).
    pub finished: bool,
}

/// A connected serve-plane client.
pub struct ServeClient {
    stream: DuplexStream,
    fb: FrameBuf,
    next_req_id: u32,
    /// Subscription updates that arrived interleaved with query answers.
    pending: VecDeque<Response>,
    /// Held report per shard (shard 0 only before the first sharded run).
    reports: BTreeMap<u16, ClientReport>,
    /// Shard count announced by the first update; None until then.
    shards_total: Option<u16>,
    /// Shards whose final version has been folded.
    final_shards: BTreeSet<u16>,
    eof: bool,
}

impl ServeClient {
    /// Connects to the serving analyzer at world rank `server` (obtained
    /// from the Map pivot: `map.peers()[0]` on the client side) as the
    /// anonymous tenant.
    pub fn connect(v: &Vmpi, server: usize, cfg: &ServeConfig) -> crate::Result<ServeClient> {
        Self::connect_as(v, server, "", cfg)
    }

    /// Connects and announces a tenant name (normally the client
    /// partition's name); the server applies that tenant's quota to every
    /// later request on this connection.
    pub fn connect_as(
        v: &Vmpi,
        server: usize,
        tenant: &str,
        cfg: &ServeConfig,
    ) -> crate::Result<ServeClient> {
        let mut client = ServeClient {
            stream: DuplexStream::open(v, vec![server], cfg.stream, SERVE_STREAM_ID)?,
            fb: FrameBuf::new(),
            next_req_id: 1,
            pending: VecDeque::new(),
            reports: BTreeMap::new(),
            shards_total: None,
            final_shards: BTreeSet::new(),
            eof: false,
        };
        if !tenant.is_empty() {
            client.send(&Request::Hello {
                tenant: tenant.to_string(),
            })?;
        }
        Ok(client)
    }

    fn send(&mut self, req: &Request) -> crate::Result<()> {
        self.stream.write(&try_frame(&req.encode())?)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Reads one block into the frame buffer, spinning past `EAGAIN`.
    /// Returns false at end of stream.
    fn fill(&mut self) -> crate::Result<bool> {
        loop {
            match self.stream.read(ReadMode::NonBlocking) {
                Ok(Some(block)) => {
                    self.fb.push(&block.data);
                    return Ok(true);
                }
                Ok(None) => {
                    self.eof = true;
                    return Ok(false);
                }
                Err(VmpiError::Again) => std::thread::yield_now(),
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn next_response(&mut self) -> crate::Result<Option<Response>> {
        loop {
            if let Some(payload) = self.fb.next_frame()? {
                return Ok(Some(Response::decode(&payload)?));
            }
            if self.eof || !self.fill()? {
                return Ok(None);
            }
        }
    }

    /// Waits for the answer to `req_id`, queueing any subscription updates
    /// that arrive in between. A quota refusal of *this* request returns
    /// the typed error; a subscription rejection (req id 0) is queued for
    /// [`ServeClient::next_update`] to surface.
    fn recv_matching(&mut self, req_id: u32) -> crate::Result<Response> {
        loop {
            let Some(rsp) = self.next_response()? else {
                return Err(ServeError::ProtocolViolation {
                    expected: "an answer to the pending request",
                    got: "stream closed".into(),
                });
            };
            match rsp {
                Response::Snapshot { .. } | Response::Delta { .. } => self.pending.push_back(rsp),
                Response::QuotaExceeded { req_id: id, kind } => {
                    if id == req_id {
                        return Err(ServeError::QuotaExceeded(kind));
                    }
                    if id == 0 {
                        self.pending
                            .push_back(Response::QuotaExceeded { req_id: 0, kind });
                    }
                }
                Response::QueryResult { req_id: id, .. }
                | Response::NotFound { req_id: id, .. }
                | Response::VersionInfo { req_id: id, .. } => {
                    if id == req_id {
                        return Ok(rsp);
                    }
                }
            }
        }
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_req_id;
        self.next_req_id = self.next_req_id.wrapping_add(1).max(1);
        id
    }

    /// What versions does the server currently hold? With a sharded store
    /// the answer aggregates: max current, min non-empty oldest, total
    /// apps, all-shards finished.
    pub fn version_info(&mut self) -> crate::Result<VersionInfo> {
        let req_id = self.fresh_id();
        self.send(&Request::VersionInfo { req_id })?;
        match self.recv_matching(req_id)? {
            Response::VersionInfo {
                current,
                oldest,
                apps,
                finished,
                ..
            } => Ok(VersionInfo {
                current,
                oldest,
                apps,
                finished,
            }),
            Response::NotFound { reason, .. } => Err(ServeError::NotFound(reason)),
            rsp => Err(ServeError::ProtocolViolation {
                expected: "a version info answer",
                got: rsp.kind_name().into(),
            }),
        }
    }

    /// Polls [`ServeClient::version_info`] until the server published at
    /// least `min` versions (or finished).
    pub fn wait_version(&mut self, min: u64) -> crate::Result<VersionInfo> {
        loop {
            let info = self.version_info()?;
            if info.current >= min || info.finished {
                return Ok(info);
            }
            std::thread::yield_now();
        }
    }

    fn query_raw(
        &mut self,
        kind: QueryKind,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    ) -> crate::Result<(u64, Bytes)> {
        let req_id = self.fresh_id();
        self.send(&Request::Query {
            req_id,
            kind,
            app_id,
            version,
            rank_lo,
            rank_hi,
        })?;
        match self.recv_matching(req_id)? {
            Response::QueryResult {
                version, payload, ..
            } => Ok((version, payload)),
            Response::NotFound { reason, .. } => Err(ServeError::NotFound(reason)),
            rsp => Err(ServeError::ProtocolViolation {
                expected: "a query result",
                got: rsp.kind_name().into(),
            }),
        }
    }

    /// The rank-filtered MPI profile of `app_id` at `version` (0 =
    /// current). Returns the answering version alongside.
    pub fn query_profile(
        &mut self,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    ) -> crate::Result<(u64, MpiProfile)> {
        let (v, payload) = self.query_raw(QueryKind::Profile, app_id, version, rank_lo, rank_hi)?;
        Ok((v, decode_profile(&mut Reader::new(&payload))?))
    }

    /// The source-rank-filtered communication topology.
    pub fn query_topology(
        &mut self,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    ) -> crate::Result<(u64, Topology)> {
        let (v, payload) =
            self.query_raw(QueryKind::Topology, app_id, version, rank_lo, rank_hi)?;
        Ok((v, decode_topology(&mut Reader::new(&payload))?))
    }

    /// The rank-filtered wait-state report, when the analyzer ran the
    /// wait-state KS.
    pub fn query_waitstate(
        &mut self,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    ) -> crate::Result<(u64, Option<WaitStats>)> {
        let (v, payload) =
            self.query_raw(QueryKind::Waitstate, app_id, version, rank_lo, rank_hi)?;
        let mut r = Reader::new(&payload);
        match r.u8()? {
            0 => Ok((v, None)),
            _ => Ok((v, Some(decode_waitstats(&mut r)?))),
        }
    }

    /// The rank-filtered time-resolved metrics series, when the analyzer
    /// ran the metrics KS.
    pub fn query_metrics(
        &mut self,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    ) -> crate::Result<(u64, Option<opmr_metrics::MetricsSeries>)> {
        let (v, payload) = self.query_raw(QueryKind::Metrics, app_id, version, rank_lo, rank_hi)?;
        let mut r = Reader::new(&payload);
        match r.u8()? {
            0 => Ok((v, None)),
            _ => Ok((v, Some(opmr_metrics::MetricsSeries::decode(&mut r)?))),
        }
    }

    /// Per-rank event counts over the rank range: `(version, first rank,
    /// counts)`.
    pub fn query_density(
        &mut self,
        app_id: u16,
        version: u64,
        rank_lo: u32,
        rank_hi: u32,
    ) -> crate::Result<(u64, u32, Vec<u64>)> {
        let (v, payload) = self.query_raw(QueryKind::Density, app_id, version, rank_lo, rank_hi)?;
        let mut r = Reader::new(&payload);
        let lo = r.u32()?;
        let n = r.count(Width::U32, 8)?;
        let counts = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
        Ok((v, lo, counts))
    }

    /// Starts the snapshot-then-deltas subscription (one chain per
    /// shard); consume it with [`ServeClient::next_update`].
    pub fn subscribe(&mut self) -> crate::Result<()> {
        self.send(&Request::Subscribe)
    }

    /// Blocks until the next subscription update, folds it into the held
    /// per-shard report and acknowledges it (returning a flow-control
    /// credit). `None` once the server closed the stream; a typed
    /// [`ServeError::QuotaExceeded`] if the subscription was refused.
    pub fn next_update(&mut self) -> crate::Result<Option<Update>> {
        let rsp = match self.pending.pop_front() {
            Some(r) => r,
            None => loop {
                match self.next_response()? {
                    None => return Ok(None),
                    Some(r @ (Response::Snapshot { .. } | Response::Delta { .. })) => break r,
                    Some(Response::QuotaExceeded { req_id: 0, kind }) => {
                        return Err(ServeError::QuotaExceeded(kind));
                    }
                    Some(_) => {} // stale answer to an abandoned query
                }
            },
        };
        let update = self.fold(rsp)?;
        self.send(&Request::Ack {
            shard: update.shard,
            version: update.version,
        })?;
        Ok(Some(update))
    }

    /// True once every announced shard folded its final version.
    fn all_final(&self) -> bool {
        self.shards_total
            .is_some_and(|n| self.final_shards.len() >= n as usize)
    }

    fn fold(&mut self, rsp: Response) -> crate::Result<Update> {
        match rsp {
            Response::Snapshot {
                shard,
                shards,
                version,
                publish_ns,
                resync,
                finished,
                payload,
            } => {
                let report = ClientReport::from_snapshot(version, &payload)?;
                self.shards_total.get_or_insert(shards.max(1));
                self.reports.insert(shard, report);
                if finished {
                    self.final_shards.insert(shard);
                }
                Ok(Update {
                    shard,
                    version,
                    publish_ns,
                    lag_ns: mono_ns().saturating_sub(publish_ns),
                    resync,
                    delta: false,
                    shard_final: finished,
                    finished: self.all_final(),
                })
            }
            Response::Delta {
                shard,
                shards,
                version,
                publish_ns,
                finished,
                payload,
            } => {
                self.shards_total.get_or_insert(shards.max(1));
                let report =
                    self.reports
                        .get_mut(&shard)
                        .ok_or_else(|| ServeError::ProtocolViolation {
                            expected: "a shard snapshot before its first delta",
                            got: format!("delta for shard {shard} with no held report"),
                        })?;
                report.apply_delta(version, &payload)?;
                if finished {
                    self.final_shards.insert(shard);
                }
                Ok(Update {
                    shard,
                    version,
                    publish_ns,
                    lag_ns: mono_ns().saturating_sub(publish_ns),
                    resync: false,
                    delta: true,
                    shard_final: finished,
                    finished: self.all_final(),
                })
            }
            Response::QuotaExceeded { kind, .. } => Err(ServeError::QuotaExceeded(kind)),
            rsp => Err(ServeError::ProtocolViolation {
                expected: "a subscription update",
                got: rsp.kind_name().into(),
            }),
        }
    }

    /// Shard 0's held report — the whole report under a single-shard
    /// store (the pre-sharding callers' view).
    pub fn report(&self) -> Option<&ClientReport> {
        self.reports.get(&0)
    }

    /// The held report of one shard.
    pub fn shard_report(&self, shard: u16) -> Option<&ClientReport> {
        self.reports.get(&shard)
    }

    /// All held per-shard reports, in shard order.
    pub fn reports(&self) -> impl Iterator<Item = (u16, &ClientReport)> {
        self.reports.iter().map(|(&s, r)| (s, r))
    }

    /// Orderly goodbye: tells the server, then closes our direction and
    /// drains the server's.
    pub fn close(mut self) -> crate::Result<()> {
        if !self.eof {
            // A lost server is an acceptable way to end a session; the
            // goodbye is best-effort.
            let _ = self.send(&Request::Bye);
        }
        self.stream.close()?;
        Ok(())
    }
}

/// Convenience for tests and examples: queries keep working after the run
/// finished, so "not found" answers stay typed rather than fatal.
pub fn is_not_found(e: &ServeError, reason: NotFoundReason) -> bool {
    matches!(e, ServeError::NotFound(r) if *r == reason)
}
