//! The serving loop run by each analyzer rank under `Coupling::Serving`.
//!
//! One loop multiplexes, with non-blocking (`EAGAIN`-aware) reads
//! throughout:
//!
//! * the instrumentation streams mapped onto this rank, drained into the
//!   shared blackboard engine exactly as under direct coupling;
//! * one duplex serve stream per mapped client, carrying framed
//!   [`Request`]s in and [`Response`]s out, with per-tenant admission
//!   control ([`crate::quota`]) at the request boundary.
//!
//! Every serving rank delivers to its own subscribers straight from the
//! shared [`ShardedStore`]: the serve plane is single-process by
//! construction (serving ranks and clients all live on process 0), so the
//! store is the distribution medium. A delta goes out as the bytes the
//! store framed once per `(shard, version)`
//! ([`SnapshotEntry::framed_delta`]); only openers and resyncs are framed
//! per subscriber.
//!
//! Subscriptions use credit-based flow control: each subscriber starts
//! with `ServeConfig::subscriber_credits` credits, every update costs
//! one, every ack returns one. A stalled consumer therefore costs the
//! server *nothing* — no queue grows on its behalf; the store's ring
//! advances and when the consumer acks again it either continues down
//! the retained delta chain or, having fallen off the ring, receives a
//! typed snapshot **resync** (counted in [`ServeStats::resyncs`]). With a
//! sharded store every subscription runs one such chain *per shard*.

use crate::proto::{NotFoundReason, QueryKind, Request, Response, SERVE_STREAM_ID};
use crate::quota::TenantBook;
use crate::store::{ShardedStore, SnapshotEntry};
use crate::{ServeConfig, ServeError};
use bytes::{BufMut, Bytes, BytesMut};
use opmr_analysis::profiler::MpiProfile;
use opmr_analysis::topology::Topology;
use opmr_analysis::waitstate::WaitStats;
use opmr_analysis::wire::{encode_profile, encode_topology, encode_waitstats};
use opmr_analysis::AnalysisEngine;
use opmr_events::frame::{try_frame, FrameBuf};
use opmr_vmpi::{DuplexStream, ReadMode, ReadStream, StreamConfig, Vmpi, VmpiError};
use std::sync::Arc;

// Serving-loop metrics: per-subscriber credit level at each scheduling
// slice, publish-to-deliver lag of every update, and the counters mirrored
// from [`ServeStats`] that the self-monitor streams back into the engine.
mod obs {
    use opmr_obs::{registry, Counter, Histogram};
    use std::sync::{Arc, OnceLock};

    pub(super) struct ServeMetrics {
        pub queries: Arc<Counter>,
        pub deltas_sent: Arc<Counter>,
        pub snapshots_sent: Arc<Counter>,
        pub resyncs: Arc<Counter>,
        pub quota_rejections: Arc<Counter>,
        pub quota_throttles: Arc<Counter>,
        pub credits: Arc<Histogram>,
        pub deliver_lag: Arc<Histogram>,
    }

    pub(super) fn m() -> &'static ServeMetrics {
        static M: OnceLock<ServeMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            ServeMetrics {
                queries: r.counter("serve_queries_total"),
                deltas_sent: r.counter("serve_deltas_sent_total"),
                snapshots_sent: r.counter("serve_snapshots_sent_total"),
                resyncs: r.counter("serve_resyncs_total"),
                quota_rejections: r.counter("serve_quota_rejections_total"),
                quota_throttles: r.counter("serve_quota_throttles_total"),
                credits: r.histogram("serve_subscriber_credits"),
                deliver_lag: r.histogram("serve_publish_to_deliver_lag_ns"),
            }
        })
    }
}

/// Per-rank serving counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Clients mapped onto this rank.
    pub clients: u64,
    /// Point queries answered (including not-found answers).
    pub queries: u64,
    /// Subscriptions opened.
    pub subscribes: u64,
    /// Full snapshots sent (subscription openers and resyncs).
    pub snapshots_sent: u64,
    /// Incremental deltas sent.
    pub deltas_sent: u64,
    /// Slow-consumer degradations: a subscriber fell off the delta ring
    /// and was resynced with a full snapshot instead of a backlog.
    pub resyncs: u64,
    /// Flow-control acks received.
    pub acks: u64,
    /// Requests that failed to parse.
    pub bad_requests: u64,
    /// Clients whose stream died without a goodbye.
    pub clients_lost: u64,
    /// Requests refused under a tenant quota (typed on the wire).
    pub quota_rejections: u64,
    /// Subscription updates delayed by a tenant's delta-byte budget.
    pub quota_throttles: u64,
}

struct Subscription {
    /// Last version this subscriber holds per shard (0 = nothing sent).
    synced_to: Vec<u64>,
    credits: u32,
}

struct ClientConn {
    stream: Option<DuplexStream>,
    fb: FrameBuf,
    /// Tenant name from the client's `Hello` ("" until/unless one arrives).
    tenant: String,
    sub: Option<Subscription>,
    /// Consecutive scheduling slices with no traffic either way; drives
    /// the server-side keepalive (see [`pump_client`]).
    idle: u32,
    done: bool,
}

impl ClientConn {
    /// Closes our direction and drains the client's (it closes right
    /// after its goodbye, so this does not block meaningfully). Releases
    /// the tenant's subscription slot.
    fn finish(&mut self, book: &mut TenantBook, stats: &mut ServeStats, lost: bool) {
        if self.sub.take().is_some() {
            book.state(&self.tenant).release_subscription();
        }
        if let Some(stream) = self.stream.take() {
            if stream.close().is_err() || lost {
                stats.clients_lost += 1;
            }
        }
        self.done = true;
    }
}

/// Bounds how many blocks each source is drained per loop iteration, so
/// one chatty stream cannot starve the others.
const DRAIN_BURST: usize = 64;

/// Consecutive idle scheduling slices before the server sends a
/// [`Response::Ping`] keepalive to a connected client. The serve protocol
/// is ping-pong under credit flow control, so when the one outstanding
/// message on an edge is held back by a transport-fault reorder (flushed
/// only by the *next* message on that edge), neither side would ever send
/// again; the keepalive is small enough to pass the fault layer unfaulted
/// and flushes the hold.
const KEEPALIVE_IDLE: u32 = 8192;

/// Runs one analyzer rank's serving loop until every instrumentation
/// stream closed, the final snapshot is published and every client said
/// goodbye.
pub fn run_server(
    v: &Vmpi,
    engine: &AnalysisEngine,
    store: &ShardedStore,
    app_peers: &[usize],
    client_peers: &[usize],
    app_stream: StreamConfig,
    cfg: &ServeConfig,
) -> Result<ServeStats, ServeError> {
    let mut stats = ServeStats {
        clients: client_peers.len() as u64,
        ..ServeStats::default()
    };
    let mut book = TenantBook::new(cfg.quota, cfg.tenant_quotas.clone());
    let mut app_rx = if app_peers.is_empty() {
        None
    } else {
        Some(ReadStream::open_from(v, app_peers.to_vec(), app_stream, 0)?)
    };
    let mut clients: Vec<ClientConn> = client_peers
        .iter()
        .map(|&world| {
            Ok(ClientConn {
                stream: Some(DuplexStream::open(
                    v,
                    vec![world],
                    cfg.stream,
                    SERVE_STREAM_ID,
                )?),
                fb: FrameBuf::new(),
                tenant: String::new(),
                sub: None,
                idle: 0,
                done: false,
            })
        })
        .collect::<Result<_, VmpiError>>()?;

    let mut writer_done_reported = false;
    loop {
        let mut progressed = false;

        // 1. Instrumentation plane: drain into the engine.
        if let Some(rx) = app_rx.as_mut() {
            for _ in 0..DRAIN_BURST {
                match rx.read(ReadMode::NonBlocking) {
                    Ok(Some(block)) => {
                        engine.post_block(block.data);
                        progressed = true;
                    }
                    Ok(None) => {
                        app_rx = None;
                        progressed = true;
                        break;
                    }
                    Err(VmpiError::Again) => break,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        if app_rx.is_none() && !writer_done_reported {
            writer_done_reported = true;
            if store.mark_writer_done() {
                // Last serving rank: all streams everywhere are closed, so
                // no more posts are coming — drain to quiescence and
                // publish the final version (always a fresh version, so
                // caught-up subscribers still learn the run is over).
                engine.blackboard().drain();
                store.publish_final(engine.snapshot_partials())?;
            }
            progressed = true;
        }

        // 2. Serve plane: requests in, responses + subscription pumps out.
        for client in clients.iter_mut().filter(|c| !c.done) {
            match pump_client(client, store, &mut book, cfg, &mut stats) {
                Ok(p) => progressed |= p,
                Err(ServeError::Vmpi(VmpiError::PeerLost { .. })) => {
                    client.finish(&mut book, &mut stats, true);
                    progressed = true;
                }
                Err(e) => return Err(e),
            }
        }

        if app_rx.is_none() && writer_done_reported && clients.iter().all(|c| c.done) {
            break;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    Ok(stats)
}

/// What the subscription pump decided to send for one shard step.
enum ShardUpdate {
    /// A store-retained delta and its frame, built once per version.
    Delta(Arc<SnapshotEntry>, Bytes),
    /// A full per-shard snapshot: the opener, or a resync when `bool`.
    Snapshot(Arc<SnapshotEntry>, bool),
    /// The subscriber already holds the shard's current version.
    Wait,
}

/// Picks the next update for shard `s` of one subscriber: the next
/// version's pre-framed delta from the store's chain, degrading to a
/// snapshot resync when that version left the ring or carries no delta.
fn next_shard_update(store: &ShardedStore, s: usize, synced_to: u64) -> ShardUpdate {
    let shard = store.shard(s);
    let Some(cur) = shard.current() else {
        return ShardUpdate::Wait;
    };
    if synced_to >= cur.version {
        return ShardUpdate::Wait;
    }
    if synced_to == 0 {
        return ShardUpdate::Snapshot(cur, false);
    }
    let next = shard.get(synced_to + 1);
    match next.and_then(|e| e.framed_delta().map(|framed| (e, framed))) {
        Some((e, framed)) => ShardUpdate::Delta(e, framed),
        // The chain left the ring, or no delta expresses the step: full
        // snapshot (a *resync* because the subscriber had state).
        None => ShardUpdate::Snapshot(cur, true),
    }
}

/// One scheduling slice for one client: read requests, answer them under
/// the tenant's quota, pump the subscription's per-shard chains within
/// its credit budget. Returns whether anything happened.
fn pump_client(
    client: &mut ClientConn,
    store: &ShardedStore,
    book: &mut TenantBook,
    cfg: &ServeConfig,
    stats: &mut ServeStats,
) -> Result<bool, ServeError> {
    let n_shards = store.shards();
    let mut progressed = false;
    let mut bye = false;
    let mut lost = false;
    {
        let Some(stream) = client.stream.as_mut() else {
            return Ok(false);
        };
        let mut eof = false;
        for _ in 0..DRAIN_BURST {
            match stream.read(ReadMode::NonBlocking) {
                Ok(Some(block)) => {
                    client.fb.push(&block.data);
                    progressed = true;
                }
                Ok(None) => {
                    eof = true;
                    break;
                }
                Err(VmpiError::Again) => break,
                Err(e) => return Err(e.into()),
            }
        }

        let mut wrote = false;
        loop {
            let payload = match client.fb.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => {
                    // Corrupt framing: nothing later in this client's byte
                    // stream can be trusted, so drop the connection.
                    stats.bad_requests += 1;
                    lost = true;
                    bye = true;
                    break;
                }
            };
            progressed = true;
            match Request::decode(&payload) {
                Ok(Request::Bye) => {
                    bye = true;
                    break;
                }
                Ok(Request::Hello { tenant }) => {
                    client.tenant = tenant;
                }
                Ok(Request::Subscribe) => {
                    if client.sub.take().is_some() {
                        // Re-subscribe replaces the old chain (and slot).
                        book.state(&client.tenant).release_subscription();
                    }
                    match book.state(&client.tenant).try_subscribe() {
                        Ok(()) => {
                            stats.subscribes += 1;
                            client.sub = Some(Subscription {
                                synced_to: vec![0; n_shards],
                                credits: cfg.subscriber_credits.max(1),
                            });
                        }
                        Err(kind) => {
                            // Subscriptions have no request id: req_id 0.
                            stats.quota_rejections += 1;
                            obs::m().quota_rejections.inc();
                            send(stream, &Response::QuotaExceeded { req_id: 0, kind })?;
                            wrote = true;
                        }
                    }
                }
                Ok(Request::Ack { .. }) => {
                    stats.acks += 1;
                    if let Some(sub) = client.sub.as_mut() {
                        sub.credits = (sub.credits + 1).min(cfg.subscriber_credits.max(1));
                    }
                }
                Ok(Request::Ping) => {
                    // Client keepalive: its delivery already flushed any
                    // reorder-held envelope on the client→server edge.
                    // Answer with a pong so the server→client edge gets
                    // flushed too — that is where a held subscription
                    // update sits when the client starves under one
                    // credit.
                    send(stream, &Response::Ping)?;
                    wrote = true;
                }
                Ok(Request::VersionInfo { req_id }) => {
                    if let Err(kind) = book.state(&client.tenant).try_query(crate::mono_ns()) {
                        stats.quota_rejections += 1;
                        obs::m().quota_rejections.inc();
                        send(stream, &Response::QuotaExceeded { req_id, kind })?;
                        wrote = true;
                        continue;
                    }
                    stats.queries += 1;
                    obs::m().queries.inc();
                    send(stream, &version_info(store, req_id))?;
                    wrote = true;
                }
                Ok(Request::Query {
                    req_id,
                    kind,
                    app_id,
                    version,
                    rank_lo,
                    rank_hi,
                }) => {
                    if let Err(kind) = book.state(&client.tenant).try_query(crate::mono_ns()) {
                        stats.quota_rejections += 1;
                        obs::m().quota_rejections.inc();
                        send(stream, &Response::QuotaExceeded { req_id, kind })?;
                        wrote = true;
                        continue;
                    }
                    stats.queries += 1;
                    obs::m().queries.inc();
                    send(
                        stream,
                        &answer_query(store, req_id, kind, app_id, version, rank_lo, rank_hi),
                    )?;
                    wrote = true;
                }
                Err(_) => {
                    stats.bad_requests += 1;
                    send(
                        stream,
                        &Response::NotFound {
                            req_id: 0,
                            reason: NotFoundReason::BadRequest,
                        },
                    )?;
                    wrote = true;
                }
            }
        }
        // Only an EOF *without* a parsed goodbye means the client vanished
        // (the goodbye frame and the close often land in the same burst).
        if eof && !bye {
            lost = true;
            bye = true;
        }

        // Subscription pump, gated on credits (slow-consumer policy) and
        // the tenant's delta-byte budget (throttle, never a rejection).
        if let Some(sub) = client.sub.as_mut() {
            obs::m().credits.record(sub.credits as u64);
            'shards: for s in 0..n_shards {
                while sub.credits > 0 && !bye {
                    let update = next_shard_update(store, s, sub.synced_to[s]);
                    let cost = match &update {
                        ShardUpdate::Delta(e, _) => e.delta.as_ref().map_or(0, Bytes::len),
                        ShardUpdate::Snapshot(e, _) => e.encoded.len(),
                        ShardUpdate::Wait => break,
                    };
                    if book
                        .state(&client.tenant)
                        .try_delta_bytes(cost as u64, crate::mono_ns())
                        .is_err()
                    {
                        stats.quota_throttles += 1;
                        obs::m().quota_throttles.inc();
                        break 'shards;
                    }
                    let now = crate::mono_ns();
                    match update {
                        ShardUpdate::Delta(entry, framed) => {
                            stats.deltas_sent += 1;
                            obs::m().deltas_sent.inc();
                            obs::m()
                                .deliver_lag
                                .record(now.saturating_sub(entry.publish_ns));
                            sub.synced_to[s] = entry.version;
                            // Framed once by the store: write verbatim.
                            stream.write(&framed)?;
                        }
                        ShardUpdate::Snapshot(entry, resync) => {
                            stats.snapshots_sent += 1;
                            obs::m().snapshots_sent.inc();
                            if resync {
                                stats.resyncs += 1;
                                obs::m().resyncs.inc();
                            }
                            obs::m()
                                .deliver_lag
                                .record(now.saturating_sub(entry.publish_ns));
                            sub.synced_to[s] = entry.version;
                            send(
                                stream,
                                &Response::Snapshot {
                                    shard: s as u16,
                                    shards: n_shards as u16,
                                    version: entry.version,
                                    publish_ns: entry.publish_ns,
                                    resync,
                                    finished: entry.is_final,
                                    payload: entry.encoded.clone(),
                                },
                            )?;
                        }
                        ShardUpdate::Wait => break,
                    }
                    sub.credits -= 1;
                    wrote = true;
                    progressed = true;
                }
            }
        }

        if progressed || wrote {
            client.idle = 0;
        } else {
            client.idle += 1;
            if client.idle >= KEEPALIVE_IDLE && !bye {
                client.idle = 0;
                send(stream, &Response::Ping)?;
                wrote = true;
            }
        }
        if wrote {
            stream.flush()?;
        }
    }
    if bye {
        client.finish(book, stats, lost);
        progressed = true;
    }
    Ok(progressed)
}

fn send(stream: &mut DuplexStream, rsp: &Response) -> Result<(), ServeError> {
    stream.write(&try_frame(&rsp.encode())?)?;
    Ok(())
}

/// Aggregates the store's per-shard version vector into one answer:
/// `current` is the max over shards, `oldest` the min over non-empty
/// shards, `apps` the total, `finished` only when every shard finished.
fn version_info(store: &ShardedStore, req_id: u32) -> Response {
    let mut current = 0u64;
    let mut oldest = 0u64;
    let mut apps = 0u16;
    for s in 0..store.shards() {
        let shard = store.shard(s);
        let (o, c) = shard.version_span();
        current = current.max(c);
        if o > 0 {
            oldest = if oldest == 0 { o } else { oldest.min(o) };
        }
        apps = apps.saturating_add(shard.current().map_or(0, |e| e.apps));
    }
    Response::VersionInfo {
        req_id,
        current,
        oldest,
        apps,
        finished: store.finished(),
    }
}

fn answer_query(
    store: &ShardedStore,
    req_id: u32,
    kind: QueryKind,
    app_id: u16,
    version: u64,
    rank_lo: u32,
    rank_hi: u32,
) -> Response {
    // Versions are per shard; the app id names the shard to look in.
    let shard = store.shard(store.shard_of_app(app_id));
    let not_found = |reason| Response::NotFound { req_id, reason };
    let entry = if version == 0 {
        match shard.current() {
            Some(e) => e,
            None => return not_found(NotFoundReason::NoSnapshot),
        }
    } else {
        match shard.get(version) {
            Some(e) => e,
            None => return not_found(NotFoundReason::VersionGone),
        }
    };
    let Some(app) = entry.parts.iter().find(|a| a.app_id == app_id) else {
        return not_found(NotFoundReason::UnknownApp);
    };
    let in_range = |rank: u32| rank >= rank_lo && rank < rank_hi;
    let mut payload = BytesMut::new();
    match kind {
        QueryKind::Profile => {
            encode_profile(&filter_profile(&app.profile, in_range), &mut payload);
        }
        QueryKind::Topology => {
            encode_topology(&filter_topology(&app.topology, in_range), &mut payload);
        }
        QueryKind::Waitstate => match app.waitstate.as_ref() {
            Some(w) => {
                payload.put_u8(1);
                encode_waitstats(&filter_waitstats(w, in_range), &mut payload);
            }
            None => payload.put_u8(0),
        },
        QueryKind::Metrics => match app.metrics.as_ref() {
            Some(m) => {
                payload.put_u8(1);
                m.filter_ranks(in_range).encode_into(&mut payload);
            }
            None => payload.put_u8(0),
        },
        QueryKind::Density => {
            let lo = rank_lo.min(app.profile.ranks());
            let hi = rank_hi.min(app.profile.ranks());
            payload.put_u32_le(lo);
            payload.put_u32_le(hi.saturating_sub(lo));
            for rank in lo..hi {
                let events: u64 = app
                    .profile
                    .kinds()
                    .iter()
                    .filter_map(|&k| app.profile.rank_kind(rank, k))
                    .map(|s| s.hits)
                    .sum();
                payload.put_u64_le(events);
            }
        }
    }
    Response::QueryResult {
        req_id,
        kind,
        version: entry.version,
        payload: payload.freeze(),
    }
}

fn filter_profile(p: &MpiProfile, in_range: impl Fn(u32) -> bool) -> MpiProfile {
    let mut out = MpiProfile::new();
    for kind in p.kinds() {
        for rank in (0..p.ranks()).filter(|&r| in_range(r)) {
            if let Some(s) = p.rank_kind(rank, kind) {
                out.absorb_stats(rank, kind, s.hits, s.time_ns, s.bytes, s.min_ns, s.max_ns);
            }
        }
    }
    out.absorb_span(p.span_ns());
    out
}

/// Keeps edges whose *source* rank is in range (the "what does this rank
/// slice send" view).
fn filter_topology(t: &Topology, in_range: impl Fn(u32) -> bool) -> Topology {
    let mut out = Topology::new();
    for ((s, d), w) in t.sorted_edges() {
        if in_range(s) {
            out.add_weighted(s, d, w.hits, w.bytes, w.time_ns);
        }
    }
    out
}

/// Keeps per-rank attributions whose rank is in range and dangling halves
/// touching the range; the scalar totals stay global.
fn filter_waitstats(w: &WaitStats, in_range: impl Fn(u32) -> bool) -> WaitStats {
    let keep = |m: &std::collections::HashMap<u32, u64>| {
        m.iter()
            .filter(|(&r, _)| in_range(r))
            .map(|(&r, &v)| (r, v))
            .collect()
    };
    WaitStats {
        matched: w.matched,
        unmatched: w.unmatched,
        total_late_sender_ns: w.total_late_sender_ns,
        total_late_receiver_ns: w.total_late_receiver_ns,
        late_sender_by_victim: keep(&w.late_sender_by_victim),
        late_sender_by_culprit: keep(&w.late_sender_by_culprit),
        late_receiver_by_victim: keep(&w.late_receiver_by_victim),
        pending_sends: w
            .pending_sends
            .iter()
            .filter(|&&(s, d, _)| in_range(s) || in_range(d))
            .copied()
            .collect(),
        pending_recvs: w
            .pending_recvs
            .iter()
            .filter(|&&(s, d, _)| in_range(s) || in_range(d))
            .copied()
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_analysis::wire::AppPartial;
    use opmr_events::wire::Reader;
    use opmr_events::EventKind;

    fn partials_with(app_id: u16, hits_per_rank: &[u64]) -> AppPartial {
        let mut profile = MpiProfile::new();
        let mut topology = Topology::new();
        for (rank, &hits) in hits_per_rank.iter().enumerate() {
            profile.absorb_stats(
                rank as u32,
                EventKind::Send,
                hits,
                hits * 5,
                hits * 64,
                5,
                5,
            );
            topology.add_weighted(
                rank as u32,
                ((rank + 1) % hits_per_rank.len()) as u32,
                hits,
                0,
                0,
            );
        }
        AppPartial {
            app_id,
            packs: 1,
            wire_bytes: 10,
            decode_errors: 0,
            profile,
            topology,
            waitstate: None,
            metrics: Some({
                let mut m = opmr_metrics::MetricsSeries::new(1000);
                for rank in 0..hits_per_rank.len() as u32 {
                    m.add(&opmr_events::Event::basic(
                        EventKind::Send,
                        rank,
                        rank as u64 * 100,
                        50,
                    ));
                }
                m
            }),
        }
    }

    fn store_with(hits_per_rank: &[u64]) -> ShardedStore {
        let store = ShardedStore::new(1, 4, 1);
        store
            .publish(vec![partials_with(2, hits_per_rank)])
            .unwrap();
        store
    }

    #[test]
    fn queries_filter_by_rank_range() {
        let store = store_with(&[10, 20, 30, 40]);
        let rsp = answer_query(&store, 1, QueryKind::Density, 2, 0, 1, 3);
        let Response::QueryResult { payload, .. } = rsp else {
            panic!("expected result");
        };
        let mut view: &[u8] = &payload;
        use bytes::Buf;
        assert_eq!(view.get_u32_le(), 1);
        assert_eq!(view.get_u32_le(), 2);
        assert_eq!(view.get_u64_le(), 20);
        assert_eq!(view.get_u64_le(), 30);

        let rsp = answer_query(
            &store,
            2,
            QueryKind::Profile,
            2,
            0,
            2,
            crate::proto::ALL_RANKS,
        );
        let Response::QueryResult { payload, .. } = rsp else {
            panic!("expected result");
        };
        let p = opmr_analysis::wire::decode_profile(&mut Reader::new(&payload)).unwrap();
        assert_eq!(p.events(), 70);
    }

    #[test]
    fn metrics_query_filters_by_rank_range() {
        let store = store_with(&[10, 20, 30, 40]);
        let rsp = answer_query(&store, 3, QueryKind::Metrics, 2, 0, 1, 3);
        let Response::QueryResult { payload, .. } = rsp else {
            panic!("expected result");
        };
        let mut view = Reader::new(&payload);
        assert_eq!(view.u8(), Ok(1), "series present");
        let m = opmr_metrics::MetricsSeries::decode(&mut view).unwrap();
        assert_eq!(m.window_ns(), 1000);
        let ranks: Vec<u32> = m.cells().map(|(_, r, _)| r).collect();
        assert_eq!(ranks, vec![1, 2], "only ranks in [1, 3) survive");
    }

    #[test]
    fn missing_things_are_typed() {
        let empty = ShardedStore::new(1, 2, 1);
        assert_eq!(
            answer_query(&empty, 1, QueryKind::Profile, 0, 0, 0, u32::MAX),
            Response::NotFound {
                req_id: 1,
                reason: NotFoundReason::NoSnapshot
            }
        );
        let store = store_with(&[1, 2]);
        assert_eq!(
            answer_query(&store, 2, QueryKind::Profile, 0, 0, 0, u32::MAX),
            Response::NotFound {
                req_id: 2,
                reason: NotFoundReason::UnknownApp
            }
        );
        assert_eq!(
            answer_query(&store, 3, QueryKind::Profile, 2, 99, 0, u32::MAX),
            Response::NotFound {
                req_id: 3,
                reason: NotFoundReason::VersionGone
            }
        );
    }

    #[test]
    fn queries_route_to_the_apps_shard() {
        // Apps 0 and 1 land in different shards with independent version
        // sequences; a query for app 1 must read shard 1's ring.
        let store = ShardedStore::new(2, 4, 1);
        store
            .publish(vec![
                partials_with(0, &[1, 1]),
                partials_with(1, &[10, 20, 30]),
            ])
            .unwrap();
        let rsp = answer_query(&store, 7, QueryKind::Density, 1, 0, 0, ALL_RANKS_TEST);
        let Response::QueryResult {
            version, payload, ..
        } = rsp
        else {
            panic!("expected result");
        };
        assert_eq!(version, 1);
        let mut view: &[u8] = &payload;
        use bytes::Buf;
        assert_eq!(view.get_u32_le(), 0);
        assert_eq!(view.get_u32_le(), 3);
        // An app the shard never held is typed as unknown, not a shard
        // routing error.
        assert_eq!(
            answer_query(&store, 8, QueryKind::Profile, 3, 0, 0, ALL_RANKS_TEST),
            Response::NotFound {
                req_id: 8,
                reason: NotFoundReason::UnknownApp
            }
        );
    }

    const ALL_RANKS_TEST: u32 = crate::proto::ALL_RANKS;

    #[test]
    fn version_info_aggregates_the_shard_vector() {
        let store = ShardedStore::new(2, 4, 1);
        store
            .publish(vec![partials_with(0, &[1]), partials_with(1, &[2])])
            .unwrap();
        // Advance only shard 1 (app 1 changes, app 0 is byte-identical).
        store
            .publish(vec![partials_with(0, &[1]), partials_with(1, &[3])])
            .unwrap();
        let Response::VersionInfo {
            current,
            oldest,
            apps,
            finished,
            ..
        } = version_info(&store, 9)
        else {
            panic!("expected version info");
        };
        assert_eq!(current, 2, "max over shards");
        assert_eq!(oldest, 1, "min over non-empty shards");
        assert_eq!(apps, 2, "total across shards");
        assert!(!finished);
    }

    #[test]
    fn a_versions_delta_is_framed_once_for_every_subscriber() {
        let store = ShardedStore::new(2, 8, 1);
        store
            .publish(vec![partials_with(0, &[1]), partials_with(1, &[1])])
            .unwrap();
        store
            .publish(vec![partials_with(0, &[1]), partials_with(1, &[2])])
            .unwrap();
        // Two subscribers holding shard 1 at version 1 are both handed
        // version 2's delta: the same allocation, not two encodes.
        let (ShardUpdate::Delta(entry, a), ShardUpdate::Delta(_, b)) = (
            next_shard_update(&store, 1, 1),
            next_shard_update(&store, 1, 1),
        ) else {
            panic!("expected two deltas");
        };
        assert_eq!(a.as_ptr(), b.as_ptr(), "framed bytes are shared");
        // They are exactly what a per-subscriber encode would have written.
        let want = Response::Delta {
            shard: 1,
            shards: 2,
            version: 2,
            publish_ns: entry.publish_ns,
            finished: false,
            payload: entry.delta.clone().unwrap(),
        };
        assert_eq!(a, try_frame(&want.encode()).unwrap());
    }

    #[test]
    fn store_chain_gaps_resync() {
        let store = ShardedStore::new(1, 2, 1);
        for i in 1..=6u64 {
            store.publish(vec![partials_with(0, &[i])]).unwrap();
        }
        // Synced to 4: version 5 is still in the ring -> its delta.
        assert!(matches!(
            next_shard_update(&store, 0, 4),
            ShardUpdate::Delta(e, _) if e.version == 5
        ));
        // Synced to 1: version 2 left the two-deep ring -> resync.
        assert!(matches!(
            next_shard_update(&store, 0, 1),
            ShardUpdate::Snapshot(e, true) if e.version == 6
        ));
        // A fresh subscriber opens with the current snapshot.
        assert!(matches!(
            next_shard_update(&store, 0, 0),
            ShardUpdate::Snapshot(e, false) if e.version == 6
        ));
        // Synced to current: nothing to send.
        assert!(matches!(next_shard_update(&store, 0, 6), ShardUpdate::Wait));
    }
}
