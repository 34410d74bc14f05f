//! Wait-state analysis: matching sends with receives to attribute blocking
//! time (the paper's Section VI future work — "we are working on a
//! wait-state analysis which will take advantage of a distributed
//! blackboard").
//!
//! Because *all* events of an application reach the analysis engine, the
//! classic Scalasca-style patterns can be detected online without a trace:
//!
//! * **Late sender** — a receive posted before its matching send started:
//!   the receiver's wait is attributable to the sender
//!   (`send.start − recv.start`);
//! * **Late receiver** — a (synchronous) send that had to wait for the
//!   receive to be posted (`recv.start − send.start` charged to the
//!   receiver side).
//!
//! Matching follows MPI ordering: per `(sender, receiver)` pair, the k-th
//! send matches the k-th receive (the generators use one tag per channel,
//! so tag-aware refinement is unnecessary; ANY_SOURCE receives carry their
//! matched source in the event record already), so
//! [`WaitStateAnalysis::add_pack`] feeds each rank's packs in its order.

use opmr_events::{Event, EventKind};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Packs a rank may hold while one before them is missing. Past this the
/// missing pack is taken as lost (dropped upstream, or undecodable) and
/// the held ones are fed in order.
const MAX_HELD: usize = 256;

/// One matched transfer with its wait attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedTransfer {
    pub src: u32,
    pub dst: u32,
    pub bytes: u64,
    /// Receiver-side blocking attributable to the sender, ns.
    pub late_sender_ns: u64,
    /// Sender-side blocking attributable to the receiver, ns.
    pub late_receiver_ns: u64,
}

/// Aggregated wait-state statistics.
///
/// Besides the aggregate counters, `finish` preserves the *dangling halves*
/// (sends with no receive seen, and vice versa). In distributed analysis the
/// two halves of one transfer are usually recorded by different writer ranks
/// and can land on different analyzer ranks; shipping the halves with the
/// partial lets the merge root complete those matches instead of counting
/// each half as unmatched.
#[derive(Debug, Clone, Default)]
pub struct WaitStats {
    /// Matched transfers.
    pub matched: u64,
    /// Sends still waiting for a receive (or vice versa) at `finish`.
    pub unmatched: u64,
    /// Dangling send halves at `finish`, `(src, dst, send)`, channel-sorted.
    pub pending_sends: Vec<(u32, u32, SendSide)>,
    /// Dangling receive halves at `finish`, `(src, dst, recv)`,
    /// channel-sorted.
    pub pending_recvs: Vec<(u32, u32, RecvSide)>,
    /// Per-rank late-sender wait suffered (receiver side), ns.
    pub late_sender_by_victim: HashMap<u32, u64>,
    /// Per-rank late-sender wait *caused* (sender side), ns.
    pub late_sender_by_culprit: HashMap<u32, u64>,
    /// Per-rank late-receiver wait suffered (sender side), ns.
    pub late_receiver_by_victim: HashMap<u32, u64>,
    /// Total late-sender time, ns.
    pub total_late_sender_ns: u64,
    /// Total late-receiver time, ns.
    pub total_late_receiver_ns: u64,
}

impl WaitStats {
    /// Per-rank late-sender victim map as a dense vector (density-map
    /// input).
    pub fn victim_map(&self, ranks: u32) -> Vec<f64> {
        (0..ranks)
            .map(|r| *self.late_sender_by_victim.get(&r).unwrap_or(&0) as f64)
            .collect()
    }

    /// Ranks sorted by caused late-sender time, worst first.
    pub fn worst_culprits(&self, top: usize) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .late_sender_by_culprit
            .iter()
            .map(|(&r, &t)| (r, t))
            .collect();
        v.sort_by_key(|&(r, t)| (std::cmp::Reverse(t), r));
        v.truncate(top);
        v
    }
}

/// The send half of a transfer awaiting its receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendSide {
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

/// The receive half of a transfer awaiting its send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvSide {
    pub start_ns: u64,
}

/// One rank's place in its pack sequence.
#[derive(Debug, Clone, Default)]
struct RankOrder {
    /// The sequence number of the next pack to feed.
    next: u32,
    /// Packs that arrived ahead of `next`, by sequence number.
    held: BTreeMap<u32, Vec<Event>>,
}

/// Online send/receive matcher.
#[derive(Debug, Clone, Default)]
pub struct WaitStateAnalysis {
    /// Pending sends per (src, dst) channel.
    sends: HashMap<(u32, u32), VecDeque<SendSide>>,
    /// Pending receives per (src, dst) channel.
    recvs: HashMap<(u32, u32), VecDeque<RecvSide>>,
    /// Per-rank pack order for [`WaitStateAnalysis::add_pack`].
    order: BTreeMap<u32, RankOrder>,
    pub stats: WaitStats,
}

impl WaitStateAnalysis {
    pub fn new() -> WaitStateAnalysis {
        WaitStateAnalysis::default()
    }

    /// Feeds one event; returns the matched transfer when it completes one.
    ///
    /// `Sendrecv` decomposes into its send and receive halves, so stencil
    /// codes written with `MPI_Sendrecv` are analyzed too (the send-side
    /// match is returned when both halves complete one).
    pub fn add(&mut self, e: &Event) -> Option<MatchedTransfer> {
        if e.peer < 0 {
            return None;
        }
        match e.kind {
            EventKind::Send | EventKind::Isend => self.feed_send(
                e.rank,
                e.peer as u32,
                SendSide {
                    start_ns: e.time_ns,
                    end_ns: e.end_ns(),
                    bytes: e.bytes,
                },
            ),
            EventKind::Recv => self.feed_recv(
                e.peer as u32,
                e.rank,
                RecvSide {
                    start_ns: e.time_ns,
                },
            ),
            EventKind::Sendrecv => {
                let send_half = self.feed_send(
                    e.rank,
                    e.peer as u32,
                    SendSide {
                        start_ns: e.time_ns,
                        end_ns: e.end_ns(),
                        // The event's byte count covers both directions.
                        bytes: e.bytes / 2,
                    },
                );
                let recv_half = self.feed_recv(
                    e.peer as u32,
                    e.rank,
                    RecvSide {
                        start_ns: e.time_ns,
                    },
                );
                send_half.or(recv_half)
            }
            _ => None,
        }
    }

    /// Feeds the `seq`-th pack (counting from 0) `rank` recorded. A pack
    /// that overtook an earlier one of its rank (the engine folds on
    /// several workers) is held until the earlier ones are fed; `finish`
    /// feeds what a missing pack left held. The result is the same for
    /// every arrival order that overtakes no pack by more than `MAX_HELD`
    /// (256) of its rank's.
    pub fn add_pack(&mut self, rank: u32, seq: u32, events: &[Event]) {
        let mut order = self.order.remove(&rank).unwrap_or_default();
        if seq > order.next {
            order.held.insert(seq, events.to_vec());
            if order.held.len() > MAX_HELD {
                self.feed_held(&mut order);
            }
        } else {
            // A pack behind `next` (its gap was given up on) goes in as is.
            if seq == order.next {
                order.next += 1;
            }
            self.add_all(events);
            while let Some(events) = order.held.remove(&order.next) {
                order.next += 1;
                self.add_all(&events);
            }
        }
        self.order.insert(rank, order);
    }

    fn add_all(&mut self, events: &[Event]) {
        for e in events {
            self.add(e);
        }
    }

    /// Feeds every held pack of one rank in sequence order and moves the
    /// rank past the last of them.
    fn feed_held(&mut self, order: &mut RankOrder) {
        for (seq, events) in std::mem::take(&mut order.held) {
            order.next = seq + 1;
            self.add_all(&events);
        }
    }

    fn feed_send(&mut self, src: u32, dst: u32, send: SendSide) -> Option<MatchedTransfer> {
        let key = (src, dst);
        if let Some(recv) = self.recvs.get_mut(&key).and_then(|q| q.pop_front()) {
            Some(self.matched(key, send, recv))
        } else {
            self.sends.entry(key).or_default().push_back(send);
            None
        }
    }

    fn feed_recv(&mut self, src: u32, dst: u32, recv: RecvSide) -> Option<MatchedTransfer> {
        let key = (src, dst);
        if let Some(send) = self.sends.get_mut(&key).and_then(|q| q.pop_front()) {
            Some(self.matched(key, send, recv))
        } else {
            self.recvs.entry(key).or_default().push_back(recv);
            None
        }
    }

    fn matched(&mut self, key: (u32, u32), send: SendSide, recv: RecvSide) -> MatchedTransfer {
        let (src, dst) = key;
        let late_sender_ns = send.start_ns.saturating_sub(recv.start_ns);
        let late_receiver_ns = recv.start_ns.saturating_sub(send.end_ns);
        self.stats.matched += 1;
        if late_sender_ns > 0 {
            *self.stats.late_sender_by_victim.entry(dst).or_default() += late_sender_ns;
            *self.stats.late_sender_by_culprit.entry(src).or_default() += late_sender_ns;
            self.stats.total_late_sender_ns += late_sender_ns;
        }
        if late_receiver_ns > 0 {
            *self.stats.late_receiver_by_victim.entry(src).or_default() += late_receiver_ns;
            self.stats.total_late_receiver_ns += late_receiver_ns;
        }
        MatchedTransfer {
            src,
            dst,
            bytes: send.bytes,
            late_sender_ns,
            late_receiver_ns,
        }
    }

    /// Rebuilds a matcher from previously finished stats: counters are
    /// restored and the pending halves go back into the channel queues, so
    /// further halves (from another analyzer's partial) can still match.
    pub fn from_stats(stats: &WaitStats) -> WaitStateAnalysis {
        let mut ws = WaitStateAnalysis {
            stats: stats.clone(),
            ..WaitStateAnalysis::default()
        };
        ws.stats.pending_sends.clear();
        ws.stats.pending_recvs.clear();
        for &(src, dst, send) in &stats.pending_sends {
            ws.sends.entry((src, dst)).or_default().push_back(send);
        }
        for &(src, dst, recv) in &stats.pending_recvs {
            ws.recvs.entry((src, dst)).or_default().push_back(recv);
        }
        ws
    }

    /// Merges another analyzer's finished stats into this matcher: aggregate
    /// counters add up, and the other side's dangling halves are re-fed so
    /// transfers whose halves were split across analyzers complete here.
    /// Per-channel FIFO order is preserved because every channel's events are
    /// recorded by a single writer and drained in order.
    pub fn absorb(&mut self, other: &WaitStats) {
        self.stats.matched += other.matched;
        self.stats.total_late_sender_ns += other.total_late_sender_ns;
        self.stats.total_late_receiver_ns += other.total_late_receiver_ns;
        for (&k, &v) in &other.late_sender_by_victim {
            *self.stats.late_sender_by_victim.entry(k).or_default() += v;
        }
        for (&k, &v) in &other.late_sender_by_culprit {
            *self.stats.late_sender_by_culprit.entry(k).or_default() += v;
        }
        for (&k, &v) in &other.late_receiver_by_victim {
            *self.stats.late_receiver_by_victim.entry(k).or_default() += v;
        }
        for &(src, dst, send) in &other.pending_sends {
            self.feed_send(src, dst, send);
        }
        for &(src, dst, recv) in &other.pending_recvs {
            self.feed_recv(src, dst, recv);
        }
    }

    /// Closes the analysis: feeds the packs still held behind a missing
    /// one (rank by rank, in sequence order), then drains the dangling
    /// halves into the stats (channel-sorted, so the encoding is
    /// deterministic) and counts them.
    pub fn finish(&mut self) -> &WaitStats {
        for (rank, mut order) in std::mem::take(&mut self.order) {
            self.feed_held(&mut order);
            self.order.insert(rank, order);
        }
        let mut pending_sends: Vec<(u32, u32, SendSide)> = Vec::new();
        let mut send_keys: Vec<(u32, u32)> = self.sends.keys().copied().collect();
        send_keys.sort_unstable();
        for key in send_keys {
            if let Some(q) = self.sends.remove(&key) {
                pending_sends.extend(q.into_iter().map(|s| (key.0, key.1, s)));
            }
        }
        let mut pending_recvs: Vec<(u32, u32, RecvSide)> = Vec::new();
        let mut recv_keys: Vec<(u32, u32)> = self.recvs.keys().copied().collect();
        recv_keys.sort_unstable();
        for key in recv_keys {
            if let Some(q) = self.recvs.remove(&key) {
                pending_recvs.extend(q.into_iter().map(|r| (key.0, key.1, r)));
            }
        }
        self.stats.unmatched = (pending_sends.len() + pending_recvs.len()) as u64;
        self.stats.pending_sends = pending_sends;
        self.stats.pending_recvs = pending_recvs;
        &self.stats
    }

    /// Stats as if the analysis finished now, without disturbing the live
    /// matcher: the dangling halves stay queued for future matches, the
    /// returned copy carries them drained and channel-sorted (so encoding a
    /// snapshot is as deterministic as encoding a finished analysis).
    pub fn snapshot_stats(&self) -> WaitStats {
        let mut copy = self.clone();
        copy.finish().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(rank: u32, peer: u32, t: u64, d: u64) -> Event {
        Event {
            time_ns: t,
            duration_ns: d,
            kind: EventKind::Send,
            rank,
            peer: peer as i32,
            tag: 0,
            comm: 0,
            bytes: 100,
        }
    }

    fn recv(rank: u32, peer: u32, t: u64, d: u64) -> Event {
        Event {
            kind: EventKind::Recv,
            ..send(rank, peer, t, d)
        }
    }

    #[test]
    fn late_sender_detected() {
        let mut ws = WaitStateAnalysis::new();
        // Receiver posts at t=100, sender only starts at t=400.
        assert!(ws.add(&recv(1, 0, 100, 350)).is_none());
        let m = ws.add(&send(0, 1, 400, 50)).unwrap();
        assert_eq!(m.late_sender_ns, 300);
        assert_eq!(m.late_receiver_ns, 0);
        assert_eq!(ws.stats.total_late_sender_ns, 300);
        assert_eq!(*ws.stats.late_sender_by_victim.get(&1).unwrap(), 300);
        assert_eq!(*ws.stats.late_sender_by_culprit.get(&0).unwrap(), 300);
    }

    #[test]
    fn late_receiver_detected() {
        let mut ws = WaitStateAnalysis::new();
        // Sender finished at t=150, receiver only posts at t=500.
        assert!(ws.add(&send(0, 1, 100, 50)).is_none());
        let m = ws.add(&recv(1, 0, 500, 10)).unwrap();
        assert_eq!(m.late_receiver_ns, 350);
        assert_eq!(m.late_sender_ns, 0);
    }

    #[test]
    fn synchronous_pair_has_no_wait() {
        let mut ws = WaitStateAnalysis::new();
        ws.add(&send(0, 1, 100, 50));
        let m = ws.add(&recv(1, 0, 120, 30)).unwrap();
        assert_eq!(m.late_sender_ns, 0);
        assert_eq!(m.late_receiver_ns, 0);
    }

    #[test]
    fn fifo_matching_per_channel() {
        let mut ws = WaitStateAnalysis::new();
        ws.add(&send(0, 1, 100, 10)); // first send
        ws.add(&send(0, 1, 200, 10)); // second send
        let m1 = ws.add(&recv(1, 0, 300, 5)).unwrap();
        let m2 = ws.add(&recv(1, 0, 400, 5)).unwrap();
        // First recv matches first send: late receiver 300-110.
        assert_eq!(m1.late_receiver_ns, 190);
        assert_eq!(m2.late_receiver_ns, 190);
    }

    /// Rank 0 sends to rank 1 in four one-event packs, rank 1 receives in
    /// four; every send is late by a different amount, so a receive paired
    /// with the wrong send changes the totals.
    fn two_ranks_in_packs() -> Vec<(u32, u32, Vec<Event>)> {
        let mut packs = Vec::new();
        for k in 0..4u32 {
            let t = u64::from(k) * 1000;
            packs.push((0, k, vec![send(0, 1, t + 100 * u64::from(k + 1), 10)]));
            packs.push((1, k, vec![recv(1, 0, t, 5)]));
        }
        packs
    }

    fn fold(packs: &[(u32, u32, Vec<Event>)]) -> (u64, u64, u64) {
        let mut ws = WaitStateAnalysis::new();
        for (rank, seq, events) in packs {
            ws.add_pack(*rank, *seq, events);
        }
        let s = ws.finish();
        (s.matched, s.total_late_sender_ns, s.total_late_receiver_ns)
    }

    #[test]
    fn packs_fold_in_rank_order_whatever_order_they_arrive_in() {
        let packs = two_ranks_in_packs();
        let want = fold(&packs);
        assert_eq!(want, (4, 1000, 0));
        let mut reversed = packs.clone();
        reversed.reverse();
        assert_eq!(fold(&reversed), want);
        // Rank 0's sends overtake each other; rank 1's arrive in order.
        let mut shuffled = packs.clone();
        shuffled.swap(0, 6);
        shuffled.swap(2, 4);
        assert_eq!(fold(&shuffled), want);
        // Fed event by event in that order, the matcher pairs wrongly.
        let mut raw = WaitStateAnalysis::new();
        for (_, _, events) in &shuffled {
            raw.add_all(events);
        }
        assert_ne!(raw.finish().total_late_sender_ns, want.1);
    }

    #[test]
    fn a_missing_pack_holds_its_successors_until_finish_or_the_bound() {
        let mut ws = WaitStateAnalysis::new();
        // Pack 0 of rank 0 never arrives.
        ws.add_pack(0, 1, &[send(0, 1, 100, 10)]);
        assert_eq!(ws.order[&0].held.len(), 1);
        ws.add_pack(1, 0, &[recv(1, 0, 0, 5)]);
        assert_eq!(ws.stats.matched, 0, "held, not matched");
        assert_eq!(ws.snapshot_stats().matched, 1, "a snapshot feeds it");
        assert_eq!(ws.finish().matched, 1);
        // Past the bound the gap is given up on and the held packs go in.
        let mut ws = WaitStateAnalysis::new();
        for seq in 1..=MAX_HELD as u32 + 1 {
            ws.add_pack(0, seq, &[send(0, 1, u64::from(seq), 1)]);
        }
        assert!(ws.order[&0].held.is_empty());
        assert_eq!(ws.order[&0].next, MAX_HELD as u32 + 2);
        assert_eq!(ws.sends[&(0, 1)].len(), MAX_HELD + 1);
    }

    #[test]
    fn channels_are_independent() {
        let mut ws = WaitStateAnalysis::new();
        ws.add(&send(0, 1, 100, 10));
        ws.add(&send(2, 1, 500, 10));
        // Recv from rank 2 must match rank 2's send, not rank 0's.
        let m = ws.add(&recv(1, 2, 50, 460)).unwrap();
        assert_eq!(m.src, 2);
        assert_eq!(m.late_sender_ns, 450);
    }

    #[test]
    fn unmatched_counted_at_finish() {
        let mut ws = WaitStateAnalysis::new();
        ws.add(&send(0, 1, 100, 10));
        ws.add(&recv(3, 2, 100, 10));
        let stats = ws.finish();
        assert_eq!(stats.unmatched, 2);
        assert_eq!(stats.matched, 0);
    }

    #[test]
    fn victim_map_and_culprits() {
        let mut ws = WaitStateAnalysis::new();
        ws.add(&recv(1, 0, 0, 1000));
        ws.add(&send(0, 1, 800, 10));
        ws.add(&recv(2, 0, 0, 500));
        ws.add(&send(0, 2, 200, 10));
        let map = ws.stats.victim_map(3);
        assert_eq!(map, vec![0.0, 800.0, 200.0]);
        let culprits = ws.stats.worst_culprits(2);
        assert_eq!(culprits, vec![(0, 1000)]);
    }

    #[test]
    fn sendrecv_halves_match_each_other() {
        let mut ws = WaitStateAnalysis::new();
        let mut a = send(0, 1, 100, 50);
        a.kind = EventKind::Sendrecv;
        a.bytes = 200;
        let mut b = send(1, 0, 400, 50);
        b.kind = EventKind::Sendrecv;
        b.bytes = 200;
        assert!(ws.add(&a).is_none());
        let m = ws.add(&b).unwrap();
        // Both directions matched: 2 transfers, no dangling halves.
        ws.finish();
        assert_eq!(ws.stats.matched, 2);
        assert_eq!(ws.stats.unmatched, 0);
        // B arrived 300 ns late: A's receive half waited on B's send half.
        assert_eq!(m.late_sender_ns + ws.stats.total_late_sender_ns, 600);
        assert_eq!(m.bytes, 100, "per-direction half of the 200-byte total");
    }

    #[test]
    fn collectives_ignored() {
        let mut ws = WaitStateAnalysis::new();
        let mut e = send(0, 1, 0, 10);
        e.kind = EventKind::Barrier;
        assert!(ws.add(&e).is_none());
        assert_eq!(ws.finish().matched + ws.stats.unmatched, 0);
    }
}
