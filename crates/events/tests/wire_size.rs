//! Size regression: the Delta row must not grow the wire. Two seeded
//! streams are packed the way the recorder packs them (4 KiB blocks,
//! closed once less than one worst-case row of room is left) and their
//! bytes per event are pinned as upper bounds — the figures the LEB128
//! varint row (pack wire version 3) produced on the same streams. A
//! layout change that costs bytes fails here, not only in the benchmark.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_events::codec::{self, DeltaState};
use opmr_events::{Event, EventKind, PackEncoding, PackHeader, DELTA_EVENT_MAX_WIRE_SIZE};

const BLOCK: usize = 4096;
const SEED: u64 = 20_130_901;
/// B/event of the varint row on the firehose mix (7.5199, rounded up).
const VARINT_FIREHOSE: f64 = 7.520;
/// B/event of the varint row on the ring mix (7.7530, rounded up).
const VARINT_RING: f64 = 7.753;

/// SplitMix64, enough to shuffle a call mix.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The firehose mix: 40 % writes, 30 % reads, 15 % markers (a tag per
/// marker id), 15 % zero-length compute intervals, in seeded order with
/// seeded sizes and durations, 90–130 ns apart.
fn firehose(seed: u64, rank: u32, n: usize) -> Vec<Event> {
    const SIZES: [u64; 6] = [64, 512, 4096, 65_536, 1 << 20, 8 << 20];
    let mut rng = Rng(seed ^ (rank as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut calls: Vec<(EventKind, i32, u64, u64)> = (0..4096)
        .map(|i| {
            let bytes = SIZES[rng.below(SIZES.len() as u64) as usize] + rng.below(64);
            let duration = 200 + rng.below(50_000);
            match i % 20 {
                0..=7 => (EventKind::PosixWrite, -1, bytes, duration),
                8..=13 => (EventKind::PosixRead, -1, bytes, duration),
                14..=16 => (EventKind::Marker, rng.below(32) as i32, 0, 0),
                _ => (EventKind::Compute, -1, 0, 30),
            }
        })
        .collect();
    for i in (1..calls.len()).rev() {
        calls.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut t = 1_000u64;
    (0..n)
        .map(|i| {
            t += 90 + (i as u64 * 7) % 40;
            let (kind, tag, bytes, duration_ns) = calls[i % calls.len()];
            Event {
                time_ns: t,
                duration_ns,
                kind,
                rank,
                peer: -1,
                tag,
                comm: 0,
                bytes,
            }
        })
        .collect()
}

/// The ring mix: per round an isend to the next rank, a recv from the
/// previous one and a wait, all under a new tag, with 56–72 B payloads;
/// an allreduce every 64 rounds.
fn ring(seed: u64, rank: u32, ranks: u32, rounds: usize) -> Vec<Event> {
    let mut rng = Rng(seed ^ 0x5149_4E47);
    let payloads: Vec<u64> = (0..256).map(|_| 56 + rng.below(17)).collect();
    let (next, prev) = ((rank + 1) % ranks, (rank + ranks - 1) % ranks);
    let mut t = 1_000u64;
    let mut out = Vec::new();
    for round in 0..rounds {
        let bytes = payloads[round % payloads.len()];
        let tag = (round & 0xffff) as i32;
        for (kind, peer, duration_ns) in [
            (EventKind::Isend, next, 250),
            (EventKind::Recv, prev, 900 + (round as u64 * 13) % 700),
            (EventKind::Wait, next, 120),
        ] {
            out.push(Event {
                time_ns: t,
                duration_ns,
                kind,
                rank,
                peer: peer as i32,
                tag,
                comm: 0,
                bytes,
            });
            t += duration_ns + 60;
        }
        if round % 64 == 63 {
            out.push(Event {
                time_ns: t,
                duration_ns: 3_000,
                kind: EventKind::Allreduce,
                rank,
                peer: -1,
                tag: -1,
                comm: 0,
                bytes: 8,
            });
            t += 3_060;
        }
    }
    out
}

/// Wire bytes per event of `events` packed as the recorder packs them:
/// a header, then rows until less than one worst-case row of the block
/// is left.
fn bytes_per_event(rank: u32, events: &[Event]) -> f64 {
    let header = PackHeader {
        app_id: 0,
        rank,
        seq: 0,
        count: 0,
    };
    let (mut wire, mut pack) = (0, Vec::new());
    let mut st = DeltaState::new(rank);
    for e in events {
        if pack.is_empty() {
            codec::encode_header_versioned(&header, PackEncoding::Delta.version(), &mut pack);
            st = DeltaState::new(rank);
        }
        let mut row = [0u8; DELTA_EVENT_MAX_WIRE_SIZE];
        let len = codec::encode_event_delta_at(e, &mut st, &mut row);
        pack.extend_from_slice(&row[..len]);
        if pack.len() > BLOCK - DELTA_EVENT_MAX_WIRE_SIZE {
            wire += pack.len();
            pack.clear();
        }
    }
    (wire + pack.len()) as f64 / events.len() as f64
}

#[test]
fn firehose_mix_fits_the_varint_rows_bytes() {
    let per_event = (0..2)
        .map(|rank| bytes_per_event(rank, &firehose(SEED, rank, 200_000)))
        .sum::<f64>()
        / 2.0;
    assert!(
        per_event <= VARINT_FIREHOSE,
        "firehose mix: {per_event:.4} B/event, the varint row took {VARINT_FIREHOSE}"
    );
}

#[test]
fn ring_mix_fits_the_varint_rows_bytes() {
    // Four ranks, so a rank's isend and recv name different peers.
    let per_event = (0..4)
        .map(|rank| bytes_per_event(rank, &ring(SEED, rank, 4, 50_000)))
        .sum::<f64>()
        / 4.0;
    assert!(
        per_event <= VARINT_RING,
        "ring mix: {per_event:.4} B/event, the varint row took {VARINT_RING}"
    );
}
