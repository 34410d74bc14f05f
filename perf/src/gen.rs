//! Seeded input generation. The benchmark takes the seed; the program
//! under test sees only the generated calls.

use opmr_events::{Event, EventKind};

/// SplitMix64: tiny, seedable, good enough to shuffle a call mix.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// One firehose call: an instrumented call that records an event without
/// touching the runtime, so the event rate is bounded by the tool alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireOp {
    Write { bytes: u64, dur_ns: u64 },
    Read { bytes: u64, dur_ns: u64 },
    Marker { id: i32 },
    Compute,
}

/// Length of the cyclic call table each firehose rank walks.
pub const FIRE_TABLE: usize = 4096;

/// The seeded firehose call table of one rank. The kind proportions are
/// fixed (so every seed loads the layers alike); the seed shuffles the
/// order and draws sizes, durations and marker ids.
pub fn fire_table(seed: u64, rank: usize) -> Vec<FireOp> {
    let mut rng = Rng::new(seed ^ (rank as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    const SIZES: [u64; 6] = [64, 512, 4096, 65_536, 1 << 20, 8 << 20];
    let mut ops: Vec<FireOp> = (0..FIRE_TABLE)
        .map(|i| {
            let bytes = SIZES[rng.below(SIZES.len() as u64) as usize] + rng.below(64);
            let dur_ns = 200 + rng.below(50_000);
            // 40 % writes, 30 % reads, 15 % markers, 15 % zero-length
            // compute intervals.
            match i % 20 {
                0..=7 => FireOp::Write { bytes, dur_ns },
                8..=13 => FireOp::Read { bytes, dur_ns },
                14..=16 => FireOp::Marker {
                    id: rng.below(32) as i32,
                },
                _ => FireOp::Compute,
            }
        })
        .collect();
    // Fisher-Yates: the order decides which values neighbour each other,
    // which is what the delta encoding's byte count depends on.
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i as u64 + 1) as usize);
    }
    ops
}

/// Per-round payload sizes of the ring workloads: 64 B on average, drawn
/// from 56..=72 so the seed reaches the report's byte counts.
pub fn ring_payloads(seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5149_4E47);
    (0..256).map(|_| 56 + rng.below(17) as usize).collect()
}

/// The event stream the ledger and the pipeline twin feed to single
/// layers: what `ranks` firehose ranks would record, with synthetic but
/// monotone timestamps (so delta encoding sees realistic gaps).
pub fn fire_events(seed: u64, rank: u32, n: usize) -> Vec<Event> {
    let table = fire_table(seed, rank as usize);
    let mut t = 1_000u64;
    (0..n)
        .map(|i| {
            t += 90 + (i as u64 * 7) % 40;
            let (kind, tag, bytes, duration_ns) = match table[i % FIRE_TABLE] {
                FireOp::Write { bytes, dur_ns } => (EventKind::PosixWrite, -1, bytes, dur_ns),
                FireOp::Read { bytes, dur_ns } => (EventKind::PosixRead, -1, bytes, dur_ns),
                FireOp::Marker { id } => (EventKind::Marker, id, 0, 0),
                FireOp::Compute => (EventKind::Compute, -1, 0, 30),
            };
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

/// The event stream of one rank of an `n_ranks` ring (isend/recv/wait per
/// round, an allreduce every 64 rounds): feeds the topology, wait-state
/// and metrics layers, which the firehose stream leaves idle. A round
/// spans at least `round_ns` of application time (the paced ring's 600 us
/// spread the events over as many metrics windows as a real run).
pub fn ring_events(seed: u64, rank: u32, n_ranks: u32, rounds: usize, round_ns: u64) -> Vec<Event> {
    let payloads = ring_payloads(seed);
    let (next, prev) = ((rank + 1) % n_ranks, (rank + n_ranks - 1) % n_ranks);
    let mut t = 1_000u64;
    let mut out = Vec::with_capacity(rounds * 3 + rounds / 64);
    for round in 0..rounds {
        t = t.max(1_000 + round as u64 * round_ns);
        let bytes = payloads[round % payloads.len()] as u64;
        let tag = (round & 0xffff) as i32;
        for (kind, peer, dur) in [
            (EventKind::Isend, next as i32, 250),
            (
                EventKind::Recv,
                prev as i32,
                900 + (round as u64 * 13) % 700,
            ),
            (EventKind::Wait, next as i32, 120),
        ] {
            out.push(Event {
                time_ns: t,
                duration_ns: dur,
                kind,
                rank,
                peer,
                tag,
                comm: 0,
                bytes,
            });
            t += dur + 60;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(fire_table(7, 0), fire_table(7, 0));
        assert_ne!(fire_table(7, 0), fire_table(8, 0));
        assert_ne!(fire_table(7, 0), fire_table(7, 1));
        assert_eq!(ring_payloads(3), ring_payloads(3));
        assert_ne!(ring_payloads(3), ring_payloads(4));
        assert_eq!(fire_events(5, 1, 100), fire_events(5, 1, 100));
    }

    #[test]
    fn the_kind_mix_does_not_depend_on_the_seed() {
        let count = |seed| {
            let t = fire_table(seed, 0);
            (
                t.iter()
                    .filter(|o| matches!(o, FireOp::Write { .. }))
                    .count(),
                t.iter()
                    .filter(|o| matches!(o, FireOp::Read { .. }))
                    .count(),
                t.iter()
                    .filter(|o| matches!(o, FireOp::Marker { .. }))
                    .count(),
            )
        };
        assert_eq!(count(1), count(2));
        let (w, r, m) = count(1);
        assert!(w > r && r > m && m > 0);
    }

    #[test]
    fn ring_events_have_monotone_timestamps() {
        let ev = ring_events(9, 0, 2, 200, 0);
        assert_eq!(ev.len(), 200 * 3 + 3);
        assert!(ev.windows(2).all(|w| w[0].time_ns < w[1].time_ns));
    }
}
