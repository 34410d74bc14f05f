//! Event recorder: encodes events into packs and streams them out.
//!
//! Each event is encoded once, at record time, straight into the block
//! the sink will ship: the pack header is stamped when the pack opens,
//! each row is written in place into its window of the block, and a flush
//! only patches the header's `count` and hands the block over. There is
//! no staged `Event` batch, no encode pass and no append: the one block
//! buffer is held at its full length and reused for every pack.
//! A pack closes once less than one worst-case row
//! ([`PackEncoding::max_event_wire_size`]) of its block is left, so a
//! Delta pack fills the block with real rows (≈ 530 in 4 KiB).

use crate::sink::PackSink;
use bytes::BytesMut;
use opmr_events::codec::{self, DeltaState};
use opmr_events::{Event, PackEncoding, PackHeader, EVENT_WIRE_SIZE, PACK_HEADER_SIZE};
use opmr_vmpi::{Result, VmpiError};
use std::time::Instant;

mod obs {
    use opmr_obs::{registry, Counter, Histogram};
    use std::sync::{Arc, OnceLock};

    pub(super) struct RecorderMetrics {
        pub flush_ns: Arc<Histogram>,
        pub fill_ns: Arc<Histogram>,
        pub packs: Arc<Counter>,
    }

    pub(super) fn m() -> &'static RecorderMetrics {
        static M: OnceLock<RecorderMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            RecorderMetrics {
                flush_ns: r.histogram("instrument_flush_ns"),
                fill_ns: r.histogram("instrument_pack_fill_ns"),
                packs: r.counter("instrument_packs_encoded_total"),
            }
        })
    }
}

/// Recorder sizing.
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Application id stamped into every pack (blackboard level selector).
    pub app_id: u16,
    /// Partition-local rank of the producer.
    pub rank: u32,
    /// Byte budget of one pack: the stream's block size, so one pack maps
    /// to one block. Packs close by bytes, not by an event count.
    pub block_size: usize,
    /// Wire layout for encoded packs.
    pub encoding: PackEncoding,
}

impl RecorderConfig {
    /// A recorder filling blocks of `block_size` bytes under `encoding`.
    pub fn for_block(app_id: u16, rank: u32, block_size: usize, encoding: PackEncoding) -> Self {
        RecorderConfig {
            app_id,
            rank,
            block_size,
            encoding,
        }
    }
}

/// Counters a finished recorder reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Events recorded.
    pub events: u64,
    /// Packs flushed downstream.
    pub packs: u64,
    /// Encoded bytes handed to the stream.
    pub wire_bytes: u64,
}

/// Encodes events in place and writes one pack per sink block.
pub struct Recorder {
    cfg: RecorderConfig,
    sink: PackSink,
    /// The open pack as it will leave, `[sink headroom][header][events]`,
    /// held at its full length `full`: rows are written into it, not
    /// appended.
    block: BytesMut,
    /// Length of the sink's headroom at the front of `block`.
    head: usize,
    /// Bytes of `block` in use: the end of the open pack.
    pos: usize,
    /// `block`'s full length: the headroom and one block (at least one
    /// header and one worst-case row, so every window fits).
    full: usize,
    /// `pos` past which one more worst-case row might not fit.
    limit: usize,
    /// End of the previous flush: the pack's age bounds its oldest row's.
    opened: Instant,
    /// Events encoded into the open pack so far.
    count: u32,
    delta: DeltaState,
    seq: u32,
    stats: RecorderStats,
}

/// The `N`-byte window of `block` at `at`. Every window the recorder asks
/// for lies inside its full-length block; a miss is a typed error.
#[inline(always)]
fn window<const N: usize>(block: &mut [u8], at: usize) -> Result<&mut [u8; N]> {
    block
        .get_mut(at..)
        .and_then(<[u8]>::first_chunk_mut)
        .ok_or(VmpiError::InvalidConfig(
            "recorder block shorter than a row",
        ))
}

impl Recorder {
    /// Wraps an open pack sink (stream for online coupling, file for the
    /// classical trace baseline).
    pub fn new(cfg: RecorderConfig, sink: PackSink) -> Recorder {
        let mut block = sink.new_block(cfg.block_size);
        let head = block.len();
        let max_row = cfg.encoding.max_event_wire_size();
        // A block below a header and one row (refused by sessions and
        // `InstrumentedMpi`) still holds one: its packs carry one row each.
        let full = head + cfg.block_size.max(PACK_HEADER_SIZE + max_row);
        block.resize(full, 0);
        let mut rec = Recorder {
            head,
            pos: head,
            full,
            limit: full - max_row,
            opened: Instant::now(),
            block,
            delta: DeltaState::new(cfg.rank),
            cfg,
            sink,
            count: 0,
            seq: 0,
            stats: RecorderStats::default(),
        };
        rec.open_pack();
        rec
    }

    /// Stamps the next pack's header behind the headroom; its `count` is
    /// patched when the pack is flushed.
    fn open_pack(&mut self) {
        let header = PackHeader {
            app_id: self.cfg.app_id,
            rank: self.cfg.rank,
            seq: self.seq,
            count: 0,
        };
        // Cannot miss: `full` leaves room for a header and a row.
        if let Ok(raw) = window(&mut self.block, self.head) {
            codec::encode_header_at(&header, self.cfg.encoding.version(), raw);
        }
        self.pos = self.head + PACK_HEADER_SIZE;
        self.delta = DeltaState::new(self.cfg.rank);
        self.count = 0;
    }

    /// Records one event, flushing the pack once its block is full.
    #[inline]
    pub fn record(&mut self, event: Event) -> Result<()> {
        self.pos += match self.cfg.encoding {
            PackEncoding::Fixed => {
                codec::encode_event_at(&event, window(&mut self.block, self.pos)?);
                EVENT_WIRE_SIZE
            }
            PackEncoding::Delta => codec::encode_event_delta_at(
                &event,
                &mut self.delta,
                window(&mut self.block, self.pos)?,
            ),
        };
        self.count += 1;
        self.stats.events += 1;
        if self.pos > self.limit {
            self.flush_pack()?;
        }
        Ok(())
    }

    /// Flushes the current partial pack, if any, as one stream block: the
    /// events are already encoded, so this patches the count and hands the
    /// block to the sink.
    pub fn flush_pack(&mut self) -> Result<()> {
        if self.count == 0 {
            return Ok(());
        }
        let t0 = Instant::now();
        codec::patch_header_count(&mut self.block[self.head..], self.count);
        self.stats.packs += 1;
        self.stats.wire_bytes += (self.pos - self.head) as u64;
        self.block.truncate(self.pos);
        let res = self.sink.put(&mut self.block);
        // Back to full length inside the capacity the block already has.
        self.block.resize(self.full, 0);
        self.seq += 1;
        self.open_pack();
        let m = obs::m();
        m.fill_ns.record((t0 - self.opened).as_nanos() as u64);
        self.opened = Instant::now();
        m.flush_ns.record((self.opened - t0).as_nanos() as u64);
        m.packs.inc();
        res
    }

    /// Flushes and closes the sink, returning the final counters.
    pub fn finish(mut self) -> Result<RecorderStats> {
        self.flush_pack()?;
        let stats = self.stats;
        opmr_events::global_pool().put(std::mem::take(&mut self.block));
        self.sink.close()?;
        Ok(stats)
    }

    /// Events waiting in the current partial pack.
    pub fn pending(&self) -> usize {
        self.count as usize
    }
}
