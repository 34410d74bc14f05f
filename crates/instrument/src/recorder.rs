//! Event recorder: encodes events into packs and streams them out.
//!
//! Each event is encoded once, at record time, straight into the block
//! the sink will ship: the pack header is stamped when the pack opens,
//! events are appended behind it, and a flush only patches the header's
//! `count` and hands the block over. There is no staged `Event` batch and
//! no encode pass; the one block buffer is reused for every pack.

use crate::sink::PackSink;
use bytes::BytesMut;
use opmr_events::codec::{self, DeltaState};
use opmr_events::{Event, EventPack, PackEncoding, PackHeader, PACK_HEADER_SIZE};
use opmr_vmpi::Result;

mod obs {
    use opmr_obs::{registry, Counter, Histogram};
    use std::sync::{Arc, OnceLock};

    pub(super) struct RecorderMetrics {
        pub flush_ns: Arc<Histogram>,
        pub packs: Arc<Counter>,
    }

    pub(super) fn m() -> &'static RecorderMetrics {
        static M: OnceLock<RecorderMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            RecorderMetrics {
                flush_ns: r.histogram("instrument_flush_ns"),
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
    /// Maximum events per pack. Must keep the encoded pack within the
    /// stream's block size so one pack maps to one block — computed from
    /// the encoding's *worst-case* per-event size, so a full pack can
    /// never overflow the block.
    pub events_per_pack: usize,
    /// Wire layout for encoded packs.
    pub encoding: PackEncoding,
}

impl RecorderConfig {
    /// Largest fixed-layout pack that fits one stream block.
    pub fn for_block_size(app_id: u16, rank: u32, block_size: usize) -> RecorderConfig {
        Self::for_block(app_id, rank, block_size, PackEncoding::Fixed)
    }

    /// Largest pack under `encoding` guaranteed to fit one stream block.
    pub fn for_block(
        app_id: u16,
        rank: u32,
        block_size: usize,
        encoding: PackEncoding,
    ) -> RecorderConfig {
        let cap = EventPack::capacity_for_block_with(block_size, encoding).max(1);
        RecorderConfig {
            app_id,
            rank,
            events_per_pack: cap,
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
    /// The open pack as it will leave: `[sink headroom][header][events]`.
    block: BytesMut,
    /// Length of the sink's headroom at the front of `block`.
    head: usize,
    /// Events encoded into the open pack so far.
    count: u32,
    delta: DeltaState,
    seq: u32,
    stats: RecorderStats,
}

impl Recorder {
    /// Wraps an open pack sink (stream for online coupling, file for the
    /// classical trace baseline).
    pub fn new(cfg: RecorderConfig, sink: PackSink) -> Recorder {
        assert!(cfg.events_per_pack > 0);
        let block = sink
            .new_block(PACK_HEADER_SIZE + cfg.events_per_pack * cfg.encoding.max_event_wire_size());
        let mut rec = Recorder {
            head: block.len(),
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
        codec::encode_header_versioned(&header, self.cfg.encoding.version(), &mut self.block);
        self.delta = DeltaState::new(self.cfg.rank);
        self.count = 0;
    }

    /// Records one event, flushing a pack when it is full.
    pub fn record(&mut self, event: Event) -> Result<()> {
        match self.cfg.encoding {
            PackEncoding::Fixed => codec::encode_event(&event, &mut self.block),
            PackEncoding::Delta => {
                codec::encode_event_delta(&event, &mut self.delta, &mut self.block)
            }
        }
        self.count += 1;
        self.stats.events += 1;
        if self.count as usize >= self.cfg.events_per_pack {
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
        let t0 = std::time::Instant::now();
        codec::patch_header_count(&mut self.block[self.head..], self.count);
        self.stats.packs += 1;
        self.stats.wire_bytes += (self.block.len() - self.head) as u64;
        let res = self.sink.put(&mut self.block);
        self.seq += 1;
        self.open_pack();
        let m = obs::m();
        m.flush_ns.record(t0.elapsed().as_nanos() as u64);
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

    /// Counters so far.
    pub fn stats(&self) -> RecorderStats {
        self.stats
    }

    /// Events waiting in the current partial pack.
    pub fn pending(&self) -> usize {
        self.count as usize
    }
}
