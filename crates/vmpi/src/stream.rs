//! VMPI Streams: persistent asynchronous block channels (Figure 9).
//!
//! Semantics follow the paper:
//!
//! * a stream moves fixed-size **blocks** (≈1 MB for instrumentation use);
//! * the **write endpoint** owns `NA` shared output buffers: writing is
//!   non-blocking until all asynchronous buffers are full, which preserves
//!   an adaptation window between producer and consumer and then exerts real
//!   back-pressure;
//! * the **read endpoint** keeps `NA` pre-posted receive buffers *per
//!   incoming stream*, so any arriving block finds a buffer waiting (no
//!   unexpected messages on the hot path);
//! * streams created from a [`crate::Map`] connect a process to all its
//!   mapped peers; block distribution across multiple endpoints follows a
//!   load-balancing policy (**none / random / round-robin**), independently
//!   configurable at each end;
//! * non-blocking reads return [`VmpiError::Again`] (the paper's `EAGAIN`);
//! * writers close with a FIN frame; a read returns `None` (EOF) only
//!   after **all** remote writers have closed.
//!
//! # Reliability
//!
//! Streams trust the transport the way the paper's streams trust MPI: it
//! is reliable and non-overtaking, so every frame a writer sends reaches
//! the reader exactly once and in send order per (writer, endpoint) —
//! `tests/transport_conformance.rs` pins that on both backends, and the
//! socket link recovers a severed connection underneath. A frame is
//! therefore one flags byte and the block: no sequence number, no reorder
//! stash, no duplicate discard, no resend. The FIN frame rides the same
//! `(source, tag)` lane behind the last data frame, and the mailbox's FIFO
//! matching keeps it there. A send the transport cannot make fails the
//! writer with [`opmr_runtime::RtError::Unreachable`]. A reader whose
//! writer exits without closing observes the rank-liveness flag and
//! surfaces [`VmpiError::PeerLost`] instead of hanging; the remaining
//! writers stay readable.

use crate::map::Map;
use crate::virt::Vmpi;
use crate::{Result, VmpiError};
use bytes::{Bytes, BytesMut};
use opmr_events::{compress, Compression, Lz4Encoder, PackEncoding};
use opmr_runtime::{Comm, Context, Mpi, Request, Src, TagSel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Load-balancing policy across a stream's endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balance {
    /// Always use the first endpoint.
    None,
    /// Uniform random endpoint per block (seeded, reproducible).
    Random { seed: u64 },
    /// Rotate endpoints per block.
    RoundRobin,
}

/// Stream configuration (`VMPI_Stream_init` arguments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Block size in bytes (the paper uses ≈1 MB for instrumentation).
    pub block_size: usize,
    /// Number of asynchronous buffers per endpoint (`NA`, 3 in the paper).
    pub n_async: usize,
    /// Endpoint load-balancing policy.
    pub balance: Balance,
    /// Blocking reads fail with [`VmpiError::Timeout`] after this long
    /// without producing a block (`None` = wait forever).
    pub read_timeout: Option<Duration>,
    /// Per-block compression applied before framing. Each data frame
    /// carries its own compression flag, so readers decode compressed and
    /// plain blocks alike regardless of their local setting — the config
    /// only decides what this end *sends*.
    pub compression: Compression,
    /// Event-pack layout recorders feeding this stream use. Carried here —
    /// not a stream concern per se — so every layer that opens a stream
    /// (instrumented apps, TBON nodes, the serve plane) agrees on the
    /// encoding through the one config that already reaches all of them.
    /// Packs are self-describing (the header carries the version), so any
    /// reader decodes either layout regardless of this setting.
    pub pack_encoding: PackEncoding,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            block_size: 1 << 20,
            n_async: 3,
            balance: Balance::RoundRobin,
            read_timeout: None,
            compression: Compression::None,
            pack_encoding: PackEncoding::Fixed,
        }
    }
}

impl StreamConfig {
    /// Convenience constructor.
    pub fn new(block_size: usize, n_async: usize, balance: Balance) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(n_async > 0, "need at least one async buffer");
        StreamConfig {
            block_size,
            n_async,
            balance,
            ..StreamConfig::default()
        }
    }

    /// Sets a deadline for blocking reads.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Selects the per-block compression codec for this end's writes.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Selects the event-pack layout recorders feeding this stream use.
    pub fn with_pack_encoding(mut self, encoding: PackEncoding) -> Self {
        self.pack_encoding = encoding;
        self
    }
}

/// Read behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Block until a block arrives or every writer closed: a short spin,
    /// then asleep on this rank's mailbox until the next delivery or
    /// liveness change.
    Blocking,
    /// Return [`VmpiError::Again`] when nothing is ready (for callers that
    /// multiplex several sources in one loop).
    NonBlocking,
}

/// One received block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// World rank of the writer that produced the block.
    pub source: usize,
    /// Block payload (full or trailing partial block).
    pub data: Bytes,
}

fn stream_tag(stream_id: u16) -> i32 {
    0x0500_0000 | stream_id as i32
}

// ---------------------------------------------------------------------
// Self-monitoring: process-wide stream metrics. Handles are resolved once
// through the registry mutex and cached here, so steady-state accounting
// is a single relaxed fetch_add per site.
// ---------------------------------------------------------------------

mod obs {
    use opmr_obs::{registry, Counter, Gauge, Histogram};
    use std::sync::{Arc, OnceLock};

    pub(super) struct StreamMetrics {
        pub write_bytes: Arc<Counter>,
        pub blocks_sent: Arc<Counter>,
        pub backpressure_waits: Arc<Counter>,
        pub closes: Arc<Counter>,
        pub fins_sent: Arc<Counter>,
        pub aborts: Arc<Counter>,
        pub reads: Arc<Counter>,
        pub eagain: Arc<Counter>,
        pub read_parks: Arc<Counter>,
        pub read_bytes: Arc<Counter>,
        pub blocks_read: Arc<Counter>,
        pub sources_eof: Arc<Counter>,
        pub peers_lost: Arc<Counter>,
        pub rng_fallbacks: Arc<Counter>,
        pub protocol_violations: Arc<Counter>,
        pub bytes_logical: Arc<Counter>,
        pub bytes_on_wire: Arc<Counter>,
        pub blocks_compressed: Arc<Counter>,
        pub compress_skipped: Arc<Counter>,
        pub decompress_failures: Arc<Counter>,
        pub open_writers: Arc<Gauge>,
        pub blocks_in_flight: Arc<Gauge>,
        pub occupancy: Arc<Histogram>,
        pub compress_ns: Arc<Histogram>,
        pub decompress_ns: Arc<Histogram>,
    }

    pub(super) fn m() -> &'static StreamMetrics {
        static M: OnceLock<StreamMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            StreamMetrics {
                write_bytes: r.counter("vmpi_stream_write_bytes_total"),
                blocks_sent: r.counter("vmpi_stream_blocks_sent_total"),
                backpressure_waits: r.counter("vmpi_stream_backpressure_waits_total"),
                closes: r.counter("vmpi_stream_closes_total"),
                fins_sent: r.counter("vmpi_stream_fins_sent_total"),
                aborts: r.counter("vmpi_stream_aborts_total"),
                reads: r.counter("vmpi_stream_reads_total"),
                eagain: r.counter("vmpi_stream_eagain_total"),
                read_parks: r.counter("vmpi_stream_read_parks_total"),
                read_bytes: r.counter("vmpi_stream_read_bytes_total"),
                blocks_read: r.counter("vmpi_stream_blocks_read_total"),
                sources_eof: r.counter("vmpi_stream_sources_eof_total"),
                peers_lost: r.counter("vmpi_stream_peers_lost_total"),
                rng_fallbacks: r.counter("vmpi_stream_rng_fallbacks_total"),
                protocol_violations: r.counter("vmpi_stream_protocol_violations_total"),
                bytes_logical: r.counter("vmpi_stream_bytes_logical_total"),
                bytes_on_wire: r.counter("vmpi_stream_bytes_on_wire_total"),
                blocks_compressed: r.counter("vmpi_stream_blocks_compressed_total"),
                compress_skipped: r.counter("vmpi_stream_compress_skipped_total"),
                decompress_failures: r.counter("vmpi_stream_decompress_failures_total"),
                open_writers: r.gauge("vmpi_stream_open_writers"),
                blocks_in_flight: r.gauge("vmpi_stream_blocks_in_flight"),
                occupancy: r.histogram("vmpi_stream_buffer_occupancy"),
                compress_ns: r.histogram("vmpi_stream_compress_ns"),
                decompress_ns: r.histogram("vmpi_stream_decompress_ns"),
            }
        })
    }
}

// ---------------------------------------------------------------------
// Frame header: [flags: u8], then the block payload.
// ---------------------------------------------------------------------

const FLAG_DATA: u8 = 0;
const FLAG_FIN: u8 = 1;
/// Flag bit: the frame body is an LZ4-class compressed block. Carried
/// per frame, so a reader needs no out-of-band negotiation to decode.
const FLAG_LZ4: u8 = 2;
/// Blocks below this size skip compression outright (header overhead
/// would eat the savings).
const MIN_COMPRESS_LEN: usize = 64;

/// Bytes a block buffer keeps free in front of its payload, where
/// [`WriteStream::send_block`] stamps the frame header (the flags byte)
/// in place.
pub const BLOCK_HEADROOM: usize = 1;

/// Splits a stream frame into its flags and body. An empty payload has no
/// header at all: a hostile or corrupt block, surfaced as a typed protocol
/// violation.
fn unframe(data: &Bytes) -> Result<(u8, Bytes)> {
    match data.first() {
        Some(&flags) => Ok((flags, data.slice(BLOCK_HEADROOM..))),
        None => Err(VmpiError::ProtocolViolation {
            expected: "stream frame header of 1 byte",
            got: "0 bytes".to_string(),
        }),
    }
}

struct EndpointChooser {
    n: usize,
    next: usize,
    rng: Option<StdRng>,
    balance: Balance,
}

impl EndpointChooser {
    fn new(n: usize, balance: Balance) -> Self {
        let rng = match balance {
            Balance::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        EndpointChooser {
            n,
            next: 0,
            rng,
            balance,
        }
    }

    fn pick(&mut self) -> usize {
        match self.balance {
            Balance::None => 0,
            Balance::RoundRobin => {
                let i = self.next;
                self.next = (self.next + 1) % self.n;
                i
            }
            // A random balance whose RNG is missing degrades to
            // round-robin (counted) instead of aborting the stream.
            Balance::Random { .. } => match self.rng.as_mut() {
                Some(rng) => rng.gen_range(0..self.n),
                None => {
                    obs::m().rng_fallbacks.inc();
                    let i = self.next;
                    self.next = (self.next + 1) % self.n;
                    i
                }
            },
        }
    }
}

// ---------------------------------------------------------------------
// Write endpoint.
// ---------------------------------------------------------------------

/// The writing end of a VMPI stream.
pub struct WriteStream {
    mpi: Mpi,
    universe: Comm,
    endpoints: Vec<usize>,
    cfg: StreamConfig,
    tag: i32,
    chooser: EndpointChooser,
    /// The block [`WriteStream::write`] fills, payload behind
    /// [`BLOCK_HEADROOM`]: pooled, taken on the first write, truncated to
    /// the headroom after each send, returned on close.
    current: BytesMut,
    /// Reusable compressor state and its headroom-prefixed output buffer.
    enc: Option<(Lz4Encoder, BytesMut)>,
    /// Blocks in flight; bounded by `cfg.n_async` (the shared output
    /// buffers of Figure 9).
    in_flight: VecDeque<Request>,
    closed: bool,
    bytes_written: u64,
    bytes_on_wire: u64,
    blocks_sent: u64,
}

impl WriteStream {
    /// Opens a write stream to all peers of `map` (`VMPI_Stream_open_map`
    /// with mode `"w"`).
    pub fn open_map(vmpi: &Vmpi, map: &Map, cfg: StreamConfig, stream_id: u16) -> Result<Self> {
        Self::open_to(vmpi, map.peers().to_vec(), cfg, stream_id)
    }

    /// Opens a write stream to an explicit list of world ranks.
    pub fn open_to(
        vmpi: &Vmpi,
        endpoints: Vec<usize>,
        cfg: StreamConfig,
        stream_id: u16,
    ) -> Result<Self> {
        if endpoints.is_empty() {
            return Err(VmpiError::InvalidConfig("write stream needs >= 1 endpoint"));
        }
        obs::m().open_writers.inc();
        Ok(WriteStream {
            mpi: vmpi.mpi().clone(),
            universe: vmpi.comm_universe(),
            chooser: EndpointChooser::new(endpoints.len(), cfg.balance),
            endpoints,
            tag: stream_tag(stream_id),
            current: BytesMut::new(),
            enc: match cfg.compression {
                Compression::Lz4 => Some((Lz4Encoder::new(), BytesMut::new())),
                Compression::None => None,
            },
            cfg,
            in_flight: VecDeque::new(),
            closed: false,
            bytes_written: 0,
            bytes_on_wire: 0,
            blocks_sent: 0,
        })
    }

    /// An empty pooled buffer for [`WriteStream::send_block`]: headroom in
    /// place, room for one full block behind it.
    pub fn new_block(&self) -> BytesMut {
        let mut block = opmr_events::global_pool().get(BLOCK_HEADROOM + self.cfg.block_size);
        block.resize(BLOCK_HEADROOM, 0);
        block
    }

    /// Appends bytes to the stream, sending full blocks as they fill
    /// (`VMPI_Stream_write`). Non-blocking until all async buffers are full.
    pub fn write(&mut self, mut data: &[u8]) -> Result<()> {
        if self.closed {
            return Err(VmpiError::StreamClosed);
        }
        if self.current.is_empty() {
            self.current = self.new_block();
        }
        self.bytes_written += data.len() as u64;
        obs::m().write_bytes.add(data.len() as u64);
        let full = BLOCK_HEADROOM + self.cfg.block_size;
        while !data.is_empty() {
            let take = (full - self.current.len()).min(data.len());
            self.current.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.current.len() == full {
                self.send_current()?;
            }
        }
        Ok(())
    }

    /// Sends the current partial block, if any.
    pub fn flush(&mut self) -> Result<()> {
        if self.closed {
            return Err(VmpiError::StreamClosed);
        }
        self.send_current()
    }

    fn send_current(&mut self) -> Result<()> {
        if self.current.len() <= BLOCK_HEADROOM {
            return Ok(());
        }
        let mut block = std::mem::take(&mut self.current);
        let res = self.send_framed(&mut block);
        block.truncate(BLOCK_HEADROOM);
        self.current = block;
        res
    }

    /// Sends `block[BLOCK_HEADROOM..]` — serialised in place into a buffer
    /// from [`WriteStream::new_block`] — as one stream block, after anything
    /// [`WriteStream::write`] still buffers, and truncates `block` back to
    /// its headroom whatever the outcome. The payload is copied once, into
    /// the right-sized frame the receiver's mailbox keeps.
    pub fn send_block(&mut self, block: &mut BytesMut) -> Result<()> {
        let res = match block.len().checked_sub(BLOCK_HEADROOM) {
            _ if self.closed => Err(VmpiError::StreamClosed),
            None => Err(VmpiError::InvalidConfig("block buffer lost its headroom")),
            Some(n) if n > self.cfg.block_size => Err(VmpiError::InvalidConfig(
                "block exceeds the stream's block size",
            )),
            Some(0) => Ok(()),
            Some(n) => self.send_current().and_then(|()| {
                self.bytes_written += n as u64;
                obs::m().write_bytes.add(n as u64);
                self.send_framed(block)
            }),
        };
        block.truncate(BLOCK_HEADROOM);
        res
    }

    /// Compresses (if configured and worth it) and ships one block.
    fn send_framed(&mut self, block: &mut [u8]) -> Result<()> {
        let logical = block.len() - BLOCK_HEADROOM;
        let m = obs::m();
        m.bytes_logical.add(logical as u64);
        // The per-frame flag tells the reader which shape arrived, so an
        // incompressible block falls back to the plain layout with zero
        // coordination.
        let mut enc = self.enc.take();
        let res = match enc.as_mut() {
            Some((enc, packed)) if logical >= MIN_COMPRESS_LEN => {
                let t0 = Instant::now();
                packed.resize(BLOCK_HEADROOM, 0);
                packed.reserve(compress::max_compressed_len(logical));
                enc.compress(&block[BLOCK_HEADROOM..], packed);
                m.compress_ns.record(t0.elapsed().as_nanos() as u64);
                if packed.len() - BLOCK_HEADROOM < logical {
                    m.blocks_compressed.inc();
                    self.push_block(packed, FLAG_DATA | FLAG_LZ4)
                } else {
                    m.compress_skipped.inc();
                    self.push_block(block, FLAG_DATA)
                }
            }
            _ => self.push_block(block, FLAG_DATA),
        };
        self.enc = enc;
        res
    }

    /// Waits for a free async buffer, stamps the header into the frame's
    /// headroom and hands the mailbox its one copy.
    fn push_block(&mut self, framed: &mut [u8], flags: u8) -> Result<()> {
        let body = (framed.len() - BLOCK_HEADROOM) as u64;
        self.bytes_on_wire += body;
        obs::m().bytes_on_wire.add(body);
        // Occupancy of the async buffer window as the producer sees it at
        // each block boundary (0..=n_async).
        obs::m().occupancy.record(self.in_flight.len() as u64);
        // Reclaim completed buffers first, then block on the oldest if the
        // window is exhausted (back-pressure point).
        loop {
            let ready = match self.in_flight.front_mut() {
                Some(front) => front.is_complete(),
                None => false,
            };
            if !ready {
                break;
            }
            if let Some(req) = self.in_flight.pop_front() {
                req.wait()?;
                obs::m().blocks_in_flight.dec();
            }
        }
        while let Some(req) = (self.in_flight.len() >= self.cfg.n_async)
            .then(|| self.in_flight.pop_front())
            .flatten()
        {
            obs::m().backpressure_waits.inc();
            req.wait()?;
            obs::m().blocks_in_flight.dec();
        }
        framed[0] = flags;
        let req = self.mpi.isend_ctx(
            Context::Stream,
            &self.universe,
            self.endpoints[self.chooser.pick()],
            self.tag,
            Bytes::copy_from_slice(framed),
        )?;
        self.in_flight.push_back(req);
        self.blocks_sent += 1;
        let m = obs::m();
        m.blocks_in_flight.inc();
        m.blocks_sent.inc();
        Ok(())
    }

    /// Flushes, signals EOF to every endpoint and drains the send window
    /// (`VMPI_Stream_close`).
    pub fn close(mut self) -> Result<()> {
        self.close_inner()
    }

    fn close_inner(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        self.send_current()?;
        // Mark closed before the FIN fan-out: if it fails part-way the
        // stream is poisoned rather than half-closable again from `Drop`.
        self.closed = true;
        obs::m().closes.inc();
        obs::m().open_writers.dec();
        for &ep in &self.endpoints {
            // Same (source, tag) lane as the data frames, sent after the
            // last of them: FIFO matching delivers it last.
            let fin = Bytes::from_static(&[FLAG_FIN]);
            self.mpi
                .send_ctx(Context::Stream, &self.universe, ep, self.tag, fin)?;
            obs::m().fins_sent.inc();
        }
        for req in self.in_flight.drain(..) {
            obs::m().blocks_in_flight.dec();
            req.wait()?;
        }
        opmr_events::global_pool().put(std::mem::take(&mut self.current));
        Ok(())
    }

    /// Terminates the stream *without* signalling EOF — the model of a
    /// writer crashing mid-stream. In-flight blocks may or may not arrive;
    /// readers observe the missing close once this rank exits and surface
    /// [`VmpiError::PeerLost`] instead of hanging.
    pub fn abort(mut self) {
        self.closed = true;
        opmr_events::global_pool().put(std::mem::take(&mut self.current));
        let m = obs::m();
        m.aborts.inc();
        m.open_writers.dec();
        m.blocks_in_flight.add(-(self.in_flight.len() as i64));
        // Dropping the requests abandons their completion handles; any
        // rendezvous blocks still parked are consumed by the reader or
        // reclaimed at job teardown.
        self.in_flight.clear();
    }

    /// Total payload bytes accepted so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Full/partial blocks sent so far.
    pub fn blocks_sent(&self) -> u64 {
        self.blocks_sent
    }

    /// Block payload bytes actually shipped (after compression); compare
    /// with [`WriteStream::bytes_written`] for the on-wire ratio.
    pub fn bytes_on_wire(&self) -> u64 {
        self.bytes_on_wire
    }

    /// Number of remote endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }
}

impl Drop for WriteStream {
    fn drop(&mut self) {
        // Best-effort close so readers are never left waiting; errors are
        // ignored because the universe may already be shutting down.
        let _ = self.close_inner();
    }
}

// ---------------------------------------------------------------------
// Bidirectional streams.
// ---------------------------------------------------------------------

/// A bidirectional stream: the paper notes VMPI streams "can be either
/// multi- or uni-directional". A duplex endpoint pairs a write stream and
/// a read stream over two distinct stream ids derived from `stream_id`,
/// so both directions coexist without tag collisions.
pub struct DuplexStream {
    tx: WriteStream,
    rx: ReadStream,
}

impl DuplexStream {
    /// Opens both directions against the same peer set.
    pub fn open(
        vmpi: &Vmpi,
        peers: Vec<usize>,
        cfg: StreamConfig,
        stream_id: u16,
    ) -> crate::Result<DuplexStream> {
        // Directions are disambiguated by parity: lower world rank writes
        // on 2k / reads on 2k+1; its peers do the opposite. The peer set
        // must lie entirely on one side (true for partition-to-partition
        // couplings, where rank ranges are contiguous).
        let me = vmpi.mpi().world_rank();
        if !(peers.iter().all(|&p| p > me) || peers.iter().all(|&p| p < me)) {
            return Err(VmpiError::InvalidConfig(
                "duplex peers must all be in a remote partition",
            ));
        }
        let (tx_id, rx_id) = if peers.iter().all(|&p| p > me) {
            (2 * stream_id, 2 * stream_id + 1)
        } else {
            (2 * stream_id + 1, 2 * stream_id)
        };
        Ok(DuplexStream {
            tx: WriteStream::open_to(vmpi, peers.clone(), cfg, tx_id)?,
            rx: ReadStream::open_from(vmpi, peers, cfg, rx_id)?,
        })
    }

    /// Writes on the outbound direction.
    pub fn write(&mut self, data: &[u8]) -> crate::Result<()> {
        self.tx.write(data)
    }

    /// Flushes the outbound partial block.
    pub fn flush(&mut self) -> crate::Result<()> {
        self.tx.flush()
    }

    /// Reads from the inbound direction.
    pub fn read(&mut self, mode: ReadMode) -> crate::Result<Option<Block>> {
        self.rx.read(mode)
    }

    /// Closes the outbound direction and drains the inbound one.
    pub fn close(mut self) -> crate::Result<Vec<Block>> {
        self.tx.close()?;
        let mut rest = Vec::new();
        while let Some(b) = self.rx.read(ReadMode::Blocking)? {
            rest.push(b);
        }
        Ok(rest)
    }

    /// Accessors for the two halves.
    pub fn halves(&mut self) -> (&mut WriteStream, &mut ReadStream) {
        (&mut self.tx, &mut self.rx)
    }
}

// ---------------------------------------------------------------------
// Read endpoint.
// ---------------------------------------------------------------------

struct SourceState {
    world: usize,
    /// Pre-posted receives, completed in FIFO order (NA per source).
    reqs: VecDeque<Request>,
    eof: bool,
}

/// The reading end of a VMPI stream.
pub struct ReadStream {
    mpi: Mpi,
    universe: Comm,
    sources: Vec<SourceState>,
    cfg: StreamConfig,
    tag: i32,
    chooser: EndpointChooser,
    bytes_read: u64,
    blocks_read: u64,
}

impl ReadStream {
    /// Opens a read stream from all peers of `map` (`VMPI_Stream_open_map`
    /// with mode `"r"`).
    pub fn open_map(vmpi: &Vmpi, map: &Map, cfg: StreamConfig, stream_id: u16) -> Result<Self> {
        Self::open_from(vmpi, map.peers().to_vec(), cfg, stream_id)
    }

    /// Opens a read stream from an explicit list of world ranks.
    pub fn open_from(
        vmpi: &Vmpi,
        sources: Vec<usize>,
        cfg: StreamConfig,
        stream_id: u16,
    ) -> Result<Self> {
        if sources.is_empty() {
            return Err(VmpiError::InvalidConfig("read stream needs >= 1 source"));
        }
        let mpi = vmpi.mpi().clone();
        let universe = vmpi.comm_universe();
        let tag = stream_tag(stream_id);
        let mut states = Vec::with_capacity(sources.len());
        for world in sources {
            let mut reqs = VecDeque::with_capacity(cfg.n_async);
            for _ in 0..cfg.n_async {
                reqs.push_back(mpi.irecv_ctx(
                    Context::Stream,
                    &universe,
                    Src::Rank(world),
                    TagSel::Tag(tag),
                )?);
            }
            states.push(SourceState {
                world,
                reqs,
                eof: false,
            });
        }
        Ok(ReadStream {
            mpi,
            universe,
            sources: states,
            cfg,
            tag,
            chooser: EndpointChooser::new(0, cfg.balance), // n set per sweep
            bytes_read: 0,
            blocks_read: 0,
        })
    }

    /// True once every writer has signalled EOF.
    pub fn all_closed(&self) -> bool {
        self.sources.iter().all(|s| s.eof)
    }

    fn repost(&mut self, idx: usize) -> Result<()> {
        let world = self.sources[idx].world;
        let req = self.mpi.irecv_ctx(
            Context::Stream,
            &self.universe,
            Src::Rank(world),
            TagSel::Tag(self.tag),
        )?;
        self.sources[idx].reqs.push_back(req);
        Ok(())
    }

    /// Validates a frame's flag bits and inflates a compressed body.
    /// `Ok(None)` is a FIN (the source flips to EOF). Unknown flag bits
    /// and corrupt compressed payloads are typed, counted protocol
    /// violations that kill this source while the surviving writers stay
    /// readable.
    fn decode_body(&mut self, idx: usize, flags: u8, body: Bytes) -> Result<Option<Bytes>> {
        if flags == FLAG_FIN {
            self.sources[idx].eof = true;
            obs::m().sources_eof.inc();
            return Ok(None);
        }
        if flags & !FLAG_LZ4 != FLAG_DATA {
            obs::m().protocol_violations.inc();
            self.sources[idx].eof = true;
            return Err(VmpiError::ProtocolViolation {
                expected: "stream frame flags data, data|lz4 or fin",
                got: format!("{flags:#04x}"),
            });
        }
        if flags & FLAG_LZ4 == 0 {
            return Ok(Some(body));
        }
        let t0 = Instant::now();
        let mut out = BytesMut::new();
        match compress::decompress_into(&body, self.cfg.block_size, &mut out) {
            Ok(_) => {
                obs::m()
                    .decompress_ns
                    .record(t0.elapsed().as_nanos() as u64);
                Ok(Some(out.freeze()))
            }
            Err(e) => {
                let m = obs::m();
                m.decompress_failures.inc();
                m.protocol_violations.inc();
                self.sources[idx].eof = true;
                Err(VmpiError::ProtocolViolation {
                    expected: "valid lz4-compressed stream block",
                    got: e.to_string(),
                })
            }
        }
    }

    /// One sweep over the sources from a policy-chosen start: returns the
    /// first completed data frame found, flipping sources whose FIN
    /// arrived to EOF on the way.
    fn sweep(&mut self) -> Result<Option<Block>> {
        let n = self.sources.len();
        self.chooser.n = n;
        let start = match self.cfg.balance {
            Balance::None => 0,
            _ => self.chooser.pick().min(n - 1),
        };
        for off in 0..n {
            let idx = (start + off) % n;
            let src = &mut self.sources[idx];
            let ready = !src.eof && src.reqs.front_mut().is_some_and(|r| r.is_complete());
            let Some(req) = ready.then(|| src.reqs.pop_front()).flatten() else {
                continue;
            };
            let world = src.world;
            let frame = req
                .wait()?
                .ok_or_else(|| VmpiError::ProtocolViolation {
                    expected: "payload on completed stream receive",
                    got: "empty completion".to_string(),
                })
                .and_then(|(_st, data)| unframe(&data));
            let (flags, body) = match frame {
                Ok(frame) => frame,
                Err(e) => {
                    // A hostile or corrupt block: this source is dead (its
                    // byte offsets can no longer be trusted), but surviving
                    // writers stay readable on later calls.
                    obs::m().protocol_violations.inc();
                    self.sources[idx].eof = true;
                    return Err(e);
                }
            };
            if flags != FLAG_FIN {
                self.repost(idx)?;
            }
            let Some(data) = self.decode_body(idx, flags, body)? else {
                // FIN: every data frame before it has been delivered. Stop
                // reposting; leftover receives are reclaimed at job end.
                continue;
            };
            self.bytes_read += data.len() as u64;
            self.blocks_read += 1;
            let m = obs::m();
            m.read_bytes.add(data.len() as u64);
            m.blocks_read.inc();
            return Ok(Some(Block {
                source: world,
                data,
            }));
        }
        Ok(None)
    }

    /// A source whose writer rank has exited without closing and for which
    /// no deliverable frame remains. Because delivery is synchronous,
    /// everything the writer ever sent is already in our mailbox when its
    /// liveness flag drops — so this is loss, not latency.
    fn lost_peer(&mut self) -> Option<usize> {
        let uni = self.mpi.universe().clone();
        self.sources
            .iter_mut()
            .filter(|s| !s.eof && !uni.rank_alive(s.world))
            .find_map(|s| {
                let front_ready = s.reqs.front_mut().is_some_and(|r| r.is_complete());
                (!front_ready).then_some(s.world)
            })
    }

    /// Reads the next block (`VMPI_Stream_read`).
    ///
    /// * `Ok(Some(block))` — a block arrived;
    /// * `Ok(None)` — every writer closed (the paper's `read == 0`);
    /// * `Err(VmpiError::Again)` — nothing ready in non-blocking mode;
    /// * `Err(VmpiError::Timeout)` — `cfg.read_timeout` elapsed;
    /// * `Err(VmpiError::PeerLost)` — a writer died without closing; the
    ///   source is marked EOF so later reads drain the surviving writers.
    pub fn read(&mut self, mode: ReadMode) -> Result<Option<Block>> {
        obs::m().reads.inc();
        let deadline = self.cfg.read_timeout.map(|t| Instant::now() + t);
        let mut spins = 0u32;
        loop {
            // Read before the sweep: whatever lands after this line moves
            // the count (once it can be seen), so the park below returns
            // at once.
            let seen = self.mpi.deliveries()?;
            if let Some(block) = self.sweep()? {
                return Ok(Some(block));
            }
            if self.all_closed() {
                return Ok(None);
            }
            if let Some(rank) = self.lost_peer() {
                if let Some(s) = self.sources.iter_mut().find(|s| s.world == rank) {
                    s.eof = true;
                }
                obs::m().peers_lost.inc();
                return Err(VmpiError::PeerLost { rank });
            }
            match mode {
                ReadMode::NonBlocking => {
                    obs::m().eagain.inc();
                    return Err(VmpiError::Again);
                }
                ReadMode::Blocking => {
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            return Err(VmpiError::Timeout);
                        }
                    }
                    // Spin, yield (a saturated box wants the reader to
                    // find several blocks per turn), then sleep until the
                    // next delivery or liveness change.
                    spins += 1;
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else if spins < 256 {
                        std::thread::yield_now();
                    } else {
                        obs::m().read_parks.inc();
                        self.mpi.wait_delivery(seen, deadline)?;
                    }
                }
            }
        }
    }

    /// Total payload bytes received so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Blocks received so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Number of writers feeding this endpoint.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_runtime::Launcher;
    use proptest::prelude::*;
    use std::sync::{Arc, Mutex};

    /// The reference frame: the flags byte, then the body.
    fn frame(flags: u8, body: &[u8]) -> Bytes {
        [&[flags][..], body].concat().into()
    }

    /// Sends `bodies` as one block each — alternately through
    /// [`WriteStream::send_block`] and through `write` + `flush` — and
    /// returns every raw frame that reached the reader's mailbox, FIN
    /// included.
    fn raw_frames(cfg: StreamConfig, bodies: Vec<Vec<u8>>) -> Vec<Bytes> {
        let frames = Arc::new(Mutex::new(Vec::new()));
        let out = Arc::clone(&frames);
        Launcher::new()
            .partition("w", 1, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut st = WriteStream::open_to(&v, vec![1], cfg, 5).unwrap();
                let mut block = st.new_block();
                for (i, body) in bodies.iter().enumerate() {
                    if i % 2 == 0 {
                        block.extend_from_slice(body);
                        st.send_block(&mut block).unwrap();
                        assert_eq!(block.len(), BLOCK_HEADROOM);
                    } else {
                        st.write(body).unwrap();
                        st.flush().unwrap();
                    }
                }
                st.close().unwrap();
            })
            .partition("r", 1, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let (mpi, universe) = (v.mpi(), v.comm_universe());
                loop {
                    let (_, raw) = mpi
                        .recv_ctx(
                            Context::Stream,
                            &universe,
                            Src::Rank(0),
                            TagSel::Tag(stream_tag(5)),
                        )
                        .unwrap();
                    let fin = raw[0] == FLAG_FIN;
                    out.lock().unwrap().push(raw);
                    if fin {
                        break;
                    }
                }
            })
            .run()
            .unwrap();
        let got = frames.lock().unwrap().clone();
        got
    }

    /// `tile` repeated (compressible) or used to seed noise (not).
    fn body(tile: &[u8], repeats: usize, compressible: bool) -> Vec<u8> {
        let mut state = tile
            .iter()
            .fold(0x9E37_79B9u32, |s, &b| s.rotate_left(5) ^ b as u32);
        (0..tile.len() * repeats)
            .map(|i| {
                if compressible {
                    tile[i % tile.len()]
                } else {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 24) as u8
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Stamping the header into the block's headroom yields exactly
        /// the reference `frame()`: plain blocks, LZ4 blocks and the
        /// incompressible fallback alike.
        #[test]
        fn in_place_frames_equal_the_reference_frame(
            lz4 in any::<bool>(),
            shapes in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 1..64), 1usize..60, any::<bool>()),
                0..24,
            ),
        ) {
            // Two fixed bodies put both LZ4 outcomes in every case.
            let mut bodies = vec![body(&[0], 2048, true), body(&[1], 2048, false)];
            bodies.extend(shapes.iter().map(|(tile, n, c)| body(tile, *n, *c)));
            let cfg = StreamConfig::new(4096, 3, Balance::None)
                .with_compression(if lz4 { Compression::Lz4 } else { Compression::None });
            let got = raw_frames(cfg, bodies.clone());
            prop_assert_eq!(got.len(), bodies.len() + 1);
            for (i, (raw, body)) in got.iter().zip(&bodies).enumerate() {
                let mut packed = Vec::new();
                Lz4Encoder::new().compress(body, &mut packed);
                let want = if !lz4 || body.len() < MIN_COMPRESS_LEN {
                    frame(FLAG_DATA, body)
                } else if packed.len() < body.len() {
                    frame(FLAG_DATA | FLAG_LZ4, &packed)
                } else {
                    frame(FLAG_DATA, body)
                };
                prop_assert_eq!(raw, &want, "frame {} differs", i);
            }
            prop_assert_eq!(&got[bodies.len()], &frame(FLAG_FIN, &[]));
            if lz4 {
                prop_assert_eq!(got[0][0], FLAG_DATA | FLAG_LZ4);
                prop_assert_eq!(got[1][0], FLAG_DATA, "noise falls back to plain");
            }
        }
    }

    #[test]
    fn send_block_rejects_what_it_cannot_frame() {
        Launcher::new()
            .partition("w", 1, |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let cfg = StreamConfig::new(64, 3, Balance::None);
                let mut st = WriteStream::open_to(&v, vec![1], cfg, 6).unwrap();
                let mut block = st.new_block();
                st.send_block(&mut block).unwrap(); // empty: nothing to send
                block.extend_from_slice(&[1u8; 65]);
                assert!(matches!(
                    st.send_block(&mut block),
                    Err(VmpiError::InvalidConfig(_))
                ));
                assert_eq!(block.len(), BLOCK_HEADROOM, "emptied even on refusal");
                let mut bare = BytesMut::new();
                assert!(matches!(
                    st.send_block(&mut bare),
                    Err(VmpiError::InvalidConfig(_))
                ));
                assert_eq!(st.blocks_sent(), 0);
                st.close().unwrap();
            })
            .partition("r", 1, |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let cfg = StreamConfig::new(64, 3, Balance::None);
                let mut st = ReadStream::open_from(&v, vec![0], cfg, 6).unwrap();
                assert!(st.read(ReadMode::Blocking).unwrap().is_none());
            })
            .run()
            .unwrap();
    }
}
