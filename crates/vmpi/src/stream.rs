//! VMPI Streams: persistent asynchronous block channels (Figure 9).
//!
//! Semantics follow the paper:
//!
//! * a stream moves fixed-size **blocks** (≈1 MB for instrumentation use);
//! * the **write endpoint** owns `NA` shared output buffers: writing is
//!   non-blocking until all asynchronous buffers are full, which preserves
//!   an adaptation window between producer and consumer and then exerts real
//!   back-pressure. The window's state is one machine, `stream/machine.rs`,
//!   which the writer and a sender thread drive alike;
//! * a data frame is sent in synchronous mode (`Mpi::issend_ctx`): to a
//!   reader in this process its send completes only once one of the
//!   reader's posted receives holds it, at every block size, so a block
//!   is pending from the hand-off until a receive downstream takes it, and
//!   the writer blocks only while `NA` blocks are pending (counted in
//!   `vmpi_stream_backpressure_waits_total`, timed in
//!   `vmpi_stream_backpressure_wait_ns`). A frame that finds no free
//!   receive parks in the reader's mailbox as a rendezvous offer, and the
//!   reader's repost of the receive it just emptied takes it and completes
//!   its send. To a reader in another process a send completes once the
//!   link has logged the frame; the link's own cap then holds the writer;
//! * a **compressing** write endpoint owns one sender thread
//!   ([`SENDER_THREAD`]): the writer's flush copies the block into a
//!   pooled buffer and queues it, and the sender LZ4-compresses and sends
//!   it, so no rank thread compresses. A plain endpoint sends from the
//!   writer's thread;
//! * the **read endpoint** keeps `NA` pre-posted receive buffers *per
//!   incoming stream*, so any arriving block finds a buffer waiting (no
//!   unexpected messages on the hot path);
//! * streams created from a [`crate::Map`] connect a process to all its
//!   mapped peers; block distribution across multiple endpoints follows a
//!   load-balancing policy (**none / random / round-robin**), independently
//!   configurable at each end;
//! * non-blocking reads return [`VmpiError::Again`] (the paper's `EAGAIN`);
//! * writers close with a FIN frame, a standard send of one byte that
//!   completes at delivery, so `close` never waits on a reader that has
//!   stopped; a read returns `None` (EOF) only after **all** remote
//!   writers have closed.
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
//! `(source, tag)` lane behind the last data frame (a compressing stream's
//! `close` has its sender send every queued block first), and the
//! mailbox's FIFO matching keeps it there. A send the transport cannot make fails the
//! writer with [`opmr_runtime::RtError::Unreachable`]; a sender's failure
//! is latched and returned by the writer's next `write`, `flush`,
//! `send_block` or `close`, and a failed stream sends no FIN. A reader whose
//! writer exits without closing observes the rank-liveness flag and
//! surfaces [`VmpiError::PeerLost`] instead of hanging; the remaining
//! writers stay readable.

use crate::map::Map;
use crate::virt::Vmpi;
use crate::{Result, VmpiError};
use bytes::{Bytes, BytesMut};
use opmr_events::{compress, Compression, Lz4Encoder, PackEncoding};
use opmr_runtime::{Comm, Context, Mpi, Request, RtError, Src, TagSel};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
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
    /// Block until a block arrives or every writer closed, waiting in this
    /// rank's mailbox (`Mpi::wait_delivery`) for the next delivery or
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
        pub read_bytes: Arc<Counter>,
        pub blocks_read: Arc<Counter>,
        pub sources_eof: Arc<Counter>,
        pub peers_lost: Arc<Counter>,
        pub protocol_violations: Arc<Counter>,
        pub bytes_logical: Arc<Counter>,
        pub bytes_on_wire: Arc<Counter>,
        pub blocks_compressed: Arc<Counter>,
        pub compress_skipped: Arc<Counter>,
        pub decompress_failures: Arc<Counter>,
        pub open_writers: Arc<Gauge>,
        pub blocks_in_flight: Arc<Gauge>,
        pub occupancy: Arc<Histogram>,
        pub backpressure_wait_ns: Arc<Histogram>,
        pub sender_queue: Arc<Histogram>,
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
                read_bytes: r.counter("vmpi_stream_read_bytes_total"),
                blocks_read: r.counter("vmpi_stream_blocks_read_total"),
                sources_eof: r.counter("vmpi_stream_sources_eof_total"),
                peers_lost: r.counter("vmpi_stream_peers_lost_total"),
                protocol_violations: r.counter("vmpi_stream_protocol_violations_total"),
                bytes_logical: r.counter("vmpi_stream_bytes_logical_total"),
                bytes_on_wire: r.counter("vmpi_stream_bytes_on_wire_total"),
                blocks_compressed: r.counter("vmpi_stream_blocks_compressed_total"),
                compress_skipped: r.counter("vmpi_stream_compress_skipped_total"),
                decompress_failures: r.counter("vmpi_stream_decompress_failures_total"),
                open_writers: r.gauge("vmpi_stream_open_writers"),
                blocks_in_flight: r.gauge("vmpi_stream_blocks_in_flight"),
                occupancy: r.histogram("vmpi_stream_buffer_occupancy"),
                backpressure_wait_ns: r.histogram("vmpi_stream_backpressure_wait_ns"),
                sender_queue: r.histogram("vmpi_stream_sender_queue_depth"),
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

/// The name of a compressing stream's sender thread, as the OS lists it.
pub const SENDER_THREAD: &str = "vmpi-tx";

/// A [`Balance`] in use: it picks the endpoint of a writer's next block,
/// or the source a reader's sweep starts from. A random one holds its
/// seeded RNG.
enum EndpointChooser {
    First,
    RoundRobin { next: usize },
    Random(StdRng),
}

impl EndpointChooser {
    fn new(balance: Balance) -> Self {
        match balance {
            Balance::None => EndpointChooser::First,
            Balance::RoundRobin => EndpointChooser::RoundRobin { next: 0 },
            Balance::Random { seed } => EndpointChooser::Random(StdRng::seed_from_u64(seed)),
        }
    }

    /// An index below `n`.
    fn pick(&mut self, n: usize) -> usize {
        match self {
            EndpointChooser::First => 0,
            EndpointChooser::RoundRobin { next } => {
                let i = *next % n;
                *next = (i + 1) % n;
                i
            }
            EndpointChooser::Random(rng) => rng.gen_range(0..n),
        }
    }
}

// ---------------------------------------------------------------------
// Write endpoint.
// ---------------------------------------------------------------------

mod machine;
use machine::{Act, Input, StreamCore};

/// The write endpoint's `NA` asynchronous buffers (Figure 9): blocks
/// handed to a compressing stream's sender and not yet sent, the block
/// the sender holds, and sends no receive has taken yet. The writer
/// blocks while `n_async` of them are pending. Shared with the sender
/// thread, when there is one. Their counts, the latched failure and the
/// stop are one machine, [`StreamCore`]; this holds the buffers and
/// requests it counts.
#[derive(Default)]
struct Window {
    state: Mutex<Slots>,
    /// Signalled on every [`Act::Wake`]: a block queued, a block sent, a
    /// send failed, a stop asked for.
    changed: Condvar,
}

#[derive(Default)]
struct Slots {
    core: StreamCore,
    /// Blocks handed to the sender, each framed behind its headroom, with
    /// the endpoint it goes to.
    blocks: VecDeque<(usize, BytesMut)>,
    /// Sent blocks no receive has taken yet, oldest first.
    sends: VecDeque<Request>,
    /// Spent block buffers, reused by the next hand-off.
    spare: Vec<BytesMut>,
    bytes_on_wire: u64,
    backpressure_waits: u64,
}

/// A completed send's outcome.
fn outcome(req: Option<Request>) -> Result<()> {
    req.map_or(Ok(()), |r| r.wait().map(drop).map_err(Into::into))
}

impl Window {
    /// Steps the core: the blocks-in-flight gauge follows its pending
    /// count, and `Wake` wakes the window's waiters.
    fn step(&self, g: &mut Slots, input: Input) -> Act {
        let before = g.core.pending() as i64;
        let act = g.core.step(input);
        obs::m()
            .blocks_in_flight
            .add(g.core.pending() as i64 - before);
        if act == Act::Wake {
            self.changed.notify_all();
        }
        act
    }

    /// Records a send made (or failed) of `body` bytes.
    fn sent(&self, g: &mut Slots, sent: Result<Request>, body: u64) {
        let sent = sent.map(|req| {
            g.sends.push_back(req);
            g.bytes_on_wire += body;
            obs::m().bytes_on_wire.add(body);
        });
        self.step(g, Input::Sent(sent));
    }

    /// Returns the window locked with a free slot, blocking while
    /// `n_async` blocks are pending (the paper's back-pressure point), or
    /// the stream's latched failure.
    fn claim(&self, n_async: usize) -> Result<MutexGuard<'_, Slots>> {
        let m = obs::m();
        let mut g = self.state.lock();
        // Occupancy as the producer sees it at each block boundary
        // (0..=n_async).
        m.occupancy.record(g.core.pending() as u64);
        let mut blocked = None;
        loop {
            let done = g.sends.front_mut().is_some_and(Request::is_complete);
            let act = if done {
                let r = outcome(g.sends.pop_front());
                self.step(&mut g, Input::Completed(r))
            } else {
                self.step(&mut g, Input::Claim(n_async))
            };
            match act {
                Act::Go if done => continue,
                Act::Go => break,
                Act::Fail(e) => return Err(e),
                _ => {}
            }
            blocked.get_or_insert_with(|| {
                g.backpressure_waits += 1;
                m.backpressure_waits.inc();
                Instant::now()
            });
            if act == Act::Retire {
                // The oldest send frees the next slot.
                let req = g.sends.pop_front();
                drop(g);
                let r = outcome(req);
                g = self.state.lock();
                if let Act::Fail(e) = self.step(&mut g, Input::Completed(r)) {
                    return Err(e);
                }
            } else {
                // Every pending block is still with the sender.
                self.changed.wait(&mut g);
            }
        }
        if let Some(t0) = blocked {
            m.backpressure_wait_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
        Ok(g)
    }
}

/// Where a stream's frames go: the writer's rank, its universe and the
/// stream's tag.
#[derive(Clone)]
struct Lane {
    mpi: Mpi,
    universe: Comm,
    tag: i32,
}

impl Lane {
    /// Sends a data frame in synchronous mode: complete once a receive
    /// holds it.
    fn issend(&self, dst: usize, frame: Bytes) -> Result<Request> {
        Ok(self
            .mpi
            .issend_ctx(Context::Stream, &self.universe, dst, self.tag, frame)?)
    }
}

/// A compressing stream's sender thread: takes each handed-off block in
/// order, compresses it with the stream's encoder and sends it, until
/// `close` has had every queued block sent or `abort` stops it. A failed
/// send is latched in the window and ends the thread; the queued blocks
/// stay until `close` or `abort` discards them.
fn run_sender(window: &Window, lane: &Lane) {
    let mut enc = Lz4Encoder::new();
    let mut packed = BytesMut::new();
    let mut g = window.state.lock();
    loop {
        match window.step(&mut g, Input::Take) {
            Act::Send => {}
            Act::Wait => {
                window.changed.wait(&mut g);
                continue;
            }
            _ => return,
        }
        let Some((dst, mut block)) = g.blocks.pop_front() else {
            return;
        };
        drop(g);
        let frame = compressed_frame(&mut enc, &mut packed, &mut block);
        let body = (frame.len() - BLOCK_HEADROOM) as u64;
        let sent = lane.issend(dst, frame);
        g = window.state.lock();
        g.spare.push(block);
        window.sent(&mut g, sent, body);
    }
}

/// The frame a compressing stream sends for `block` (a block framed
/// behind its headroom): LZ4 when that is smaller, the block verbatim
/// when not. The per-frame flag tells the reader which shape arrived, so
/// an incompressible block falls back to the plain layout with zero
/// coordination.
fn compressed_frame(enc: &mut Lz4Encoder, packed: &mut BytesMut, block: &mut [u8]) -> Bytes {
    let logical = block.len() - BLOCK_HEADROOM;
    let m = obs::m();
    if logical >= MIN_COMPRESS_LEN {
        let t0 = Instant::now();
        packed.resize(BLOCK_HEADROOM, 0);
        packed.reserve(compress::max_compressed_len(logical));
        enc.compress(&block[BLOCK_HEADROOM..], packed);
        m.compress_ns.record(t0.elapsed().as_nanos() as u64);
        #[cfg(test)]
        tests::COMPRESSED_HERE.with(|n| n.set(n.get() + 1));
        if packed.len() < block.len() {
            m.blocks_compressed.inc();
            packed[0] = FLAG_DATA | FLAG_LZ4;
            return Bytes::copy_from_slice(packed);
        }
        m.compress_skipped.inc();
    }
    block[0] = FLAG_DATA;
    Bytes::copy_from_slice(block)
}

/// The writing end of a VMPI stream.
///
/// A plain stream sends each block from the writer's thread: the
/// synchronous `issend` hands the reader's mailbox its one copy and
/// returns, complete at once if a posted receive took it. A compressing
/// stream owns one sender thread, which compresses and sends; the
/// writer's flush only copies the block into a pooled buffer and queues
/// it. Either way the writer blocks only while `cfg.n_async` blocks are
/// queued, or sent and not yet taken by a receive.
pub struct WriteStream {
    lane: Lane,
    endpoints: Vec<usize>,
    cfg: StreamConfig,
    chooser: EndpointChooser,
    /// The block [`WriteStream::write`] fills, payload behind
    /// [`BLOCK_HEADROOM`]: pooled, taken on the first write, truncated to
    /// the headroom after each send, returned on close.
    current: BytesMut,
    window: Arc<Window>,
    /// A compressing stream's sender thread, joined on close, abort or
    /// drop.
    sender: Option<JoinHandle<()>>,
    bytes_written: u64,
    blocks_sent: u64,
}

impl WriteStream {
    /// Opens a write stream to all peers of `map` (`VMPI_Stream_open_map`
    /// with mode `"w"`).
    pub fn open_map(vmpi: &Vmpi, map: &Map, cfg: StreamConfig, stream_id: u16) -> Result<Self> {
        Self::open_to(vmpi, map.peers().to_vec(), cfg, stream_id)
    }

    /// Opens a write stream to an explicit list of world ranks. A
    /// compressing stream starts its sender thread here.
    pub fn open_to(
        vmpi: &Vmpi,
        endpoints: Vec<usize>,
        cfg: StreamConfig,
        stream_id: u16,
    ) -> Result<Self> {
        if endpoints.is_empty() {
            return Err(VmpiError::InvalidConfig("write stream needs >= 1 endpoint"));
        }
        let lane = Lane {
            mpi: vmpi.mpi().clone(),
            universe: vmpi.comm_universe(),
            tag: stream_tag(stream_id),
        };
        let window = Arc::new(Window::default());
        let sender = match cfg.compression {
            Compression::None => None,
            Compression::Lz4 => {
                let (window, lane) = (Arc::clone(&window), lane.clone());
                let thread = std::thread::Builder::new()
                    .name(SENDER_THREAD.into())
                    .spawn(move || run_sender(&window, &lane))
                    .map_err(|_| VmpiError::InvalidConfig("no thread for the stream's sender"))?;
                Some(thread)
            }
        };
        obs::m().open_writers.inc();
        Ok(WriteStream {
            lane,
            chooser: EndpointChooser::new(cfg.balance),
            endpoints,
            current: BytesMut::new(),
            cfg,
            window,
            sender,
            bytes_written: 0,
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
        self.window.state.lock().core.check()?;
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
        self.window.state.lock().core.check()?;
        self.send_current()
    }

    fn send_current(&mut self) -> Result<()> {
        if self.current.len() <= BLOCK_HEADROOM {
            return Ok(());
        }
        let mut block = std::mem::take(&mut self.current);
        let res = self.push_block(&mut block);
        block.truncate(BLOCK_HEADROOM);
        self.current = block;
        res
    }

    /// Sends `framed[BLOCK_HEADROOM..]` — serialised in place behind the
    /// headroom of a buffer from [`WriteStream::new_block`] — as one
    /// stream block, after anything [`WriteStream::write`] still buffers.
    /// The caller keeps its buffer as it was (bar the headroom): a plain
    /// stream copies the payload once, into the right-sized frame the
    /// receiver's mailbox keeps; a compressing one once, into the pooled
    /// buffer its sender compresses from.
    pub fn send_block(&mut self, framed: &mut [u8]) -> Result<()> {
        self.window.state.lock().core.check()?;
        match framed.len().checked_sub(BLOCK_HEADROOM) {
            None => Err(VmpiError::InvalidConfig("block buffer lost its headroom")),
            Some(n) if n > self.cfg.block_size => Err(VmpiError::InvalidConfig(
                "block exceeds the stream's block size",
            )),
            Some(0) => Ok(()),
            Some(n) => {
                self.send_current()?;
                self.bytes_written += n as u64;
                obs::m().write_bytes.add(n as u64);
                self.push_block(framed)
            }
        }
    }

    /// Ships one framed block once the window has a free slot: handed to
    /// the sender by a compressing stream, sent from here by a plain one,
    /// which is its own sender.
    fn push_block(&mut self, framed: &mut [u8]) -> Result<()> {
        let m = obs::m();
        let body = (framed.len() - BLOCK_HEADROOM) as u64;
        m.bytes_logical.add(body);
        let dst = self.endpoints[self.chooser.pick(self.endpoints.len())];
        let mut g = self.window.claim(self.cfg.n_async)?;
        if self.sender.is_some() {
            let spare = g.spare.pop();
            // Copy outside the lock: only this thread adds to the window.
            drop(g);
            let mut block = spare.unwrap_or_else(|| self.new_block());
            block.clear();
            block.extend_from_slice(framed);
            g = self.window.state.lock();
            g.blocks.push_back((dst, block));
            m.sender_queue.record(g.blocks.len() as u64);
            self.window.step(&mut g, Input::Hand);
        } else {
            self.window.step(&mut g, Input::Hand);
            self.window.step(&mut g, Input::Take);
            framed[0] = FLAG_DATA;
            let sent = self.lane.issend(dst, Bytes::copy_from_slice(framed));
            self.window.sent(&mut g, sent, body);
            g.core.check()?;
        }
        self.blocks_sent += 1;
        m.blocks_sent.inc();
        Ok(())
    }

    /// Steps `Close` or `Abort`, then joins the sender thread, if any: it
    /// exits once it has sent every queued block, or the one in hand.
    fn stop_sender(&mut self, input: Input) {
        self.window.step(&mut self.window.state.lock(), input);
        let Some(thread) = self.sender.take() else {
            return;
        };
        if thread.join().is_err() {
            let e = VmpiError::Runtime(RtError::Protocol("stream sender thread panicked"));
            self.window
                .step(&mut self.window.state.lock(), Input::Sent(Err(e)));
        }
    }

    /// Flushes, has every block sent and signals EOF to every endpoint
    /// (`VMPI_Stream_close`). It does not wait for the reader to take the
    /// frames still in flight: they sit in the reader's mailbox, ahead of
    /// the FIN. A stream whose send failed returns that failure and sends
    /// no FIN: its readers see the writer lost, not a clean end.
    pub fn close(mut self) -> Result<()> {
        self.close_inner()
    }

    fn close_inner(&mut self) -> Result<()> {
        if self.window.state.lock().core.closed() {
            return Ok(());
        }
        let flushed = self.send_current();
        // Closed from here on, whatever the outcome: a failure poisons
        // the stream rather than leaving it half-closable from `Drop`.
        let m = obs::m();
        m.closes.inc();
        m.open_writers.dec();
        self.stop_sender(Input::Close);
        let res = flushed.and_then(|()| self.send_fins());
        self.release();
        res
    }

    /// The FIN fan-out, unless the stream failed.
    fn send_fins(&mut self) -> Result<()> {
        if let Act::Fail(e) = self.window.step(&mut self.window.state.lock(), Input::Fin) {
            return Err(e);
        }
        for &ep in &self.endpoints {
            // Same (source, tag) lane as the data frames, sent after the
            // last of them: FIFO matching delivers it last. A standard
            // send of one byte, complete at delivery.
            let fin = Bytes::from_static(&[FLAG_FIN]);
            let lane = &self.lane;
            lane.mpi
                .send_ctx(Context::Stream, &lane.universe, ep, lane.tag, fin)?;
            obs::m().fins_sent.inc();
        }
        Ok(())
    }

    /// Returns every buffer to the pool and forgets unsent blocks.
    fn release(&mut self) {
        let mut g = self.window.state.lock();
        self.window.step(&mut g, Input::Release);
        // Dropping the requests abandons their completion handles; the
        // frames still parked are taken by the reader's reposts (ahead of
        // the FIN) or reclaimed at job teardown.
        g.sends.clear();
        let pool = opmr_events::global_pool();
        for (_, block) in g.blocks.drain(..) {
            pool.put(block);
        }
        for block in g.spare.drain(..) {
            pool.put(block);
        }
        drop(g);
        pool.put(std::mem::take(&mut self.current));
    }

    /// Terminates the stream *without* signalling EOF — the model of a
    /// writer crashing mid-stream. Queued blocks are dropped, in-flight
    /// ones may or may not arrive; readers observe the missing close once
    /// this rank exits and surface [`VmpiError::PeerLost`] instead of
    /// hanging.
    pub fn abort(mut self) {
        let m = obs::m();
        m.aborts.inc();
        m.open_writers.dec();
        self.stop_sender(Input::Abort);
        self.release();
    }

    /// Total payload bytes accepted so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Full/partial blocks sent (handed off, for a compressing stream) so
    /// far.
    pub fn blocks_sent(&self) -> u64 {
        self.blocks_sent
    }

    /// Blocks queued for the sender or in flight: at most `cfg.n_async`.
    pub fn blocks_pending(&self) -> usize {
        self.window.state.lock().core.pending()
    }

    /// Calls that blocked on a full window (the paper's back-pressure).
    pub fn backpressure_waits(&self) -> u64 {
        self.window.state.lock().backpressure_waits
    }

    /// Block payload bytes actually shipped (after compression); compare
    /// with [`WriteStream::bytes_written`] for the on-wire ratio.
    pub fn bytes_on_wire(&self) -> u64 {
        self.window.state.lock().bytes_on_wire
    }

    /// Number of remote endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }
}

impl Drop for WriteStream {
    fn drop(&mut self) {
        // Best-effort close so readers are never left waiting (and the
        // sender thread is joined); errors are ignored because the
        // universe may already be shutting down.
        let _ = self.close_inner();
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

    /// Opens a read stream from an explicit list of world ranks, with
    /// `n_async` receives posted per source.
    pub fn open_from(
        vmpi: &Vmpi,
        sources: Vec<usize>,
        cfg: StreamConfig,
        stream_id: u16,
    ) -> Result<Self> {
        if sources.is_empty() {
            return Err(VmpiError::InvalidConfig("read stream needs >= 1 source"));
        }
        let sources = sources.into_iter().map(|world| SourceState {
            world,
            reqs: VecDeque::with_capacity(cfg.n_async),
            eof: false,
        });
        let mut rs = ReadStream {
            mpi: vmpi.mpi().clone(),
            universe: vmpi.comm_universe(),
            sources: sources.collect(),
            cfg,
            tag: stream_tag(stream_id),
            chooser: EndpointChooser::new(cfg.balance),
            bytes_read: 0,
            blocks_read: 0,
        };
        for idx in 0..rs.sources.len() {
            for _ in 0..cfg.n_async {
                rs.repost(idx)?;
            }
        }
        Ok(rs)
    }

    /// True once every writer has signalled EOF.
    pub fn all_closed(&self) -> bool {
        self.sources.iter().all(|s| s.eof)
    }

    /// Posts one more receive for source `idx`.
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

    /// The block a data frame carries: its flag bits validated, a
    /// compressed body inflated. A missing header, unknown flag bits and a
    /// corrupt compressed body are typed protocol violations.
    fn decode(&self, frame: &Bytes) -> Result<Bytes> {
        let violation = |expected, got| VmpiError::ProtocolViolation { expected, got };
        let Some(&flags) = frame.first() else {
            return Err(violation("stream frame header of 1 byte", "0 bytes".into()));
        };
        if flags & !FLAG_LZ4 != FLAG_DATA {
            let expected = "stream frame flags data, data|lz4 or fin";
            return Err(violation(expected, format!("{flags:#04x}")));
        }
        let body = frame.slice(BLOCK_HEADROOM..);
        if flags & FLAG_LZ4 == 0 {
            return Ok(body);
        }
        let m = obs::m();
        let t0 = Instant::now();
        let mut out = BytesMut::new();
        compress::decompress_into(&body, self.cfg.block_size, &mut out).map_err(|e| {
            m.decompress_failures.inc();
            violation("valid lz4-compressed stream block", e.to_string())
        })?;
        m.decompress_ns.record(t0.elapsed().as_nanos() as u64);
        Ok(out.freeze())
    }

    /// One sweep over the sources from a policy-chosen start: returns the
    /// first completed data frame found, flipping sources whose FIN
    /// arrived to EOF on the way.
    fn sweep(&mut self) -> Result<Option<Block>> {
        let n = self.sources.len();
        let start = self.chooser.pick(n);
        for off in 0..n {
            let idx = (start + off) % n;
            let src = &mut self.sources[idx];
            let ready = !src.eof && src.reqs.front_mut().is_some_and(Request::is_complete);
            let Some(req) = ready.then(|| src.reqs.pop_front()).flatten() else {
                continue;
            };
            // A receive completes with a payload; none would read as an
            // empty frame, which has no header.
            let frame = req.wait()?.map(|(_st, data)| data).unwrap_or_default();
            match frame.first() {
                Some(&FLAG_FIN) => {
                    // Every data frame before it has been delivered. Stop
                    // reposting; leftover receives are reclaimed at job end.
                    self.sources[idx].eof = true;
                    obs::m().sources_eof.inc();
                    continue;
                }
                // Before inflating: the writer's next parked frame is
                // taken first.
                Some(_) => self.repost(idx)?,
                None => {}
            }
            let data = match self.decode(&frame) {
                Ok(data) => data,
                Err(e) => {
                    // A hostile or corrupt frame: this source is dead (its
                    // byte offsets can no longer be trusted), but surviving
                    // writers stay readable on later calls.
                    obs::m().protocol_violations.inc();
                    self.sources[idx].eof = true;
                    return Err(e);
                }
            };
            self.bytes_read += data.len() as u64;
            self.blocks_read += 1;
            let m = obs::m();
            m.read_bytes.add(data.len() as u64);
            m.blocks_read.inc();
            return Ok(Some(Block {
                source: self.sources[idx].world,
                data,
            }));
        }
        Ok(None)
    }

    /// Marks lost, and returns, a source whose writer rank has exited
    /// without closing and for which no deliverable frame remains.
    /// Because delivery is synchronous, everything the writer ever sent is
    /// already in our mailbox when its liveness flag drops — so this is
    /// loss, not latency.
    fn lost_peer(&mut self) -> Option<usize> {
        let uni = self.mpi.universe();
        let src = self
            .sources
            .iter_mut()
            .filter(|s| !s.eof && !uni.rank_alive(s.world))
            .find_map(|s| (!s.reqs.front_mut().is_some_and(Request::is_complete)).then_some(s))?;
        src.eof = true;
        obs::m().peers_lost.inc();
        Some(src.world)
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
        loop {
            // Read before the sweep: whatever lands after this line moves
            // the count (once it can be seen), so the wait below returns
            // at once.
            let seen = self.mpi.deliveries()?;
            if let Some(block) = self.sweep()? {
                return Ok(Some(block));
            }
            if self.all_closed() {
                return Ok(None);
            }
            if let Some(rank) = self.lost_peer() {
                return Err(VmpiError::PeerLost { rank });
            }
            if mode == ReadMode::NonBlocking {
                obs::m().eagain.inc();
                return Err(VmpiError::Again);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(VmpiError::Timeout);
            }
            self.mpi.wait_delivery(seen, deadline)?;
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
    use std::cell::Cell;
    use std::sync::Mutex;

    thread_local! {
        /// Blocks LZ4-compressed on this thread.
        pub(super) static COMPRESSED_HERE: Cell<u64> = const { Cell::new(0) };
    }

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
                        block.truncate(BLOCK_HEADROOM);
                        block.extend_from_slice(body);
                        st.send_block(&mut block).unwrap();
                        assert_eq!(
                            &block[BLOCK_HEADROOM..],
                            &body[..],
                            "the caller keeps its block"
                        );
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
                assert!(matches!(
                    st.send_block(&mut []),
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

    /// A compressing stream compresses on its sender thread: the rank
    /// thread that writes and flushes compresses nothing, yet the blocks
    /// leave compressed.
    #[test]
    fn no_rank_thread_compresses() {
        let bodies: Vec<Vec<u8>> = (0..8u8).map(|i| body(&[i, 1, 2, 3], 512, true)).collect();
        let cfg = StreamConfig::new(4096, 3, Balance::None).with_compression(Compression::Lz4);
        let (w_bodies, n) = (bodies.clone(), bodies.len());
        Launcher::new()
            .partition("w", 1, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut st = WriteStream::open_to(&v, vec![1], cfg, 7).unwrap();
                let mut block = st.new_block();
                for body in &w_bodies {
                    block.truncate(BLOCK_HEADROOM);
                    block.extend_from_slice(body);
                    st.send_block(&mut block).unwrap();
                    st.write(body).unwrap();
                    st.flush().unwrap();
                }
                st.close().unwrap();
                assert_eq!(COMPRESSED_HERE.with(Cell::get), 0);
            })
            .partition("r", 1, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut st = ReadStream::open_from(&v, vec![0], cfg, 7).unwrap();
                let mut got = Vec::new();
                while let Some(b) = st.read(ReadMode::Blocking).unwrap() {
                    got.push(b.data.to_vec());
                }
                assert_eq!(got.len(), 2 * n);
                assert_eq!(COMPRESSED_HERE.with(Cell::get), 0);
            })
            .run()
            .unwrap();
        // Every block went out compressed, so some thread compressed them.
        let frames = raw_frames(cfg, bodies);
        assert!(frames[..frames.len() - 1]
            .iter()
            .all(|f| f[0] == FLAG_DATA | FLAG_LZ4));
    }
}
