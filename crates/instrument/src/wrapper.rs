//! The instrumented MPI façade (the PMPI wrapper stack equivalent).
//!
//! Every call: timestamp → delegate to the virtualized runtime → build an
//! [`Event`] → run interceptor hooks → push into the [`Recorder`], which
//! encodes the row in place and streams full packs to the analyzer.
//! Instrumentation overhead is real here, but back-pressure is not yet the
//! paper's: a stream block of at most 64 KiB goes out eagerly, so a slow
//! analyzer queues blocks in its mailbox instead of stalling the
//! application (`vmpi.backpressure_waits_per_block` reads 0). Bounding
//! that queue — pipe semantics under back-pressure — is ROADMAP item 2.

use crate::clock::RankClock;
use crate::recorder::{Recorder, RecorderConfig, RecorderStats};
use crate::sink::PackSink;
use bytes::Bytes;
use opmr_events::{Event, EventKind, EventPack};
use opmr_runtime::collectives::ops as reduce_ops;
use opmr_runtime::{Comm, CommId, Mpi, Pod, Src, Status, TagSel};
use opmr_vmpi::{Result, StreamConfig, Vmpi, VmpiError};
use std::cell::RefCell;
use std::time::Duration;

/// Interceptor hook: observes every recorded event (PNMPI-module analogue).
pub type Hook = Box<dyn Fn(&Event) + Send>;

/// Handle for an in-flight instrumented non-blocking operation.
pub struct InstrRequest {
    inner: opmr_runtime::Request,
    peer: i32,
    tag: i32,
    comm: u32,
    bytes: u64,
}

/// The instrumented, virtualized MPI handle handed to application code.
///
/// **One rank, one thread.** A handle belongs to the rank that opened it
/// and is driven from that rank's thread, as an MPI process drives its
/// own PMPI layer: its recorder, hooks, communicator table and clock sit
/// in `RefCell`s, so an instrumented call takes no lock. The handle is
/// `Send` (a rank may be started on a thread other than the one that
/// builds it) but not `Sync`, so sharing one between threads does not
/// compile:
///
/// ```compile_fail,E0277
/// fn shared(imp: &opmr_instrument::InstrumentedMpi) {
///     std::thread::scope(|s| {
///         s.spawn(|| imp.marker(1));
///         s.spawn(|| imp.marker(2));
///     });
/// }
/// ```
pub struct InstrumentedMpi {
    vmpi: Vmpi,
    world: Comm,
    rec: RefCell<Option<Recorder>>,
    hooks: RefCell<Vec<Hook>>,
    /// Communicators in first-use order: one's index is its position (a
    /// rank uses a handful, so a scan beats a hash).
    comms: RefCell<Vec<CommId>>,
    clock: RefCell<RankClock>,
}

impl InstrumentedMpi {
    /// Instruments a rank: virtualizes it, opens its pack sink with
    /// `open_sink` (the analyzer's stream, [`PackSink::stream`], or a trace
    /// file or container) and records `MPI_Init`, timed from the rank's
    /// entry here. Packs are cut to `stream_cfg`'s block size in its
    /// encoding, whatever the sink; a block below a header and one row is
    /// [`VmpiError::InvalidConfig`].
    pub fn init(
        mpi: Mpi,
        app_id: u16,
        stream_cfg: StreamConfig,
        open_sink: impl FnOnce(&Vmpi) -> Result<PackSink>,
    ) -> Result<Self> {
        let (block_size, encoding) = (stream_cfg.block_size, stream_cfg.pack_encoding);
        let entered = mpi.wtime_ns();
        let vmpi = Vmpi::new(mpi)?;
        let sink = open_sink(&vmpi)?;
        if EventPack::capacity_for_block_with(block_size, encoding) == 0 {
            return Err(VmpiError::InvalidConfig("block below a header and one row"));
        }
        let rank = vmpi.rank() as u32;
        let rec = Recorder::new(
            RecorderConfig::for_block(app_id, rank, block_size, encoding),
            sink,
        );
        let world = vmpi.comm_world();
        let imp = InstrumentedMpi {
            vmpi,
            world,
            rec: RefCell::new(Some(rec)),
            hooks: RefCell::new(Vec::new()),
            comms: RefCell::new(Vec::new()),
            clock: RefCell::new(RankClock::new()),
        };
        let dur = imp.now_ns().saturating_sub(entered);
        imp.record(Event::basic(EventKind::Init, rank, entered, dur))?;
        Ok(imp)
    }

    /// Adds an interceptor layer observing every event from now on.
    ///
    /// One rank, one thread: hooks run on the rank's thread, inside the
    /// instrumented call that records the event. A hook cannot hold the
    /// handle it observes (it is `Send + 'static` and the handle is not
    /// `Sync`); one that reaches it anyway and registers a hook from
    /// inside a hook gets [`VmpiError::Reentered`].
    pub fn add_hook(&self, hook: impl Fn(&Event) + Send + 'static) -> Result<()> {
        self.hooks
            .try_borrow_mut()
            .map_err(|_| VmpiError::Reentered("running hooks"))?
            .push(Box::new(hook));
        Ok(())
    }

    /// Nanoseconds since the job's start (the `Universe` epoch, one origin
    /// for every rank of the process), read from the rank's clock:
    /// the CPU's cycle counter, interpolated between anchors on
    /// `Mpi::wtime_ns` and re-anchored every
    /// [`ANCHOR_EVERY`](crate::clock::ANCHOR_EVERY) (256) reads. It agrees
    /// with `wtime_ns` to well under a microsecond and never decreases on
    /// one rank. Every timestamp the handle records comes from here.
    pub fn now_ns(&self) -> u64 {
        let wall = || self.vmpi.mpi().wtime_ns();
        // The borrow cannot fail: nothing the clock calls reaches the handle.
        match self.clock.try_borrow_mut() {
            Ok(mut clock) => clock.now(wall),
            Err(_) => wall(),
        }
    }

    /// The virtual world communicator of this application.
    pub fn comm_world(&self) -> Comm {
        self.world.clone()
    }

    /// The underlying virtualized handle.
    pub fn vmpi(&self) -> &Vmpi {
        &self.vmpi
    }

    /// Rank within the application.
    pub fn rank(&self) -> usize {
        self.vmpi.rank()
    }

    /// Application size.
    pub fn size(&self) -> usize {
        self.vmpi.size()
    }

    fn comm_index(&self, comm: &Comm) -> Result<u32> {
        let mut g = self
            .comms
            .try_borrow_mut()
            .map_err(|_| VmpiError::Reentered("indexing a communicator"))?;
        let id = comm.id();
        let at = match g.iter().position(|&c| c == id) {
            Some(at) => at,
            None => {
                g.push(id);
                g.len() - 1
            }
        };
        Ok(at as u32)
    }

    /// Runs the hooks, then encodes the event. No borrow is held while a
    /// hook runs except the hook list's own shared one, so the recorder's
    /// borrow cannot collide with a hook.
    fn record(&self, event: Event) -> Result<()> {
        for hook in self
            .hooks
            .try_borrow()
            .map_err(|_| VmpiError::Reentered("adding a hook"))?
            .iter()
        {
            hook(&event);
        }
        match self
            .rec
            .try_borrow_mut()
            .map_err(|_| VmpiError::Reentered("recording"))?
            .as_mut()
        {
            Some(rec) => rec.record(event),
            None => Err(VmpiError::StreamClosed),
        }
    }

    fn event(
        &self,
        kind: EventKind,
        start: u64,
        peer: i32,
        tag: i32,
        comm: u32,
        bytes: u64,
    ) -> Event {
        Event {
            time_ns: start,
            duration_ns: self.now_ns().saturating_sub(start),
            kind,
            rank: self.vmpi.rank() as u32,
            peer,
            tag,
            comm,
            bytes,
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point.
    // ------------------------------------------------------------------

    /// Instrumented `MPI_Send`.
    pub fn send(&self, comm: &Comm, dst: usize, tag: i32, data: impl Into<Bytes>) -> Result<()> {
        let data = data.into();
        let (ci, len) = (self.comm_index(comm)?, data.len() as u64);
        let start = self.now_ns();
        self.vmpi.mpi().send(comm, dst, tag, data)?;
        self.record(self.event(EventKind::Send, start, dst as i32, tag, ci, len))
    }

    /// Instrumented `MPI_Recv`.
    pub fn recv(&self, comm: &Comm, src: Src, tag: TagSel) -> Result<(Status, Bytes)> {
        let ci = self.comm_index(comm)?;
        let start = self.now_ns();
        let (st, data) = self.vmpi.mpi().recv(comm, src, tag)?;
        self.record(self.event(
            EventKind::Recv,
            start,
            st.source as i32,
            st.tag,
            ci,
            data.len() as u64,
        ))?;
        Ok((st, data))
    }

    /// Instrumented `MPI_Isend`.
    pub fn isend(
        &self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        data: impl Into<Bytes>,
    ) -> Result<InstrRequest> {
        let data = data.into();
        let (ci, len) = (self.comm_index(comm)?, data.len() as u64);
        let start = self.now_ns();
        let inner = self.vmpi.mpi().isend(comm, dst, tag, data)?;
        self.record(self.event(EventKind::Isend, start, dst as i32, tag, ci, len))?;
        Ok(InstrRequest {
            inner,
            peer: dst as i32,
            tag,
            comm: ci,
            bytes: len,
        })
    }

    /// Instrumented `MPI_Irecv`.
    pub fn irecv(&self, comm: &Comm, src: Src, tag: TagSel) -> Result<InstrRequest> {
        let ci = self.comm_index(comm)?;
        let start = self.now_ns();
        let inner = self.vmpi.mpi().irecv(comm, src, tag)?;
        let peer = match src {
            Src::Any => -1,
            Src::Rank(r) => r as i32,
        };
        let tag_v = match tag {
            TagSel::Any => -1,
            TagSel::Tag(t) => t,
        };
        self.record(self.event(EventKind::Irecv, start, peer, tag_v, ci, 0))?;
        Ok(InstrRequest {
            inner,
            peer,
            tag: tag_v,
            comm: ci,
            bytes: 0,
        })
    }

    /// Instrumented `MPI_Wait`.
    pub fn wait(&self, req: InstrRequest) -> Result<Option<(Status, Bytes)>> {
        let start = self.now_ns();
        let out = req.inner.wait()?;
        let bytes = out
            .as_ref()
            .map(|(_, d)| d.len() as u64)
            .unwrap_or(req.bytes);
        let peer = out
            .as_ref()
            .map(|(s, _)| s.source as i32)
            .unwrap_or(req.peer);
        self.record(self.event(EventKind::Wait, start, peer, req.tag, req.comm, bytes))?;
        Ok(out)
    }

    /// Instrumented `MPI_Waitall`.
    pub fn waitall(&self, reqs: Vec<InstrRequest>) -> Result<Vec<Option<(Status, Bytes)>>> {
        let start = self.now_ns();
        let ci = reqs.first().map(|r| r.comm).unwrap_or(0);
        let mut out = Vec::with_capacity(reqs.len());
        let mut total = 0u64;
        for r in reqs {
            let res = r.inner.wait()?;
            total += res.as_ref().map(|(_, d)| d.len() as u64).unwrap_or(r.bytes);
            out.push(res);
        }
        self.record(self.event(EventKind::Waitall, start, -1, -1, ci, total))?;
        Ok(out)
    }

    /// Instrumented `MPI_Sendrecv`.
    pub fn sendrecv(
        &self,
        comm: &Comm,
        dst: usize,
        send_tag: i32,
        data: impl Into<Bytes>,
        src: Src,
        recv_tag: TagSel,
    ) -> Result<(Status, Bytes)> {
        let data = data.into();
        let (ci, len) = (self.comm_index(comm)?, data.len() as u64);
        let start = self.now_ns();
        let (st, got) = self
            .vmpi
            .mpi()
            .sendrecv(comm, dst, send_tag, data, src, recv_tag)?;
        self.record(self.event(
            EventKind::Sendrecv,
            start,
            dst as i32,
            send_tag,
            ci,
            len + got.len() as u64,
        ))?;
        Ok((st, got))
    }

    /// Typed instrumented send.
    pub fn send_t<T: Pod>(&self, comm: &Comm, dst: usize, tag: i32, data: &[T]) -> Result<()> {
        self.send(comm, dst, tag, opmr_runtime::pod::bytes_of_slice(data))
    }

    /// Typed instrumented receive.
    pub fn recv_t<T: Pod>(&self, comm: &Comm, src: Src, tag: TagSel) -> Result<(Status, Vec<T>)> {
        let (st, data) = self.recv(comm, src, tag)?;
        let v = opmr_runtime::pod::vec_from_bytes::<T>(&data).ok_or(VmpiError::Runtime(
            opmr_runtime::RtError::TypeSize {
                got: data.len(),
                elem: std::mem::size_of::<T>(),
            },
        ))?;
        Ok((st, v))
    }

    // ------------------------------------------------------------------
    // Collectives.
    // ------------------------------------------------------------------

    /// Instrumented `MPI_Barrier`.
    pub fn barrier(&self, comm: &Comm) -> Result<()> {
        let ci = self.comm_index(comm)?;
        let start = self.now_ns();
        self.vmpi.mpi().barrier(comm)?;
        self.record(self.event(EventKind::Barrier, start, -1, -1, ci, 0))
    }

    /// Instrumented `MPI_Bcast`.
    pub fn bcast(&self, comm: &Comm, root: usize, data: Option<Bytes>) -> Result<Bytes> {
        let ci = self.comm_index(comm)?;
        let start = self.now_ns();
        let out = self.vmpi.mpi().bcast(comm, root, data)?;
        self.record(self.event(
            EventKind::Bcast,
            start,
            root as i32,
            -1,
            ci,
            out.len() as u64,
        ))?;
        Ok(out)
    }

    /// Instrumented typed `MPI_Reduce`.
    pub fn reduce_sum<T: Pod + std::ops::Add<Output = T>>(
        &self,
        comm: &Comm,
        root: usize,
        local: &[T],
    ) -> Result<Option<Vec<T>>> {
        let ci = self.comm_index(comm)?;
        let bytes = std::mem::size_of_val(local) as u64;
        let start = self.now_ns();
        let out = self
            .vmpi
            .mpi()
            .reduce_t(comm, root, local, reduce_ops::sum)?;
        self.record(self.event(EventKind::Reduce, start, root as i32, -1, ci, bytes))?;
        Ok(out)
    }

    /// Instrumented typed `MPI_Allreduce` (sum).
    pub fn allreduce_sum<T: Pod + std::ops::Add<Output = T>>(
        &self,
        comm: &Comm,
        local: &[T],
    ) -> Result<Vec<T>> {
        let ci = self.comm_index(comm)?;
        let bytes = std::mem::size_of_val(local) as u64;
        let start = self.now_ns();
        let out = self.vmpi.mpi().allreduce_t(comm, local, reduce_ops::sum)?;
        self.record(self.event(EventKind::Allreduce, start, -1, -1, ci, bytes))?;
        Ok(out)
    }

    /// Instrumented typed `MPI_Allreduce` (max).
    pub fn allreduce_max<T: Pod + PartialOrd>(&self, comm: &Comm, local: &[T]) -> Result<Vec<T>> {
        let ci = self.comm_index(comm)?;
        let bytes = std::mem::size_of_val(local) as u64;
        let start = self.now_ns();
        let out = self.vmpi.mpi().allreduce_t(comm, local, reduce_ops::max)?;
        self.record(self.event(EventKind::Allreduce, start, -1, -1, ci, bytes))?;
        Ok(out)
    }

    /// Instrumented `MPI_Gather`.
    pub fn gather(&self, comm: &Comm, root: usize, local: Bytes) -> Result<Option<Vec<Bytes>>> {
        let ci = self.comm_index(comm)?;
        let bytes = local.len() as u64;
        let start = self.now_ns();
        let out = self.vmpi.mpi().gather(comm, root, local)?;
        self.record(self.event(EventKind::Gather, start, root as i32, -1, ci, bytes))?;
        Ok(out)
    }

    /// Instrumented `MPI_Allgather`.
    pub fn allgather(&self, comm: &Comm, local: Bytes) -> Result<Vec<Bytes>> {
        let ci = self.comm_index(comm)?;
        let bytes = local.len() as u64;
        let start = self.now_ns();
        let out = self.vmpi.mpi().allgather(comm, local)?;
        self.record(self.event(EventKind::Allgather, start, -1, -1, ci, bytes))?;
        Ok(out)
    }

    /// Instrumented `MPI_Scatter`.
    pub fn scatter(&self, comm: &Comm, root: usize, parts: Option<Vec<Bytes>>) -> Result<Bytes> {
        let ci = self.comm_index(comm)?;
        let start = self.now_ns();
        let out = self.vmpi.mpi().scatter(comm, root, parts)?;
        self.record(self.event(
            EventKind::Scatter,
            start,
            root as i32,
            -1,
            ci,
            out.len() as u64,
        ))?;
        Ok(out)
    }

    /// Instrumented `MPI_Alltoall`.
    pub fn alltoall(&self, comm: &Comm, parts: Vec<Bytes>) -> Result<Vec<Bytes>> {
        let ci = self.comm_index(comm)?;
        let bytes: u64 = parts.iter().map(|p| p.len() as u64).sum();
        let start = self.now_ns();
        let out = self.vmpi.mpi().alltoall(comm, parts)?;
        self.record(self.event(EventKind::Alltoall, start, -1, -1, ci, bytes))?;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Synthetic application activity.
    // ------------------------------------------------------------------

    /// Simulated computation: occupies the rank for `d` and records a
    /// `Compute` event (workload kernels use this to reproduce their
    /// compute/communication ratio at live scale).
    pub fn compute(&self, d: Duration) -> Result<()> {
        let start = self.now_ns();
        if d >= Duration::from_micros(500) {
            std::thread::sleep(d);
        } else if !d.is_zero() {
            let until = start + d.as_nanos() as u64;
            while self.now_ns() < until {
                std::hint::spin_loop();
            }
        }
        self.record(self.event(EventKind::Compute, start, -1, -1, 0, 0))
    }

    /// Records a simulated POSIX I/O call (density-map fodder). A kind
    /// that is not a POSIX one is refused with
    /// [`VmpiError::InvalidConfig`] and records nothing.
    pub fn posix(&self, kind: EventKind, bytes: u64, d: Duration) -> Result<()> {
        if !kind.is_posix() {
            return Err(VmpiError::InvalidConfig("posix() takes a POSIX event kind"));
        }
        let start = self.now_ns();
        let e = Event {
            time_ns: start,
            duration_ns: d.as_nanos() as u64,
            kind,
            rank: self.vmpi.rank() as u32,
            peer: -1,
            tag: -1,
            comm: 0,
            bytes,
        };
        self.record(e)
    }

    /// Records a user phase marker.
    pub fn marker(&self, id: i32) -> Result<()> {
        let now = self.now_ns();
        let e = Event {
            time_ns: now,
            duration_ns: 0,
            kind: EventKind::Marker,
            rank: self.vmpi.rank() as u32,
            peer: -1,
            tag: id,
            comm: 0,
            bytes: 0,
        };
        self.record(e)
    }

    /// Records one self-monitoring metric sample as a Marker-class event:
    /// `tag` carries the registry metric id, `bytes` the sampled value and
    /// `duration_ns` an auxiliary payload (sample sequence number, or the
    /// sum for histogram samples). The session self-monitor uses this to
    /// stream the
    /// process's own metrics through the same VMPI stream machinery those
    /// metrics measure, so the analysis engine sees its own runtime as
    /// one more instrumented application.
    pub fn metric(&self, metric_id: u32, value: u64, aux: u64) -> Result<()> {
        let now = self.now_ns();
        let e = Event {
            time_ns: now,
            duration_ns: aux,
            kind: EventKind::Marker,
            rank: self.vmpi.rank() as u32,
            peer: -1,
            tag: metric_id as i32,
            comm: 0,
            bytes: value,
        };
        self.record(e)
    }

    /// Records `MPI_Finalize`, flushes the last pack and closes the stream.
    pub fn finalize(&self) -> Result<RecorderStats> {
        let now = self.now_ns();
        self.record(Event::basic(
            EventKind::Finalize,
            self.vmpi.rank() as u32,
            now,
            0,
        ))?;
        let rec = self
            .rec
            .try_borrow_mut()
            .map_err(|_| VmpiError::Reentered("recording"))?
            .take()
            .ok_or(VmpiError::StreamClosed)?;
        rec.finish()
    }
}
