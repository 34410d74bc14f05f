//! Per-rank MPI handle: point-to-point operations and communicator
//! management.
//!
//! One [`Mpi`] value is handed to every rank's entry point by the
//! [`crate::Launcher`]. All user-facing operations run in the
//! [`Context::Pt2pt`] plane; the `*_ctx` variants expose the
//! [`Context::Coll`] and [`Context::Stream`] planes to the collective
//! implementations and to the VMPI stream layer.

use crate::comm::Comm;
use crate::envelope::{Context, Src, Status, TagSel};
use crate::launch::{PartitionInfo, Universe};
use crate::mailbox::{make_envelope, Delivery};
use crate::pod::{self, Pod};
use crate::request::Request;
use crate::{Result, RtError};
use bytes::Bytes;
use std::sync::Arc;

/// A rank's handle onto the runtime.
#[derive(Clone)]
pub struct Mpi {
    uni: Arc<Universe>,
    world_rank: usize,
    world: Comm,
    partition: usize,
}

impl Mpi {
    pub(crate) fn new(
        uni: Arc<Universe>,
        world_rank: usize,
        world: Comm,
        partition: usize,
    ) -> Self {
        Mpi {
            uni,
            world_rank,
            world,
            partition,
        }
    }

    /// The world communicator spanning every rank of the job
    /// (the paper's `MPI_COMM_UNIVERSE` once virtualization is active).
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    /// This rank's world rank.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Total number of ranks in the job.
    pub fn world_size(&self) -> usize {
        self.uni.world_size()
    }

    /// Shared universe (partition table, clock).
    pub fn universe(&self) -> &Arc<Universe> {
        &self.uni
    }

    /// All partition descriptions.
    pub fn partitions(&self) -> &[PartitionInfo] {
        self.uni.partitions()
    }

    /// The partition this rank belongs to.
    pub fn my_partition(&self) -> &PartitionInfo {
        &self.uni.partitions()[self.partition]
    }

    /// This rank's rank within its partition.
    pub fn partition_rank(&self) -> usize {
        self.world_rank - self.my_partition().first_world_rank
    }

    /// Seconds since job start (`MPI_Wtime`).
    pub fn wtime(&self) -> f64 {
        self.uni.wtime()
    }

    /// Nanoseconds since job start.
    pub fn wtime_ns(&self) -> u64 {
        self.uni.wtime_ns()
    }

    fn dst_world(&self, comm: &Comm, dst: usize) -> Result<usize> {
        comm.world_of(dst).ok_or(RtError::InvalidRank {
            rank: dst,
            comm_size: comm.size(),
        })
    }

    /// Hands exactly one envelope to the transport, or fails. Stream-plane
    /// traffic passes the fault layer first when one is installed; fault
    /// evaluation happens *above* the transport so every backend shares
    /// the same injection semantics unchanged.
    fn deliver_env(&self, dst_world: usize, env: crate::envelope::Envelope) -> Result<Delivery> {
        if env.header.ctx == Context::Stream {
            if let Some(layer) = self.uni.fault_layer() {
                if let Some(d) = layer.on_send(self.world_rank, dst_world)? {
                    std::thread::sleep(d);
                }
            }
        }
        self.uni
            .transport()
            .deliver(dst_world, env, self.uni.eager_limit())
    }

    // ------------------------------------------------------------------
    // Context-explicit plane (used by collectives and the stream layer).
    // ------------------------------------------------------------------

    /// Blocking send in an explicit context plane.
    pub fn send_ctx(
        &self,
        ctx: Context,
        comm: &Comm,
        dst: usize,
        tag: i32,
        payload: impl Into<Bytes>,
    ) -> Result<()> {
        let dst_world = self.dst_world(comm, dst)?;
        let env = make_envelope(
            ctx,
            comm.id(),
            comm.local_rank(),
            self.world_rank,
            tag,
            payload.into(),
        );
        match self.deliver_env(dst_world, env)? {
            Delivery::Complete => Ok(()),
            // A pending (rendezvous) delivery only arises for a local
            // destination, so the mailbox lookup cannot fail here.
            Delivery::Pending(handle) => self.uni.local_mailbox(dst_world)?.wait_send(&handle),
        }
    }

    /// Non-blocking send in an explicit context plane.
    pub fn isend_ctx(
        &self,
        ctx: Context,
        comm: &Comm,
        dst: usize,
        tag: i32,
        payload: impl Into<Bytes>,
    ) -> Result<Request> {
        let dst_world = self.dst_world(comm, dst)?;
        let env = make_envelope(
            ctx,
            comm.id(),
            comm.local_rank(),
            self.world_rank,
            tag,
            payload.into(),
        );
        match self.deliver_env(dst_world, env)? {
            Delivery::Complete => Ok(Request::send_done()),
            Delivery::Pending(handle) => Ok(Request::pending_send(
                Arc::clone(self.uni.local_mailbox(dst_world)?),
                handle,
            )),
        }
    }

    /// Blocking receive in an explicit context plane.
    pub fn recv_ctx(
        &self,
        ctx: Context,
        comm: &Comm,
        src: Src,
        tag: TagSel,
    ) -> Result<(Status, Bytes)> {
        let env =
            self.uni
                .local_mailbox(self.world_rank)?
                .recv_blocking(ctx, comm.id(), src, tag)?;
        Ok((env.status(), env.payload))
    }

    /// Non-blocking receive in an explicit context plane.
    pub fn irecv_ctx(&self, ctx: Context, comm: &Comm, src: Src, tag: TagSel) -> Result<Request> {
        let mailbox = Arc::clone(self.uni.local_mailbox(self.world_rank)?);
        let slot = mailbox.post_recv(ctx, comm.id(), src, tag)?;
        Ok(Request::pending_recv(mailbox, slot))
    }

    /// Deliveries into this rank's mailbox so far (any context), plus one
    /// per liveness change of any rank. A poller reads it *before* it
    /// polls its requests and parks in [`Mpi::wait_delivery`] on the value
    /// it read, so nothing that lands in between is slept through.
    pub fn deliveries(&self) -> Result<u64> {
        Ok(self.uni.local_mailbox(self.world_rank)?.deliveries())
    }

    /// Blocks until [`Mpi::deliveries`] differs from `seen` or `deadline`
    /// passes; the caller then polls again.
    pub fn wait_delivery(&self, seen: u64, deadline: Option<std::time::Instant>) -> Result<()> {
        self.uni
            .local_mailbox(self.world_rank)?
            .wait_delivery(seen, deadline)
    }

    /// Non-destructive check for a matching unexpected message.
    pub fn iprobe_ctx(&self, ctx: Context, comm: &Comm, src: Src, tag: TagSel) -> Option<Status> {
        self.uni
            .local_mailbox(self.world_rank)
            .ok()?
            .probe(ctx, comm.id(), src, tag)
    }

    // ------------------------------------------------------------------
    // User point-to-point plane.
    // ------------------------------------------------------------------

    /// Blocking standard-mode send (`MPI_Send`).
    pub fn send(&self, comm: &Comm, dst: usize, tag: i32, payload: impl Into<Bytes>) -> Result<()> {
        self.send_ctx(Context::Pt2pt, comm, dst, tag, payload)
    }

    /// Non-blocking send (`MPI_Isend`).
    pub fn isend(
        &self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        payload: impl Into<Bytes>,
    ) -> Result<Request> {
        self.isend_ctx(Context::Pt2pt, comm, dst, tag, payload)
    }

    /// Blocking receive (`MPI_Recv`).
    pub fn recv(&self, comm: &Comm, src: Src, tag: TagSel) -> Result<(Status, Bytes)> {
        self.recv_ctx(Context::Pt2pt, comm, src, tag)
    }

    /// Non-blocking receive (`MPI_Irecv`).
    pub fn irecv(&self, comm: &Comm, src: Src, tag: TagSel) -> Result<Request> {
        self.irecv_ctx(Context::Pt2pt, comm, src, tag)
    }

    /// Non-blocking probe (`MPI_Iprobe`).
    pub fn iprobe(&self, comm: &Comm, src: Src, tag: TagSel) -> Option<Status> {
        self.iprobe_ctx(Context::Pt2pt, comm, src, tag)
    }

    /// Combined send+receive (`MPI_Sendrecv`), deadlock-free.
    pub fn sendrecv(
        &self,
        comm: &Comm,
        dst: usize,
        send_tag: i32,
        payload: impl Into<Bytes>,
        src: Src,
        recv_tag: TagSel,
    ) -> Result<(Status, Bytes)> {
        let sreq = self.isend(comm, dst, send_tag, payload)?;
        let got = self.recv(comm, src, recv_tag)?;
        sreq.wait()?;
        Ok(got)
    }

    /// Typed blocking send of a POD slice.
    pub fn send_t<T: Pod>(&self, comm: &Comm, dst: usize, tag: i32, data: &[T]) -> Result<()> {
        self.send(comm, dst, tag, pod::bytes_of_slice(data))
    }

    /// Typed blocking receive of a POD slice.
    pub fn recv_t<T: Pod>(&self, comm: &Comm, src: Src, tag: TagSel) -> Result<(Status, Vec<T>)> {
        let (st, data) = self.recv(comm, src, tag)?;
        let v = pod::vec_from_bytes::<T>(&data).ok_or(RtError::TypeSize {
            got: data.len(),
            elem: std::mem::size_of::<T>(),
        })?;
        Ok((st, v))
    }

    // ------------------------------------------------------------------
    // Communicator management.
    // ------------------------------------------------------------------

    /// Collective: splits `comm` by color, ordering members by `(key, rank)`
    /// (`MPI_Comm_split`). A negative color yields `None` (undefined).
    pub fn comm_split(&self, comm: &Comm, color: i64, key: i64) -> Result<Option<Comm>> {
        // Allgather (color, key) over the parent communicator.
        let triples: Vec<[i64; 3]> =
            crate::collectives::allgather_t(self, comm, &[[color, key, comm.local_rank() as i64]])?
                .into_iter()
                .flatten()
                .collect();

        // Every rank advances the derive sequence exactly once per split so
        // later splits get fresh ids on all members.
        let id = comm.next_derived_id(if color < 0 { u64::MAX } else { color as u64 });
        if color < 0 {
            return Ok(None);
        }
        let mut group: Vec<[i64; 3]> = triples.into_iter().filter(|t| t[0] == color).collect();
        group.sort_by_key(|t| (t[1], t[2]));
        let mut members = Vec::with_capacity(group.len());
        for t in &group {
            members.push(
                comm.world_of(t[2] as usize)
                    .ok_or(RtError::CollectiveMismatch(
                        "split member outside parent communicator",
                    ))?,
            );
        }
        let my_local = group
            .iter()
            .position(|t| t[2] as usize == comm.local_rank())
            .ok_or(RtError::CollectiveMismatch(
                "split caller missing from its own color group",
            ))?;
        Ok(Some(Comm::with_members(id, Arc::new(members), my_local)))
    }

    /// Collective: duplicates a communicator (`MPI_Comm_dup`).
    pub fn comm_dup(&self, comm: &Comm) -> Result<Comm> {
        // Synchronize so that all members derive the id at the same point in
        // their collective sequences.
        crate::collectives::barrier(self, comm)?;
        let id = comm.next_derived_id(u64::MAX - 1);
        Ok(Comm::with_members(
            id,
            Arc::new(comm.members().to_vec()),
            comm.local_rank(),
        ))
    }

    /// Builds a communicator from an explicit list of world ranks.
    ///
    /// Must be called collectively (same list) by exactly the listed ranks;
    /// `seed` disambiguates independent groups created concurrently.
    pub fn comm_from_world_ranks(&self, members: Vec<usize>, seed: u64) -> Result<Comm> {
        let my_local =
            members
                .iter()
                .position(|&w| w == self.world_rank)
                .ok_or(RtError::InvalidRank {
                    rank: self.world_rank,
                    comm_size: members.len(),
                })?;
        let mut h = seed ^ 0xA5A5_5A5A_DEAD_0001;
        for &m in &members {
            h = h
                .rotate_left(7)
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(m as u64 + 1);
        }
        Ok(Comm::with_members(
            crate::comm::CommId(h | 0x8000_0000_0000_0000),
            Arc::new(members),
            my_local,
        ))
    }

    // ------------------------------------------------------------------
    // Collectives (delegating to `crate::collectives`).
    // ------------------------------------------------------------------

    /// `MPI_Barrier`.
    pub fn barrier(&self, comm: &Comm) -> Result<()> {
        crate::collectives::barrier(self, comm)
    }

    /// `MPI_Bcast`: root passes `Some(data)`, all ranks get the payload.
    pub fn bcast(&self, comm: &Comm, root: usize, data: Option<Bytes>) -> Result<Bytes> {
        crate::collectives::bcast(self, comm, root, data)
    }

    /// Typed `MPI_Reduce`; `Some(result)` at root.
    pub fn reduce_t<T: Pod>(
        &self,
        comm: &Comm,
        root: usize,
        local: &[T],
        op: impl Fn(&mut T, T),
    ) -> Result<Option<Vec<T>>> {
        crate::collectives::reduce_t(self, comm, root, local, op)
    }

    /// Typed `MPI_Allreduce`.
    pub fn allreduce_t<T: Pod>(
        &self,
        comm: &Comm,
        local: &[T],
        op: impl Fn(&mut T, T),
    ) -> Result<Vec<T>> {
        crate::collectives::allreduce_t(self, comm, local, op)
    }

    /// `MPI_Gather` of byte payloads; `Some(parts)` at root.
    pub fn gather(&self, comm: &Comm, root: usize, local: Bytes) -> Result<Option<Vec<Bytes>>> {
        crate::collectives::gather(self, comm, root, local)
    }

    /// `MPI_Allgather` of byte payloads.
    pub fn allgather(&self, comm: &Comm, local: Bytes) -> Result<Vec<Bytes>> {
        crate::collectives::allgather(self, comm, local)
    }

    /// Typed `MPI_Allgather`.
    pub fn allgather_t<T: Pod>(&self, comm: &Comm, local: &[T]) -> Result<Vec<Vec<T>>> {
        crate::collectives::allgather_t(self, comm, local)
    }

    /// `MPI_Scatter`; root passes one payload per rank.
    pub fn scatter(&self, comm: &Comm, root: usize, parts: Option<Vec<Bytes>>) -> Result<Bytes> {
        crate::collectives::scatter(self, comm, root, parts)
    }

    /// `MPI_Alltoall` of byte payloads (one per destination rank).
    pub fn alltoall(&self, comm: &Comm, parts: Vec<Bytes>) -> Result<Vec<Bytes>> {
        crate::collectives::alltoall(self, comm, parts)
    }
}
