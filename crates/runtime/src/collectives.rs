//! Collective operations implemented over point-to-point messaging.
//!
//! Every collective draws one tag from the communicator's private collective
//! sequence (`Comm::next_coll_tag`) and runs in the [`Context::Coll`]
//! plane, so user point-to-point traffic can never interfere. Algorithms are
//! the textbook ones (dissemination barrier, binomial broadcast/reduction,
//! rotation all-to-all): at in-process scale correctness and log-depth matter
//! more than topology awareness.

use crate::comm::Comm;
use crate::envelope::{Context, Src, TagSel};
use crate::mpi::Mpi;
use crate::pod::{self, Pod};
use crate::request::wait_all;
use crate::{Result, RtError};
use bytes::{BufMut, Bytes, BytesMut};
use opmr_events::wire::Reader;

/// Reduction helpers for the typed collectives.
pub mod ops {
    /// Elementwise sum.
    pub fn sum<T: Copy + std::ops::Add<Output = T>>(acc: &mut T, x: T) {
        *acc = *acc + x;
    }
    /// Elementwise minimum (total order via `partial_cmp`, NaN-latest).
    pub fn min<T: Copy + PartialOrd>(acc: &mut T, x: T) {
        if x < *acc {
            *acc = x;
        }
    }
    /// Elementwise maximum.
    pub fn max<T: Copy + PartialOrd>(acc: &mut T, x: T) {
        if x > *acc {
            *acc = x;
        }
    }
}

/// Dissemination barrier (`ceil(log2 n)` rounds).
pub fn barrier(mpi: &Mpi, comm: &Comm) -> Result<()> {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    if n == 1 {
        return Ok(());
    }
    let r = comm.local_rank();
    let mut step = 1usize;
    while step < n {
        let dst = (r + step) % n;
        let src = (r + n - step % n) % n;
        let sreq = mpi.isend_ctx(Context::Coll, comm, dst, tag, Bytes::new())?;
        mpi.recv_ctx(Context::Coll, comm, Src::Rank(src), TagSel::Tag(tag))?;
        sreq.wait()?;
        step <<= 1;
    }
    Ok(())
}

/// Binomial-tree broadcast. Root passes `Some(payload)`.
pub fn bcast(mpi: &Mpi, comm: &Comm, root: usize, data: Option<Bytes>) -> Result<Bytes> {
    let n = comm.size();
    if root >= n {
        return Err(RtError::InvalidRank {
            rank: root,
            comm_size: n,
        });
    }
    let tag = comm.next_coll_tag();
    let r = comm.local_rank();
    let vr = (r + n - root) % n;

    let mut payload = if vr == 0 {
        data.ok_or(RtError::CollectiveMismatch("bcast root passed no data"))?
    } else {
        Bytes::new()
    };

    // Receive phase: find the mask at which we receive from our parent.
    let mut mask = 1usize;
    while mask < n {
        if vr & mask != 0 {
            let parent = ((vr - mask) + root) % n;
            let (_st, got) =
                mpi.recv_ctx(Context::Coll, comm, Src::Rank(parent), TagSel::Tag(tag))?;
            payload = got;
            break;
        }
        mask <<= 1;
    }
    // Send phase: forward to children below our mask.
    mask >>= 1;
    let mut reqs = Vec::new();
    while mask > 0 {
        if vr + mask < n {
            let child = ((vr + mask) + root) % n;
            reqs.push(mpi.isend_ctx(Context::Coll, comm, child, tag, payload.clone())?);
        }
        mask >>= 1;
    }
    wait_all(reqs)?;
    Ok(payload)
}

/// Binomial-tree reduction of a POD slice with a commutative operator.
/// Returns `Some(result)` at root, `None` elsewhere.
pub fn reduce_t<T: Pod>(
    mpi: &Mpi,
    comm: &Comm,
    root: usize,
    local: &[T],
    op: impl Fn(&mut T, T),
) -> Result<Option<Vec<T>>> {
    let n = comm.size();
    if root >= n {
        return Err(RtError::InvalidRank {
            rank: root,
            comm_size: n,
        });
    }
    let tag = comm.next_coll_tag();
    let r = comm.local_rank();
    let vr = (r + n - root) % n;
    let mut acc = local.to_vec();

    let mut mask = 1usize;
    while mask < n {
        if vr & mask == 0 {
            let src_v = vr | mask;
            if src_v < n {
                let src = (src_v + root) % n;
                let (_st, data) =
                    mpi.recv_ctx(Context::Coll, comm, Src::Rank(src), TagSel::Tag(tag))?;
                let partial = pod::vec_from_bytes::<T>(&data).ok_or(RtError::TypeSize {
                    got: data.len(),
                    elem: std::mem::size_of::<T>(),
                })?;
                if partial.len() != acc.len() {
                    return Err(RtError::CollectiveMismatch("reduce length mismatch"));
                }
                for (a, x) in acc.iter_mut().zip(partial) {
                    op(a, x);
                }
            }
        } else {
            let dst = ((vr & !mask) + root) % n;
            mpi.send_ctx(Context::Coll, comm, dst, tag, pod::bytes_of_slice(&acc))?;
            return Ok(None);
        }
        mask <<= 1;
    }
    Ok(Some(acc))
}

/// Reduce-then-broadcast allreduce.
pub fn allreduce_t<T: Pod>(
    mpi: &Mpi,
    comm: &Comm,
    local: &[T],
    op: impl Fn(&mut T, T),
) -> Result<Vec<T>> {
    let reduced = reduce_t(mpi, comm, 0, local, op)?;
    let payload = bcast(mpi, comm, 0, reduced.map(|v| pod::bytes_of_slice(&v)))?;
    pod::vec_from_bytes::<T>(&payload).ok_or(RtError::TypeSize {
        got: payload.len(),
        elem: std::mem::size_of::<T>(),
    })
}

/// Linear gather to root. Returns `Some(parts)` (comm-rank order) at root.
pub fn gather(mpi: &Mpi, comm: &Comm, root: usize, local: Bytes) -> Result<Option<Vec<Bytes>>> {
    let n = comm.size();
    if root >= n {
        return Err(RtError::InvalidRank {
            rank: root,
            comm_size: n,
        });
    }
    let tag = comm.next_coll_tag();
    let r = comm.local_rank();
    if r == root {
        let mut parts: Vec<Bytes> = vec![Bytes::new(); n];
        parts[root] = local;
        // Post all receives up front so senders can complete in any order.
        let mut reqs = Vec::new();
        for src in (0..n).filter(|&s| s != root) {
            reqs.push((
                src,
                mpi.irecv_ctx(Context::Coll, comm, Src::Rank(src), TagSel::Tag(tag))?,
            ));
        }
        for (src, req) in reqs {
            let (_st, data) = req.wait()?.ok_or(RtError::Protocol(
                "gather receive completed without payload",
            ))?;
            parts[src] = data;
        }
        Ok(Some(parts))
    } else {
        mpi.send_ctx(Context::Coll, comm, root, tag, local)?;
        Ok(None)
    }
}

/// The allgather payload: `[n u64]` then `n × ([len u64][bytes])`.
pub fn pack_parts(parts: &[Bytes]) -> Bytes {
    let total: usize = parts.iter().map(|p| p.len() + 8).sum();
    let mut buf = BytesMut::with_capacity(total + 8);
    buf.put_u64_le(parts.len() as u64);
    for p in parts {
        buf.put_u64_le(p.len() as u64);
        buf.put_slice(p);
    }
    buf.freeze()
}

/// Splits a [`pack_parts`] payload back into its parts, zero-copy. A count
/// or length the bytes cannot hold is a typed error, never an allocation.
pub fn unpack_parts(data: &Bytes) -> Result<Vec<Bytes>> {
    let truncated = |_| RtError::CollectiveMismatch("packed parts truncated");
    let mut r = Reader::new(data);
    let n = usize::try_from(r.u64().map_err(truncated)?).unwrap_or(usize::MAX);
    let mut out = Vec::with_capacity(r.check_count(n, 8).map_err(truncated)?);
    for _ in 0..n {
        let len = usize::try_from(r.u64().map_err(truncated)?).unwrap_or(usize::MAX);
        let start = data.len() - r.remaining();
        r.bytes(len).map_err(truncated)?;
        out.push(data.slice(start..start + len));
    }
    Ok(out)
}

/// Gather-to-0 + broadcast allgather (parts in comm-rank order).
pub fn allgather(mpi: &Mpi, comm: &Comm, local: Bytes) -> Result<Vec<Bytes>> {
    let gathered = gather(mpi, comm, 0, local)?;
    let packed = bcast(mpi, comm, 0, gathered.map(|p| pack_parts(&p)))?;
    unpack_parts(&packed)
}

/// Typed allgather of POD slices.
pub fn allgather_t<T: Pod>(mpi: &Mpi, comm: &Comm, local: &[T]) -> Result<Vec<Vec<T>>> {
    let parts = allgather(mpi, comm, pod::bytes_of_slice(local))?;
    parts
        .into_iter()
        .map(|p| {
            pod::vec_from_bytes::<T>(&p).ok_or(RtError::TypeSize {
                got: p.len(),
                elem: std::mem::size_of::<T>(),
            })
        })
        .collect()
}

/// Linear scatter from root; root passes one payload per rank.
pub fn scatter(mpi: &Mpi, comm: &Comm, root: usize, parts: Option<Vec<Bytes>>) -> Result<Bytes> {
    let n = comm.size();
    if root >= n {
        return Err(RtError::InvalidRank {
            rank: root,
            comm_size: n,
        });
    }
    let tag = comm.next_coll_tag();
    let r = comm.local_rank();
    if r == root {
        let parts = parts.ok_or(RtError::CollectiveMismatch("scatter root passed no parts"))?;
        if parts.len() != n {
            return Err(RtError::CollectiveMismatch("scatter parts != comm size"));
        }
        let mut reqs = Vec::new();
        let mut mine = Bytes::new();
        for (dst, part) in parts.into_iter().enumerate() {
            if dst == root {
                mine = part;
            } else {
                reqs.push(mpi.isend_ctx(Context::Coll, comm, dst, tag, part)?);
            }
        }
        wait_all(reqs)?;
        Ok(mine)
    } else {
        let (_st, data) = mpi.recv_ctx(Context::Coll, comm, Src::Rank(root), TagSel::Tag(tag))?;
        Ok(data)
    }
}

/// Inclusive prefix reduction (`MPI_Scan`): rank `r` gets
/// `op(local_0 … local_r)`. Linear chain (log-depth is overkill in
/// process).
pub fn scan_t<T: Pod>(
    mpi: &Mpi,
    comm: &Comm,
    local: &[T],
    op: impl Fn(&mut T, T),
) -> Result<Vec<T>> {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let r = comm.local_rank();
    let mut acc = local.to_vec();
    if r > 0 {
        let (_st, data) = mpi.recv_ctx(Context::Coll, comm, Src::Rank(r - 1), TagSel::Tag(tag))?;
        let prefix = pod::vec_from_bytes::<T>(&data).ok_or(RtError::TypeSize {
            got: data.len(),
            elem: std::mem::size_of::<T>(),
        })?;
        if prefix.len() != acc.len() {
            return Err(RtError::CollectiveMismatch("scan length mismatch"));
        }
        // acc = prefix ⊕ local, preserving operand order.
        let mut combined = prefix;
        for (a, x) in combined.iter_mut().zip(acc.iter()) {
            op(a, *x);
        }
        acc = combined;
    }
    if r + 1 < n {
        mpi.send_ctx(Context::Coll, comm, r + 1, tag, pod::bytes_of_slice(&acc))?;
    }
    Ok(acc)
}

/// Exclusive prefix reduction (`MPI_Exscan`): rank 0 gets `None`, rank `r`
/// gets `op(local_0 … local_{r-1})`.
pub fn exscan_t<T: Pod>(
    mpi: &Mpi,
    comm: &Comm,
    local: &[T],
    op: impl Fn(&mut T, T),
) -> Result<Option<Vec<T>>> {
    let n = comm.size();
    let tag = comm.next_coll_tag();
    let r = comm.local_rank();
    let incoming = if r > 0 {
        let (_st, data) = mpi.recv_ctx(Context::Coll, comm, Src::Rank(r - 1), TagSel::Tag(tag))?;
        Some(pod::vec_from_bytes::<T>(&data).ok_or(RtError::TypeSize {
            got: data.len(),
            elem: std::mem::size_of::<T>(),
        })?)
    } else {
        None
    };
    if r + 1 < n {
        let mut fwd = incoming.clone().unwrap_or_else(|| local.to_vec());
        if incoming.is_some() {
            for (a, x) in fwd.iter_mut().zip(local.iter()) {
                op(a, *x);
            }
        }
        mpi.send_ctx(Context::Coll, comm, r + 1, tag, pod::bytes_of_slice(&fwd))?;
    }
    Ok(incoming)
}

/// Reduce-then-scatter (`MPI_Reduce_scatter_block`): every rank contributes
/// `n × block` elements and receives the reduction of its own block.
pub fn reduce_scatter_t<T: Pod>(
    mpi: &Mpi,
    comm: &Comm,
    local: &[T],
    op: impl Fn(&mut T, T) + Copy,
) -> Result<Vec<T>> {
    let n = comm.size();
    if !local.len().is_multiple_of(n) {
        return Err(RtError::CollectiveMismatch(
            "reduce_scatter input not divisible by comm size",
        ));
    }
    let block = local.len() / n;
    let reduced = reduce_t(mpi, comm, 0, local, op)?;
    let parts = reduced.map(|v| {
        v.chunks(block)
            .map(pod::bytes_of_slice)
            .collect::<Vec<Bytes>>()
    });
    let mine = scatter(mpi, comm, 0, parts)?;
    pod::vec_from_bytes::<T>(&mine).ok_or(RtError::TypeSize {
        got: mine.len(),
        elem: std::mem::size_of::<T>(),
    })
}

/// Rotation all-to-all: phase `p` exchanges with ranks `±p`.
pub fn alltoall(mpi: &Mpi, comm: &Comm, parts: Vec<Bytes>) -> Result<Vec<Bytes>> {
    let n = comm.size();
    if parts.len() != n {
        return Err(RtError::CollectiveMismatch("alltoall parts != comm size"));
    }
    let tag = comm.next_coll_tag();
    let r = comm.local_rank();
    let mut out: Vec<Bytes> = vec![Bytes::new(); n];
    out[r] = parts[r].clone();
    for phase in 1..n {
        let dst = (r + phase) % n;
        let src = (r + n - phase) % n;
        let sreq = mpi.isend_ctx(Context::Coll, comm, dst, tag, parts[dst].clone())?;
        let (_st, data) = mpi.recv_ctx(Context::Coll, comm, Src::Rank(src), TagSel::Tag(tag))?;
        out[src] = data;
        sreq.wait()?;
    }
    Ok(out)
}
