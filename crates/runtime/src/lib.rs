//! # opmr-runtime — in-process MPI-like message-passing runtime
//!
//! This crate is the substrate underneath the online-coupling reproduction of
//! *Besnard, Pérache, Jalby — Event Streaming for Online Performance
//! Measurements Reduction (ICPP 2013)*. The paper builds on a real MPI
//! library in MPMD mode; this crate provides the same semantics in a single
//! process so the whole measurement chain can run and be tested on one
//! machine:
//!
//! * **ranks are OS threads**, launched in named MPMD *partitions*;
//! * **point-to-point** messaging with MPI matching rules
//!   (`(communicator, source, tag)` plus `ANY_SOURCE` / `ANY_TAG`,
//!   non-overtaking order), an **eager protocol** for small messages and a
//!   **rendezvous protocol** with real sender back-pressure for large ones;
//! * **non-blocking** operations returning [`Request`] handles;
//! * **communicators** with `split` / `dup`, and
//! * the usual **collectives** (barrier, bcast, reduce, allreduce, gather,
//!   allgather, scatter, alltoall) implemented over point-to-point.
//!
//! The API is deliberately close to the MPI concepts the paper manipulates,
//! not to the C bindings: payloads are [`bytes::Bytes`] (zero-copy in
//! process) with typed helpers via the [`pod::Pod`] trait.
//!
//! ```
//! use opmr_runtime::{Launcher, Mpi, Src, TagSel};
//!
//! Launcher::new()
//!     .partition("ping", 2, |mpi: Mpi| {
//!         let world = mpi.world();
//!         if mpi.world_rank() == 0 {
//!             mpi.send(&world, 1, 7, &b"hello"[..]).unwrap();
//!         } else {
//!             let (_st, data) = mpi.recv(&world, Src::Any, TagSel::Any).unwrap();
//!             assert_eq!(&data[..], b"hello");
//!         }
//!     })
//!     .run()
//!     .unwrap();
//! ```

pub mod collectives;
pub mod comm;
pub mod envelope;
pub mod fault;
pub mod launch;
pub mod mailbox;
pub mod mpi;
pub mod pod;
pub mod request;
pub mod socket;
pub mod transport;

pub use comm::{Comm, CommId};
pub use envelope::{Context, Src, Status, TagSel, ANY_TAG};
pub use fault::{FaultLayer, FaultPlan, FaultStats, WriterCrash};
pub use launch::{
    FailureKind, LaunchError, Launcher, PartitionInfo, RankError, RankFailure, Universe,
};
pub use mpi::Mpi;
pub use pod::Pod;
pub use request::Request;
pub use socket::{
    Endpoint, LinkFault, MultiprocError, MultiprocTopology, PartitionAssign, SocketConfig,
    SocketError,
};
pub use transport::{InProc, Transport};

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// A rank referenced a peer outside the communicator.
    InvalidRank { rank: usize, comm_size: usize },
    /// The universe is shutting down (a peer panicked or finalized early).
    Shutdown,
    /// A collective was invoked with inconsistent arguments across ranks.
    CollectiveMismatch(&'static str),
    /// Typed receive got a payload whose size is not a multiple of the type.
    TypeSize { got: usize, elem: usize },
    /// Non-blocking operation would block (used by stream layers).
    WouldBlock,
    /// The message cannot reach `dst`, and nothing retries it: the mesh
    /// handshake failed, the link to `dst`'s process stayed down past its
    /// redial budget, or a [`fault::FaultPlan`] crashed the sending rank.
    Unreachable { dst: usize },
    /// The message is larger than the transport can carry (a socket link
    /// frame holds at most `max` payload bytes); nothing was sent.
    TooLarge { len: usize, max: usize },
    /// A peer or the transport violated an internal protocol invariant
    /// (e.g. a completed receive carrying no payload).
    Protocol(&'static str),
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::InvalidRank { rank, comm_size } => {
                write!(f, "rank {rank} outside communicator of size {comm_size}")
            }
            RtError::Shutdown => write!(f, "runtime universe is shutting down"),
            RtError::CollectiveMismatch(what) => write!(f, "collective mismatch: {what}"),
            RtError::TypeSize { got, elem } => {
                write!(
                    f,
                    "payload of {got} bytes is not a multiple of element size {elem}"
                )
            }
            RtError::WouldBlock => write!(f, "operation would block"),
            RtError::Unreachable { dst } => write!(f, "rank {dst} is unreachable"),
            RtError::TooLarge { len, max } => {
                write!(
                    f,
                    "message of {len} bytes exceeds the transport's {max}-byte limit"
                )
            }
            RtError::Protocol(what) => write!(f, "runtime protocol violation: {what}"),
        }
    }
}

impl std::error::Error for RtError {}

/// Result alias used throughout the runtime.
pub type Result<T> = std::result::Result<T, RtError>;
