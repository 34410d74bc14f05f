//! # opmr-vmpi — MPI virtualization, partition mapping and data streams
//!
//! This crate reproduces the paper's online-coupling toolkit (Section III-A):
//!
//! * [`virt::Vmpi`] — **virtualization**: each program transparently runs in
//!   its own partition communicator (its virtual `MPI_COMM_WORLD`) while the
//!   real world communicator stays reachable as `MPI_COMM_UNIVERSE`.
//!   Partition descriptions can be queried by name from any rank.
//! * [`map::Map`] — **VMPI Map**: process-to-process mapping between two
//!   partitions via the pivot protocol of Figure 7 (slave ranks send their
//!   global rank to the master root, which assigns matches by policy and
//!   returns associations both ways). Round-robin, random, fixed and
//!   user-defined policies; maps are additive across several partitions.
//! * [`stream::{WriteStream, ReadStream}`] — **VMPI Streams**: persistent
//!   asynchronous block channels with UNIX-pipe-like semantics, `NA`
//!   receive buffers per incoming stream, `NA` shared output buffers,
//!   non-blocking reads (`EAGAIN`), per-endpoint load-balancing policies and
//!   a close protocol under which a read returns end-of-stream only after
//!   every writer has closed.
//!
//! Together these three components implement the coupling of Figures 10-12:
//! N instrumented partitions stream event blocks into one analyzer
//! partition without any file-system involvement.

pub mod map;
pub mod stream;
pub mod virt;

pub use map::{Map, MapPolicy};
pub use opmr_events::{Compression, PackEncoding};
pub use stream::{Balance, Block, ReadMode, ReadStream, StreamConfig, WriteStream};
pub use virt::Vmpi;

/// Errors produced by the coupling layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum VmpiError {
    /// Underlying runtime failure.
    Runtime(opmr_runtime::RtError),
    /// Referenced partition does not exist.
    UnknownPartition(String),
    /// A mapping was requested against the caller's own partition.
    SelfMapping,
    /// Stream operated on after close.
    StreamClosed,
    /// Non-blocking read found no data (the paper's `EAGAIN`).
    Again,
    /// A blocking read exceeded its deadline (see
    /// `StreamConfig::read_timeout`).
    Timeout,
    /// A writer exited mid-stream without closing; its remaining data is
    /// unrecoverable but the stream stays readable for surviving writers.
    PeerLost { rank: usize },
    /// The partition table is inconsistent: a rank is not a member of the
    /// partition it claims to belong to. Rejected at [`Vmpi`] construction.
    PartitionInconsistent { world_rank: usize, partition: usize },
    /// The map pivot protocol received a payload it cannot decode
    /// (truncated, oversized or otherwise malformed).
    MalformedPivotReply { what: &'static str, len: usize },
    /// A mapping policy produced a master index outside the master
    /// partition.
    InvalidAssignment { index: usize, master_size: usize },
    /// A stream or map was configured in a way that can never work
    /// (e.g. a write stream with zero endpoints).
    InvalidConfig(&'static str),
    /// A peer violated the stream protocol (bad framing, unexpected
    /// payload shape, ...).
    ProtocolViolation { expected: &'static str, got: String },
    /// A one-thread handle was re-entered while it was in use: what it
    /// was doing (an interceptor hook registering another hook).
    Reentered(&'static str),
    /// A file sink's I/O failed (a full disk is `StorageFull`): what the
    /// OS said, and the file.
    Io {
        kind: std::io::ErrorKind,
        path: std::path::PathBuf,
    },
}

impl VmpiError {
    /// The typed form of `err`, raised on the file at `path`.
    pub fn io(path: &std::path::Path, err: std::io::Error) -> VmpiError {
        VmpiError::Io {
            kind: err.kind(),
            path: path.to_path_buf(),
        }
    }
}

impl From<opmr_runtime::RtError> for VmpiError {
    fn from(e: opmr_runtime::RtError) -> Self {
        VmpiError::Runtime(e)
    }
}

impl std::fmt::Display for VmpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmpiError::Runtime(e) => write!(f, "runtime error: {e}"),
            VmpiError::UnknownPartition(name) => write!(f, "unknown partition {name:?}"),
            VmpiError::SelfMapping => write!(f, "cannot map a partition onto itself"),
            VmpiError::StreamClosed => write!(f, "stream already closed"),
            VmpiError::Again => write!(f, "no data available (EAGAIN)"),
            VmpiError::Timeout => write!(f, "stream operation timed out"),
            VmpiError::PeerLost { rank } => {
                write!(f, "stream writer (world rank {rank}) died without closing")
            }
            VmpiError::PartitionInconsistent {
                world_rank,
                partition,
            } => {
                write!(
                    f,
                    "inconsistent partition table: world rank {world_rank} \
                     is not a member of its own partition {partition}"
                )
            }
            VmpiError::MalformedPivotReply { what, len } => {
                write!(
                    f,
                    "malformed pivot message: expected {what}, got {len} bytes"
                )
            }
            VmpiError::InvalidAssignment { index, master_size } => {
                write!(
                    f,
                    "mapping policy produced master index {index} outside \
                     master partition of size {master_size}"
                )
            }
            VmpiError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            VmpiError::ProtocolViolation { expected, got } => {
                write!(
                    f,
                    "stream protocol violation: expected {expected}, got {got}"
                )
            }
            VmpiError::Reentered(what) => write!(f, "handle re-entered while {what}"),
            VmpiError::Io { kind, path } => write!(f, "{}: {kind}", path.display()),
        }
    }
}

impl std::error::Error for VmpiError {}

/// Result alias for the coupling layer.
pub type Result<T> = std::result::Result<T, VmpiError>;
