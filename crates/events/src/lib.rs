//! # opmr-events — performance event model and wire codec
//!
//! The paper streams *fine-grained events* — one record per intercepted MPI
//! or POSIX call — from instrumented programs to the analyzer, noting that
//! "our event representation structure is very simple as the C structure is
//! directly sent". This crate is that structure, made explicit:
//!
//! * [`Event`] — one fixed-size (48-byte) record describing a single call:
//!   start time, duration, kind, issuing rank, peer, tag, communicator and
//!   byte volume.
//! * [`EventKind`] — the intercepted call set (MPI point-to-point,
//!   collectives, request completion, POSIX I/O, plus markers).
//! * [`EventPack`] — the unit that travels through a VMPI stream: a small
//!   header (application id, rank, sequence number) followed by a batch of
//!   events, encoded with [`codec`].
//!
//! The codec is explicit little-endian rather than a struct memcpy so packs
//! are valid across any producer/consumer pair and truncation is detected.
//! [`wire::Reader`] is the checked cursor every decoder in the workspace
//! outside the per-event kernels reads through.

pub mod codec;
pub mod compress;
pub mod event;
pub mod frame;
pub mod pack;
pub mod pool;
pub mod vint;
pub mod wire;

pub use compress::{
    decompress, decompress_into, max_compressed_len, CompressError, Compression, Lz4Encoder,
};
pub use event::{Event, EventKind};
pub use frame::{frame, try_frame, FrameBuf, FrameError, MAX_FRAME_LEN};
pub use pack::{
    EventPack, PackEncoding, PackHeader, DELTA_EVENT_MAX_WIRE_SIZE, EVENT_WIRE_SIZE,
    PACK_HEADER_SIZE,
};
pub use pool::{global_pool, BufferPool, PoolStats};
