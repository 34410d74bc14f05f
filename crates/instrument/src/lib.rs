//! # opmr-instrument — PMPI-equivalent interception and event streaming
//!
//! The paper intercepts every MPI call through the PMPI profiling interface
//! (generated by a wrapper generator) and streams fixed-size event records
//! to the analyzer over a VMPI stream. Rust has no PMPI; the interception
//! point here is [`InstrumentedMpi`]: a façade exposing the virtualized MPI
//! API whose every call is timed, described as an [`opmr_events::Event`],
//! batched into [`opmr_events::EventPack`]s and pushed down the write
//! stream. The before/after hook structure of a PMPI wrapper stack is kept:
//! additional interceptor layers can be chained with
//! [`InstrumentedMpi::add_hook`] (the PNMPI-module analogue).
//!
//! One event pack is always flushed as exactly one stream block, so the
//! analyzer's dispatcher can decode and fold each received block
//! independently.

pub mod clock;
pub mod recorder;
pub mod sink;
pub mod wrapper;

pub use clock::RankClock;
pub use recorder::{Recorder, RecorderConfig, RecorderStats};
pub use sink::{PackSink, EVENT_STREAM};
pub use wrapper::{InstrRequest, InstrumentedMpi};
