//! # opmr — Online Performance Measurement Reduction
//!
//! Root façade crate of the reproduction of *Besnard, Pérache, Jalby —
//! "Event Streaming for Online Performance Measurements Reduction"
//! (ICPP 2013)*. Re-exports every subsystem:
//!
//! * [`runtime`] — in-process MPI-like runtime (ranks as threads, MPMD).
//! * [`vmpi`] — virtualization, partition mapping, VMPI streams.
//! * [`events`] — performance event model and codec.
//! * [`instrument`] — PMPI-equivalent interception and event recording.
//! * [`blackboard`] — the parallel multi-level blackboard engine.
//! * [`analysis`] — profiling knowledge sources and report generation.
//! * [`metrics`] — time-resolved standard metrics: windowed per-rank
//!   series (load balance, communication efficiency, serialization /
//!   transfer, waitstate fraction) folded online from the event stream.
//! * [`netsim`] — discrete-event simulator for paper-scale experiments.
//! * [`workloads`] — NAS-MPI and EulerMHD communication-kernel generators.
//! * [`reduce`] — TBON reduction overlay (tree topology, windowed
//!   in-network aggregation between instrumented partitions and analyzer).
//! * [`serve`] — live report serving: versioned snapshot store, delta
//!   encoding, and clients that query and subscribe on their own ranks.
//! * [`core`] — the `Session` façade tying everything together.

pub use opmr_analysis as analysis;
pub use opmr_blackboard as blackboard;
pub use opmr_core as core;
pub use opmr_events as events;
pub use opmr_instrument as instrument;
pub use opmr_launch as launch;
pub use opmr_metrics as metrics;
pub use opmr_netsim as netsim;
pub use opmr_obs as obs;
pub use opmr_reduce as reduce;
pub use opmr_runtime as runtime;
pub use opmr_serve as serve;
pub use opmr_vmpi as vmpi;
pub use opmr_workloads as workloads;

pub use opmr_core::session::{Coupling, Session, SessionBuilder};
