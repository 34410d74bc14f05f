//! # opmr-netsim — discrete-event simulation of the paper's test platforms
//!
//! The evaluation of the paper runs on Tera 100 (140 000 cores) and Curie
//! (80 640 cores) with a Lustre file system delivering ~500 GB/s. Those
//! machines are substituted here by a deterministic **flow-level
//! discrete-event simulator**:
//!
//! * [`machine`] — calibrated machine descriptions (cores, per-rank link
//!   bandwidth, message latency, file-system aggregate bandwidth and
//!   metadata cost, stream drain rates);
//! * [`op`] — the rank-program representation: compute intervals,
//!   point-to-point sends/receives, halo exchanges, collectives and
//!   file-system writes, organized as prologue / iterated body / epilogue;
//! * [`engine`] — the simulator: a worklist algorithm advancing per-rank
//!   virtual clocks through rendezvous matching, collective synchronization
//!   and file-system contention;
//! * [`tools`] — cost models of the measurement chains compared in
//!   Figure 16 (online coupling with bounded-window back-pressure, profile
//!   only, trace-to-file through the FS model, profile+replay), applied
//!   *during* simulation so instrumentation perturbs the virtual timeline
//!   exactly where the real tool would perturb the application;
//! * [`stream_model`] — the saturating flow model behind Figure 14's
//!   writer/reader throughput surface, cross-checked against the live
//!   stream implementation at thread scale.
//!
//! Everything is deterministic: identical inputs give identical virtual
//! timings, which the reproduction relies on for regression tests.

pub mod engine;
pub mod machine;
pub mod op;
pub mod stream_model;
pub mod tbon;
pub mod tools;

pub use engine::{simulate, simulate_with_faults, SimError, SimFaults, SimResult, SimStats};
pub use machine::{curie, tera100, FsModel, Machine};
pub use op::{CollKind, Op, Phase, Program, Workload};
pub use tbon::TbonConfig;
pub use tools::ToolModel;
