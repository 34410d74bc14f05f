//! # opmr-analysis — profiling knowledge sources and report generation
//!
//! The analysis modules of the paper's distributed engine (Section IV-D),
//! implemented as blackboard knowledge sources plus the data structures
//! they reduce events into:
//!
//! * [`profiler`] — the MPI interface profile: hits / total time / total
//!   size per call and per rank (the mpiP-style aggregate);
//! * [`topology`] — the topological module: communication graphs and
//!   matrices weighted in hits, total size and total time for every
//!   point-to-point communication (Figure 17), with Graphviz DOT output;
//! * [`density`] — the density-map module: per-rank spatial maps of hits /
//!   time / size for MPI and POSIX calls (Figure 18), rendered as PGM
//!   images and ASCII heat maps;
//! * [`timeline`] — temporal maps: time-binned MPI activity per rank;
//! * [`engine`] — the wiring: a dispatcher KS routes each event pack to
//!   its application's blackboard level (Figure 5), decodes it (Figure 4)
//!   and folds it into the level's shared aggregates, one job per pack;
//!   plug-in KSs on the level's `events` entry see every decoded pack;
//! * [`fold`] — the pack fold itself: one decoded pack into every
//!   aggregate of its application, shared with the reduce tree's frontier;
//! * [`report`] — the profiling report: one chapter per instrumented
//!   application, in Markdown and LaTeX (the paper emits a 20-70 page
//!   LaTeX document).

pub mod density;
pub mod engine;
pub mod fold;
pub mod patterns;
pub mod profiler;
pub mod report;
pub mod timeline;
pub mod topology;
pub mod trace_proxy;
pub mod waitstate;
pub mod wire;

pub use density::DensityMap;
pub use engine::{AnalysisEngine, AppReport, EngineConfig, MultiReport};
pub use patterns::{classify, Pattern, PatternMatch};
pub use profiler::{CallStats, MpiProfile};
pub use timeline::Timeline;
pub use topology::{EdgeWeight, Topology, WeightKind};
pub use trace_proxy::{Selection, TraceProxy};
pub use waitstate::{WaitStateAnalysis, WaitStats};
