//! # opmr-reduce — executable TBON reduction overlay
//!
//! The netsim crate *models* an MRNet/GTI-style tree-based overlay
//! network; this crate *runs* one on the real in-process runtime, closing
//! the loop on the paper's Section V comparison between reduction trees
//! and the direct partition mapping:
//!
//! * [`tree`] — the breadth-first tree shape carved out of a named
//!   partition's ranks, with the frontier/leaf attachment policy the VMPI
//!   map pivot evaluates;
//! * [`reducible`] — the [`Reducible`](reducible::Reducible) merge trait
//!   over the analysis wire partials (`MpiProfile`, `Topology`,
//!   `WaitStats`) plus the overlay's own event-count density;
//! * [`partial`] — the `OPRD` wire format and length-prefixed framing for
//!   partials travelling up the tree;
//! * [`node`] — the windowed streaming reduction node: read child
//!   streams, fold per the configured operator (pass-through ρ=1, 1-in-k
//!   filter, full aggregation), forward upward with back-pressure.
//!
//! `opmr-core` runs every session's analyzer ranks as nodes of a tree:
//! `Coupling::Tbon { fanout }` as given, direct mapping as the depth-0
//! tree (fanout 0, every rank a root). `tbon_compare` benchmarks the
//! measured overlay against the analytic model on the same topologies.
//! The serve plane has no tree: its clients share one process and read
//! one snapshot store on their own ranks.

pub mod node;
pub mod partial;
pub mod reducible;
pub mod tree;

pub use node::{run_node, NodeConfig, NodeOutcome, ReduceOp, ReduceStats};
pub use partial::{
    decode_partial_set, encode_partial_set, frame, FrameBuf, ReducePartial, REDUCE_MAGIC,
};
pub use reducible::{EventDensity, Reducible};
pub use tree::Tree;
