//! # opmr-core — online-coupling sessions
//!
//! The façade tying the whole measurement chain together, reproducing the
//! paper's user experience: *"a user launching multiple instrumented
//! applications is able to get a dedicated report with full details of
//! each program's behaviour, briefly after execution ends"*.
//!
//! * [`session::Session`] — launches N application partitions plus one
//!   analyzer partition in a single MPMD job; applications run against the
//!   instrumented MPI façade and stream event packs over VMPI streams; the
//!   analyzer ranks drain the streams into the parallel blackboard engine;
//!   `run` returns the multi-application report.
//! * [`driver`] — executes an `opmr_netsim` rank program (the same NAS /
//!   EulerMHD generators the simulator consumes) live on the instrumented
//!   runtime, scaling compute intervals to keep in-process runs short.
//! * [`trace`] — the classical baseline as a session choice: a file
//!   [`Sink`] writes per-rank trace files or SION containers instead of
//!   streaming, and [`Session::replay`] analyzes such a directory as an
//!   ordinary session (any coupling, tree or serving). Used by the
//!   equivalence tests ("streamed analysis is very close to post-mortem
//!   analysis") and the live overhead comparisons; [`TraceSession`] is the
//!   record-then-replay preset.

pub mod driver;
pub mod session;
pub mod trace;

pub use driver::{run_program, LiveOptions};
pub use session::{
    Coupling, Session, SessionBuilder, SessionError, SessionOutcome, SELF_MONITOR_APP,
};
pub use trace::{Sink, TraceSession};
