//! MPMD launcher and the shared [`Universe`].
//!
//! The paper runs instrumented applications *and* the analysis engine inside
//! one MPI job in MPMD mode (`mpirun app1 : app2 : analyzer`). [`Launcher`]
//! reproduces that: each [`Launcher::partition`] call contributes a named
//! group of ranks running one entry point; `run` spawns one thread per rank,
//! hands each a [`crate::Mpi`] handle and joins them all. Partition
//! descriptions are visible from every rank (the paper's
//! `VMPI_Partition_desc`), which is what makes opportunistic partition
//! mapping possible.
//!
//! Envelopes move through a pluggable [`Transport`]: [`Launcher::run`] uses
//! the in-process backend ([`crate::transport::InProc`], ranks are threads
//! of this process), while [`Launcher::run_multiproc`] (see
//! [`crate::socket`]) hosts a *subset* of the ranks here and reaches the
//! rest over Unix-domain or TCP sockets.

use crate::comm::Comm;
use crate::fault::{FaultLayer, FaultPlan};
use crate::mailbox::Mailbox;
use crate::mpi::Mpi;
use crate::transport::{InProc, Transport};
use crate::RtError;
use std::sync::Arc;
use std::time::Instant;

/// Description of one MPMD partition, queryable from every rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Dense partition identifier (launch order).
    pub id: usize,
    /// Partition name ("Analyzer", "app", ...). Names need not be unique,
    /// but lookups by name return the first match.
    pub name: String,
    /// Pseudo command line, mirroring the paper's grouping by command line.
    pub cmdline: String,
    /// World rank of this partition's first process.
    pub first_world_rank: usize,
    /// Number of processes in the partition.
    pub size: usize,
}

impl PartitionInfo {
    /// World ranks covered by this partition.
    pub fn world_ranks(&self) -> std::ops::Range<usize> {
        self.first_world_rank..self.first_world_rank + self.size
    }

    /// World rank of this partition's root (its first process).
    pub fn root_world_rank(&self) -> usize {
        self.first_world_rank
    }

    /// World rank of the partition-local rank `local`.
    pub fn world_rank_of(&self, local: usize) -> usize {
        debug_assert!(local < self.size, "local rank {local} out of partition");
        self.first_world_rank + local
    }
}

/// Shared state of a running job: transport, partition table, wall clock.
pub struct Universe {
    transport: Arc<dyn Transport>,
    partitions: Arc<Vec<PartitionInfo>>,
    eager_limit: usize,
    epoch: Instant,
    /// Installed fault-injection layer, if the launcher configured one.
    fault: Option<Arc<FaultLayer>>,
}

impl Universe {
    /// Default eager/rendezvous protocol switch-over, in bytes.
    pub const DEFAULT_EAGER_LIMIT: usize = 64 * 1024;

    pub(crate) fn new(
        partitions: Vec<PartitionInfo>,
        eager_limit: usize,
        fault_plan: Option<FaultPlan>,
    ) -> Arc<Self> {
        let total: usize = partitions.iter().map(|p| p.size).sum();
        Self::with_transport(
            partitions,
            eager_limit,
            fault_plan,
            Arc::new(InProc::new(total)),
        )
    }

    pub(crate) fn with_transport(
        partitions: Vec<PartitionInfo>,
        eager_limit: usize,
        fault_plan: Option<FaultPlan>,
        transport: Arc<dyn Transport>,
    ) -> Arc<Self> {
        let total: usize = partitions.iter().map(|p| p.size).sum();
        debug_assert_eq!(total, transport.world_size());
        Arc::new(Universe {
            transport,
            partitions: Arc::new(partitions),
            eager_limit,
            epoch: Instant::now(),
            fault: fault_plan.map(|p| Arc::new(FaultLayer::new(p))),
        })
    }

    /// Total number of ranks in the job.
    pub fn world_size(&self) -> usize {
        self.transport.world_size()
    }

    /// The transport backend moving this universe's envelopes.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Short name of the transport backend ("inproc", "socket").
    pub fn backend_name(&self) -> &'static str {
        self.transport.backend_name()
    }

    /// All partition descriptions.
    pub fn partitions(&self) -> &[PartitionInfo] {
        &self.partitions
    }

    /// First partition whose name matches, if any.
    pub fn partition_by_name(&self, name: &str) -> Option<&PartitionInfo> {
        self.partitions.iter().find(|p| p.name == name)
    }

    /// Partition containing a given world rank, if the rank exists.
    pub fn partition_of(&self, world_rank: usize) -> Option<&PartitionInfo> {
        self.partitions
            .iter()
            .find(|p| p.world_ranks().contains(&world_rank))
    }

    /// Mailbox of a rank hosted in this process. Receives and rendezvous
    /// waits are always local; a lookup of a remote rank's mailbox is a
    /// protocol violation surfaced as a typed error by the caller.
    pub(crate) fn local_mailbox(&self, world_rank: usize) -> Result<&Arc<Mailbox>, RtError> {
        self.transport
            .local_mailbox(world_rank)
            .ok_or(RtError::Protocol(
                "rank's mailbox is not hosted in this process",
            ))
    }

    /// The fault-injection layer, when one was installed via
    /// [`Launcher::fault_plan`].
    pub fn fault_layer(&self) -> Option<&Arc<FaultLayer>> {
        self.fault.as_ref()
    }

    /// True while `world_rank`'s entry point is still running. Because
    /// delivery is synchronous, once this turns false every message the
    /// rank ever sent is already in its destination mailbox.
    pub fn rank_alive(&self, world_rank: usize) -> bool {
        self.transport.rank_alive(world_rank)
    }

    pub(crate) fn mark_rank_done(&self, world_rank: usize) {
        self.transport.mark_rank_done(world_rank);
    }

    pub(crate) fn eager_limit(&self) -> usize {
        self.eager_limit
    }

    /// Seconds since the universe started (the runtime's `MPI_Wtime`).
    pub fn wtime(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Nanoseconds since the universe started (used by instrumentation).
    pub fn wtime_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Wakes every blocked rank with [`crate::RtError::Shutdown`].
    pub fn shutdown_all(&self) {
        self.transport.shutdown_all();
    }
}

/// Boxed error type a fallible rank entry point may return.
pub type RankError = Box<dyn std::error::Error + Send + Sync + 'static>;

type EntryPoint = Arc<dyn Fn(Mpi) -> std::result::Result<(), RankError> + Send + Sync + 'static>;

#[derive(Clone)]
pub(crate) struct PartitionSpec {
    pub(crate) name: String,
    pub(crate) cmdline: String,
    pub(crate) size: usize,
    pub(crate) entry: EntryPoint,
}

/// How a rank failed: by unwinding or by returning a typed error from a
/// fallible entry point (see [`Launcher::partition_try`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The rank's entry point panicked (caught at the rank boundary).
    Panicked,
    /// The rank's entry point returned `Err(..)`; `message` carries the
    /// typed error's `Display` output.
    Errored,
}

/// One failed rank inside a [`LaunchError`].
#[derive(Debug, Clone)]
pub struct RankFailure {
    /// Name of the partition the rank belongs to.
    pub partition: String,
    /// World rank that failed.
    pub world_rank: usize,
    /// Whether the rank panicked or returned a typed error.
    pub kind: FailureKind,
    /// Panic payload or the error's `Display` rendering.
    pub message: String,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            FailureKind::Panicked => "panicked",
            FailureKind::Errored => "errored",
        };
        write!(
            f,
            "{}/world:{} {kind}: {}",
            self.partition, self.world_rank, self.message
        )
    }
}

/// Error reported when one or more ranks panicked or returned an error.
#[derive(Debug)]
pub struct LaunchError {
    /// One entry per failed rank.
    pub failures: Vec<RankFailure>,
}

impl LaunchError {
    /// True when at least one rank failed by unwinding (as opposed to
    /// returning a typed error).
    pub fn any_panicked(&self) -> bool {
        self.failures
            .iter()
            .any(|f| f.kind == FailureKind::Panicked)
    }
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} rank(s) failed:", self.failures.len())?;
        for failure in &self.failures {
            write!(f, " [{failure}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for LaunchError {}

/// Builder for an MPMD job.
///
/// Cloning a launcher is cheap (entry points are shared); the socket
/// backend relies on it so every participating process can be handed the
/// same job description.
#[derive(Clone)]
pub struct Launcher {
    pub(crate) specs: Vec<PartitionSpec>,
    pub(crate) eager_limit: usize,
    pub(crate) stack_size: Option<usize>,
    pub(crate) fault_plan: Option<FaultPlan>,
}

impl Default for Launcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Launcher {
    pub fn new() -> Self {
        Launcher {
            specs: Vec::new(),
            eager_limit: Universe::DEFAULT_EAGER_LIMIT,
            stack_size: None,
            fault_plan: None,
        }
    }

    /// Installs a deterministic fault-injection plan evaluated on the
    /// stream plane of every rank's transport (see [`FaultPlan`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the eager/rendezvous switch-over (bytes).
    pub fn eager_limit(mut self, bytes: usize) -> Self {
        self.eager_limit = bytes;
        self
    }

    /// Overrides the per-rank thread stack size.
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }

    /// Number of partitions configured so far. Multi-process launchers
    /// use this to choose a process count before calling
    /// [`Launcher::run_multiproc`](crate::socket).
    pub fn partition_count(&self) -> usize {
        self.specs.len()
    }

    /// Adds a partition of `size` ranks all running `entry`.
    pub fn partition<F>(self, name: &str, size: usize, entry: F) -> Self
    where
        F: Fn(Mpi) + Send + Sync + 'static,
    {
        let cmdline = format!("./{name}");
        self.partition_with_cmdline(name, &cmdline, size, entry)
    }

    /// Adds a partition whose entry point may fail with a typed error.
    /// An `Err` return tears the job down exactly like a panic (peers
    /// unblock with [`crate::RtError::Shutdown`]) but is reported as
    /// [`FailureKind::Errored`] with the error's message, so callers can
    /// distinguish "rank hit a typed error path" from "rank aborted".
    pub fn partition_try<F>(self, name: &str, size: usize, entry: F) -> Self
    where
        F: Fn(Mpi) -> std::result::Result<(), RankError> + Send + Sync + 'static,
    {
        let cmdline = format!("./{name}");
        self.partition_try_with_cmdline(name, &cmdline, size, entry)
    }

    /// Adds a partition with an explicit pseudo command line.
    pub fn partition_with_cmdline<F>(self, name: &str, cmdline: &str, size: usize, entry: F) -> Self
    where
        F: Fn(Mpi) + Send + Sync + 'static,
    {
        self.partition_try_with_cmdline(name, cmdline, size, move |mpi| {
            entry(mpi);
            Ok(())
        })
    }

    /// Adds a fallible partition with an explicit pseudo command line.
    pub fn partition_try_with_cmdline<F>(
        mut self,
        name: &str,
        cmdline: &str,
        size: usize,
        entry: F,
    ) -> Self
    where
        F: Fn(Mpi) -> std::result::Result<(), RankError> + Send + Sync + 'static,
    {
        assert!(size > 0, "partition must have at least one rank");
        self.specs.push(PartitionSpec {
            name: name.to_string(),
            cmdline: cmdline.to_string(),
            size,
            entry: Arc::new(entry),
        });
        self
    }

    /// Partition table this job will launch with (dense ids, contiguous
    /// world ranks in declaration order).
    pub(crate) fn build_infos(&self) -> Vec<PartitionInfo> {
        let mut infos = Vec::with_capacity(self.specs.len());
        let mut first = 0usize;
        for (id, spec) in self.specs.iter().enumerate() {
            infos.push(PartitionInfo {
                id,
                name: spec.name.clone(),
                cmdline: spec.cmdline.clone(),
                first_world_rank: first,
                size: spec.size,
            });
            first += spec.size;
        }
        infos
    }

    /// Spawns every rank, runs the job to completion and joins all threads.
    pub fn run(self) -> Result<(), LaunchError> {
        assert!(!self.specs.is_empty(), "no partitions configured");
        let universe = Universe::new(
            self.build_infos(),
            self.eager_limit,
            self.fault_plan.clone(),
        );
        let failures = spawn_and_join(&universe, &self.specs, self.stack_size, |_| true);
        if failures.is_empty() {
            Ok(())
        } else {
            Err(LaunchError { failures })
        }
    }
}

/// Spawns one thread per rank selected by `hosted`, joins them all and
/// returns the failed ranks. Shared by [`Launcher::run`] (hosts every
/// rank) and the socket backend's multi-process launch (hosts a subset).
pub(crate) fn spawn_and_join(
    universe: &Arc<Universe>,
    specs: &[PartitionSpec],
    stack_size: Option<usize>,
    hosted: impl Fn(usize) -> bool,
) -> Vec<RankFailure> {
    let partitions = Arc::clone(&universe.partitions);
    let mut handles = Vec::new();
    let mut failures = Vec::new();
    for (pid, spec) in specs.iter().enumerate() {
        for local in 0..spec.size {
            let world_rank = universe.partitions()[pid].first_world_rank + local;
            if !hosted(world_rank) {
                continue;
            }
            let entry = Arc::clone(&spec.entry);
            let uni = Arc::clone(universe);
            let name = format!("{}#{}", spec.name, local);
            let mut builder = std::thread::Builder::new().name(name);
            if let Some(sz) = stack_size {
                builder = builder.stack_size(sz);
            }
            match builder.spawn(move || {
                let world = Comm::world(uni.world_size(), world_rank);
                let mpi = Mpi::new(Arc::clone(&uni), world_rank, world, pid);
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || entry(mpi)));
                // Everything the rank sent is delivered by now
                // (sends complete synchronously), so readers that
                // see the flag drop will not miss data.
                uni.mark_rank_done(world_rank);
                if !matches!(result, Ok(Ok(()))) {
                    // Unblock every other rank so the job tears down
                    // instead of hanging on a dead peer.
                    uni.shutdown_all();
                }
                result
            }) {
                Ok(handle) => handles.push((pid, world_rank, handle)),
                Err(e) => {
                    // The OS refused the thread: record the rank as
                    // failed and wake everything that might wait on it.
                    universe.mark_rank_done(world_rank);
                    universe.shutdown_all();
                    failures.push(RankFailure {
                        partition: spec.name.clone(),
                        world_rank,
                        kind: FailureKind::Errored,
                        message: format!("failed to spawn rank thread: {e}"),
                    });
                }
            }
        }
    }

    for (pid, world_rank, handle) in handles {
        let partition = partitions
            .get(pid)
            .map(|p| p.name.clone())
            .unwrap_or_default();
        match handle.join() {
            Ok(Ok(Ok(()))) => {}
            Ok(Ok(Err(e))) => failures.push(RankFailure {
                partition,
                world_rank,
                kind: FailureKind::Errored,
                message: e.to_string(),
            }),
            Ok(Err(payload)) | Err(payload) => failures.push(RankFailure {
                partition,
                world_rank,
                kind: FailureKind::Panicked,
                message: panic_message(payload.as_ref()),
            }),
        }
    }
    failures
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn partitions_are_laid_out_contiguously() {
        let uni = Universe::new(
            vec![
                PartitionInfo {
                    id: 0,
                    name: "a".into(),
                    cmdline: "./a".into(),
                    first_world_rank: 0,
                    size: 3,
                },
                PartitionInfo {
                    id: 1,
                    name: "b".into(),
                    cmdline: "./b".into(),
                    first_world_rank: 3,
                    size: 2,
                },
            ],
            1024,
            None,
        );
        assert_eq!(uni.world_size(), 5);
        assert_eq!(uni.backend_name(), "inproc");
        assert_eq!(uni.partition_of(0).unwrap().name, "a");
        assert_eq!(uni.partition_of(4).unwrap().name, "b");
        assert!(uni.partition_of(5).is_none());
        assert_eq!(uni.partition_by_name("b").unwrap().first_world_rank, 3);
        assert!(uni.partition_by_name("c").is_none());
    }

    #[test]
    fn every_rank_runs_once() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        Launcher::new()
            .partition("w", 7, |_mpi| {
                COUNT.fetch_add(1, Ordering::Relaxed);
            })
            .run()
            .unwrap();
        assert_eq!(COUNT.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn panic_is_reported_not_hung() {
        let err = Launcher::new()
            .partition("ok", 1, |_mpi| {})
            .partition("bad", 2, |mpi| {
                if mpi.world_rank() == 2 {
                    panic!("boom");
                }
            })
            .run()
            .unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].partition, "bad");
        assert_eq!(err.failures[0].kind, FailureKind::Panicked);
        assert!(err.failures[0].message.contains("boom"));
        assert!(err.any_panicked());
    }

    #[test]
    fn typed_rank_error_is_reported_as_errored() {
        let err = Launcher::new()
            .partition("ok", 1, |_mpi| {})
            .partition_try("bad", 2, |mpi| {
                if mpi.world_rank() == 2 {
                    Err("typed failure".into())
                } else {
                    Ok(())
                }
            })
            .run()
            .unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].partition, "bad");
        assert_eq!(err.failures[0].world_rank, 2);
        assert_eq!(err.failures[0].kind, FailureKind::Errored);
        assert!(err.failures[0].message.contains("typed failure"));
        assert!(!err.any_panicked());
    }

    #[test]
    fn cloned_launcher_shares_entry_points() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let l = Launcher::new().partition("w", 2, |_mpi| {
            COUNT.fetch_add(1, Ordering::Relaxed);
        });
        l.clone().run().unwrap();
        l.run().unwrap();
        assert_eq!(COUNT.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn wtime_is_monotonic() {
        let uni = Universe::new(
            vec![PartitionInfo {
                id: 0,
                name: "x".into(),
                cmdline: "./x".into(),
                first_world_rank: 0,
                size: 1,
            }],
            1024,
            None,
        );
        let a = uni.wtime();
        let b = uni.wtime();
        assert!(b >= a);
    }
}
