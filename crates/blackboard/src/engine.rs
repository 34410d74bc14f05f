//! The parallel blackboard engine (Figure 13).
//!
//! Entry flow: `post` looks the entry's type up in the sensitivity hash
//! table and walks the sensitive KSs under the table's read lock. A KS with
//! one sensitivity gets its job `{entry, operation}` at once; a join KS
//! files the entry in its pending slots, and produces a job `{entries,
//! operation}` when its last unsatisfied sensitivity just filled. Jobs are
//! pushed onto a randomly chosen lock-striped FIFO.
//! Workers sweep the FIFO array from random starting points with
//! progressive back-off.

use crate::entry::{DataEntry, TypeId};
use crate::ks::{KnowledgeSource, KsId, Operation};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

// Blackboard pressure metrics for the self-monitoring snapshot: posts,
// drops, KS invocations, the job backlog depth seen at enqueue time and
// the jobs outstanding now (summed over the process's boards).
mod obs {
    use opmr_obs::{registry, Counter, Gauge, Histogram};
    use std::sync::{Arc, OnceLock};

    pub(super) struct BoardMetrics {
        pub posted: Arc<Counter>,
        pub dropped: Arc<Counter>,
        pub ks_invocations: Arc<Counter>,
        pub ks_panics: Arc<Counter>,
        pub worker_failures: Arc<Counter>,
        pub worker_wakeups: Arc<Counter>,
        pub backlog: Arc<Histogram>,
        pub outstanding: Arc<Gauge>,
    }

    pub(super) fn m() -> &'static BoardMetrics {
        static M: OnceLock<BoardMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            BoardMetrics {
                posted: r.counter("blackboard_entries_posted_total"),
                dropped: r.counter("blackboard_entries_dropped_total"),
                ks_invocations: r.counter("blackboard_ks_invocations_total"),
                ks_panics: r.counter("blackboard_ks_panics_total"),
                worker_failures: r.counter("blackboard_worker_failures_total"),
                worker_wakeups: r.counter("blackboard_worker_wakeups_total"),
                backlog: r.histogram("blackboard_job_backlog"),
                outstanding: r.gauge("blackboard_jobs_outstanding"),
            }
        })
    }
}

/// Engine sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlackboardConfig {
    /// Number of individually-locked job FIFOs (contention striping).
    pub queues: usize,
    /// Number of worker threads started by [`Blackboard::start`].
    pub workers: usize,
}

impl Default for BlackboardConfig {
    fn default() -> Self {
        BlackboardConfig {
            queues: 8,
            workers: 4,
        }
    }
}

/// Counters exposed for tests, reports and the ablation benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlackboardStats {
    /// Entries submitted via [`Blackboard::post`].
    pub entries_posted: u64,
    /// Entries that matched no sensitivity (freed immediately).
    pub entries_dropped: u64,
    /// Jobs executed to completion.
    pub jobs_executed: u64,
}

struct Job {
    entries: JobEntries,
    op: Operation,
}

/// A job's entries, one per declared sensitivity.
enum JobEntries {
    /// A single-sensitivity KS's entry, straight from `post`.
    One(DataEntry),
    /// A join's entries, popped from its pending slots.
    Joined(Vec<DataEntry>),
}

impl JobEntries {
    fn as_slice(&self) -> &[DataEntry] {
        match self {
            JobEntries::One(entry) => std::slice::from_ref(entry),
            JobEntries::Joined(entries) => entries,
        }
    }
}

struct KsState {
    ks: KnowledgeSource,
    /// One FIFO per declared sensitivity position (used by joins only).
    slots: Mutex<Vec<VecDeque<DataEntry>>>,
}

impl KsState {
    /// Files `entry` in the emptiest pending slot matching its type
    /// (relevant when a KS repeats a type in its sensitivities). `Ok(Some)`
    /// is the job whose last unsatisfied sensitivity this entry filled;
    /// `Err` means no slot takes the type.
    fn join(&self, entry: &DataEntry) -> Result<Option<JobEntries>, ()> {
        let mut slots = self.slots.lock();
        let sens = self.ks.sensitivities();
        let slot_idx = (0..sens.len())
            .filter(|&i| sens[i] == entry.ty())
            .min_by_key(|&i| slots[i].len())
            .ok_or(())?;
        slots[slot_idx].push_back(entry.clone());
        if slots.iter().any(VecDeque::is_empty) {
            return Ok(None);
        }
        let entries = slots.iter_mut().filter_map(VecDeque::pop_front).collect();
        Ok(Some(JobEntries::Joined(entries)))
    }
}

#[derive(Default)]
struct Registry {
    ks: HashMap<KsId, Arc<KsState>>,
    /// The sensitivity hash table: type → sensitive KSs (deduplicated).
    index: HashMap<TypeId, Vec<KsId>>,
}

struct Inner {
    config: BlackboardConfig,
    registry: RwLock<Registry>,
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs enqueued or executing; 0 ⇒ quiescent.
    outstanding: AtomicUsize,
    shutdown: AtomicBool,
    /// Worker/drain parking.
    sleep_lock: Mutex<()>,
    /// Parked workers wait here; `enqueue` signals it only when
    /// `sleepers` says somebody is parked.
    sleep_cv: Condvar,
    /// Drainers wait here for `outstanding` to fall to their bound.
    idle_cv: Condvar,
    /// Workers parked on `sleep_cv` or about to be. Changed only under
    /// `sleep_lock`; `enqueue` reads it without the lock.
    sleepers: AtomicUsize,
    /// Drainers waiting on `idle_cv` or about to. Changed only under
    /// `sleep_lock`; `execute` reads it without the lock.
    drainers: AtomicUsize,
    /// At least the largest bound a drainer waits for (see
    /// [`Blackboard::drain_to`]): raised under `sleep_lock` by each drainer
    /// before its last look, reset to 0 by the last one out. `execute`
    /// wakes the drainers once `outstanding` is at or under it.
    drain_bound: AtomicUsize,
    next_ks: AtomicU64,
    queue_pick: AtomicUsize,
    stat_posted: AtomicU64,
    stat_dropped: AtomicU64,
    stat_jobs: AtomicU64,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Worker threads currently running their loop. When this is zero
    /// (never started, all spawns failed, or every worker died), `drain`
    /// falls back to executing jobs inline so it cannot hang.
    live_workers: AtomicUsize,
}

/// The engine handle (cheap to clone; all clones share one board).
#[derive(Clone)]
pub struct Blackboard {
    inner: Arc<Inner>,
}

impl Blackboard {
    /// Creates an idle blackboard (no workers yet).
    pub fn new(config: BlackboardConfig) -> Blackboard {
        assert!(config.queues > 0, "need at least one job FIFO");
        Blackboard {
            inner: Arc::new(Inner {
                queues: (0..config.queues)
                    .map(|_| Mutex::new(VecDeque::new()))
                    .collect(),
                config,
                registry: RwLock::new(Registry::default()),
                outstanding: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                sleep_lock: Mutex::new(()),
                sleep_cv: Condvar::new(),
                idle_cv: Condvar::new(),
                sleepers: AtomicUsize::new(0),
                drainers: AtomicUsize::new(0),
                drain_bound: AtomicUsize::new(0),
                next_ks: AtomicU64::new(1),
                queue_pick: AtomicUsize::new(0),
                stat_posted: AtomicU64::new(0),
                stat_dropped: AtomicU64::new(0),
                stat_jobs: AtomicU64::new(0),
                workers: Mutex::new(Vec::new()),
                live_workers: AtomicUsize::new(0),
            }),
        }
    }

    /// Registers a knowledge source; returns its id.
    pub fn register(&self, ks: KnowledgeSource) -> KsId {
        let id = KsId(self.inner.next_ks.fetch_add(1, Ordering::Relaxed));
        let slots = vec![VecDeque::new(); ks.sensitivities().len()];
        let mut types: Vec<TypeId> = ks.sensitivities().to_vec();
        types.sort_unstable();
        types.dedup();
        let state = Arc::new(KsState {
            ks,
            slots: Mutex::new(slots),
        });
        let mut reg = self.inner.registry.write();
        for ty in types {
            reg.index.entry(ty).or_default().push(id);
        }
        reg.ks.insert(id, state);
        id
    }

    /// Removes a knowledge source. Jobs already queued still run; pending
    /// slot contents are discarded.
    pub fn remove(&self, id: KsId) -> bool {
        let mut reg = self.inner.registry.write();
        if reg.ks.remove(&id).is_none() {
            return false;
        }
        for list in reg.index.values_mut() {
            list.retain(|&k| k != id);
        }
        reg.index.retain(|_, l| !l.is_empty());
        true
    }

    /// Number of registered knowledge sources.
    pub fn ks_count(&self) -> usize {
        self.inner.registry.read().ks.len()
    }

    /// Whether some registered KS is sensitive to `ty`: a producer whose
    /// entry would only be dropped can skip building it.
    pub fn is_sensitive_to(&self, ty: TypeId) -> bool {
        self.inner.registry.read().index.contains_key(&ty)
    }

    /// Posts a data entry onto the board.
    pub fn post(&self, entry: DataEntry) {
        self.inner.stat_posted.fetch_add(1, Ordering::Relaxed);
        obs::m().posted.inc();
        // Walk the sensitive KSs under the read lock: enqueueing never
        // touches the registry, so nothing has to be collected first.
        let reg = self.inner.registry.read();
        let Some(ids) = reg.index.get(&entry.ty()) else {
            drop(reg);
            self.count_dropped();
            return;
        };
        for state in ids.iter().filter_map(|id| reg.ks.get(id)) {
            let entries = if state.ks.sensitivities().len() == 1 {
                JobEntries::One(entry.clone())
            } else {
                match state.join(&entry) {
                    Ok(Some(entries)) => entries,
                    Ok(None) => continue,
                    Err(()) => {
                        // Index and sensitivity list disagree — a registry
                        // inconsistency. Drop the entry for this KS
                        // (counted) rather than aborting the engine.
                        self.count_dropped();
                        continue;
                    }
                }
            };
            self.enqueue(Job {
                entries,
                op: state.ks.operation(),
            });
        }
    }

    fn count_dropped(&self) {
        self.inner.stat_dropped.fetch_add(1, Ordering::Relaxed);
        obs::m().dropped.inc();
    }

    fn enqueue(&self, job: Job) {
        let backlog = self.inner.outstanding.fetch_add(1, Ordering::SeqCst);
        let m = obs::m();
        m.backlog.record(backlog as u64);
        m.outstanding.inc();
        // "Jobs are randomly pushed in an array of FIFOs": a striding
        // counter spreads jobs without a shared RNG.
        let pick = self.inner.queue_pick.fetch_add(1, Ordering::Relaxed);
        let qi = (pick.wrapping_mul(0x9E37_79B9) >> 8) % self.inner.queues.len();
        self.inner.queues[qi].lock().push_back(job);
        // A condvar signal is a system call whether or not anyone waits,
        // so signal only a parked worker. No wake-up is lost: a worker
        // raises `sleepers` (SeqCst, under `sleep_lock`) *before* its last
        // look at the queues, and this load comes *after* the push — one
        // of the two sees the other. Taking `sleep_lock` orders the signal
        // after the worker has actually started waiting.
        if self.inner.sleepers.load(Ordering::SeqCst) > 0 {
            let _parked = self.inner.sleep_lock.lock();
            self.inner.sleep_cv.notify_one();
            obs::m().worker_wakeups.inc();
        }
    }

    fn any_job_queued(&self) -> bool {
        self.inner.queues.iter().any(|q| !q.lock().is_empty())
    }

    /// Tries to pop and execute one job; true if one ran.
    fn try_run_one(&self, start: usize) -> bool {
        let n = self.inner.queues.len();
        // First pass: opportunistic try_lock sweep from `start`.
        for off in 0..n {
            let qi = (start + off) % n;
            if let Some(mut q) = self.inner.queues[qi].try_lock() {
                if let Some(job) = q.pop_front() {
                    drop(q);
                    self.execute(job);
                    return true;
                }
            }
        }
        // Second pass: honest locks so no job is missed behind contention.
        for off in 0..n {
            let qi = (start + off) % n;
            let job = self.inner.queues[qi].lock().pop_front();
            if let Some(job) = job {
                self.execute(job);
                return true;
            }
        }
        false
    }

    fn execute(&self, job: Job) {
        // A panicking knowledge source must not take down its worker (and
        // with it the whole drain protocol): catch, count, move on. The
        // board's own state is lock-per-operation, so a KS that unwound
        // mid-operation cannot leave engine structures inconsistent.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (job.op)(self, job.entries.as_slice())
        }));
        if outcome.is_err() {
            obs::m().ks_panics.inc();
        }
        self.inner.stat_jobs.fetch_add(1, Ordering::Relaxed);
        let m = obs::m();
        m.ks_invocations.inc();
        m.outstanding.dec();
        // At a drainer's bound: wake the drainers, if any (a signal is a
        // system call whether or not anyone waits). No wake-up is lost, as
        // in `enqueue`: a drainer raises `drainers` and `drain_bound`
        // under `sleep_lock` before its last look at `outstanding`, and
        // these loads come after the decrement; the lock orders the signal
        // after its wait began.
        let left = self.inner.outstanding.fetch_sub(1, Ordering::SeqCst) - 1;
        if self.inner.drainers.load(Ordering::SeqCst) > 0
            && left <= self.inner.drain_bound.load(Ordering::SeqCst)
        {
            self.wake_drainers();
        }
    }

    fn wake_drainers(&self) {
        let _parked = self.inner.sleep_lock.lock();
        self.inner.idle_cv.notify_all();
    }

    /// Spawns the worker pool (idempotent-ish: call once). A worker the OS
    /// refuses to spawn is counted in `blackboard_worker_failures_total`;
    /// the engine stays functional with fewer workers, down to zero (in
    /// which case [`Blackboard::drain`] executes jobs inline).
    pub fn start(&self) {
        let mut workers = self.inner.workers.lock();
        assert!(workers.is_empty(), "workers already started");
        for w in 0..self.inner.config.workers {
            let bb = self.clone();
            let seed = w.wrapping_mul(7919) + 13;
            self.inner.live_workers.fetch_add(1, Ordering::SeqCst);
            match std::thread::Builder::new()
                .name(format!("bb-worker-{w}"))
                .spawn(move || bb.worker_loop(seed))
            {
                Ok(handle) => workers.push(handle),
                Err(_) => {
                    self.inner.live_workers.fetch_sub(1, Ordering::SeqCst);
                    obs::m().worker_failures.inc();
                }
            }
        }
    }

    fn worker_loop(&self, seed: usize) {
        // Keep the live count honest even if the loop unwinds, so drain's
        // inline fallback engages once no worker survives: the last one
        // out wakes the drainers to take over.
        struct LiveGuard<'a>(&'a Blackboard);
        impl Drop for LiveGuard<'_> {
            fn drop(&mut self) {
                if self.0.inner.live_workers.fetch_sub(1, Ordering::SeqCst) == 1 {
                    self.0.wake_drainers();
                }
            }
        }
        let _guard = LiveGuard(self);
        self.worker_loop_inner(seed)
    }

    fn worker_loop_inner(&self, seed: usize) {
        let mut sweep = seed;
        let mut idle: u32 = 0;
        loop {
            sweep = sweep
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let start = (sweep >> 33) % self.inner.queues.len();
            if self.try_run_one(start) {
                idle = 0;
                continue;
            }
            if self.inner.shutdown.load(Ordering::SeqCst)
                && self.inner.outstanding.load(Ordering::SeqCst) == 0
            {
                return;
            }
            // Progressive back-off: spin, yield, park (prevents spinning
            // over the locks in the absence of jobs).
            idle += 1;
            if idle < 32 {
                std::hint::spin_loop();
            } else if idle < 128 {
                std::thread::yield_now();
            } else {
                let mut g = self.inner.sleep_lock.lock();
                self.inner.sleepers.fetch_add(1, Ordering::SeqCst);
                // Re-check after announcing: a job pushed before the
                // announcement was visible gets no signal. The timed wait
                // stays as the backstop; it also keeps an idle pool's
                // cores warm, which the throughput of a bursty board
                // depends on.
                if !self.any_job_queued() && !self.inner.shutdown.load(Ordering::SeqCst) {
                    self.inner
                        .sleep_cv
                        .wait_for(&mut g, Duration::from_micros(500));
                }
                self.inner.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Blocks until no job is queued or executing ([`Blackboard::drain_to`]
    /// 0). Only meaningful once all external producers have finished
    /// posting.
    pub fn drain(&self) {
        self.drain_to(0);
    }

    /// Blocks until at most `n` jobs are queued or executing: a producer
    /// that calls it after each post keeps the board's backlog bounded,
    /// and stalls itself (and whatever feeds it) while the workers are
    /// behind. Must not be called from inside an operation: a worker never
    /// waits. With no live worker (never started, spawns failed, or all
    /// died) the caller executes the backlog itself, so it cannot hang.
    pub fn drain_to(&self, n: usize) {
        loop {
            if self.inner.outstanding.load(Ordering::SeqCst) <= n {
                return;
            }
            if self.inner.live_workers.load(Ordering::SeqCst) == 0 {
                self.run_inline();
                continue;
            }
            // Announce, then look: the job whose `execute` reaches the
            // bound (or the last worker's exit) either sees the
            // announcement and signals after this wait began, or came
            // first and is seen here.
            let mut g = self.inner.sleep_lock.lock();
            self.inner.drainers.fetch_add(1, Ordering::SeqCst);
            self.inner.drain_bound.fetch_max(n, Ordering::SeqCst);
            if self.inner.outstanding.load(Ordering::SeqCst) > n
                && self.inner.live_workers.load(Ordering::SeqCst) != 0
            {
                self.inner.idle_cv.wait(&mut g);
            }
            if self.inner.drainers.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.inner.drain_bound.store(0, Ordering::SeqCst);
            }
        }
    }

    /// Drains, stops and joins the worker pool. Must not be called from
    /// inside an operation.
    pub fn stop(&self) {
        self.drain();
        {
            // Under the lock, so no worker between its last look and its
            // wait misses the signal.
            let _parked = self.inner.sleep_lock.lock();
            self.inner.shutdown.store(true, Ordering::SeqCst);
            self.inner.sleep_cv.notify_all();
        }
        let workers = {
            let mut g = self.inner.workers.lock();
            std::mem::take(&mut *g)
        };
        for w in workers {
            // A worker that unwound anyway (e.g. allocation failure) is
            // counted; the engine has already drained so no job is lost.
            if w.join().is_err() {
                obs::m().worker_failures.inc();
            }
        }
    }

    /// Runs queued jobs on the calling thread until quiescent (useful for
    /// single-threaded tests and deterministic replays).
    pub fn run_inline(&self) {
        while self.try_run_one(0) {}
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> BlackboardStats {
        BlackboardStats {
            entries_posted: self.inner.stat_posted.load(Ordering::Relaxed),
            entries_dropped: self.inner.stat_dropped.load(Ordering::Relaxed),
            jobs_executed: self.inner.stat_jobs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod explore;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::type_id;
    use bytes::Bytes;

    fn bb() -> Blackboard {
        Blackboard::new(BlackboardConfig {
            queues: 4,
            workers: 0,
        })
    }

    #[test]
    fn single_sensitivity_fires_per_entry() {
        let board = bb();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let ty = type_id("L", "a");
        board.register(KnowledgeSource::new("count", vec![ty], move |_bb, es| {
            assert_eq!(es.len(), 1);
            h.fetch_add(1, Ordering::SeqCst);
        }));
        for _ in 0..5 {
            board.post(DataEntry::bytes(ty, Bytes::new()));
        }
        board.run_inline();
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(board.stats().jobs_executed, 5);
    }

    #[test]
    fn join_two_types_fires_on_last_unsatisfied() {
        let board = bb();
        let (ta, tb) = (type_id("L", "a"), type_id("L", "b"));
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        board.register(KnowledgeSource::new(
            "join",
            vec![ta, tb],
            move |_bb, es| {
                assert_eq!(es[0].ty(), ta);
                assert_eq!(es[1].ty(), tb);
                h.fetch_add(1, Ordering::SeqCst);
            },
        ));
        board.post(DataEntry::bytes(ta, Bytes::new()));
        board.run_inline();
        assert_eq!(hits.load(Ordering::SeqCst), 0, "b still unsatisfied");
        board.post(DataEntry::bytes(tb, Bytes::new()));
        board.run_inline();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn repeated_type_needs_two_entries() {
        let board = bb();
        let ty = type_id("L", "pair");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        board.register(KnowledgeSource::new(
            "pairs",
            vec![ty, ty],
            move |_bb, es| {
                assert_eq!(es.len(), 2);
                h.fetch_add(1, Ordering::SeqCst);
            },
        ));
        for _ in 0..5 {
            board.post(DataEntry::bytes(ty, Bytes::new()));
        }
        board.run_inline();
        assert_eq!(
            hits.load(Ordering::SeqCst),
            2,
            "5 entries = 2 pairs + 1 leftover"
        );
    }

    #[test]
    fn unmatched_entries_are_dropped() {
        let board = bb();
        board.post(DataEntry::bytes(type_id("L", "nobody"), Bytes::new()));
        assert_eq!(board.stats().entries_dropped, 1);
    }

    #[test]
    fn cascade_unpack_then_process() {
        // Figure 4 in miniature: packs unpack into events, events feed a
        // second KS.
        let board = bb();
        let t_pack = type_id("app", "pack");
        let t_event = type_id("app", "event");
        let processed = Arc::new(AtomicUsize::new(0));
        let p = Arc::clone(&processed);
        board.register(KnowledgeSource::new(
            "unpacker",
            vec![t_pack],
            move |bb, es| {
                let n = es[0].size();
                for _ in 0..n {
                    bb.post(DataEntry::bytes(t_event, Bytes::new()));
                }
            },
        ));
        board.register(KnowledgeSource::new(
            "profiler",
            vec![t_event],
            move |_bb, _es| {
                p.fetch_add(1, Ordering::SeqCst);
            },
        ));
        board.post(DataEntry::bytes(t_pack, Bytes::from(vec![0u8; 7])));
        board.run_inline();
        assert_eq!(processed.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn op_can_register_and_remove_ks() {
        let board = bb();
        let t_boot = type_id("L", "boot");
        let t_work = type_id("L", "work");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let boot_id = Arc::new(Mutex::new(None::<KsId>));
        let boot_id2 = Arc::clone(&boot_id);
        let id = board.register(KnowledgeSource::new(
            "boot",
            vec![t_boot],
            move |bb, _es| {
                let h = Arc::clone(&h);
                bb.register(KnowledgeSource::new(
                    "worker",
                    vec![t_work],
                    move |_bb, _es| {
                        h.fetch_add(1, Ordering::SeqCst);
                    },
                ));
                // Remove ourselves: opportunistic one-shot KS.
                if let Some(me) = *boot_id2.lock() {
                    bb.remove(me);
                }
            },
        ));
        *boot_id.lock() = Some(id);
        board.post(DataEntry::bytes(t_boot, Bytes::new()));
        board.run_inline();
        assert_eq!(board.ks_count(), 1, "boot removed itself, worker remains");
        board.post(DataEntry::bytes(t_work, Bytes::new()));
        board.run_inline();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn multi_level_isolation() {
        let board = bb();
        let hits0 = Arc::new(AtomicUsize::new(0));
        let hits1 = Arc::new(AtomicUsize::new(0));
        for (level, hits) in [("app0", &hits0), ("app1", &hits1)] {
            let h = Arc::clone(hits);
            board.register(KnowledgeSource::new(
                &format!("prof-{level}"),
                vec![type_id(level, "event")],
                move |_bb, _es| {
                    h.fetch_add(1, Ordering::SeqCst);
                },
            ));
        }
        for _ in 0..3 {
            board.post(DataEntry::bytes(type_id("app0", "event"), Bytes::new()));
        }
        board.post(DataEntry::bytes(type_id("app1", "event"), Bytes::new()));
        board.run_inline();
        assert_eq!(hits0.load(Ordering::SeqCst), 3);
        assert_eq!(hits1.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn parallel_workers_process_everything() {
        let board = Blackboard::new(BlackboardConfig {
            queues: 8,
            workers: 4,
        });
        let ty = type_id("L", "x");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        board.register(KnowledgeSource::new("sink", vec![ty], move |_bb, _es| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        board.start();
        for _ in 0..10_000 {
            board.post(DataEntry::bytes(ty, Bytes::new()));
        }
        board.stop();
        assert_eq!(hits.load(Ordering::SeqCst), 10_000);
        assert_eq!(board.stats().jobs_executed, 10_000);
    }

    #[test]
    fn parallel_cascade_with_drain() {
        let board = Blackboard::new(BlackboardConfig {
            queues: 8,
            workers: 3,
        });
        let (tp, te) = (type_id("L", "p"), type_id("L", "e"));
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        board.register(KnowledgeSource::new("expand", vec![tp], move |bb, _es| {
            for _ in 0..10 {
                bb.post(DataEntry::bytes(te, Bytes::new()));
            }
        }));
        board.register(KnowledgeSource::new("count", vec![te], move |_bb, _es| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        board.start();
        for _ in 0..100 {
            board.post(DataEntry::bytes(tp, Bytes::new()));
        }
        board.drain();
        assert_eq!(
            hits.load(Ordering::SeqCst),
            1000,
            "drain waits for cascades"
        );
        board.stop();
    }

    #[test]
    fn two_ks_same_type_both_fire() {
        let board = bb();
        let ty = type_id("L", "shared");
        let a = Arc::new(AtomicUsize::new(0));
        let b = Arc::new(AtomicUsize::new(0));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        board.register(KnowledgeSource::new("A", vec![ty], move |_bb, _es| {
            a2.fetch_add(1, Ordering::SeqCst);
        }));
        board.register(KnowledgeSource::new("B", vec![ty], move |_bb, _es| {
            b2.fetch_add(1, Ordering::SeqCst);
        }));
        board.post(DataEntry::bytes(ty, Bytes::new()));
        board.run_inline();
        assert_eq!(a.load(Ordering::SeqCst), 1);
        assert_eq!(b.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn is_sensitive_to_follows_register_and_remove() {
        let board = bb();
        let (ty, other) = (type_id("L", "watched"), type_id("L", "other"));
        assert!(!board.is_sensitive_to(ty));
        let id = board.register(KnowledgeSource::new("w", vec![other, ty], |_bb, _es| {}));
        assert!(board.is_sensitive_to(ty) && board.is_sensitive_to(other));
        board.remove(id);
        assert!(!board.is_sensitive_to(ty));
    }

    #[test]
    fn removed_ks_no_longer_fires() {
        let board = bb();
        let ty = type_id("L", "t");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let id = board.register(KnowledgeSource::new("once", vec![ty], move |_bb, _es| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        board.post(DataEntry::bytes(ty, Bytes::new()));
        board.run_inline();
        assert!(board.remove(id));
        assert!(!board.remove(id), "double remove is false");
        board.post(DataEntry::bytes(ty, Bytes::new()));
        board.run_inline();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(board.stats().entries_dropped, 1);
    }
}
