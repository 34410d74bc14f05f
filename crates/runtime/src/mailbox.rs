//! Per-rank mailboxes: the matching engine of the runtime.
//!
//! Each rank owns one [`Mailbox`]. Senders push into the destination's
//! mailbox; the owning rank consumes from it. Two queues implement MPI
//! semantics:
//!
//! * `offers` — messages that arrived before a matching receive
//!   ("unexpected" messages in MPI parlance). Eager messages park here
//!   complete; rendezvous messages (the envelope's `sync` flag: large
//!   standard sends and every synchronous-mode send) park here with a
//!   [`SendHandle`] the sender blocks on, which is what gives them real
//!   back-pressure.
//! * `posted` — receives posted before a matching message arrived. The
//!   sender completes them directly at delivery time.
//!
//! Both queues are scanned in FIFO order, preserving MPI's non-overtaking
//! guarantee for identical `(source, tag, communicator)` triples.
//!
//! # Waiting
//!
//! Every blocking wait of a receiver — a receive, a posted request, a
//! stream reader waiting for the next delivery — goes through one
//! routine, `Mailbox::wait_for`, on its own mailbox. A waiter either
//! spins on the atomic it waits for (yielding every `SPINS_PER_YIELD`
//! probes) for at most `SPIN_NS`, about what a futex wake-up onto an idle
//! core costs, and parks on the condition variable if that was not
//! enough — or parks at once. It spins while the mailbox's estimate of how long its
//! *spinning* waits took lately (an EWMA) is below that same `SPIN_NS`:
//! a spin that does not cover the waits it precedes is CPU taken from
//! the application for nothing. Only waits that spun feed the estimate,
//! with everything they cost from first probe to return: a parked wait
//! would report its own wake-up latency and keep the mailbox parked for
//! ever, and on a box with more threads than cores spinning can itself be
//! what makes waits long, which only a spinning wait observes. While the
//! estimate says park, every `PROBE_EVERY`-th wait spins anyway and
//! reports, so a mailbox returns to spinning once waits are short again.
//! Deliverers signal only when `Inner::parked` says somebody sleeps.
//!
//! A rendezvous sender waits on its own [`SendHandle`] instead
//! (`SendHandle::wait`): it yields for up to `SEND_YIELD`, then sleeps on
//! the handle, and only the take, retirement or shutdown that settles its
//! offer wakes it. So a blocked stream writer is not woken by every
//! delivery into its reader's mailbox, and its waits — which last as long
//! as the reader is away — do not feed the reader's spin estimate. Its
//! sleeps are counted apart from a receiver's parks
//! (`runtime_send_parks_total` against `runtime_mailbox_parks_total`).

use crate::comm::CommId;
use crate::envelope::{Context, Envelope, Src, Status, TagSel};
use crate::RtError;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// Mailbox pressure metrics: recorded per delivery under the mailbox lock
// we already hold, so the extra cost is two relaxed fetch_adds. The wait
// metrics are recorded once per blocking wait, never per probe.
mod obs {
    use opmr_obs::{registry, Counter, Histogram};
    use std::sync::{Arc, OnceLock};

    pub(super) struct MailboxMetrics {
        pub delivered: Arc<Counter>,
        pub unexpected: Arc<Counter>,
        pub depth: Arc<Histogram>,
        pub spin_hits: Arc<Counter>,
        pub parks: Arc<Counter>,
        pub send_parks: Arc<Counter>,
        pub wait_ns: Arc<Histogram>,
    }

    pub(super) fn m() -> &'static MailboxMetrics {
        static M: OnceLock<MailboxMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            MailboxMetrics {
                delivered: r.counter("runtime_envelopes_delivered_total"),
                unexpected: r.counter("runtime_envelopes_unexpected_total"),
                depth: r.histogram("runtime_mailbox_depth"),
                spin_hits: r.counter("runtime_mailbox_spin_hits_total"),
                parks: r.counter("runtime_mailbox_parks_total"),
                send_parks: r.counter("runtime_send_parks_total"),
                wait_ns: r.histogram("runtime_mailbox_wait_ns"),
            }
        })
    }
}

/// Completion of a rendezvous send, and what its sender waits on: only
/// the take, retirement or shutdown that settles this offer wakes the
/// sender, not every delivery into the destination's mailbox.
#[derive(Default)]
pub struct SendHandle {
    /// `PENDING`, then `TAKEN` or `FAILED`, once.
    state: AtomicU8,
    /// The sender sleeps on `cv` (set under `lock`): the settler signals.
    parked: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

const PENDING: u8 = 0;
const TAKEN: u8 = 1;
const FAILED: u8 = 2;

/// How long a rendezvous sender yields before it sleeps on its handle.
/// It waits for the reader to run and take its frame: yielding hands its
/// core to the reader (or to whoever the reader waits for) while the
/// sender stays runnable, so the take that completes the send needs no
/// futex wake. Measured on `firehose_packs` (2 stream writers, `n_async`
/// 4, 2 vCPUs, 10 alternating runs; EXPERIMENTS.md "Steady writers"):
/// parking on the reader's mailbox read −7.8 % `events_per_s` against the
/// parent, yielding 50 µs −5.3 %, 200 µs −1.3 % and 1 ms −6.8 %.
const SEND_YIELD: Duration = Duration::from_micros(200);

impl SendHandle {
    pub fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) != PENDING
    }

    /// Blocks until the offer is settled: yields for up to `SEND_YIELD`,
    /// then sleeps. `Shutdown` if the destination's mailbox shut down with
    /// the offer still parked.
    pub fn wait(&self) -> Result<(), RtError> {
        let t0 = Instant::now();
        while !self.is_done() {
            if t0.elapsed() >= SEND_YIELD {
                self.park();
                break;
            }
            std::thread::yield_now();
        }
        match self.state.load(Ordering::Acquire) {
            FAILED => Err(RtError::Shutdown),
            _ => Ok(()),
        }
    }

    fn park(&self) {
        obs::m().send_parks.inc();
        let mut g = self.lock.lock();
        // Announce, then look: a settler either sees `parked` and signals
        // under the lock, which this wait releases, or came first and is
        // seen here.
        self.parked.store(true, Ordering::SeqCst);
        while self.state.load(Ordering::SeqCst) == PENDING {
            self.cv.wait(&mut g);
        }
    }

    /// Settles a pending offer (a settled one stays as it is) and wakes
    /// its sender if it sleeps.
    fn settle(&self, to: u8) {
        let settled = self
            .state
            .compare_exchange(PENDING, to, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if settled && self.parked.load(Ordering::SeqCst) {
            let _g = self.lock.lock();
            self.cv.notify_one();
        }
    }
}

/// Slot a posted receive is completed into.
#[derive(Debug, Default)]
pub struct RecvSlot {
    /// Set (`Release`) after `filled` holds the envelope and read
    /// (`Acquire`) before the mutex is touched, so an empty slot is probed
    /// — by a spinning waiter, by every `ReadStream::sweep` — without a
    /// lock.
    ready: AtomicBool,
    filled: Mutex<Option<Envelope>>,
}

impl RecvSlot {
    /// Takes the delivered envelope, if any.
    pub fn take(&self) -> Option<Envelope> {
        if !self.ready.load(Ordering::Acquire) {
            return None;
        }
        self.filled.lock().take()
    }
    /// True once a message has been delivered (without consuming it).
    pub fn is_filled(&self) -> bool {
        self.ready.load(Ordering::Acquire) && self.filled.lock().is_some()
    }
    fn fill(&self, env: Envelope) {
        let mut g = self.filled.lock();
        debug_assert!(g.is_none(), "recv slot filled twice");
        *g = Some(env);
        self.ready.store(true, Ordering::Release);
    }
}

struct Offer {
    env: Envelope,
    /// `Some` for rendezvous messages: completed when a receive takes it.
    done: Option<Arc<SendHandle>>,
}

struct Posted {
    ctx: Context,
    comm: CommId,
    src: Src,
    tag: TagSel,
    slot: Arc<RecvSlot>,
}

#[derive(Default)]
struct Inner {
    offers: VecDeque<Offer>,
    posted: VecDeque<Posted>,
    shutdown: bool,
    /// The owning rank has exited: it takes nothing more, so no sender
    /// waits on it (see [`Mailbox::retire`]).
    retired: bool,
    /// Waiters currently asleep on `cv`; nobody is signalled while it is 0.
    parked: usize,
}

impl Inner {
    /// Wakes the parked waiters, if any, to re-check what they wait for.
    fn signal(&mut self, cv: &Condvar) {
        if self.parked > 0 {
            cv.notify_all();
        }
    }
}

/// Longest spin in front of a park, and the recent length of spinning
/// waits under which the spin is taken at all: about one futex wake-up
/// onto an idle core, in nanoseconds.
const SPIN_NS: u64 = 50_000;
/// Probes between two `yield_now`s (and two clock reads) while spinning:
/// on a box with fewer cores than threads the thread being waited for
/// may need this core.
const SPINS_PER_YIELD: u32 = 32;
/// A single wait moves the estimate by at most a sixteenth of this, so
/// one idle second does not take thousands of short waits to forget,
/// and one slow wait among short ones does not end the spinning.
const WAIT_SAMPLE_CAP_NS: u64 = 8 * SPIN_NS;
/// While the estimate says park, one wait in this many spins first.
const PROBE_EVERY: u32 = 16;

/// One rank's incoming-message state.
pub struct Mailbox {
    inner: Mutex<Inner>,
    cv: Condvar,
    /// Deliveries and liveness bumps so far. Written under `inner`'s lock,
    /// read without it by a reader about to sweep its requests.
    deliveries: AtomicU64,
    /// EWMA (weight 1/16) of what recent waits that spun took, in ns;
    /// starts at 0, so a fresh mailbox spins first. A statistic: racing
    /// waiters may lose an update.
    spin_wait_ewma_ns: AtomicU64,
    /// Waits the estimate has sent to sleep so far: the probe cadence.
    parked_waits: AtomicU32,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            deliveries: AtomicU64::new(0),
            spin_wait_ewma_ns: AtomicU64::new(0),
            parked_waits: AtomicU32::new(0),
        }
    }
}

/// Outcome of [`Mailbox::deliver`].
pub enum Delivery {
    /// Message handed to a posted receive or parked eagerly: sender is done.
    Complete,
    /// Rendezvous message parked; sender must wait on the handle.
    Pending(Arc<SendHandle>),
}

impl Mailbox {
    /// Delivers a message into this mailbox: into the first matching
    /// posted receive, else parked, complete unless the envelope is `sync`
    /// (rendezvous).
    pub fn deliver(&self, env: Envelope) -> Result<Delivery, RtError> {
        let mut g = self.inner.lock();
        if g.shutdown {
            return Err(RtError::Shutdown);
        }
        let m = obs::m();
        m.delivered.inc();
        m.depth.record(g.offers.len() as u64);
        // Posted receives are matched in posting order.
        let pos = g
            .posted
            .iter()
            .position(|p| env.matches(p.ctx, p.comm, p.src, p.tag));
        if let Some(posted) = pos.and_then(|p| g.posted.remove(p)) {
            posted.slot.fill(env);
            self.count_delivery();
            g.signal(&self.cv);
            return Ok(Delivery::Complete);
        }
        m.unexpected.inc();
        let delivery = if !env.sync || g.retired {
            g.offers.push_back(Offer { env, done: None });
            Delivery::Complete
        } else {
            let handle = Arc::new(SendHandle::default());
            g.offers.push_back(Offer {
                env,
                done: Some(Arc::clone(&handle)),
            });
            Delivery::Pending(handle)
        };
        self.count_delivery();
        g.signal(&self.cv);
        Ok(delivery)
    }

    /// Publishes one more delivery (or bump). Call with `inner` locked and
    /// only once what the delivery brought is in place: a waiter that spins
    /// on the count reads it without the lock and looks at once.
    fn count_delivery(&self) {
        let n = self.deliveries.load(Ordering::Relaxed);
        self.deliveries.store(n + 1, Ordering::Release);
    }

    /// The one waiting routine: blocks until `done()` (a lock-free probe
    /// of whatever a deliverer sets before it signals) or `deadline`,
    /// spinning first while that has been paying on this mailbox (see the
    /// module docs). Returns `Ok` at the deadline too: with one, the
    /// caller checks for itself what it got.
    fn wait_for(&self, deadline: Option<Instant>, done: impl Fn() -> bool) -> Result<(), RtError> {
        let m = obs::m();
        let t0 = Instant::now();
        let spin = self.spins_first();
        let outcome = if spin && Self::spin_until(t0, &done) {
            m.spin_hits.inc();
            Ok(())
        } else {
            self.park_until(deadline, &done)
        };
        let waited = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        m.wait_ns.record(waited);
        if spin {
            self.learn(waited);
        }
        outcome
    }

    /// True once `done()`, false once `SPIN_NS` have passed since `t0`.
    fn spin_until(t0: Instant, done: impl Fn() -> bool) -> bool {
        let mut probes = 0u32;
        loop {
            if done() {
                return true;
            }
            probes += 1;
            if !probes.is_multiple_of(SPINS_PER_YIELD) {
                std::hint::spin_loop();
            } else if t0.elapsed() < Duration::from_nanos(SPIN_NS) {
                std::thread::yield_now();
            } else {
                return false;
            }
        }
    }

    /// Sleeps on the condvar until `done()`, shutdown or `deadline`.
    fn park_until(
        &self,
        deadline: Option<Instant>,
        done: impl Fn() -> bool,
    ) -> Result<(), RtError> {
        let mut g = self.inner.lock();
        let mut slept = false;
        loop {
            if done() {
                return Ok(());
            }
            if g.shutdown {
                return Err(RtError::Shutdown);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|l| l.is_zero()) {
                return Ok(());
            }
            if !slept {
                obs::m().parks.inc();
                slept = true;
            }
            g.parked += 1;
            match left {
                Some(left) => drop(self.cv.wait_for(&mut g, left)),
                None => self.cv.wait(&mut g),
            }
            g.parked -= 1;
        }
    }

    /// Whether the next wait spins: spinning waits have been short, or
    /// it is this wait's turn to find out whether they would be by now.
    fn spins_first(&self) -> bool {
        self.spin_wait_ewma_ns.load(Ordering::Relaxed) < SPIN_NS
            || self
                .parked_waits
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_add(1)
                .is_multiple_of(PROBE_EVERY)
    }

    /// Feeds the estimate what a wait that spun took, park included.
    fn learn(&self, waited_ns: u64) {
        let old = self.spin_wait_ewma_ns.load(Ordering::Relaxed);
        let new = old - old / 16 + waited_ns.min(WAIT_SAMPLE_CAP_NS) / 16;
        self.spin_wait_ewma_ns.store(new, Ordering::Relaxed);
    }

    /// Deliveries into this mailbox so far, plus one per [`Mailbox::bump`].
    /// Read it *before* polling requests and hand it to
    /// [`Mailbox::wait_delivery`]: a delivery in between is then seen
    /// instead of slept through.
    pub fn deliveries(&self) -> u64 {
        self.deliveries.load(Ordering::Acquire)
    }

    /// Blocks until the delivery count differs from `seen` or `deadline`
    /// passes (either way `Ok`: the caller polls again and judges for
    /// itself).
    pub fn wait_delivery(&self, seen: u64, deadline: Option<Instant>) -> Result<(), RtError> {
        self.wait_for(deadline, || self.deliveries() != seen)
    }

    /// Counts a non-delivery that waiters in [`Mailbox::wait_delivery`]
    /// must look at — a peer's liveness flag dropped — and wakes them.
    pub fn bump(&self) {
        let mut g = self.inner.lock();
        self.count_delivery();
        g.signal(&self.cv);
    }

    /// Non-destructive scan for a matching unexpected message.
    pub fn probe(&self, ctx: Context, comm: CommId, src: Src, tag: TagSel) -> Option<Status> {
        let g = self.inner.lock();
        g.offers
            .iter()
            .find(|o| o.env.matches(ctx, comm, src, tag))
            .map(|o| o.env.status())
    }

    /// Takes the first matching unexpected message, if any, completing the
    /// sender when it was a rendezvous offer.
    pub fn try_take(
        &self,
        ctx: Context,
        comm: CommId,
        src: Src,
        tag: TagSel,
    ) -> Result<Option<Envelope>, RtError> {
        let mut g = self.inner.lock();
        if g.shutdown {
            return Err(RtError::Shutdown);
        }
        Ok(Self::take_locked(&mut g, ctx, comm, src, tag))
    }

    fn take_locked(
        g: &mut Inner,
        ctx: Context,
        comm: CommId,
        src: Src,
        tag: TagSel,
    ) -> Option<Envelope> {
        let pos = g
            .offers
            .iter()
            .position(|o| o.env.matches(ctx, comm, src, tag))?;
        let offer = g.offers.remove(pos)?;
        if let Some(done) = offer.done {
            done.settle(TAKEN);
        }
        Some(offer.env)
    }

    /// Blocking receive: takes a matching unexpected message or posts a
    /// receive and waits for delivery.
    pub fn recv_blocking(
        &self,
        ctx: Context,
        comm: CommId,
        src: Src,
        tag: TagSel,
    ) -> Result<Envelope, RtError> {
        let mut g = self.inner.lock();
        if g.shutdown {
            return Err(RtError::Shutdown);
        }
        if let Some(env) = Self::take_locked(&mut g, ctx, comm, src, tag) {
            return Ok(env);
        }
        let slot = Arc::new(RecvSlot::default());
        g.posted.push_back(Posted {
            ctx,
            comm,
            src,
            tag,
            slot: Arc::clone(&slot),
        });
        drop(g);
        self.wait_recv(&slot)
    }

    /// Posts a non-blocking receive. Returns the slot it will complete into;
    /// if an unexpected message already matches, the slot is pre-filled.
    pub fn post_recv(
        &self,
        ctx: Context,
        comm: CommId,
        src: Src,
        tag: TagSel,
    ) -> Result<Arc<RecvSlot>, RtError> {
        let mut g = self.inner.lock();
        if g.shutdown {
            return Err(RtError::Shutdown);
        }
        let slot = Arc::new(RecvSlot::default());
        if let Some(env) = Self::take_locked(&mut g, ctx, comm, src, tag) {
            slot.fill(env);
            return Ok(slot);
        }
        g.posted.push_back(Posted {
            ctx,
            comm,
            src,
            tag,
            slot: Arc::clone(&slot),
        });
        Ok(slot)
    }

    /// Blocks until a posted receive completes.
    pub fn wait_recv(&self, slot: &RecvSlot) -> Result<Envelope, RtError> {
        if let Some(env) = slot.take() {
            return Ok(env);
        }
        self.wait_for(None, || slot.ready.load(Ordering::Acquire))?;
        slot.take()
            .ok_or(RtError::Protocol("completed receive slot was empty"))
    }

    /// The owning rank has exited, so no receive will take what is parked
    /// here: every rendezvous offer completes now, and every later one at
    /// delivery, as an eager send to the rank would have. A sender never
    /// waits on a rank that has stopped reading.
    pub fn retire(&self) {
        let mut g = self.inner.lock();
        g.retired = true;
        for offer in &g.offers {
            if let Some(done) = &offer.done {
                done.settle(TAKEN);
            }
        }
    }

    /// Marks the mailbox as shut down and wakes every waiter: a
    /// rendezvous sender whose offer is still parked here gets `Shutdown`.
    pub fn shutdown(&self) {
        let mut g = self.inner.lock();
        g.shutdown = true;
        for offer in &g.offers {
            if let Some(done) = &offer.done {
                done.settle(FAILED);
            }
        }
        g.signal(&self.cv);
    }

    /// Number of unexpected messages currently parked (diagnostics).
    pub fn backlog(&self) -> usize {
        self.inner.lock().offers.len()
    }
}

/// Convenience constructor for envelopes (used by `Mpi` and tests).
pub fn make_envelope(
    ctx: Context,
    comm: CommId,
    src_local: usize,
    src_world: usize,
    tag: i32,
    payload: Bytes,
) -> Envelope {
    Envelope {
        header: crate::envelope::EnvelopeHeader {
            ctx,
            comm,
            src_local,
            src_world,
            tag,
        },
        payload,
        sync: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommId;

    const C: CommId = CommId(7);

    fn env(src: usize, tag: i32, len: usize) -> Envelope {
        make_envelope(
            Context::Pt2pt,
            C,
            src,
            src,
            tag,
            Bytes::from(vec![0u8; len]),
        )
    }

    fn sync_env(src: usize, tag: i32, len: usize) -> Envelope {
        Envelope {
            sync: true,
            ..env(src, tag, len)
        }
    }

    #[test]
    fn eager_then_take() {
        let mb = Mailbox::default();
        assert!(matches!(
            mb.deliver(env(0, 1, 8)).unwrap(),
            Delivery::Complete
        ));
        let got = mb
            .try_take(Context::Pt2pt, C, Src::Rank(0), TagSel::Tag(1))
            .unwrap()
            .unwrap();
        assert_eq!(got.payload.len(), 8);
    }

    #[test]
    fn rendezvous_completes_on_take() {
        let mb = Mailbox::default();
        let Delivery::Pending(h) = mb.deliver(sync_env(0, 1, 128)).unwrap() else {
            panic!("expected rendezvous");
        };
        assert!(!h.is_done());
        mb.try_take(Context::Pt2pt, C, Src::Any, TagSel::Any)
            .unwrap()
            .unwrap();
        assert!(h.is_done());
    }

    #[test]
    fn a_retired_mailbox_keeps_no_sender_waiting() {
        let mb = Mailbox::default();
        let Delivery::Pending(h) = mb.deliver(sync_env(0, 1, 8)).unwrap() else {
            panic!("expected rendezvous");
        };
        mb.retire();
        assert!(h.is_done(), "a parked offer completes at retirement");
        assert!(matches!(
            mb.deliver(sync_env(0, 1, 8)).unwrap(),
            Delivery::Complete
        ));
        // A later shutdown leaves the completed send as it was.
        mb.shutdown();
        h.wait().unwrap();
    }

    #[test]
    fn a_sleeping_sender_wakes_at_the_take() {
        let mb = Mailbox::default();
        let Delivery::Pending(h) = mb.deliver(sync_env(0, 1, 8)).unwrap() else {
            panic!("expected rendezvous");
        };
        std::thread::scope(|s| {
            let sender = s.spawn(|| h.wait());
            // Past `SEND_YIELD`, so the sender is asleep (or about to be)
            // when the take comes; no timeout: a lost wake-up hangs.
            std::thread::sleep(SEND_YIELD * 4);
            mb.try_take(Context::Pt2pt, C, Src::Any, TagSel::Any)
                .unwrap()
                .unwrap();
            sender.join().unwrap().unwrap();
        });
    }

    #[test]
    fn shutdown_fails_a_sleeping_sender() {
        let mb = Mailbox::default();
        let Delivery::Pending(parked) = mb.deliver(sync_env(0, 1, 8)).unwrap() else {
            panic!("expected rendezvous");
        };
        std::thread::scope(|s| {
            let sender = s.spawn(|| parked.wait());
            std::thread::sleep(SEND_YIELD * 4);
            mb.shutdown();
            assert_eq!(sender.join().unwrap().unwrap_err(), RtError::Shutdown);
        });
    }

    #[test]
    fn posted_recv_matched_at_delivery() {
        let mb = Mailbox::default();
        let slot = mb
            .post_recv(Context::Pt2pt, C, Src::Rank(3), TagSel::Tag(9))
            .unwrap();
        assert!(!slot.is_filled());
        mb.deliver(env(3, 9, 4)).unwrap();
        assert!(slot.is_filled());
        assert_eq!(slot.take().unwrap().payload.len(), 4);
    }

    #[test]
    fn fifo_order_same_triple() {
        let mb = Mailbox::default();
        for i in 0..4 {
            mb.deliver(env(0, 5, i + 1)).unwrap();
        }
        for i in 0..4 {
            let e = mb
                .try_take(Context::Pt2pt, C, Src::Rank(0), TagSel::Tag(5))
                .unwrap()
                .unwrap();
            assert_eq!(e.payload.len(), i + 1, "non-overtaking order violated");
        }
    }

    #[test]
    fn posted_order_respected() {
        let mb = Mailbox::default();
        let first = mb
            .post_recv(Context::Pt2pt, C, Src::Any, TagSel::Any)
            .unwrap();
        let second = mb
            .post_recv(Context::Pt2pt, C, Src::Any, TagSel::Any)
            .unwrap();
        mb.deliver(env(1, 1, 10)).unwrap();
        assert!(first.is_filled());
        assert!(!second.is_filled());
    }

    #[test]
    fn probe_sees_without_consuming() {
        let mb = Mailbox::default();
        mb.deliver(env(2, 3, 6)).unwrap();
        let st = mb.probe(Context::Pt2pt, C, Src::Any, TagSel::Any).unwrap();
        assert_eq!(st.source, 2);
        assert_eq!(st.bytes, 6);
        assert!(mb
            .try_take(Context::Pt2pt, C, Src::Rank(2), TagSel::Tag(3))
            .unwrap()
            .is_some());
    }

    #[test]
    fn contexts_are_isolated() {
        let mb = Mailbox::default();
        let coll = make_envelope(Context::Coll, C, 0, 0, 1, Bytes::new());
        mb.deliver(coll).unwrap();
        assert!(mb
            .try_take(Context::Pt2pt, C, Src::Any, TagSel::Any)
            .unwrap()
            .is_none());
        assert!(mb
            .try_take(Context::Coll, C, Src::Any, TagSel::Any)
            .unwrap()
            .is_some());
    }

    #[test]
    fn shutdown_wakes_and_errors() {
        let mb = Arc::new(Mailbox::default());
        let mb2 = Arc::clone(&mb);
        let t =
            std::thread::spawn(move || mb2.recv_blocking(Context::Pt2pt, C, Src::Any, TagSel::Any));
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.shutdown();
        assert_eq!(t.join().unwrap().unwrap_err(), RtError::Shutdown);
    }

    #[test]
    fn estimator_parks_after_long_waits_and_probes_its_way_back_to_spinning() {
        const LONG: u64 = 3_000_000;
        const SHORT: u64 = 2_000;
        let mb = Mailbox::default();
        assert!(mb.spins_first(), "a fresh mailbox spins");
        for _ in 0..100 {
            mb.learn(SHORT);
        }
        mb.learn(LONG);
        assert!(mb.spins_first(), "one slow wait among short ones");
        mb.learn(LONG);
        mb.learn(LONG);
        assert!(!mb.spins_first(), "a run of them stops the spinning");
        // However long the mailbox then idles …
        for _ in 0..1000 {
            mb.learn(1_000_000_000);
        }
        // … every PROBE_EVERY-th wait still spins, and once those probes
        // come back short the mailbox spins again.
        let (mut waits, mut probes) = (0u32, 0u32);
        while mb.spin_wait_ewma_ns.load(Ordering::Relaxed) >= SPIN_NS {
            waits += 1;
            if mb.spins_first() {
                probes += 1;
                mb.learn(SHORT);
            }
            assert!(waits <= 1000, "still parking after {waits} waits");
        }
        assert!(waits.abs_diff(probes * PROBE_EVERY) < PROBE_EVERY);
        assert!(mb.spins_first() && mb.spins_first());
    }

    #[test]
    fn wait_delivery_sees_what_landed_since_the_count_was_read() {
        let mb = Arc::new(Mailbox::default());
        let seen = mb.deliveries();
        mb.deliver(env(0, 1, 8)).unwrap();
        // Already moved: returns without sleeping, deadline or not.
        mb.wait_delivery(seen, None).unwrap();
        // Nothing new: the deadline ends the wait.
        let seen = mb.deliveries();
        let t0 = Instant::now();
        mb.wait_delivery(seen, Some(t0 + Duration::from_millis(20)))
            .unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(mb.deliveries(), seen);
        // A bump (liveness change) and a shutdown both end a sleep that
        // has no deadline.
        for shutdown in [false, true] {
            let seen = mb.deliveries();
            let mb2 = Arc::clone(&mb);
            let t = std::thread::spawn(move || mb2.wait_delivery(seen, None));
            std::thread::sleep(Duration::from_millis(10));
            if shutdown {
                mb.shutdown();
            } else {
                mb.bump();
            }
            let want = if shutdown {
                Err(RtError::Shutdown)
            } else {
                Ok(())
            };
            assert_eq!(t.join().unwrap(), want);
        }
    }

    #[test]
    fn cross_thread_blocking_recv() {
        let mb = Arc::new(Mailbox::default());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || {
            mb2.recv_blocking(Context::Pt2pt, C, Src::Any, TagSel::Any)
                .unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        mb.deliver(env(1, 2, 3)).unwrap();
        assert_eq!(t.join().unwrap().payload.len(), 3);
    }
}
