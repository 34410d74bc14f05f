//! Every schedule of the board's wake rules, explored: a producer that
//! posts jobs and waits for room after each ([`Blackboard::drain_to`]),
//! then drains and stops the pool, and at most one worker, stepped one
//! atomic operation at a time as `engine.rs` does them, breadth-first,
//! with no thread.
//!
//! [`Blackboard::drain_to`]: super::Blackboard::drain_to
//!
//! The model keeps what the wake rules read and write: the queued jobs,
//! `outstanding`, `shutdown`, `sleepers`, `drainers` and `drain_bound`,
//! `live_workers` and who holds `sleep_lock`. A job the producer posts
//! may post one more from inside its operation (a cascade), which the
//! worker enqueues and never waits on. A worker may die at the top of its
//! loop; the producer then runs the backlog inline. A parked worker's
//! wait is timed (500 µs in the engine): it may wake by itself at any
//! time. A drainer's wait is not.
//!
//! Checked on every state:
//!
//! 1. no wake-up is lost: a worker parked while a job is queued (or the
//!    pool stops), or a drainer parked at its bound (or with no live
//!    worker), has a signal coming: the thread whose step made that so is
//!    still on its way to the signal;
//! 2. the worker never waits for room;
//! 3. every schedule ends (the explorer's reachability pass), with the
//!    producer done, the worker gone and nothing outstanding.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_explore::Model;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct Bound {
    /// Jobs the producer posts.
    jobs: u8,
    /// The producer waits after each post until at most this many jobs
    /// are outstanding (then drains to 0).
    room: u8,
    /// 0: the producer runs everything inline; 1: one worker.
    workers: u8,
    /// The worker may die at the top of its loop.
    may_die: bool,
    /// Each posted job posts one more from its operation.
    cascade: bool,
}

/// Who holds `sleep_lock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Holder {
    Producer,
    Worker,
}

/// The producer: `post` (enqueue), then `drain_to`; at the end `stop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Producer {
    /// Posts its next job, or drains to 0 and stops.
    Post,
    /// Pushed a job; loads `sleepers` next.
    EnqCheck,
    /// Saw a sleeper: signals `sleep_cv` under the lock.
    EnqNotify,
    /// `drain_to(n)`: looks at `outstanding` and `live_workers`.
    Look(u8),
    /// Runs the backlog inline: no live worker.
    Inline(u8),
    /// Takes the lock, raises `drainers` and `drain_bound`.
    Announce(u8),
    /// Under the lock: its last look before the wait.
    Check(u8),
    Asleep(u8),
    /// Signalled: retakes the lock.
    Woken(u8),
    /// Lowers `drainers` (the last one out resets the bound), unlocks.
    Leave(u8),
    /// Drained: sets `shutdown` and signals `sleep_cv` under the lock.
    Stop,
    /// Joins the worker.
    Join,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Worker {
    /// Pops a job, or goes idle; may die here.
    Top,
    /// Runs a job's operation (a cascade posts from here).
    Exec(bool),
    /// Lowers `outstanding`; `left` is what remains.
    Dec,
    /// Loads `drainers` and `drain_bound` with `left` in hand.
    Check(u8),
    /// Signals `idle_cv` under the lock.
    Notify,
    /// Idle: exits if stopped and quiescent, else parks.
    Idle,
    /// Takes the lock and raises `sleepers`.
    Announce,
    /// Under the lock: its last look at the queues before the wait.
    Look,
    Asleep,
    Woken,
    /// Lowers `sleepers`, unlocks.
    Leave,
    /// Lowered `live_workers` to 0: wakes the drainers.
    Exit,
    Gone,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    /// Queued jobs; `true` for a job that posts one more.
    queue: VecDeque<bool>,
    outstanding: u8,
    shutdown: bool,
    sleepers: u8,
    drainers: u8,
    drain_bound: u8,
    live: u8,
    lock: Option<Holder>,
    posted: u8,
    producer: Producer,
    worker: Worker,
    died: bool,
}

type Check = Result<(), String>;
type Move = (&'static str, World);

/// The engine's rule in `execute`: wake the drainers once `left` jobs
/// are outstanding.
fn wakes_drainers(w: &World, left: u8) -> bool {
    w.drainers > 0 && left <= w.drain_bound
}

impl World {
    fn lock(&mut self, who: Holder) -> bool {
        if self.lock.is_some() {
            return false;
        }
        self.lock = Some(who);
        true
    }

    /// `notify_all` on `idle_cv`.
    fn wake_drainer(&mut self) {
        if let Producer::Asleep(n) = self.producer {
            self.producer = Producer::Woken(n);
        }
    }

    /// `notify_one` / `notify_all` on `sleep_cv`.
    fn wake_worker(&mut self) {
        if self.worker == Worker::Asleep {
            self.worker = Worker::Woken;
        }
    }

    /// One job run to completion on the producer's thread (the inline
    /// fallback): its cascade, then the decrement. No one else is left
    /// to wake.
    fn run_inline_one(&mut self, cascade: bool) {
        if cascade {
            self.outstanding += 1;
            self.queue.push_back(false);
        }
        self.outstanding -= 1;
    }

    /// Invariant 1.
    fn check(&self) -> Check {
        let queued = !self.queue.is_empty() || self.shutdown;
        let enqueuing = matches!(self.producer, Producer::EnqCheck | Producer::EnqNotify);
        if self.worker == Worker::Asleep && queued && !enqueuing {
            return Err("the worker sleeps on with a job queued: a lost wake-up".into());
        }
        if let Producer::Asleep(n) = self.producer {
            let room = self.outstanding <= n || self.live == 0;
            let signalling = matches!(
                self.worker,
                Worker::Check(_) | Worker::Notify | Worker::Exit
            );
            if room && !signalling {
                return Err(format!(
                    "the drainer sleeps on at {} outstanding, bound {n}, {} live: a lost wake-up",
                    self.outstanding, self.live
                ));
            }
        }
        Ok(())
    }
}

struct Board(Bound);

impl Board {
    fn producer(&self, w: &World, out: &mut Vec<Move>) -> Check {
        let mut n = w.clone();
        let label = match w.producer {
            Producer::Post if w.posted < self.0.jobs => {
                n.posted += 1;
                n.outstanding += 1;
                n.queue.push_back(self.0.cascade);
                n.producer = Producer::EnqCheck;
                "post"
            }
            Producer::Post => {
                n.producer = Producer::Look(0);
                "drain"
            }
            Producer::EnqCheck => {
                n.producer = if w.sleepers > 0 {
                    Producer::EnqNotify
                } else {
                    Producer::Look(self.0.room)
                };
                "sleepers?"
            }
            Producer::EnqNotify => {
                if !n.lock(Holder::Producer) {
                    return Ok(());
                }
                n.wake_worker();
                n.lock = None;
                n.producer = Producer::Look(self.0.room);
                "notify"
            }
            Producer::Look(b) => {
                n.producer = if w.outstanding <= b {
                    if b == 0 && w.posted == self.0.jobs {
                        Producer::Stop
                    } else {
                        Producer::Post
                    }
                } else if w.live == 0 {
                    Producer::Inline(b)
                } else {
                    Producer::Announce(b)
                };
                "look"
            }
            Producer::Inline(b) => {
                match n.queue.pop_front() {
                    Some(cascade) => n.run_inline_one(cascade),
                    None => n.producer = Producer::Look(b),
                }
                "inline"
            }
            Producer::Announce(b) => {
                if !n.lock(Holder::Producer) {
                    return Ok(());
                }
                n.drainers += 1;
                n.drain_bound = n.drain_bound.max(b);
                n.producer = Producer::Check(b);
                "announce"
            }
            Producer::Check(b) => {
                n.producer = if w.outstanding > b && w.live != 0 {
                    n.lock = None;
                    Producer::Asleep(b)
                } else {
                    Producer::Leave(b)
                };
                "check"
            }
            Producer::Woken(b) => {
                if !n.lock(Holder::Producer) {
                    return Ok(());
                }
                n.producer = Producer::Leave(b);
                "woken"
            }
            Producer::Leave(b) => {
                n.drainers -= 1;
                if n.drainers == 0 {
                    n.drain_bound = 0;
                }
                n.lock = None;
                n.producer = Producer::Look(b);
                "leave"
            }
            Producer::Stop => {
                if !n.lock(Holder::Producer) {
                    return Ok(());
                }
                n.shutdown = true;
                n.wake_worker();
                n.lock = None;
                n.producer = Producer::Join;
                "stop"
            }
            Producer::Join if w.worker == Worker::Gone => {
                n.producer = Producer::Done;
                "join"
            }
            Producer::Asleep(_) | Producer::Join | Producer::Done => return Ok(()),
        };
        out.push((label, n));
        Ok(())
    }

    fn worker(&self, w: &World, out: &mut Vec<Move>) -> Check {
        let mut n = w.clone();
        let label = match w.worker {
            Worker::Top => {
                if self.0.may_die && !w.died {
                    let mut d = w.clone();
                    d.died = true;
                    d.live -= 1;
                    d.worker = if d.live == 0 {
                        Worker::Exit
                    } else {
                        Worker::Gone
                    };
                    out.push(("die", d));
                }
                n.worker = match n.queue.pop_front() {
                    Some(cascade) => Worker::Exec(cascade),
                    None => Worker::Idle,
                };
                "pop"
            }
            Worker::Exec(cascade) => {
                if cascade {
                    // The operation posts: enqueue, never a wait. With one
                    // worker, nobody sleeps on `sleep_cv` meanwhile.
                    n.outstanding += 1;
                    n.queue.push_back(false);
                }
                n.worker = Worker::Dec;
                "run"
            }
            Worker::Dec => {
                n.outstanding -= 1;
                n.worker = Worker::Check(n.outstanding);
                "done"
            }
            Worker::Check(left) => {
                n.worker = if wakes_drainers(w, left) {
                    Worker::Notify
                } else {
                    Worker::Top
                };
                "drainers?"
            }
            Worker::Notify => {
                if !n.lock(Holder::Worker) {
                    return Ok(());
                }
                n.wake_drainer();
                n.lock = None;
                n.worker = Worker::Top;
                "notify"
            }
            Worker::Idle => {
                n.worker = if w.shutdown && w.outstanding == 0 {
                    n.live -= 1;
                    if n.live == 0 {
                        Worker::Exit
                    } else {
                        Worker::Gone
                    }
                } else {
                    Worker::Announce
                };
                "idle"
            }
            Worker::Announce => {
                if !n.lock(Holder::Worker) {
                    return Ok(());
                }
                n.sleepers += 1;
                n.worker = Worker::Look;
                "announce"
            }
            Worker::Look => {
                n.worker = if w.queue.is_empty() && !w.shutdown {
                    n.lock = None;
                    Worker::Asleep
                } else {
                    Worker::Leave
                };
                "look"
            }
            Worker::Asleep => {
                n.worker = Worker::Woken;
                "timeout"
            }
            Worker::Woken => {
                if !n.lock(Holder::Worker) {
                    return Ok(());
                }
                n.worker = Worker::Leave;
                "woken"
            }
            Worker::Leave => {
                n.sleepers -= 1;
                n.lock = None;
                n.worker = Worker::Top;
                "leave"
            }
            Worker::Exit => {
                if !n.lock(Holder::Worker) {
                    return Ok(());
                }
                n.wake_drainer();
                n.lock = None;
                n.worker = Worker::Gone;
                "exit"
            }
            Worker::Gone => return Ok(()),
        };
        out.push((label, n));
        Ok(())
    }
}

impl Model for Board {
    type State = World;

    fn start(&self) -> World {
        World {
            queue: VecDeque::new(),
            outstanding: 0,
            shutdown: false,
            sleepers: 0,
            drainers: 0,
            drain_bound: 0,
            live: self.0.workers,
            lock: None,
            posted: 0,
            producer: Producer::Post,
            worker: if self.0.workers == 0 {
                Worker::Gone
            } else {
                Worker::Top
            },
            died: false,
        }
    }

    fn moves(&self, w: &World) -> Result<Vec<Move>, String> {
        w.check()?;
        let mut out = Vec::new();
        self.producer(w, &mut out)?;
        self.worker(w, &mut out)?;
        Ok(out)
    }

    /// Invariant 3.
    fn end(&self, w: &World) -> Check {
        if w.producer == Producer::Done && w.worker == Worker::Gone && w.outstanding == 0 {
            return Ok(());
        }
        Err(format!(
            "stuck: producer {:?}, worker {:?}, {} outstanding",
            w.producer, w.worker, w.outstanding
        ))
    }
}

/// Rooms 0 and 1 (drain and the generalised wait), with and without a
/// cascade, one worker that lives or may die, and no worker at all.
#[test]
fn every_board_schedule_wakes_its_waiters_and_ends() {
    let t = std::time::Instant::now();
    let mut states = 0;
    for room in 0..=1 {
        for cascade in [false, true] {
            for (workers, may_die) in [(1, false), (1, true), (0, false)] {
                let bound = Bound {
                    jobs: 3,
                    room,
                    workers,
                    may_die,
                    cascade,
                };
                let s = opmr_explore::run(
                    &format!("{bound:?}"),
                    &Board(bound),
                    opmr_explore::MAX_STATES,
                )
                .expect("an invariant broke on the schedule printed above");
                states += s.states;
            }
        }
    }
    eprintln!("board model: {states} states in {:.2?}", t.elapsed());
}
