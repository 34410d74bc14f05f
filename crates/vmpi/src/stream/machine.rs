//! A write stream's `NA` window as one machine: [`StreamCore`] and its one
//! transition, [`StreamCore::step`]: an [`Input`] (what the writer or the
//! sender did, or wants) in, an [`Act`] (what it does next) out. `step` is
//! the only code that writes the core's private fields; it holds no block,
//! request, lock or thread. The drivers in `stream.rs` step it under the
//! window's lock and apply the act; a plain stream's writer steps the
//! sender's inputs itself. The test module explores every schedule of
//! writer × sender × reader. A block is *pending* from its hand-off until
//! its send completes: queued, held by the sender (busy) or in flight.
//!
//! | input | by | state → state | act |
//! |---|---|---|---|
//! | `Claim(NA)` | writer | a failure latched | `Fail` |
//! | | | under `NA` pending | `Go` |
//! | | | full, a send in flight | `Retire`: wait for the oldest, step `Completed` |
//! | | | full, all with the sender | `Wait` |
//! | `Hand` | writer | queued + 1 | `Wake` |
//! | `Take` | sender | aborted, or a failure latched | `Exit` |
//! | | | queued − 1, busy | `Send` the oldest queued block |
//! | | | nothing queued: closing / not | `Exit` / `Wait` |
//! | `Sent(r)` | sender | not busy; in flight + 1, or `r` latched | `Wake` |
//! | `Completed(r)` | writer | in flight − 1, `r` latched if an error | `Fail` if a failure is latched, else `Go` |
//! | `Close`, `Abort` | writer | stop: drain the queue / now | `Wake` |
//! | `Fin` | writer, sender joined | — | `Go`: send the FINs; `Fail`: a failed stream sends none |
//! | `Release` | writer | nothing pending | `Go` |
//!
//! `Wake` is the one act after which a waiting writer or sender may go
//! on; its driver wakes them.

use crate::{Result, VmpiError};

/// What close (send the queue, then exit) or abort (exit now) asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Stop {
    Drain,
    Abort,
}

/// The window's counts, its latched failure and its stop.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(super) struct StreamCore {
    /// Blocks handed off, not yet taken by the sender.
    queued: usize,
    /// The sender is compressing or sending a block it took.
    busy: bool,
    /// Sends made, not yet complete.
    in_flight: usize,
    /// The first failure: every later call returns it.
    failed: Option<VmpiError>,
    /// Set by close or abort: the stream is closed.
    stop: Option<Stop>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Input {
    /// A slot for one block, in a window of this many.
    Claim(usize),
    Hand,
    Take,
    Sent(Result<()>),
    /// The oldest send completed.
    Completed(Result<()>),
    Close,
    Abort,
    Fin,
    Release,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Act {
    Go,
    /// Sleep on the window's condvar, then step again.
    Wait,
    Retire,
    Send,
    Wake,
    Exit,
    Fail(VmpiError),
}

impl StreamCore {
    /// Blocks pending: at most `n_async`.
    pub(super) fn pending(&self) -> usize {
        self.queued + usize::from(self.busy) + self.in_flight
    }

    pub(super) fn closed(&self) -> bool {
        self.stop.is_some()
    }

    /// `StreamClosed` after close or abort, else the latched failure.
    pub(super) fn check(&self) -> Result<()> {
        if self.closed() {
            return Err(VmpiError::StreamClosed);
        }
        self.failed.clone().map_or(Ok(()), Err)
    }

    /// The window's one transition (the table in the module docs).
    pub(super) fn step(&mut self, input: Input) -> Act {
        match input {
            Input::Claim(n_async) => match &self.failed {
                Some(e) => Act::Fail(e.clone()),
                None if self.pending() < n_async => Act::Go,
                None if self.in_flight > 0 => Act::Retire,
                None => Act::Wait,
            },
            Input::Hand => {
                self.queued += 1;
                Act::Wake
            }
            Input::Take if self.stop == Some(Stop::Abort) || self.failed.is_some() => Act::Exit,
            Input::Take if self.queued > 0 => {
                self.queued -= 1;
                self.busy = true;
                Act::Send
            }
            Input::Take if self.stop.is_some() => Act::Exit,
            Input::Take => Act::Wait,
            Input::Sent(r) => {
                // A failed send's block is gone; the queued ones stay
                // until `Release`. The first failure is the one latched.
                self.busy = false;
                self.in_flight += usize::from(r.is_ok());
                self.failed = self.failed.take().or(r.err());
                Act::Wake
            }
            Input::Completed(r) => {
                self.in_flight = self.in_flight.saturating_sub(1);
                self.failed = self.failed.take().or(r.err());
                self.failed.clone().map_or(Act::Go, Act::Fail)
            }
            Input::Close => {
                self.stop.get_or_insert(Stop::Drain);
                Act::Wake
            }
            Input::Abort => {
                self.stop = Some(Stop::Abort);
                Act::Wake
            }
            Input::Fin => self.failed.clone().map_or(Act::Go, Act::Fail),
            Input::Release => {
                (self.queued, self.busy, self.in_flight) = (0, false, 0);
                Act::Go
            }
        }
    }
}

#[cfg(test)]
mod explore {
    //! Every schedule of one write stream, explored: a writer, a sender (a
    //! thread, or for a plain stream the writer itself) and a reader over a
    //! model mailbox, and the board the reader posts to with the worker
    //! that drains it, stepping one [`StreamCore`] as the drivers in
    //! `stream.rs` do, breadth-first, with no thread.
    //!
    //! The writer hands off `blocks` blocks and then closes, or aborts
    //! between any two calls; one send may fail, and a failed call makes
    //! the writer close. The reader keeps `n_async` receives posted. A
    //! data frame's send is synchronous: it lands in a free receive and
    //! completes, or parks as an offer that completes when the reader's
    //! repost of the receive it just emptied takes it. The FIN is a
    //! standard send: complete at delivery, parked or not. The reader
    //! reads as `ReadStream::read(Blocking)` does: it notes the mailbox's
    //! delivery count, sweeps, and parks until the count moves. A delivery
    //! makes its frame visible, then counts it (the order `Mailbox::deliver`
    //! keeps); a writer's exit counts as a delivery too. Each block read is
    //! posted to a board of room `room`: after the post the reader waits
    //! until at most `room - 1` jobs are outstanding, as a root analyzer
    //! does (`Blackboard::drain_to`), and one worker executes the jobs, or
    //! (`stall`) never runs.
    //!
    //! Checked on every state and move:
    //!
    //! 1. the core's counts are the driver's: queued, held and in flight;
    //! 2. at most `n_async` blocks are pending;
    //! 3. the reader takes every block once, in order, and EOF only from a
    //!    FIN that follows every block handed off;
    //! 4. a failed stream sends no FIN;
    //! 5. no wake-up is lost: an input after which a sleeping writer or
    //!    sender could go on returns `Wake`, and a job that leaves the
    //!    board with room wakes a reader waiting for it;
    //! 6. every schedule ends, close and abort included: the writer done,
    //!    the sender gone, nothing left in the mailbox, the board drained,
    //!    and the reader at EOF, or, for a failed or aborted stream only,
    //!    seeing the writer lost;
    //! 7. from every state with no send failed and no abort, EOF after
    //!    every block is reachable;
    //! 8. the data frames held downstream of the writer — in the reader's
    //!    receives, parked as offers, in the reader's hand and on the
    //!    board — never exceed `2 n_async + room`;
    //! 9. with the worker stalled, every schedule ends with the writer
    //!    blocked, the reader waiting for room and exactly
    //!    `2 n_async + room` frames held: nothing more is handed off.

    #![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

    use super::{Act, Input, StreamCore};
    use crate::VmpiError;
    use opmr_explore::Model;
    use opmr_runtime::RtError;
    use std::collections::VecDeque;

    const W: usize = 0;
    const S: usize = 1;

    /// Who takes and sends the queued blocks.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Driver {
        /// A compressing stream's sender thread.
        Thread,
        /// A plain stream's writer, holding the window's lock.
        Inline,
    }

    #[derive(Debug, Clone, Copy)]
    struct Bound {
        n_async: usize,
        blocks: u8,
        driver: Driver,
        /// Jobs the board holds, the reader's block in hand included.
        room: u8,
        /// The board's worker never runs.
        stall: bool,
    }

    impl Bound {
        /// What invariant 8 allows downstream of the writer.
        fn held_max(&self) -> usize {
            2 * self.n_async + usize::from(self.room)
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Writer {
        /// Between calls: it writes its next block, closes or aborts.
        Idle,
        /// Steps `Claim` again, woken or past a retire.
        Claim,
        Asleep,
        /// Waits outside the lock for its oldest send.
        Retire,
        /// Holds a free slot: copies outside the lock, then hands off.
        Hand,
        /// A plain stream's writer sends block `b` itself.
        Send(u8),
        /// A call failed: the writer closes.
        Close,
        /// Stopped the sender (`true`: aborted) and joins it.
        Join(bool),
        /// Sent its FIN: exits once the FIN is counted.
        Exit,
        Done,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Sender {
        Take,
        Asleep,
        Send(u8),
        Gone,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Frame {
        Data(u8),
        Fin,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Reader {
        /// Notes the delivery count.
        Snap,
        /// Sweeps, the count it noted in hand.
        Sweep(u8),
        /// Asleep until the count moves past the one noted.
        Park(u8),
        /// Holds the block it read: posts it to the board.
        Post,
        /// Posted: waits until the board has room.
        Room,
        /// Asleep until a job leaves the board with room.
        RoomAsleep,
        Eof,
        Lost,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct World {
        core: StreamCore,
        n_async: usize,
        room: u8,
        writer: Writer,
        sender: Sender,
        reader: Reader,
        /// Blocks handed off so far; block `b` is the `b`th.
        handed: u8,
        /// The driver's queued blocks and its sends in flight, oldest
        /// first.
        queue: VecDeque<u8>,
        sends: VecDeque<u8>,
        /// The reader's filled receives, oldest first, and how many of its
        /// `n_async` receives are posted and empty.
        slots: VecDeque<Frame>,
        free: usize,
        /// Frames that found no free receive, parked in arrival order.
        offers: VecDeque<Frame>,
        /// Data frames a receive has taken: their sends are complete.
        taken: u8,
        /// Jobs on the board.
        board: u8,
        /// The reader's mailbox delivery count.
        deliveries: u8,
        /// The writer (`W`) or the sender (`S`) made a frame visible and
        /// counts it next.
        uncounted: [bool; 2],
        /// Blocks the reader took.
        read: u8,
        failed: bool,
        aborted: bool,
    }

    type Check = Result<(), String>;

    impl World {
        fn new(bound: Bound) -> Self {
            World {
                core: StreamCore::default(),
                n_async: bound.n_async,
                room: bound.room,
                writer: Writer::Idle,
                sender: match bound.driver {
                    Driver::Thread => Sender::Take,
                    Driver::Inline => Sender::Gone,
                },
                reader: Reader::Snap,
                handed: 0,
                queue: VecDeque::new(),
                sends: VecDeque::new(),
                slots: VecDeque::new(),
                free: bound.n_async,
                offers: VecDeque::new(),
                taken: 0,
                board: 0,
                deliveries: 0,
                uncounted: [false; 2],
                read: 0,
                failed: false,
                aborted: false,
            }
        }

        /// Steps the core; wakes the sleepers on `Wake` and checks
        /// invariant 5.
        fn step(&mut self, input: Input) -> Result<Act, String> {
            let act = self.core.step(input.clone());
            if self.writer == Writer::Asleep {
                if act == Act::Wake {
                    self.writer = Writer::Claim;
                } else if self.core.clone().step(Input::Claim(self.n_async)) != Act::Wait {
                    return Err(format!("{input:?} gave {act:?}: the writer sleeps on"));
                }
            }
            if self.sender == Sender::Asleep {
                if act == Act::Wake {
                    self.sender = Sender::Take;
                } else if self.core.clone().step(Input::Take) != Act::Wait {
                    return Err(format!("{input:?} gave {act:?}: the sender sleeps on"));
                }
            }
            Ok(act)
        }

        /// Data frames held downstream of the writer (invariant 8).
        fn held(&self) -> usize {
            let data = |q: &VecDeque<Frame>| q.iter().filter(|f| **f != Frame::Fin).count();
            data(&self.slots)
                + data(&self.offers)
                + usize::from(self.reader == Reader::Post)
                + usize::from(self.board)
        }

        /// Invariants 1, 2, 8 and the room's half of 5.
        fn check(&self, bound: Bound) -> Check {
            let c = &self.core;
            let held =
                matches!(self.sender, Sender::Send(_)) || matches!(self.writer, Writer::Send(_));
            if (c.queued, c.busy, c.in_flight) != (self.queue.len(), held, self.sends.len()) {
                return Err(format!(
                    "the core counts {c:?}; the driver holds {:?}, {held}, {:?}",
                    self.queue, self.sends
                ));
            }
            if c.pending() > self.n_async {
                return Err(format!(
                    "{} blocks pending in a window of {}",
                    c.pending(),
                    self.n_async
                ));
            }
            if self.held() > bound.held_max() {
                return Err(format!(
                    "{} frames held downstream: receives {:?}, offers {:?}, board {}",
                    self.held(),
                    self.slots,
                    self.offers,
                    self.board
                ));
            }
            if self.reader == Reader::RoomAsleep && self.board < self.room {
                return Err(format!(
                    "the reader waits for room on a board of {}: a lost wake-up",
                    self.board
                ));
            }
            Ok(())
        }

        /// The oldest send, if a receive has taken its frame.
        fn completed(&self) -> bool {
            self.sends.front().is_some_and(|&b| b <= self.taken)
        }

        /// Retires the oldest send; a failure makes the writer close.
        fn retire(&mut self, next: Writer) -> Check {
            self.sends.pop_front();
            self.writer = match self.step(Input::Completed(Ok(())))? {
                Act::Go => next,
                _ => Writer::Close,
            };
            Ok(())
        }

        /// The writer's claim: every completed send retired, then `Claim`.
        fn claim(&mut self) -> Check {
            while self.completed() {
                self.retire(Writer::Claim)?;
            }
            if self.writer == Writer::Close {
                return Ok(());
            }
            self.writer = match self.step(Input::Claim(self.n_async))? {
                Act::Go if self.sender == Sender::Gone => {
                    // A plain stream is its own sender.
                    self.step(Input::Hand)?;
                    match self.step(Input::Take)? {
                        Act::Send => Writer::Send(self.handed + 1),
                        act => return Err(format!("an inline take gave {act:?}")),
                    }
                }
                Act::Go => Writer::Hand,
                Act::Retire => Writer::Retire,
                Act::Wait => Writer::Asleep,
                Act::Fail(_) => Writer::Close,
                act => return Err(format!("a claim gave {act:?}")),
            };
            Ok(())
        }

        /// A frame reaches the reader's mailbox: into a free receive (a
        /// data frame's send completes), else parked as an offer.
        fn deliver(&mut self, frame: Frame) {
            if self.free > 0 {
                self.free -= 1;
                self.slots.push_back(frame);
                self.taken += u8::from(frame != Frame::Fin);
            } else {
                self.offers.push_back(frame);
            }
        }

        /// The reader reposts the receive it emptied: it takes the oldest
        /// offer, completing its send, or stays posted.
        fn repost(&mut self) {
            match self.offers.pop_front() {
                Some(frame) => {
                    self.slots.push_back(frame);
                    self.taken += u8::from(frame != Frame::Fin);
                }
                None => self.free += 1,
            }
        }

        /// `who` sends block `b`: made, the frame is delivered and counted
        /// next; else the stream fails.
        fn send(&mut self, who: usize, b: u8, made: bool) -> Result<Act, String> {
            if made {
                self.deliver(Frame::Data(b));
                self.sends.push_back(b);
                self.uncounted[who] = true;
                self.step(Input::Sent(Ok(())))
            } else {
                self.failed = true;
                let lost = VmpiError::Runtime(RtError::Unreachable { dst: 1 });
                self.step(Input::Sent(Err(lost)))
            }
        }

        /// The writer's process exits: its reader's mailbox hears of it.
        fn exit(&mut self) -> Check {
            self.step(Input::Release)?;
            self.queue.clear();
            self.sends.clear();
            self.writer = Writer::Done;
            self.deliveries += 1;
            Ok(())
        }
    }

    struct Stream(Bound);

    type Move = (&'static str, World);

    impl Stream {
        fn writer(&self, w: &World, out: &mut Vec<Move>) -> Check {
            let mut n = w.clone();
            // A stalled board ends with the writer blocked: no fault.
            let faults = !self.0.stall;
            let label = match w.writer {
                _ if w.uncounted[W] => {
                    n.uncounted[W] = false;
                    n.deliveries += 1;
                    "count"
                }
                Writer::Idle => {
                    if faults {
                        let mut a = w.clone();
                        a.aborted = true;
                        a.step(Input::Abort)?;
                        a.writer = Writer::Join(true);
                        out.push(("abort", a));
                    }
                    if w.handed < self.0.blocks {
                        n.claim()?;
                        "write"
                    } else {
                        n.step(Input::Close)?;
                        n.writer = Writer::Join(false);
                        "close"
                    }
                }
                Writer::Claim => {
                    n.claim()?;
                    "claim"
                }
                Writer::Retire if w.completed() => {
                    n.retire(Writer::Claim)?;
                    "retire"
                }
                Writer::Hand => {
                    n.handed += 1;
                    n.queue.push_back(n.handed);
                    n.step(Input::Hand)?;
                    n.writer = Writer::Idle;
                    "hand"
                }
                Writer::Send(b) => {
                    if !w.failed && faults {
                        let mut f = w.clone();
                        f.handed = b;
                        f.send(W, b, false)?;
                        f.writer = Writer::Close;
                        out.push(("fail", f));
                    }
                    n.handed = b;
                    n.send(W, b, true)?;
                    n.writer = Writer::Idle;
                    "send"
                }
                Writer::Close => {
                    n.step(Input::Close)?;
                    n.writer = Writer::Join(false);
                    "close"
                }
                Writer::Join(aborted) if w.sender == Sender::Gone => {
                    if aborted {
                        n.exit()?;
                    } else if let Act::Go = n.step(Input::Fin)? {
                        if w.failed {
                            return Err("a failed stream sends a FIN".into());
                        }
                        n.deliver(Frame::Fin);
                        n.uncounted[W] = true;
                        n.writer = Writer::Exit;
                    } else {
                        n.exit()?;
                    }
                    "join"
                }
                Writer::Exit => {
                    n.exit()?;
                    "exit"
                }
                _ => return Ok(()),
            };
            out.push((label, n));
            Ok(())
        }

        fn sender(&self, w: &World, out: &mut Vec<Move>) -> Check {
            let mut n = w.clone();
            let label = match w.sender {
                _ if w.uncounted[S] => {
                    n.uncounted[S] = false;
                    n.deliveries += 1;
                    "count"
                }
                Sender::Take => {
                    n.sender = match n.step(Input::Take)? {
                        Act::Send => Sender::Send(n.queue.pop_front().ok_or("took nothing")?),
                        Act::Wait => Sender::Asleep,
                        Act::Exit => Sender::Gone,
                        act => return Err(format!("a take gave {act:?}")),
                    };
                    "take"
                }
                Sender::Send(b) => {
                    if !w.failed && !self.0.stall {
                        let mut f = w.clone();
                        f.sender = Sender::Take;
                        f.send(S, b, false)?;
                        out.push(("fail", f));
                    }
                    n.sender = Sender::Take;
                    n.send(S, b, true)?;
                    "send"
                }
                Sender::Asleep | Sender::Gone => return Ok(()),
            };
            out.push((label, n));
            Ok(())
        }

        fn reader(&self, w: &World, out: &mut Vec<Move>) -> Check {
            let mut n = w.clone();
            let label = match w.reader {
                Reader::Snap => {
                    n.reader = Reader::Sweep(w.deliveries);
                    "snap"
                }
                Reader::Sweep(seen) => {
                    n.reader = match n.slots.pop_front() {
                        Some(Frame::Data(b)) if b == w.read + 1 => {
                            n.read = b;
                            n.repost();
                            Reader::Post
                        }
                        Some(Frame::Data(b)) => {
                            return Err(format!("the reader takes block {b} after {}", w.read))
                        }
                        Some(Frame::Fin) if w.read == w.handed => Reader::Eof,
                        Some(Frame::Fin) => {
                            return Err(format!("EOF after {} of {} blocks", w.read, w.handed))
                        }
                        None if w.writer == Writer::Done => Reader::Lost,
                        None => Reader::Park(seen),
                    };
                    "sweep"
                }
                Reader::Park(seen) if w.deliveries != seen => {
                    n.reader = Reader::Snap;
                    "wake"
                }
                Reader::Post => {
                    n.board += 1;
                    n.reader = Reader::Room;
                    "post"
                }
                Reader::Room => {
                    n.reader = if w.board < w.room {
                        Reader::Snap
                    } else {
                        Reader::RoomAsleep
                    };
                    "room"
                }
                _ => return Ok(()),
            };
            out.push((label, n));
            Ok(())
        }

        /// The board's worker executes a job; one that leaves the board
        /// with room wakes the reader waiting for it (the engine's rule:
        /// at most `room - 1` left).
        fn worker(&self, w: &World, out: &mut Vec<Move>) {
            if self.0.stall || w.board == 0 {
                return;
            }
            let mut n = w.clone();
            n.board -= 1;
            if n.reader == Reader::RoomAsleep && n.board < n.room {
                n.reader = Reader::Snap;
            }
            out.push(("execute", n));
        }
    }

    impl Model for Stream {
        type State = World;

        fn start(&self) -> World {
            World::new(self.0)
        }

        fn moves(&self, w: &World) -> Result<Vec<Move>, String> {
            w.check(self.0)?;
            let mut out = Vec::new();
            self.writer(w, &mut out)?;
            self.sender(w, &mut out)?;
            self.reader(w, &mut out)?;
            self.worker(w, &mut out);
            Ok(out)
        }

        /// Invariants 6 and 9.
        fn end(&self, w: &World) -> Check {
            if self.0.stall {
                let blocked = matches!(w.writer, Writer::Asleep | Writer::Retire);
                if blocked && w.reader == Reader::RoomAsleep && w.held() == self.0.held_max() {
                    return Ok(());
                }
                return Err(format!(
                    "stalled board: writer {:?}, reader {:?}, {} frames held of {}",
                    w.writer,
                    w.reader,
                    w.held(),
                    self.0.held_max()
                ));
            }
            let empty = w.slots.is_empty() && w.offers.is_empty() && w.board == 0;
            let over = w.writer == Writer::Done && w.sender == Sender::Gone && empty;
            let lost_ok = w.failed || w.aborted;
            match w.reader {
                Reader::Eof if over => Ok(()),
                Reader::Lost if over && lost_ok => Ok(()),
                _ => Err(format!(
                    "stuck: writer {:?}, sender {:?}, reader {:?}, receives {:?}, offers {:?}, board {}",
                    w.writer, w.sender, w.reader, w.slots, w.offers, w.board
                )),
            }
        }

        fn good_end(&self, w: &World) -> bool {
            self.0.stall || w.reader == Reader::Eof && w.read == self.0.blocks
        }

        fn spoilt(&self, w: &World) -> Option<&'static str> {
            if w.failed {
                Some("send failed")
            } else {
                w.aborted.then_some("aborted")
            }
        }
    }

    /// Every bound: `n_async` from 1 to 3, both drivers, a room of 1 or 2
    /// and a live or stalled worker. A live board gets two blocks more
    /// than the window holds, so the writer fills it and blocks; a
    /// stalled one a block more than everything downstream holds.
    #[test]
    fn every_stream_schedule_keeps_the_window_and_ends() {
        let t = std::time::Instant::now();
        let mut states = 0;
        for n_async in 1..=3 {
            for driver in [Driver::Inline, Driver::Thread] {
                for room in 1..=2u8 {
                    for stall in [false, true] {
                        let blocks = if stall {
                            2 * n_async as u8 + room + 1
                        } else {
                            n_async as u8 + 2
                        };
                        let bound = Bound {
                            n_async,
                            blocks,
                            driver,
                            room,
                            stall,
                        };
                        let s = opmr_explore::run(
                            &format!("{bound:?}"),
                            &Stream(bound),
                            opmr_explore::MAX_STATES,
                        )
                        .expect("an invariant broke on the schedule printed above");
                        assert!(s.good_ends > 0, "no schedule ends in a clean EOF");
                        assert_eq!(
                            s.first_doomed, None,
                            "{} healthy states cannot end clean",
                            s.doomed
                        );
                        states += s.states;
                    }
                }
            }
        }
        eprintln!("stream model: {states} states in {:.2?}", t.elapsed());
    }
}
