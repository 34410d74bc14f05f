//! A link's state machine: [`LinkCore`] and its one transition,
//! [`LinkCore::step`]. An [`Input`] (what happened) goes in, an [`Act`] (the
//! I/O to do) comes out. The fields are private to this module and `step`
//! is the only code that writes them; `LinkCore` holds no socket, clock or
//! thread. The drivers in `link.rs` lock the link, step it and do the I/O
//! the act names; `explore.rs` checks `step` over every schedule.
//!
//! | input | phase → phase | I/O |
//! |---|---|---|
//! | `Send`, `SendDone` | Connecting | wait |
//! | | Lost | fail (`Unreachable`) |
//! | `Send` | Up, Recovering, Done, `TX_CAP` frames unacknowledged | wait |
//! | `Send`, `SendDone` | Up, Recovering, Done | log the frame; write it if a stream is installed |
//! | `Received`, `Acked` | — | count it, ack every 32nd / drop the acked prefix |
//! | `PeerDone` | any but Lost → Done | ack it |
//! | `Install` | Connecting, Recovering → Up, not closing | drop the peer's count from the log, retransmit the rest, spawn reader g + 1 |
//! | `Presented` | — | NAK a stale epoch, a lost or closing link; sever and wait while the old reader drains (NAK busy once the grace is spent) |
//! | | any but Lost → Up (Done stays) | as `Install`, after the reply |
//! | `ReaderExit(g)` | Up, or Done not finished, g current, not closing → Recovering | sever; redial (higher index) or watch the grace window |
//! | | otherwise | — |
//! | `Dial` | Connecting, Recovering | present the received count; spent: Recovering → Lost, a first connection fails set-up |
//! | `Refused` | — | stale epoch or lost link: a spent `Dial`; else retry |
//! | `Watch` | Recovering → Lost once the grace is spent | wait, or mark the peer dead |
//! | `WriteFailed`, `Close` | — | sever; after `Close` recovery stands down |
//! | `Abandon` | any → Lost | sever, drop the log, mark the peer dead |
//!
//! An install returns a link whose peer sent `ProcDone` to `Done`. A link
//! is *finished* ([`LinkCore::finished`]) once it is `Done`, its own
//! `ProcDone` (`SendDone`) is acknowledged and its ack of the peer's was
//! written: only then may its process close, and only then is a dropped
//! stream a normal close rather than a cut that took a `ProcDone` or its
//! ack (the accepting side that owes only an ack leaves the redial to the
//! dialer, which makes it if it lacks that ack).
//!
//! A chaos fault (`SocketConfig::link_fault`) severs the lower-indexed
//! side's first stream once that many data frames went either way: the
//! `Send` or `Received` that reaches the count gives [`Act::Severed`].

use super::wire::{
    decode_count, K_RECONN_NAK, K_RECONN_OK, NAK_BUSY, NAK_LINK_LOST, NAK_STALE_EPOCH,
};
use bytes::Bytes;
use std::collections::VecDeque;

/// Received data frames between acknowledgements: bounds the sender's log.
const ACK_INTERVAL: u64 = 32;

/// Data frames a link logs unacknowledged before a `Send` waits: the
/// link's flow control, a bound on the memory a cut or a slow peer can
/// pin. At least `ACK_INTERVAL`, so a peer that acknowledges every
/// `ACK_INTERVAL`th frame always frees the log: any `ACK_INTERVAL`
/// frames in a row hold a multiple of it. Sixteen ack intervals: a writer
/// flooding a healthy link with 64-byte blocks (`tests/flow_control.rs`,
/// 2 vCPUs) ran 850–1 390 frames ahead of the peer's acks with a cap of
/// 2 048 it never reached; at 128 it waited 143 times in 20 000 frames,
/// at 512 5–38 times, so the cap binds against a peer slower than the
/// writer, and not at every ack's round trip. `ProcDone` is exempt: it
/// is the last frame and its ack comes at once.
const TX_CAP: usize = 16 * ACK_INTERVAL as usize;

/// Where a link is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum Phase {
    Connecting,
    /// A stream is installed and its reader runs.
    Up,
    /// The stream dropped: the higher-indexed side redials, the other
    /// waits out its grace window.
    Recovering,
    /// Gone for good: set-up failed, or the budget or grace ran out.
    Lost,
    /// The peer announced `ProcDone`; a drop is not recovered from here.
    Done,
}

/// Every data frame sent, framed, until the peer acknowledges it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct TxLog {
    /// Frames the peer has acknowledged: the sequence of `buf`'s front.
    base: u64,
    buf: VecDeque<Bytes>,
}

impl TxLog {
    /// Appends one frame; returns the count of frames appended so far.
    fn push(&mut self, frame: Bytes) -> u64 {
        self.buf.push_back(frame);
        self.base + self.buf.len() as u64
    }

    /// Drops every frame among the first `acked`, which the peer holds.
    fn ack(&mut self, acked: u64) {
        let n = acked.saturating_sub(self.base).min(self.buf.len() as u64);
        self.buf.drain(..n as usize);
        self.base += n;
    }
}

/// Everything a link decides with: no socket, clock or thread.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct LinkCore {
    phase: Phase,
    /// Streams installed so far; a reader carries its generation.
    gen: u64,
    /// Highest generation whose reader has exited: a presentation is
    /// answered only once the current one has, so `rx` is final.
    settled: u64,
    tx: TxLog,
    rx: u64,
    /// A stream is installed: the driver holds its write half.
    wired: bool,
    /// This process is closing: recovery stands down.
    closing: bool,
    /// The peer's `ProcDone` arrived: an install returns the link to
    /// `Done`.
    peer_done: bool,
    /// This side's `ProcDone` is logged: it sends nothing more.
    self_done: bool,
    /// The received count the peer is known to hold: the last ack
    /// written, or the count an install exchanged.
    acked: u64,
    /// The higher-indexed side, which dials.
    dials: bool,
    /// Chaos: the lower-indexed side severs its first stream once this
    /// many data frames went either way.
    chaos_at: Option<u64>,
    ack_every: u64,
    /// Unacknowledged data frames past which a `Send` waits.
    tx_cap: usize,
}

/// What happened to a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Input {
    Send(Bytes),
    /// The application's last frame, its `ProcDone`.
    SendDone(Bytes),
    WriteFailed,
    /// The peer acknowledged this many data frames.
    Acked(u64),
    Received,
    /// The frame received was the peer's `ProcDone`.
    PeerDone,
    /// The dialed peer accepted, holding this many of our frames.
    Install(u64),
    /// A presentation of `epoch` (ours is `session`) from a peer holding
    /// `peer_rx` of our frames; `expired` once the grace is spent.
    Presented {
        epoch: u64,
        session: u64,
        peer_rx: u64,
        expired: bool,
    },
    /// The dialer is about to present; `true` once budget or deadline is spent.
    Dial(bool),
    /// The acceptor refused our presentation with this NAK reason.
    Refused(u8),
    /// The reader of this generation exited.
    ReaderExit(u64),
    /// The grace watch woke; `true` once the window is spent.
    Watch(bool),
    /// Give the link up: set-up failed, a thread could not start, or (from
    /// `Dial` and `Watch`) the budget or grace is spent.
    Abandon,
    Close,
}

impl Input {
    /// Whether the driver that steps this input wakes the link's waiters
    /// (a finalize, a held send or presentation, a grace watch) after it.
    /// One that does not changes neither the phase nor turns the link
    /// finished, unless it installs a stream (whose driver wakes them):
    /// the explorer checks it on every step.
    pub(super) fn wakes(&self) -> bool {
        !matches!(
            self,
            Input::Send(_)
                | Input::SendDone(_)
                | Input::Received
                | Input::WriteFailed
                | Input::Watch(false)
                | Input::Presented { .. }
        )
    }

    /// The input an acceptor's reply to a presentation makes: `Install`
    /// for an OK, `Refused` for a NAK. Anything else is refused as busy,
    /// which the dialer retries.
    pub(super) fn reply(reply: &[u8]) -> Input {
        match (decode_count(K_RECONN_OK, reply), reply) {
            (Some(peer_rx), _) => Input::Install(peer_rx),
            (None, &[K_RECONN_NAK, reason, ..]) => Input::Refused(reason),
            _ => Input::Refused(NAK_BUSY),
        }
    }
}

/// The I/O an input calls for. Besides, a stream the core stops counting
/// as installed (`wired` turns false, or a new generation replaces it) is
/// severed first: its readers see EOF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Act {
    Nothing,
    /// Block on the link's condvar, then step again.
    Wait,
    /// A send fails with `RtError::Unreachable`; a first dial fails set-up.
    Fail,
    /// Write the sent frame through the installed stream.
    Write,
    /// Write an acknowledgement of this many frames.
    Ack(u64),
    /// The chaos fault severed the installed stream.
    Severed,
    /// Write `reply` (the acceptor's count) and the log's suffix on the
    /// offered stream, make it the writer, spawn reader `gen`.
    Install {
        gen: u64,
        reply: Option<u64>,
    },
    /// Dial the peer, presenting this received count.
    Present(u64),
    /// Start a redial (`true`) or a grace watch.
    Recover(bool),
    /// Mark the peer's ranks dead.
    Lost,
    Nak(u8),
}

impl LinkCore {
    /// A `Connecting` link to a peer; `dials` on the higher-indexed side.
    pub(super) fn new(dials: bool, chaos_at: Option<u64>) -> Self {
        LinkCore {
            phase: Phase::Connecting,
            gen: 0,
            settled: 0,
            tx: TxLog::default(),
            rx: 0,
            wired: false,
            closing: false,
            peer_done: false,
            self_done: false,
            acked: 0,
            dials,
            chaos_at: chaos_at.filter(|_| !dials),
            ack_every: ACK_INTERVAL,
            tx_cap: TX_CAP,
        }
    }

    pub(super) fn phase(&self) -> Phase {
        self.phase
    }

    /// The generation of the stream installed last.
    pub(super) fn gen(&self) -> u64 {
        self.gen
    }

    /// A stream is installed.
    pub(super) fn wired(&self) -> bool {
        self.wired
    }

    /// Data frames logged and not acknowledged yet: `ProcDone`, the last
    /// frame, aside.
    pub(super) fn unacked(&self) -> usize {
        self.tx.buf.len() - usize::from(self.self_done && !self.tx.buf.is_empty())
    }

    /// A `Send` would wait for an ack, an install or a loss.
    pub(super) fn at_cap(&self) -> bool {
        self.unacked() >= self.tx_cap && self.phase != Phase::Lost
    }

    /// Nothing is left to tell or learn: the link is lost, or done with
    /// this side's `ProcDone` sent and acknowledged and its own last ack
    /// written. A finished process may close; a done link that is not
    /// finished recovers a dropped stream.
    pub(super) fn finished(&self) -> bool {
        self.phase == Phase::Lost
            || self.phase == Phase::Done
                && self.self_done
                && self.tx.buf.is_empty()
                && self.acked == self.rx
    }

    /// An ack of everything received, when a stream takes it.
    fn ack(&mut self) -> Act {
        if !self.wired {
            return Act::Nothing;
        }
        self.acked = self.rx;
        Act::Ack(self.rx)
    }

    /// The frames not acknowledged yet, in order: right after an install
    /// dropped the peer's count, exactly the frames the peer lacks.
    pub(super) fn suffix(&self) -> impl Iterator<Item = &Bytes> {
        self.tx.buf.iter()
    }

    /// Severs the first stream once `frames` reach the chaos count.
    fn chaos(&mut self, frames: u64) -> bool {
        let due = self.wired && self.gen == 1 && self.chaos_at.is_some_and(|at| frames >= at);
        self.wired &= !due;
        due
    }

    /// The link's one transition (the table in the module docs).
    pub(super) fn step(&mut self, input: Input) -> Act {
        use Phase::*;
        let last = matches!(input, Input::SendDone(_));
        let (peer_rx, reply) = match input {
            Input::Send(_) | Input::SendDone(_) if self.phase == Connecting => return Act::Wait,
            Input::Send(_) | Input::SendDone(_) if self.phase == Lost => return Act::Fail,
            Input::Send(_) if self.at_cap() => return Act::Wait,
            Input::Send(frame) | Input::SendDone(frame) => {
                self.self_done |= last;
                let sent = self.tx.push(frame);
                return if self.chaos(sent) {
                    Act::Severed
                } else if self.wired {
                    Act::Write
                } else {
                    Act::Nothing
                };
            }
            // The peer may have missed any ack since the last install.
            Input::WriteFailed => {
                self.wired = false;
                self.acked = 0;
                return Act::Nothing;
            }
            Input::Acked(n) => {
                self.tx.ack(n);
                return Act::Nothing;
            }
            Input::Received => {
                self.rx += 1;
                return if self.chaos(self.rx) {
                    Act::Severed
                } else if self.rx.is_multiple_of(self.ack_every) {
                    self.ack()
                } else {
                    Act::Nothing
                };
            }
            // Acknowledged at once, so the peer can finish.
            Input::PeerDone => {
                self.peer_done = true;
                if self.phase != Lost {
                    self.phase = Done;
                }
                return self.ack();
            }
            // Only a link with no reader left takes a dialed stream (an up
            // one would count the same frames on two streams), and a
            // closing one takes none.
            Input::Install(peer_rx)
                if matches!(self.phase, Connecting | Recovering) && !self.closing =>
            {
                (peer_rx, None)
            }
            Input::Install(_) => return Act::Nothing,
            Input::Presented {
                epoch,
                session,
                peer_rx,
                expired,
            } => {
                if epoch != session {
                    return Act::Nak(NAK_STALE_EPOCH);
                } else if self.phase == Lost || self.closing {
                    return Act::Nak(NAK_LINK_LOST);
                } else if self.settled < self.gen {
                    // The old reader still drains, so `rx` is not final.
                    // The presentation proves its stream is gone: shut it.
                    if expired {
                        return Act::Nak(NAK_BUSY);
                    }
                    self.wired = false;
                    return Act::Wait;
                }
                (peer_rx, Some(self.rx))
            }
            Input::Dial(spent) => match self.phase {
                _ if self.closing => return Act::Nothing,
                Connecting | Recovering if !spent => return Act::Present(self.rx),
                Connecting => return Act::Fail,
                Recovering => return self.step(Input::Abandon),
                Up | Done | Lost => return Act::Nothing,
            },
            // No later attempt can succeed.
            Input::Refused(NAK_STALE_EPOCH | NAK_LINK_LOST) => return self.step(Input::Dial(true)),
            // A busy or unknown link may be a race: the dialer retries.
            Input::Refused(_) => return Act::Nothing,
            Input::ReaderExit(gen) => {
                self.settled = self.settled.max(gen);
                // A done link recovers while the peer may lack a frame or
                // an ack. The accepting side owing only an ack leaves that
                // to the dialer, which redials if it lacks it.
                let told = self.self_done && self.tx.buf.is_empty();
                let live = self.phase == Up
                    || self.phase == Done && !self.finished() && (self.dials || !told);
                if !live || gen != self.gen || self.closing {
                    return Act::Nothing;
                }
                self.phase = Recovering;
                self.wired = false;
                return Act::Recover(self.dials);
            }
            Input::Watch(expired) if self.phase == Recovering && !self.closing => {
                return if expired {
                    self.step(Input::Abandon)
                } else {
                    Act::Wait
                };
            }
            Input::Watch(_) => return Act::Nothing,
            Input::Abandon if self.phase != Lost => {
                self.phase = Lost;
                self.tx = TxLog::default();
                self.wired = false;
                return Act::Lost;
            }
            Input::Abandon => return Act::Nothing,
            Input::Close => {
                self.closing = true;
                self.wired = false;
                return Act::Nothing;
            }
        };
        // An install: the log keeps exactly the frames the peer lacks.
        self.tx.ack(peer_rx);
        self.phase = if self.peer_done { Done } else { Up };
        self.acked = self.rx;
        self.gen += 1;
        self.wired = true;
        Act::Install {
            gen: self.gen,
            reply,
        }
    }
}

#[cfg(test)]
impl LinkCore {
    /// A core acknowledging every `n`th frame, for a small explorer bound.
    pub(super) fn with_ack_every(self, n: u64) -> Self {
        LinkCore {
            ack_every: n,
            ..self
        }
    }

    /// A core whose `Send` waits at `cap` unacknowledged frames.
    pub(super) fn with_tx_cap(self, cap: usize) -> Self {
        LinkCore {
            tx_cap: cap,
            ..self
        }
    }

    pub(super) fn rx(&self) -> u64 {
        self.rx
    }

    pub(super) fn closing(&self) -> bool {
        self.closing
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
    use super::*;
    use crate::socket::wire::{encode_count, K_ACK, NAK_UNKNOWN_LINK};

    /// A core in `phase` at generation `gen`, its stream installed while
    /// `gen > 0`.
    fn core(phase: Phase, gen: u64, dials: bool) -> LinkCore {
        LinkCore {
            phase,
            gen,
            wired: gen > 0,
            ..LinkCore::new(dials, None)
        }
    }

    fn frame(b: u8) -> Bytes {
        Bytes::from(vec![b])
    }

    fn presented(epoch: u64, expired: bool) -> Input {
        Input::Presented {
            epoch,
            session: 7,
            peer_rx: 0,
            expired,
        }
    }

    /// A connecting link blocks a sender, an up, recovering or done one
    /// logs the frame (and writes it while a stream is installed), a lost
    /// one fails it. A dialed stream brings a connecting or recovering
    /// link up, and is refused by any other, and by a closing process.
    #[test]
    fn sends_and_installs_follow_the_step_table() {
        let send = |mut c: LinkCore| (c.step(Input::Send(frame(1))), c.suffix().count());
        assert_eq!(send(core(Phase::Connecting, 0, true)), (Act::Wait, 0));
        assert_eq!(send(core(Phase::Up, 1, true)), (Act::Write, 1));
        assert_eq!(send(core(Phase::Done, 1, true)), (Act::Write, 1));
        assert_eq!(send(core(Phase::Recovering, 0, true)), (Act::Nothing, 1));
        assert_eq!(send(core(Phase::Lost, 0, true)), (Act::Fail, 0));

        let install = Input::Install(0);
        for from in [Phase::Connecting, Phase::Recovering] {
            let mut c = core(from, 1, true);
            let want = Act::Install {
                gen: 2,
                reply: None,
            };
            assert_eq!(c.step(install.clone()), want, "{from:?}");
            assert_eq!((c.phase, c.wired), (Phase::Up, true));
        }
        // A link with a reader, a lost one or a closing one takes no
        // dialed stream.
        let mut closing = core(Phase::Recovering, 1, true);
        closing.step(Input::Close);
        for mut c in [
            core(Phase::Up, 1, true),
            core(Phase::Done, 1, true),
            core(Phase::Lost, 1, true),
            closing,
        ] {
            let from = (c.phase, c.gen);
            assert_eq!(c.step(install.clone()), Act::Nothing, "{from:?}");
            assert_eq!((c.phase, c.gen), from);
        }
    }

    /// The chaos fault severs the lower-indexed side's first stream once,
    /// at the count, whichever way the counted frame went.
    #[test]
    fn the_chaos_fault_severs_the_first_stream_once_at_its_count() {
        let mut c = LinkCore {
            phase: Phase::Up,
            gen: 1,
            wired: true,
            ..LinkCore::new(false, Some(2))
        };
        assert_eq!(c.step(Input::Received), Act::Nothing);
        assert_eq!(c.step(Input::Send(frame(1))), Act::Write);
        assert_eq!(c.step(Input::Received), Act::Severed);
        assert!(!c.wired);
        assert_eq!(c.step(Input::Send(frame(2))), Act::Nothing);
        // The dialing side never severs.
        assert_eq!(LinkCore::new(true, Some(2)).chaos_at, None);
    }

    /// Only the current stream's reader, on an up link or a done one that
    /// has not finished, in a process not closing, starts a recovery; the
    /// higher-indexed side dials.
    #[test]
    fn reader_exit_recovers_only_the_current_stream_of_a_live_link() {
        for (phase, dials) in [(Phase::Up, true), (Phase::Up, false), (Phase::Done, true)] {
            let mut c = core(phase, 2, dials);
            assert_eq!(c.step(Input::ReaderExit(2)), Act::Recover(dials));
            assert!(!c.wired);
            assert_eq!((c.phase, c.settled), (Phase::Recovering, 2));
        }
        // A stale reader, a closing process, and the other phases stand
        // down: recovering and lost links are already handled.
        let mut stale = core(Phase::Up, 2, true);
        assert_eq!(stale.step(Input::ReaderExit(1)), Act::Nothing);
        assert_eq!((stale.phase, stale.settled), (Phase::Up, 1));
        let mut closing = core(Phase::Up, 2, true);
        closing.step(Input::Close);
        assert!(!closing.wired);
        assert_eq!(closing.step(Input::ReaderExit(2)), Act::Nothing);
        for phase in [Phase::Recovering, Phase::Lost, Phase::Connecting] {
            let mut c = core(phase, 2, true);
            assert_eq!(c.step(Input::ReaderExit(2)), Act::Nothing);
            assert_eq!(c.phase, phase);
        }
    }

    /// A link finishes once the peer's `ProcDone` is acknowledged and
    /// its own is: then a dropped stream is a normal close. Until then a
    /// done link recovers like an up one, and its install returns it to
    /// `Done`; the accepting side that owes only an ack waits for the
    /// dialer instead.
    #[test]
    fn a_done_link_recovers_until_it_has_finished() {
        for dials in [true, false] {
            let mut c = core(Phase::Up, 1, dials);
            assert_eq!(c.step(Input::SendDone(frame(1))), Act::Write);
            assert_eq!(c.step(Input::Received), Act::Nothing);
            assert_eq!(c.step(Input::PeerDone), Act::Ack(1), "acked at once");
            assert_eq!(c.phase, Phase::Done);
            assert!(!c.finished(), "our ProcDone is not acknowledged");
            // The cut took it: recover, and come back done.
            assert_eq!(c.step(Input::ReaderExit(1)), Act::Recover(dials));
            let want = Act::Install {
                gen: 2,
                reply: None,
            };
            assert_eq!(c.step(Input::Install(1)), want);
            assert_eq!(c.phase, Phase::Done);
            assert!(
                c.finished(),
                "the install pruned the log and told our count"
            );
            assert_eq!(c.step(Input::ReaderExit(2)), Act::Nothing);
            assert_eq!(c.phase, Phase::Done);
        }
        // Everything told, but the ack of the peer's ProcDone may be lost.
        for dials in [true, false] {
            let mut c = core(Phase::Up, 1, dials);
            c.step(Input::SendDone(frame(1)));
            c.step(Input::Acked(1));
            c.step(Input::Received);
            c.step(Input::PeerDone);
            c.step(Input::WriteFailed);
            assert!(!c.finished());
            let want = if dials {
                Act::Recover(true)
            } else {
                Act::Nothing
            };
            assert_eq!(c.step(Input::ReaderExit(1)), want, "dials {dials}");
        }
    }

    /// A presentation is refused for a stale epoch first, then for a lost
    /// or closing link; while the current reader still drains it waits
    /// (NAK busy once the grace is spent); a first connection and a
    /// settled redial are accepted with this side's count.
    #[test]
    fn admission_checks_epoch_then_link_then_waits_for_the_old_reader() {
        let lost = core(Phase::Lost, 1, false);
        for mut c in [core(Phase::Up, 1, false), lost.clone()] {
            assert_eq!(c.step(presented(8, false)), Act::Nak(NAK_STALE_EPOCH));
        }
        let mut closing = core(Phase::Done, 1, false);
        closing.settled = 1;
        closing.step(Input::Close);
        for mut c in [lost, closing] {
            assert_eq!(c.step(presented(7, false)), Act::Nak(NAK_LINK_LOST));
        }
        for phase in [Phase::Up, Phase::Done] {
            let mut c = core(phase, 1, false);
            assert_eq!(c.step(presented(7, false)), Act::Wait, "{phase:?}");
            // The presentation proves the old stream gone: it is severed.
            assert!(!c.wired);
            assert_eq!(c.step(presented(7, true)), Act::Nak(NAK_BUSY));
        }
        let mut redial = core(Phase::Recovering, 2, false);
        redial.settled = 2;
        redial.rx = 5;
        for mut c in [core(Phase::Connecting, 0, false), redial] {
            let (gen, rx) = (c.gen + 1, c.rx);
            let want = Act::Install {
                gen,
                reply: Some(rx),
            };
            assert_eq!(c.step(presented(7, false)), want);
            assert_eq!((c.phase, c.wired), (Phase::Up, true));
        }
    }

    /// A stale-epoch or lost-link NAK ends the dial: a first connection
    /// fails set-up, a redial loses the link. A busy or unknown-link NAK
    /// and any malformed reply are retried.
    #[test]
    fn redial_reply_resumes_retries_or_gives_up() {
        assert_eq!(
            Input::reply(&encode_count(K_RECONN_OK, 41)),
            Input::Install(41)
        );
        for reason in [NAK_STALE_EPOCH, NAK_LINK_LOST] {
            let refused = Input::reply(&[K_RECONN_NAK, reason]);
            assert_eq!(refused, Input::Refused(reason));
            assert_eq!(
                core(Phase::Connecting, 0, true).step(refused.clone()),
                Act::Fail
            );
            let mut redial = core(Phase::Recovering, 1, true);
            assert_eq!(redial.step(refused), Act::Lost);
            assert_eq!(redial.phase, Phase::Lost);
        }
        for retry in [
            &[K_RECONN_NAK, NAK_BUSY][..],
            &[K_RECONN_NAK, NAK_UNKNOWN_LINK],
            &[K_RECONN_NAK],
            &encode_count(K_ACK, 41),
            b"",
        ] {
            for phase in [Phase::Connecting, Phase::Recovering] {
                let mut c = core(phase, 0, true);
                assert_eq!(c.step(Input::reply(retry)), Act::Nothing, "{retry:?}");
                assert_eq!(c.phase, phase);
            }
        }
    }

    /// Acks prune a prefix; an install retransmits exactly the frames past
    /// the peer's count, however stale or hostile that count is.
    #[test]
    fn acks_prune_and_the_retransmit_suffix_is_exact() {
        let mut log = core(Phase::Up, 1, true);
        let suffix = |c: &mut LinkCore, peer_rx| {
            c.tx.ack(peer_rx);
            c.suffix().map(|f| f[0]).collect::<Vec<u8>>()
        };
        for b in 0..6u8 {
            assert_eq!(log.tx.push(frame(b)), u64::from(b) + 1);
        }
        assert_eq!(suffix(&mut log, 2), vec![2, 3, 4, 5]);
        // An ack older than the base changes nothing.
        assert_eq!(suffix(&mut log, 1), vec![2, 3, 4, 5]);
        assert_eq!(suffix(&mut log, 4), vec![4, 5]);
        // The count keeps running across pruning.
        assert_eq!(log.tx.push(frame(6)), 7);
        assert_eq!(suffix(&mut log, 6), vec![6]);
        // A count past everything sent empties the log, no more.
        assert_eq!(suffix(&mut log, 99), Vec::<u8>::new());
        assert_eq!(log.tx.push(frame(7)), 8);
        assert_eq!(suffix(&mut log, 7), vec![7]);
    }
}
