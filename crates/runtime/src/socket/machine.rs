//! A link's state machine: [`LinkCore`] and its one transition,
//! [`LinkCore::step`]. An [`Input`] (what happened) goes in, an [`Act`] (the
//! I/O to do) comes out. The fields are private to this module and `step`
//! is the only code that writes them; `LinkCore` holds no socket, clock or
//! thread. The drivers in `link.rs` lock the link, step it and do the I/O
//! the act names; `explore.rs` checks `step` over every schedule.
//!
//! | input | phase → phase | I/O |
//! |---|---|---|
//! | `Send` | Connecting | wait |
//! | | Up, Recovering, Done | log the frame; write it if a stream is installed |
//! | | Lost | fail (`Unreachable`) |
//! | `Received`, `Acked` | — | count it, ack every 32nd / drop the acked prefix |
//! | `PeerDone` | any but Lost → Done | — |
//! | `Install` | Connecting, Recovering → Up, not closing | drop the peer's count from the log, retransmit the rest, spawn reader g + 1 |
//! | `Presented` | — | NAK a stale epoch, a lost or closing link; sever and wait while the old reader drains (NAK busy once the grace is spent) |
//! | | any but Lost → Up (Done stays) | as `Install`, after the reply |
//! | `ReaderExit(g)` | Up, g current, not closing → Recovering | sever; redial (higher index) or watch the grace window |
//! | | otherwise | — |
//! | `Dial` | Connecting, Recovering | present the received count; spent: Recovering → Lost, a first connection fails set-up |
//! | `Refused` | — | stale epoch or lost link: a spent `Dial`; else retry |
//! | `Watch` | Recovering → Lost once the grace is spent | wait, or mark the peer dead |
//! | `WriteFailed`, `Close` | — | sever; after `Close` recovery stands down |
//! | `Abandon` | any → Lost | sever, drop the log, mark the peer dead |
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
    /// The higher-indexed side, which dials.
    dials: bool,
    /// Chaos: the lower-indexed side severs its first stream once this
    /// many data frames went either way.
    chaos_at: Option<u64>,
    ack_every: u64,
}

/// What happened to a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Input {
    Send(Bytes),
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
            dials,
            chaos_at: chaos_at.filter(|_| !dials),
            ack_every: ACK_INTERVAL,
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
        let (peer_rx, reply) = match input {
            Input::Send(_) if self.phase == Connecting => return Act::Wait,
            Input::Send(_) if self.phase == Lost => return Act::Fail,
            Input::Send(frame) => {
                let sent = self.tx.push(frame);
                return if self.chaos(sent) {
                    Act::Severed
                } else if self.wired {
                    Act::Write
                } else {
                    Act::Nothing
                };
            }
            Input::WriteFailed => {
                self.wired = false;
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
                } else if self.wired && self.rx.is_multiple_of(self.ack_every) {
                    Act::Ack(self.rx)
                } else {
                    Act::Nothing
                };
            }
            Input::PeerDone => {
                if self.phase != Lost {
                    self.phase = Done;
                }
                return Act::Nothing;
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
                if self.phase != Up || gen != self.gen || self.closing {
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
        if self.phase != Done {
            self.phase = Up;
        }
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

    /// Only the current stream's reader, on an up link, in a process not
    /// closing, starts a recovery; the higher-indexed side dials.
    #[test]
    fn reader_exit_recovers_only_the_current_stream_of_an_up_link() {
        for dials in [true, false] {
            let mut c = core(Phase::Up, 2, dials);
            assert_eq!(c.step(Input::ReaderExit(2)), Act::Recover(dials));
            assert!(!c.wired);
            assert_eq!((c.phase, c.settled), (Phase::Recovering, 2));
        }
        // A stale reader, a closing process, and every phase but Up stand
        // down: recovering and lost links are already handled, a done
        // peer's close is normal.
        let mut stale = core(Phase::Up, 2, true);
        assert_eq!(stale.step(Input::ReaderExit(1)), Act::Nothing);
        assert_eq!((stale.phase, stale.settled), (Phase::Up, 1));
        let mut closing = core(Phase::Up, 2, true);
        closing.step(Input::Close);
        assert!(!closing.wired);
        assert_eq!(closing.step(Input::ReaderExit(2)), Act::Nothing);
        for phase in [
            Phase::Recovering,
            Phase::Lost,
            Phase::Done,
            Phase::Connecting,
        ] {
            let mut c = core(phase, 2, true);
            assert_eq!(c.step(Input::ReaderExit(2)), Act::Nothing);
            assert_eq!(c.phase, phase);
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
