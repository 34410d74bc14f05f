//! One link per process pair, and its lifecycle as one state machine.
//!
//! A link exists from [`SocketTransport`]'s construction, `Connecting`
//! with nothing sent or received. The higher-indexed side brings it up by
//! presenting the session epoch and its received-frame count to the
//! lower-indexed side's listener — 0 on a first connection — and the
//! acceptor answers with its own count. Both
//! sides then install the stream through one [`install_stream`], which
//! retransmits exactly the suffix the peer never saw. A connect is a
//! redial from frame 0.
//!
//! ```text
//!   Connecting ──install──▶ Up ──reader exits──▶ Recovering ──install──▶ Up
//!        │                  │ ProcDone               │ budget / grace spent
//!        ▼ set-up failed    ▼                        ▼
//!       Lost               Done                     Lost
//! ```
//!
//! A send on a `Connecting` link waits for it; on `Up`, `Recovering` or
//! `Done` it is sequenced and buffered until acknowledged (and written
//! through if a stream is installed); on `Lost` it fails. The decisions —
//! [`on_send`], [`on_reader_exit`], [`admit`], [`on_reply`] and the
//! [`TxLog`]'s ack / retransmit arithmetic — are pure functions of the
//! link state; the drivers below (reader, dialer, acceptor) only apply
//! them.
//!
//! [`install_stream`]: SocketTransport::install_stream

use super::handshake::{
    present, read_presentation, write_frame, write_framed, SockListener, SockStream, HELLO_TIMEOUT,
};
use super::wire::{
    decode_count, decode_envelope, decode_rank_done, encode_count, K_ACK, K_ENVELOPE, K_PROC_DONE,
    K_RANK_DONE, K_RECONN_NAK, K_RECONN_OK, K_SHUTDOWN, NAK_BUSY, NAK_LINK_LOST, NAK_STALE_EPOCH,
    NAK_UNKNOWN_LINK,
};
use super::{obs, SocketTransport};
use bytes::Bytes;
use opmr_events::FrameBuf;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many received data frames between acknowledgements. Bounds the
/// sender's retransmit buffer to roughly this many frames plus whatever
/// is in flight.
const ACK_INTERVAL: u64 = 32;

/// How long the lower-indexed (accepting) side of a dropped link waits
/// for the peer to redial before degrading to `PeerLost`.
const RECONNECT_GRACE: Duration = Duration::from_secs(3);

/// How many redial attempts the higher-indexed side of a dropped link
/// makes before degrading to a typed `PeerLost`.
const RETRY_BUDGET: u32 = 5;

/// Backoff before dial attempt `k` is `BACKOFF_BASE * 2^(k-1)` (the first
/// attempt is immediate).
const BACKOFF_BASE: Duration = Duration::from_millis(100);

/// Where a link is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) enum Phase {
    /// No stream yet.
    #[default]
    Connecting,
    /// A stream is installed and its reader runs.
    Up,
    /// The stream dropped mid-session: the higher-indexed side redials,
    /// the lower-indexed side waits out its grace window.
    Recovering,
    /// Gone for good: set-up failed, or the redial budget or the grace
    /// window ran out.
    Lost,
    /// The peer announced clean completion (`ProcDone`); a drop is not
    /// recovered from this side.
    Done,
}

/// The sending half of a link's sequence: every data frame appended, as
/// framed bytes, until the peer acknowledges it.
#[derive(Debug, Default)]
pub(super) struct TxLog {
    /// Frames the peer has acknowledged: the sequence number of `buf`'s
    /// front.
    base: u64,
    buf: VecDeque<Bytes>,
}

impl TxLog {
    /// Appends one frame; returns the count of frames appended so far.
    pub(super) fn push(&mut self, frame: Bytes) -> u64 {
        self.buf.push_back(frame);
        self.base + self.buf.len() as u64
    }

    /// Drops every frame among the first `acked`, which the peer holds.
    pub(super) fn ack(&mut self, acked: u64) {
        let n = acked.saturating_sub(self.base).min(self.buf.len() as u64);
        self.buf.drain(..n as usize);
        self.base += n;
    }

    /// The frames a peer that received `peer_rx` of them never saw, in
    /// order; everything before them is dropped.
    pub(super) fn suffix(&mut self, peer_rx: u64) -> impl Iterator<Item = &Bytes> {
        self.ack(peer_rx);
        self.buf.iter()
    }
}

/// Everything about a link that changes, under one mutex.
#[derive(Default)]
pub(super) struct LinkState {
    pub(super) phase: Phase,
    /// Write half of the installed stream; `None` while none is.
    pub(super) writer: Option<SockStream>,
    pub(super) tx: TxLog,
    /// Streams installed so far. A reader carries the generation it was
    /// spawned for, so a stale reader's exit cannot tear down its
    /// successor. It outlives `Up`: a `Done` link still has a stream.
    pub(super) gen: u64,
    /// Highest generation whose reader has drained and exited. A
    /// presentation is answered only once the current generation's reader
    /// settled, so the received count it reports is final.
    pub(super) settled: u64,
}

pub(super) struct Link {
    pub(super) proc: usize,
    pub(super) state: Mutex<LinkState>,
    /// Signalled on every phase change and reader exit.
    pub(super) cv: Condvar,
    /// Data frames received on this link, written by the reader thread.
    pub(super) rx_seq: AtomicU64,
}

impl LinkState {
    /// Shuts the installed stream down, if any: its reader sees EOF.
    pub(super) fn sever(&mut self) {
        if let Some(w) = self.writer.take() {
            w.shutdown_both();
        }
    }
}

impl Link {
    pub(super) fn new(proc: usize) -> Self {
        Link {
            proc,
            state: Mutex::new(LinkState::default()),
            cv: Condvar::new(),
            rx_seq: AtomicU64::new(0),
        }
    }
}

// ---------------------------------------------------------------------
// The decisions: pure functions of the link state.
// ---------------------------------------------------------------------

/// What a data send does.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum SendStep {
    /// Block until the link leaves `Connecting`.
    Wait,
    /// Sequence and buffer the frame; write it if a stream is installed.
    Append,
    /// `RtError::Unreachable`.
    Fail,
}

pub(super) fn on_send(phase: Phase) -> SendStep {
    match phase {
        Phase::Connecting => SendStep::Wait,
        Phase::Lost => SendStep::Fail,
        Phase::Up | Phase::Recovering | Phase::Done => SendStep::Append,
    }
}

/// The phase a link takes when a stream is installed on it; `None` for a
/// lost link, which takes no stream. A `Done` link stays done.
pub(super) fn on_install(phase: Phase) -> Option<Phase> {
    match phase {
        Phase::Lost => None,
        Phase::Done => Some(Phase::Done),
        Phase::Connecting | Phase::Up | Phase::Recovering => Some(Phase::Up),
    }
}

/// What a reader thread's exit means for its link.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Exit {
    /// Nothing to recover: a stale reader, a link already recovering,
    /// lost or done, or this process closing.
    Settle,
    /// The current stream dropped mid-session; this, the higher-indexed
    /// side, redials.
    Redial,
    /// As above; this, the lower-indexed side, awaits the redial within
    /// its grace window.
    Await,
}

pub(super) fn on_reader_exit(
    phase: Phase,
    reader_gen: u64,
    link_gen: u64,
    closing: bool,
    me: usize,
    peer: usize,
) -> Exit {
    if phase != Phase::Up || reader_gen != link_gen || closing {
        Exit::Settle
    } else if me > peer {
        Exit::Redial
    } else {
        Exit::Await
    }
}

/// The acceptor's answer to a presentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Admit {
    /// Reply with our received count and install the stream.
    Accept,
    /// The link's previous reader has not drained yet.
    Wait,
    /// Refuse with this `K_RECONN_NAK` reason.
    Nak(u8),
}

/// Admission of a presentation from process `peer` carrying
/// `peer_epoch`; `link` is this process's link to `peer`, if any. Only a
/// higher-indexed peer dials, and only within this session.
pub(super) fn admit(
    epoch: u64,
    peer_epoch: u64,
    me: usize,
    peer: usize,
    link: Option<&LinkState>,
) -> Admit {
    if peer_epoch != epoch {
        return Admit::Nak(NAK_STALE_EPOCH);
    }
    match link.filter(|_| peer > me) {
        None => Admit::Nak(NAK_UNKNOWN_LINK),
        Some(st) if st.phase == Phase::Lost => Admit::Nak(NAK_LINK_LOST),
        Some(st) if st.settled < st.gen => Admit::Wait,
        Some(_) => Admit::Accept,
    }
}

/// What the dialing side does with the acceptor's reply.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Reply {
    /// Install the stream; the peer holds this many of our frames.
    Resume(u64),
    /// A busy or unknown link may be a race; try again.
    Retry,
    /// No later attempt can succeed (stale epoch, lost link).
    GiveUp(u8),
}

pub(super) fn on_reply(reply: &[u8]) -> Reply {
    if let Some(peer_rx) = decode_count(K_RECONN_OK, reply) {
        return Reply::Resume(peer_rx);
    }
    match reply {
        [K_RECONN_NAK, reason @ (NAK_STALE_EPOCH | NAK_LINK_LOST)] => Reply::GiveUp(*reason),
        _ => Reply::Retry,
    }
}

// ---------------------------------------------------------------------
// The drivers: reader, dialer and acceptor threads applying the above.
// ---------------------------------------------------------------------

/// Waits on `cv` until notified or `deadline`; `false`, without waiting,
/// once the deadline has passed.
pub(super) fn wait_until<T>(
    cv: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    deadline: Instant,
) -> bool {
    let now = Instant::now();
    if now >= deadline {
        return false;
    }
    cv.wait_for(guard, deadline - now);
    true
}

impl SocketTransport {
    /// Sends one data frame: waits while the link is connecting, then
    /// sequences and buffers it for retransmission and writes it through
    /// if a stream is installed — silently queued while the link
    /// recovers. `Err` on a lost link.
    pub(super) fn send_data(&self, link: &Link, frame: Bytes) -> Result<(), ()> {
        let mut guard = link.state.lock();
        loop {
            match on_send(guard.phase) {
                SendStep::Wait => link.cv.wait(&mut guard),
                SendStep::Fail => return Err(()),
                SendStep::Append => break,
            }
        }
        let st = &mut *guard;
        let sent = st.tx.push(frame.clone());
        if let Some(w) = st.writer.as_mut() {
            if write_framed(w, &frame).is_err() || self.chaos_due(link.proc, st.gen, sent) {
                // The reader drives recovery once it has drained
                // everything in flight.
                st.sever();
            }
        }
        Ok(())
    }

    /// Sends one data frame on every link.
    pub(super) fn broadcast(&self, frame: Bytes) {
        for link in self.all_links() {
            let _ = self.send_data(link, frame.clone());
        }
    }

    /// Chaos: the lower-indexed side of a link severs its first stream
    /// once `frames` data frames were sent *or* received on it (a link's
    /// heavy direction may be inbound: the analyzer process mostly
    /// receives). Shutting the socket down makes both readers see EOF;
    /// the normal recovery path takes it from there.
    fn chaos_due(&self, peer: usize, gen: u64, frames: u64) -> bool {
        let due = self
            .config
            .link_fault
            .is_some_and(|f| self.proc_index < peer && gen == 1 && frames >= f.sever_after_frames);
        if due {
            obs::m().chaos_severs.inc();
        }
        due
    }

    /// Takes a link to `Lost`; `false` if it already was.
    pub(super) fn lose(&self, link: &Link) -> bool {
        {
            let mut st = link.state.lock();
            if st.phase == Phase::Lost {
                return false;
            }
            st.phase = Phase::Lost;
            st.sever();
        }
        link.cv.notify_all();
        true
    }

    /// Permanent loss of an established link: flips the peer's rank
    /// liveness and ticks the disconnect counter, exactly once.
    pub(super) fn finish_lost(&self, link: &Link) {
        if !self.lose(link) {
            return;
        }
        obs::m().peer_disconnects.inc();
        self.mark_dead(|owner| owner == link.proc);
    }

    /// Installs a stream on a link, first or re-established: drops what
    /// the peer already holds (`peer_rx` frames), retransmits the rest,
    /// swaps the writer in and spawns the next-generation reader. The one
    /// way a stream enters a link, on both sides.
    pub(super) fn install_stream(
        self: &Arc<Self>,
        link: &Arc<Link>,
        mut s: SockStream,
        residual: FrameBuf,
        peer_rx: u64,
    ) -> bool {
        let gen = {
            let mut guard = link.state.lock();
            let st = &mut *guard;
            let Some(phase) = on_install(st.phase) else {
                return false;
            };
            for frame in st.tx.suffix(peer_rx) {
                if write_framed(&mut s, frame).is_err() {
                    return false;
                }
                obs::m().frames_retransmitted.inc();
            }
            let Ok(writer) = s.try_clone() else {
                return false;
            };
            st.writer = Some(writer);
            st.phase = phase;
            st.gen += 1;
            st.gen
        };
        if gen > 1 {
            obs::m().reconnects.inc();
        }
        link.cv.notify_all();
        let (this, l) = (Arc::clone(self), Arc::clone(link));
        if !self.spawn(format!("sock-rx-p{}", link.proc), move || {
            this.reader_loop(&l, s, residual, gen)
        }) {
            self.finish_lost(link);
        }
        true
    }

    /// Applies one data frame.
    fn handle_frame(&self, link: &Link, payload: &Bytes) {
        match payload.first().copied() {
            Some(K_ENVELOPE) => {
                if let Some((dst, env)) = decode_envelope(payload) {
                    if let Some(Some(mb)) = self.mailboxes.get(dst) {
                        // Remote deliveries are always eager: the socket's
                        // flow control *is* the back-pressure. A Shutdown
                        // error here just means the job is tearing down.
                        let _ = mb.deliver(env, usize::MAX);
                    }
                }
            }
            Some(K_RANK_DONE) => {
                if let Some(flag) = decode_rank_done(payload).and_then(|r| self.alive.get(r)) {
                    flag.store(false, Ordering::Release);
                    self.bump_local();
                }
            }
            // A remote rank failed: release every local blocked rank,
            // exactly like the in-process teardown.
            Some(K_SHUTDOWN) => self.shutdown_local(),
            Some(K_PROC_DONE) => {
                {
                    let mut st = link.state.lock();
                    if st.phase != Phase::Lost {
                        st.phase = Phase::Done;
                    }
                }
                self.notify_teardown();
            }
            _ => {}
        }
    }

    fn reader_loop(
        self: Arc<Self>,
        link: &Arc<Link>,
        mut stream: SockStream,
        mut fb: FrameBuf,
        gen: u64,
    ) {
        let _ = stream.set_read_timeout(None);
        let mut buf = vec![0u8; 64 * 1024];
        // Runs until EOF, a read error, corrupt framing (no resync is
        // possible) or an off-protocol frame.
        'conn: loop {
            loop {
                let p = match fb.next_frame() {
                    Ok(Some(p)) => p,
                    Ok(None) => break,
                    Err(_) => break 'conn,
                };
                obs::m().frames_received.inc();
                match p.first().copied() {
                    Some(K_ACK) => {
                        if let Some(acked) = decode_count(K_ACK, &p) {
                            link.state.lock().tx.ack(acked);
                        }
                        continue;
                    }
                    Some(K_ENVELOPE | K_RANK_DONE | K_SHUTDOWN | K_PROC_DONE) => {}
                    // Unknown or handshake-phase frame on the data plane:
                    // the peer is off-protocol.
                    _ => break 'conn,
                }
                let rx = link.rx_seq.fetch_add(1, Ordering::AcqRel) + 1;
                let ack = rx.is_multiple_of(ACK_INTERVAL);
                if ack || self.config.link_fault.is_some() {
                    // An ack is unsequenced and never buffered; a failed
                    // write or a chaos sever shows up here as EOF.
                    let mut guard = link.state.lock();
                    let st = &mut *guard;
                    let ack_failed = ack
                        && (st.writer.as_mut())
                            .is_some_and(|w| write_frame(w, &encode_count(K_ACK, rx)).is_err());
                    if ack_failed || (st.writer.is_some() && self.chaos_due(link.proc, st.gen, rx))
                    {
                        st.sever();
                    }
                }
                self.handle_frame(link, &p);
            }
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    obs::m().bytes_received.add(n as u64);
                    fb.push(&buf[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        self.reader_exited(link, gen);
    }

    /// Settles a reader's generation and applies [`on_reader_exit`]:
    /// either nothing more to do, or the link starts recovering on a
    /// thread of its own.
    fn reader_exited(self: &Arc<Self>, link: &Arc<Link>, gen: u64) {
        let exit = {
            let mut st = link.state.lock();
            st.settled = st.settled.max(gen);
            let closing = self.closing.load(Ordering::Acquire);
            let exit = on_reader_exit(st.phase, gen, st.gen, closing, self.proc_index, link.proc);
            if exit != Exit::Settle {
                st.phase = Phase::Recovering;
                st.sever();
            }
            exit
        };
        link.cv.notify_all();
        if exit == Exit::Settle {
            self.notify_teardown();
            return;
        }
        let (this, l) = (Arc::clone(self), Arc::clone(link));
        if !self.spawn(format!("sock-rec-p{}", link.proc), move || match exit {
            Exit::Redial => this.redial(&l),
            _ => this.grace_watchdog(&l),
        }) {
            self.finish_lost(link);
        }
    }

    fn standing_down(&self, link: &Link) -> bool {
        self.closing.load(Ordering::Acquire) || link.state.lock().phase == Phase::Lost
    }

    /// The dialing side of a link: presents the session epoch and the
    /// link's received count to the peer's retained listener, with
    /// exponential backoff between attempts, and installs the stream the
    /// peer accepts. A first connection (`first_by`: the set-up deadline)
    /// keeps trying until that deadline, a redial for [`RETRY_BUDGET`]
    /// attempts. `true` once the stream is installed.
    pub(super) fn dial_link(self: &Arc<Self>, link: &Arc<Link>, first_by: Option<Instant>) -> bool {
        let Some((epoch, roster)) = self.session.get() else {
            return false;
        };
        let Some(addr) = roster.get(link.proc) else {
            return false;
        };
        let mut backoff = BACKOFF_BASE;
        for attempt in 0u32.. {
            if attempt > 0 {
                let pause = match first_by {
                    Some(by) => backoff.min(by.saturating_duration_since(Instant::now())),
                    None if attempt < RETRY_BUDGET => backoff,
                    None => return false,
                };
                if pause.is_zero() {
                    return false;
                }
                std::thread::sleep(pause);
                backoff = backoff.saturating_mul(2);
            }
            if self.standing_down(link) {
                return false;
            }
            if first_by.is_none() {
                obs::m().reconnect_attempts.inc();
            }
            // The acceptor may hold the reply until its own reader
            // drained, bounded by its grace window.
            let mut deadline = Instant::now() + RECONNECT_GRACE + HELLO_TIMEOUT;
            deadline = first_by.map_or(deadline, |by| by.min(deadline));
            let rx = link.rx_seq.load(Ordering::Acquire);
            let Some((s, fb, reply)) = present(addr, self.proc_index, *epoch, rx, deadline) else {
                continue;
            };
            match on_reply(&reply) {
                Reply::Resume(peer_rx) => {
                    if self.install_stream(link, s, fb, peer_rx) {
                        return true;
                    }
                }
                Reply::GiveUp(reason) => {
                    if reason == NAK_STALE_EPOCH {
                        obs::m().reconnect_stale_epoch.inc();
                    }
                    return false;
                }
                Reply::Retry => {}
            }
        }
        false
    }

    /// Dialer-side recovery: redial within the budget, or degrade to
    /// `PeerLost`.
    fn redial(self: &Arc<Self>, link: &Arc<Link>) {
        if self.dial_link(link, None) || self.standing_down(link) {
            return;
        }
        obs::m().reconnect_exhausted.inc();
        self.finish_lost(link);
    }

    /// Acceptor-side recovery: wait for the peer to redial within the
    /// grace window; degrade to `PeerLost` if it never does. A dead
    /// peer's redials fail instantly, so the dialer's budget is usually
    /// exhausted well inside this window.
    fn grace_watchdog(self: &Arc<Self>, link: &Arc<Link>) {
        let deadline = Instant::now() + RECONNECT_GRACE;
        let mut st = link.state.lock();
        while st.phase == Phase::Recovering && !self.closing.load(Ordering::Acquire) {
            if !wait_until(&link.cv, &mut st, deadline) {
                drop(st);
                obs::m().reconnect_exhausted.inc();
                self.finish_lost(link);
                return;
            }
        }
    }

    /// The acceptor: owns the retained listener for the rest of the
    /// session and admits first connections and redials alike.
    pub(super) fn spawn_acceptor(self: &Arc<Self>, listener: SockListener) {
        let this = Arc::clone(self);
        self.spawn("sock-accept".to_string(), move || {
            while !this.closing.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok(s) => this.handle_presentation(s),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
        });
    }

    /// Reads one presentation, applies [`admit`] — waiting, within the
    /// grace window, for the link's previous reader to drain so `rx_seq`
    /// is final and the retransmit suffix exact — then answers with our
    /// received count and installs the stream.
    fn handle_presentation(self: &Arc<Self>, mut s: SockStream) {
        let Some((proc, peer_epoch, peer_rx, fb)) = read_presentation(&mut s) else {
            obs::m().handshake_rejected.inc();
            return;
        };
        let epoch = self.session.get().map_or(0, |(e, _)| *e);
        let link = self.link(proc);
        let mut guard = link.map(|l| l.state.lock());
        let deadline = Instant::now() + RECONNECT_GRACE;
        let verdict = loop {
            let v = admit(epoch, peer_epoch, self.proc_index, proc, guard.as_deref());
            let (Admit::Wait, Some(link), Some(st)) = (v, link, guard.as_mut()) else {
                break v;
            };
            // The presentation proves the old stream is gone: shut it
            // to unblock its reader.
            st.sever();
            if !wait_until(&link.cv, st, deadline) {
                break Admit::Nak(NAK_BUSY);
            }
        };
        drop(guard);
        // Dropping `s` on any path but an install closes it.
        let reason = match (verdict, link) {
            (Admit::Accept, Some(link)) => {
                let rx = link.rx_seq.load(Ordering::Acquire);
                if write_frame(&mut s, &encode_count(K_RECONN_OK, rx)).is_ok() {
                    self.install_stream(link, s, fb, peer_rx);
                }
                return;
            }
            (Admit::Nak(reason), _) => reason,
            _ => NAK_BUSY,
        };
        match reason {
            NAK_STALE_EPOCH => obs::m().reconnect_stale_epoch.inc(),
            NAK_UNKNOWN_LINK => obs::m().handshake_rejected.inc(),
            _ => {}
        }
        let _ = write_frame(&mut s, &[K_RECONN_NAK, reason]);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
    use super::*;

    fn state(phase: Phase, gen: u64, settled: u64) -> LinkState {
        LinkState {
            phase,
            gen,
            settled,
            ..LinkState::default()
        }
    }

    fn frames(log: &mut TxLog, peer_rx: u64) -> Vec<u8> {
        log.suffix(peer_rx).map(|f| f[0]).collect()
    }

    #[test]
    fn a_connecting_link_blocks_a_sender_a_recovering_one_buffers() {
        assert_eq!(on_send(Phase::Connecting), SendStep::Wait);
        for phase in [Phase::Up, Phase::Recovering, Phase::Done] {
            assert_eq!(on_send(phase), SendStep::Append, "{phase:?}");
        }
        assert_eq!(on_send(Phase::Lost), SendStep::Fail);
    }

    #[test]
    fn an_install_brings_a_link_up_keeps_done_and_refuses_lost() {
        for phase in [Phase::Connecting, Phase::Up, Phase::Recovering] {
            assert_eq!(on_install(phase), Some(Phase::Up), "{phase:?}");
        }
        assert_eq!(on_install(Phase::Done), Some(Phase::Done));
        assert_eq!(on_install(Phase::Lost), None);
    }

    /// Only the current stream's reader, on an up link, in a process not
    /// closing, starts a recovery; the higher-indexed side dials.
    #[test]
    fn reader_exit_recovers_only_the_current_stream_of_an_up_link() {
        assert_eq!(on_reader_exit(Phase::Up, 2, 2, false, 3, 1), Exit::Redial);
        assert_eq!(on_reader_exit(Phase::Up, 2, 2, false, 1, 3), Exit::Await);
        // A stale reader, a closing process, and every phase but Up stand
        // down: recovering and lost links are already handled, a done
        // peer's close is normal.
        assert_eq!(on_reader_exit(Phase::Up, 1, 2, false, 3, 1), Exit::Settle);
        assert_eq!(on_reader_exit(Phase::Up, 2, 2, true, 3, 1), Exit::Settle);
        for phase in [
            Phase::Recovering,
            Phase::Lost,
            Phase::Done,
            Phase::Connecting,
        ] {
            assert_eq!(
                on_reader_exit(phase, 2, 2, false, 3, 1),
                Exit::Settle,
                "{phase:?}"
            );
        }
    }

    #[test]
    fn admission_checks_epoch_then_link_then_waits_for_the_old_reader() {
        let up = state(Phase::Up, 1, 0);
        // A stale epoch is refused before the link is even looked at.
        assert_eq!(admit(7, 8, 0, 1, Some(&up)), Admit::Nak(NAK_STALE_EPOCH));
        assert_eq!(admit(7, 8, 0, 1, None), Admit::Nak(NAK_STALE_EPOCH));
        // No such link, or a lower-indexed peer (which never dials).
        assert_eq!(admit(7, 7, 0, 1, None), Admit::Nak(NAK_UNKNOWN_LINK));
        assert_eq!(admit(7, 7, 2, 1, Some(&up)), Admit::Nak(NAK_UNKNOWN_LINK));
        assert_eq!(
            admit(7, 7, 0, 1, Some(&state(Phase::Lost, 1, 1))),
            Admit::Nak(NAK_LINK_LOST)
        );
        // The current stream's reader still runs: wait for it to settle.
        assert_eq!(admit(7, 7, 0, 1, Some(&up)), Admit::Wait);
        assert_eq!(
            admit(7, 7, 0, 1, Some(&state(Phase::Done, 2, 1))),
            Admit::Wait
        );
        // A first connection and a settled redial are accepted.
        for st in [
            state(Phase::Connecting, 0, 0),
            state(Phase::Recovering, 2, 2),
        ] {
            assert_eq!(
                admit(7, 7, 0, 1, Some(&st)),
                Admit::Accept,
                "{:?}",
                st.phase
            );
        }
    }

    #[test]
    fn redial_reply_resumes_retries_or_gives_up() {
        let ok = encode_count(K_RECONN_OK, 41);
        assert_eq!(on_reply(&ok), Reply::Resume(41));
        for reason in [NAK_STALE_EPOCH, NAK_LINK_LOST] {
            assert_eq!(on_reply(&[K_RECONN_NAK, reason]), Reply::GiveUp(reason));
        }
        for retry in [
            &[K_RECONN_NAK, NAK_BUSY][..],
            &[K_RECONN_NAK, NAK_UNKNOWN_LINK],
            &[K_RECONN_NAK],
            &encode_count(K_ACK, 41),
            b"",
        ] {
            assert_eq!(on_reply(retry), Reply::Retry, "{retry:?}");
        }
    }

    /// Acks prune a prefix; a redial retransmits exactly the frames past
    /// the peer's count, however stale or hostile that count is.
    #[test]
    fn acks_prune_and_the_retransmit_suffix_is_exact() {
        let mut log = TxLog::default();
        for b in 0..6u8 {
            assert_eq!(log.push(Bytes::from(vec![b])), u64::from(b) + 1);
        }
        log.ack(2);
        assert_eq!(frames(&mut log, 2), vec![2, 3, 4, 5]);
        // An ack older than the base changes nothing.
        log.ack(1);
        assert_eq!(frames(&mut log, 0), vec![2, 3, 4, 5]);
        assert_eq!(frames(&mut log, 4), vec![4, 5]);
        // The count keeps running across pruning.
        assert_eq!(log.push(Bytes::from(vec![6])), 7);
        assert_eq!(frames(&mut log, 6), vec![6]);
        // A count past everything sent empties the log, no more.
        assert_eq!(frames(&mut log, 99), Vec::<u8>::new());
        assert_eq!(log.push(Bytes::from(vec![7])), 8);
        assert_eq!(frames(&mut log, 7), vec![7]);
    }
}
