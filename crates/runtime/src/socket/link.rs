//! One link per process pair: the drivers that carry out its state
//! machine.
//!
//! A link exists from [`SocketTransport`]'s construction, `Connecting`.
//! The higher-indexed side brings it up by presenting the session epoch
//! and its received-frame count (0 the first time) to the lower-indexed
//! side's listener, which answers with its own count; each side then
//! retransmits exactly the suffix the other never saw. A connect is a
//! redial from frame 0.
//!
//! Every decision is one [`LinkCore::step`] (`machine.rs`, with the step
//! table). The send path and the reader, dialer, acceptor and grace-watch
//! threads here lock the link, step it and do the I/O the act names; a
//! write that must stay in sequence order (frame, ack, retransmitted
//! suffix) is done before the lock is released.

use super::handshake::{
    dial_once, present, read_presentation, write_frame, write_framed, SockListener, SockStream,
    HELLO_TIMEOUT,
};
use super::machine::{Act, Input, LinkCore};
use super::wire::{
    decode_count, decode_envelope, decode_rank_done, encode_count, K_ACK, K_ENVELOPE, K_PROC_DONE,
    K_RANK_DONE, K_RECONN_NAK, K_RECONN_OK, K_SHUTDOWN, NAK_STALE_EPOCH, NAK_UNKNOWN_LINK,
};
use super::{obs, SocketTransport};
use bytes::Bytes;
use opmr_events::{frame, FrameBuf};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the accepting side of a dropped link awaits a redial.
const RECONNECT_GRACE: Duration = Duration::from_secs(3);
/// Redial attempts before the dialing side gives a dropped link up.
const RETRY_BUDGET: u32 = 5;
/// Backoff before dial attempt `k` is `BACKOFF_BASE * 2^(k-1)`.
const BACKOFF_BASE: Duration = Duration::from_millis(100);

/// A link's core and (while it counts one installed) its stream's writer.
pub(super) struct LinkState {
    pub(super) core: LinkCore,
    writer: Option<SockStream>,
}

impl LinkState {
    /// Steps the core, severing the installed stream once the core no
    /// longer counts it as installed.
    pub(super) fn step(&mut self, input: Input) -> Act {
        let gen = self.core.gen();
        let act = self.core.step(input);
        if !self.core.wired() || self.core.gen() != gen {
            if let Some(w) = self.writer.take() {
                w.shutdown_both();
            }
        }
        if act == Act::Severed {
            obs::m().chaos_severs.inc();
        }
        act
    }

    /// Writes one framed frame through the installed stream; a failed
    /// write severs it, and its reader then drives recovery.
    fn write(&mut self, framed: &[u8]) {
        if let Some(w) = self.writer.as_mut() {
            if write_framed(w, framed).is_err() {
                self.step(Input::WriteFailed);
            }
        }
    }
}

pub(super) struct Link {
    pub(super) proc: usize,
    pub(super) state: Mutex<LinkState>,
    /// Signalled after every input for which [`Input::wakes`] holds.
    pub(super) cv: Condvar,
}

impl Link {
    pub(super) fn new(proc: usize, core: LinkCore) -> Self {
        Link {
            proc,
            state: Mutex::new(LinkState { core, writer: None }),
            cv: Condvar::new(),
        }
    }
}

// ---------------------------------------------------------------------
// The drivers: the send path and the reader, dialer, acceptor and watch
// threads, applying `step`'s outputs.
// ---------------------------------------------------------------------

/// Waits on `cv` until notified or `deadline`; `false` once it has passed.
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
    /// logs it for retransmission and writes it through if a stream is
    /// installed — silently queued while the link recovers. `Err` on a
    /// lost link.
    pub(super) fn send_data(&self, link: &Link, frame: Bytes) -> Result<(), ()> {
        self.send_as(link, frame, Input::Send)
    }

    /// [`Self::send_data`], stepping the frame as `input`.
    fn send_as(&self, link: &Link, frame: Bytes, input: fn(Bytes) -> Input) -> Result<(), ()> {
        let mut st = link.state.lock();
        loop {
            match st.step(input(frame.clone())) {
                Act::Wait => link.cv.wait(&mut st),
                Act::Fail => return Err(()),
                act => {
                    if act == Act::Write {
                        st.write(&frame);
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Sends one data frame on every link.
    pub(super) fn broadcast(&self, frame: Bytes) {
        for link in self.all_links() {
            let _ = self.send_data(link, frame.clone());
        }
    }

    /// Sends this process's `ProcDone`, its last frame, on every link.
    pub(super) fn broadcast_done(&self) {
        let done = frame(&[K_PROC_DONE]);
        for link in self.all_links() {
            let _ = self.send_as(link, done.clone(), Input::SendDone);
        }
    }

    /// Steps `input` under the link's lock and applies an `Act::Lost`:
    /// the peer's ranks are dead, counted once.
    pub(super) fn step_lost(&self, link: &Link, input: Input) -> Act {
        let act = link.state.lock().step(input);
        link.cv.notify_all();
        if act == Act::Lost {
            obs::m().peer_disconnects.inc();
            self.mark_dead(|owner| owner == link.proc);
        }
        act
    }

    /// Applies an `Install` act: the new stream carries `reply` (the
    /// accepting side's count) and the log's suffix, takes the link's
    /// writes, and its reader starts. `false` for any other act.
    fn take_stream(
        self: &Arc<Self>,
        link: &Arc<Link>,
        mut st: MutexGuard<'_, LinkState>,
        act: Act,
        (s, mut w, fb): (SockStream, SockStream, FrameBuf),
    ) -> bool {
        let Act::Install { gen, reply } = act else {
            return false;
        };
        let reply = reply.map(|rx| encode_count(K_RECONN_OK, rx));
        let ok = reply.is_none_or(|r| write_frame(&mut w, &r).is_ok())
            && st.core.suffix().all(|f| {
                let ok = write_framed(&mut w, f).is_ok();
                if ok {
                    obs::m().frames_retransmitted.inc();
                }
                ok
            });
        st.writer = Some(w);
        if !ok {
            st.step(Input::WriteFailed);
        }
        drop(st);
        if gen > 1 {
            obs::m().reconnects.inc();
        }
        link.cv.notify_all();
        let (this, l) = (Arc::clone(self), Arc::clone(link));
        if !self.spawn(format!("sock-rx-p{}", link.proc), move || {
            this.reader_loop(&l, s, fb, gen)
        }) {
            self.step_lost(link, Input::Abandon);
        }
        true
    }

    /// Applies one frame (an ack was stepped already).
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
                let mut st = link.state.lock();
                if let Act::Ack(n) = st.step(Input::PeerDone) {
                    st.write(&frame(&encode_count(K_ACK, n)));
                }
                drop(st);
                link.cv.notify_all();
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
                let input = match p.first().copied() {
                    Some(K_ACK) => match decode_count(K_ACK, &p) {
                        Some(acked) => Input::Acked(acked),
                        None => continue,
                    },
                    Some(K_ENVELOPE | K_RANK_DONE | K_SHUTDOWN | K_PROC_DONE) => Input::Received,
                    // Unknown or handshake-phase frame on the data plane:
                    // the peer is off-protocol.
                    _ => break 'conn,
                };
                let wake = input.wakes();
                let mut st = link.state.lock();
                // An ack is unsequenced and never logged.
                if let Act::Ack(n) = st.step(input) {
                    st.write(&frame(&encode_count(K_ACK, n)));
                }
                drop(st);
                if wake {
                    link.cv.notify_all();
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

    /// Steps a reader's exit; a recovery runs on a thread of its own.
    fn reader_exited(self: &Arc<Self>, link: &Arc<Link>, gen: u64) {
        let act = link.state.lock().step(Input::ReaderExit(gen));
        link.cv.notify_all();
        let Act::Recover(dial) = act else {
            return;
        };
        let (this, l) = (Arc::clone(self), Arc::clone(link));
        if !self.spawn(format!("sock-rec-p{}", link.proc), move || {
            if dial {
                this.dial_link(&l, None);
            } else {
                this.grace_watch(&l);
            }
        }) {
            self.step_lost(link, Input::Abandon);
        }
    }

    /// The dialing side: presents the session epoch and the received count
    /// to the peer's listener, with exponential backoff, until the peer
    /// accepts (`true`) or the set-up deadline `first_by` (a redial:
    /// [`RETRY_BUDGET`] attempts) is spent.
    pub(super) fn dial_link(self: &Arc<Self>, link: &Arc<Link>, first_by: Option<Instant>) -> bool {
        let Some((epoch, roster)) = self.session.get() else {
            return false;
        };
        let Some(addr) = roster.get(link.proc) else {
            return false;
        };
        let mut backoff = BACKOFF_BASE;
        for attempt in 0u32.. {
            let mut spent = false;
            if attempt > 0 {
                let pause = match first_by {
                    Some(by) => backoff.min(by.saturating_duration_since(Instant::now())),
                    None if attempt < RETRY_BUDGET => backoff,
                    None => Duration::ZERO,
                };
                spent = pause.is_zero();
                std::thread::sleep(pause);
                backoff = backoff.saturating_mul(2);
            }
            let rx = match self.step_lost(link, Input::Dial(spent)) {
                Act::Present(rx) => rx,
                Act::Lost => {
                    obs::m().reconnect_exhausted.inc();
                    return false;
                }
                _ => return false,
            };
            if first_by.is_none() {
                obs::m().reconnect_attempts.inc();
            }
            // The acceptor may hold the reply until its own reader
            // drained, bounded by its grace window.
            let mut deadline = Instant::now() + RECONNECT_GRACE + HELLO_TIMEOUT;
            deadline = first_by.map_or(deadline, |by| by.min(deadline));
            let Some((s, fb, reply)) = present(addr, self.proc_index, *epoch, rx, deadline) else {
                continue;
            };
            let input = Input::reply(&reply);
            if let Input::Install(_) = input {
                let Ok(w) = s.try_clone() else { continue };
                let mut st = link.state.lock();
                let act = st.step(input);
                if self.take_stream(link, st, act, (s, w, fb)) {
                    return true;
                }
                continue;
            }
            if input == Input::Refused(NAK_STALE_EPOCH) {
                obs::m().reconnect_stale_epoch.inc();
            }
            match self.step_lost(link, input) {
                Act::Lost => obs::m().reconnect_exhausted.inc(),
                Act::Nothing => continue,
                _ => {}
            }
            return false;
        }
        false
    }

    /// The accepting side's recovery: the peer redials within the grace
    /// window, or the link is lost.
    fn grace_watch(self: &Arc<Self>, link: &Arc<Link>) {
        let deadline = Instant::now() + RECONNECT_GRACE;
        let mut st = link.state.lock();
        while st.step(Input::Watch(false)) == Act::Wait {
            if !wait_until(&link.cv, &mut st, deadline) {
                drop(st);
                if self.step_lost(link, Input::Watch(true)) == Act::Lost {
                    obs::m().reconnect_exhausted.inc();
                }
                return;
            }
        }
    }

    /// The acceptor: blocked in `accept` on the retained listener for the
    /// rest of the session, until `finalize_local` wakes it with a
    /// connection of its own once `closing` is set.
    pub(super) fn spawn_acceptor(self: &Arc<Self>, listener: SockListener) {
        // A listener left non-blocking polls: correct, only slower.
        let _ = listener.set_nonblocking(false);
        let this = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name("sock-accept".to_string())
            .spawn(move || loop {
                match listener.accept() {
                    Ok(_) if this.closing.load(Ordering::Acquire) => return,
                    Ok(s) => this.handle_presentation(s),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            });
        *self.acceptor.lock() = spawned.ok();
    }

    /// Wakes the acceptor out of `accept` and joins it. If this process's
    /// own listener cannot be reached, the acceptor is left behind rather
    /// than joined: teardown never hangs on it.
    pub(super) fn stop_acceptor(&self) {
        let Some(h) = self.acceptor.lock().take() else {
            return;
        };
        let own = self.session.get().and_then(|(_, r)| r.get(self.proc_index));
        if own.is_some_and(|addr| dial_once(addr).is_ok()) {
            let _ = h.join();
        }
    }

    /// Reads one presentation and steps it, waiting while the link's old
    /// reader drains, then installs the stream or NAKs it.
    fn handle_presentation(self: &Arc<Self>, mut s: SockStream) {
        let Some((proc, epoch, peer_rx, fb)) = read_presentation(&mut s) else {
            obs::m().handshake_rejected.inc();
            return;
        };
        // Only a higher-indexed peer dials.
        let Some(link) = self.link(proc).filter(|_| proc > self.proc_index) else {
            obs::m().handshake_rejected.inc();
            let _ = write_frame(&mut s, &[K_RECONN_NAK, NAK_UNKNOWN_LINK]);
            return;
        };
        let Ok(w) = s.try_clone() else {
            return;
        };
        let session = self.session.get().map_or(0, |(e, _)| *e);
        let deadline = Instant::now() + RECONNECT_GRACE;
        let mut st = link.state.lock();
        let mut expired = false;
        let act = loop {
            let input = Input::Presented {
                epoch,
                session,
                peer_rx,
                expired,
            };
            match st.step(input) {
                Act::Wait => expired = !wait_until(&link.cv, &mut st, deadline),
                act => break act,
            }
        };
        if let Act::Nak(reason) = act {
            drop(st);
            if reason == NAK_STALE_EPOCH {
                obs::m().reconnect_stale_epoch.inc();
            }
            let _ = write_frame(&mut s, &[K_RECONN_NAK, reason]);
        } else {
            self.take_stream(link, st, act, (s, w, fb));
        }
    }
}
