//! Every schedule of one link, explored: two [`LinkCore`]s stepped over a
//! model channel, breadth-first, with no thread and no socket.
//!
//! Side `A` is the lower-indexed process (it accepts and watches the grace
//! window), side `D` the higher-indexed one (it dials). Each application
//! sends `frames` data frames and then its `ProcDone`; frame `k` carries
//! the byte `k`. A connection is two FIFO queues, one per direction. The
//! model applies each [`Act`] the way the drivers in `link.rs` do, and
//! besides the protocol's own moves it may:
//!
//! * cut a connection (a fault): each reader may then see EOF at any
//!   point, so any prefix of each direction's frames still arrives;
//! * let a dial attempt time out while its presentation is still queued,
//!   so the acceptor may read that redial late, or after a newer one;
//! * abandon a link (set-up failing elsewhere) while its reader still
//!   drains the peer's `ProcDone`; this counts as a fault;
//! * close a process once its application has sent everything: when its
//!   link has finished, or (a fault) in any phase, as a finalize whose
//!   wait timed out does (with a held presentation or a dial's reply
//!   still pending);
//! * present a stale session epoch, probed in every state;
//! * spend the dialer's budget, the grace window or the set-up deadline.
//!
//! Acknowledgements travel like frames: a cut may lose one after its
//! write. Two reductions keep the space small without losing a state that
//! matters. A send with no stream installed only logs the frame, and a
//! read that writes nothing from a connection no fault can cut any more
//! touches nothing another move touches: each commutes with every other
//! move, so it is the one move explored from a state that has it. The
//! search itself, its fingerprints and invariant 2's reachability pass
//! are `opmr_explore`'s.
//!
//! Checked on every state and transition:
//!
//! 1. every frame is delivered exactly once, in order: a reader only ever
//!    sees the frame after the last one it counted, and a `Done` side has
//!    counted all of its peer's;
//! 2. from every state a terminal state is reachable, and in every
//!    terminal state each side is `Done` or `Lost` (the typed loss a spent
//!    budget, grace window or set-up deadline leaves), or closed early;
//! 3. a presentation of a stale epoch is always refused with a stale-epoch
//!    NAK;
//! 4. an install retransmits exactly the frames the peer lacks: the
//!    suffix starts right after the peer's received count (when the peer
//!    will read that connection);
//! 5. `Lost` is never left, `Done` only for `Recovering` when its reader
//!    exits or when set-up fails and abandons the link, the model's writer
//!    agrees with the core's `wired`, and a closing side installs no
//!    stream;
//! 6. a side runs one reader at a time, so no reader exit is ever stale;
//! 7. from every state with no dial budget spent, no side lost (abandoned,
//!    or out of budget or grace), none closed early and the acceptor not
//!    stranded, a terminal state in which both sides are `Done` is
//!    reachable. A close is early when its finalize timed out, or when it
//!    came while the peer had not finished: no close can wait for the
//!    peer's own, so a later cut may strand the peer. The acceptor is
//!    stranded when a cut took the dialer's last ack after its write, and
//!    no redial has carried its count since: the dialer has finished and
//!    neither writes nor dials again, and the acceptor, which cannot dial,
//!    waits out its grace window and ends `Lost`. The run prints how many
//!    states that is.
//! 8. an input whose driver wakes no waiter ([`Input::wakes`]) changes no
//!    phase and finishes no link, unless it installs a stream: a finalize,
//!    a held send or presentation and a grace watch sleep until a wake-up;
//! 9. a side never logs more than its cap of unacknowledged data frames
//!    (`ProcDone` is exempt), and an input that lets a send held at the
//!    cap go on (an ack, an install or a loss) wakes it.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use super::machine::{Act, Input, LinkCore, Phase};
use super::wire::NAK_STALE_EPOCH;
use bytes::Bytes;
use opmr_explore::Model;
use std::collections::VecDeque;

const A: usize = 0;
const D: usize = 1;
const EPOCH: u64 = 7;

/// How far the explorer goes.
#[derive(Debug, Clone, Copy)]
struct Bound {
    /// Data frames each side sends before its `ProcDone`.
    frames: u8,
    /// Faults: cut connections, links abandoned while draining, and
    /// processes closed before their link settled.
    faults: u8,
    /// Dial attempts, the first connection's included.
    attempts: u8,
    /// Received frames between acknowledgements.
    ack_every: u64,
    /// Unacknowledged data frames past which a `Send` waits.
    tx_cap: usize,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Msg {
    Data(u8),
    Ack(u64),
    Present { rx: u64 },
    Ok(u64),
    Nak(u8),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Conn {
    /// `q[x]`: in flight toward side `x`.
    q: [VecDeque<Msg>; 2],
    /// Shut down: no write succeeds, a reader sees EOF once drained.
    shut: bool,
    /// Cut by a fault: besides, a reader may see EOF at any point, losing
    /// what is still in flight toward it.
    cut: bool,
    /// The generation of side `x`'s reader on this connection.
    reader: [Option<u64>; 2],
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Side {
    core: LinkCore,
    /// Frames the application handed to `Send` so far.
    sent: u8,
    writer: Option<usize>,
    /// A redial (`D`) or grace watch (`A`) runs.
    recovery: bool,
    /// Closed before its link settled: its finalize timed out.
    timed_out: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    side: [Side; 2],
    conns: Vec<Conn>,
    /// The connection whose reply `D`'s dial attempt awaits.
    dialing: Option<usize>,
    /// The presentation `A`'s acceptor holds: connection, count.
    admitting: Option<(usize, u64)>,
    faults: u8,
    attempts: u8,
    /// A side closed before both had finished: its finalize timed out, or
    /// it finished while the peer had not, so a later cut can strand the
    /// peer (no close can wait for the peer's own).
    early: bool,
    /// A cut took the dialer's ack of the acceptor's `ProcDone` after its
    /// write, and the dialer has installed no stream since.
    lost_last_ack: bool,
    /// The bound's cap, for invariant 9.
    tx_cap: usize,
}

type Check = Result<(), String>;

fn fail(what: impl Into<String>) -> Check {
    Err(what.into())
}

impl World {
    fn new(bound: Bound) -> Self {
        let side = |dials: bool| Side {
            core: LinkCore::new(dials, None)
                .with_ack_every(bound.ack_every)
                .with_tx_cap(bound.tx_cap),
            sent: 0,
            writer: None,
            // The first connection is dialed like a redial.
            recovery: dials,
            timed_out: false,
        };
        World {
            side: [side(false), side(true)],
            conns: Vec::new(),
            dialing: None,
            admitting: None,
            faults: 0,
            attempts: 0,
            early: false,
            lost_last_ack: false,
            tx_cap: bound.tx_cap,
        }
    }

    /// Steps side `x` and severs its stream the way the driver does;
    /// checks invariants 5, 8 and 9.
    fn step(&mut self, x: usize, input: Input) -> Result<Act, String> {
        let cap = self.tx_cap;
        let core = &self.side[x].core;
        let (before, gen, finished) = (core.phase(), core.gen(), core.finished());
        let held = core.at_cap();
        let act = self.side[x].core.step(input.clone());
        let core = &self.side[x].core;
        let data = core.unacked();
        if data > cap {
            return Err(format!(
                "side {x} logs {data} frames unacknowledged, its cap {cap}"
            ));
        }
        if held && !core.at_cap() && !input.wakes() && !is_install(act) {
            return Err(format!(
                "side {x}'s held send may go on after {input:?}, which wakes no waiter"
            ));
        }
        let woken = before != core.phase() || !finished && core.finished();
        if woken && !input.wakes() && !is_install(act) {
            return Err(format!(
                "side {x} went {before:?} to {:?}, finished {}, on {input:?}, which wakes no waiter",
                core.phase(),
                core.finished()
            ));
        }
        let abandoned = input == Input::Abandon && core.phase() == Phase::Lost;
        let recovers = matches!(input, Input::ReaderExit(_)) && core.phase() == Phase::Recovering;
        let left = before != core.phase() && matches!(before, Phase::Lost | Phase::Done);
        if left && !(abandoned || before == Phase::Done && recovers) {
            return Err(format!(
                "side {x} left {before:?} for {:?} on {input:?}",
                core.phase()
            ));
        }
        if !core.wired() || core.gen() != gen {
            if let Some(c) = self.side[x].writer.take() {
                self.conns[c].shut = true;
            }
        }
        if self.side[x].writer.is_some() != self.side[x].core.wired() && !is_install(act) {
            return Err(format!(
                "side {x}: writer and core disagree after {input:?}"
            ));
        }
        Ok(act)
    }

    /// `x` writes `msg` through its installed stream.
    fn write(&mut self, x: usize, msg: Msg) -> Check {
        let Some(c) = self.side[x].writer else {
            return Ok(());
        };
        if self.conns[c].shut {
            self.step(x, Input::WriteFailed)?;
        } else {
            self.conns[c].q[1 - x].push_back(msg);
        }
        Ok(())
    }

    /// `x`'s reader takes data frame `seq`; checks invariant 1.
    fn receive(&mut self, x: usize, seq: u8, last: u8) -> Check {
        let rx = self.side[x].core.rx();
        if u64::from(seq) != rx + 1 {
            return fail(format!("side {x} reads frame {seq} after {rx}"));
        }
        // An ack travels like a frame: a cut may lose it after the write.
        if let Act::Ack(k) = self.step(x, Input::Received)? {
            self.write(x, Msg::Ack(k))?;
        }
        if seq == last {
            if let Act::Ack(k) = self.step(x, Input::PeerDone)? {
                self.write(x, Msg::Ack(k))?;
            }
        }
        Ok(())
    }

    /// Applies an `Install` act on connection `c`: reply, suffix, writer,
    /// reader. Checks invariant 4 while the peer will read `c`, 5 and 6.
    fn install(&mut self, x: usize, c: usize, gen: u64, reply: Option<u64>) -> Check {
        if self.side[x].core.closing() {
            return fail(format!("side {x} installs stream {gen} while closing"));
        }
        let suffix: Vec<u8> = self.side[x].core.suffix().map(|f| f[0]).collect();
        let peer_reads = self.conns[c].reader[1 - x].is_some() || self.dialing == Some(c);
        let (sent, peer_rx) = (self.side[x].sent, self.side[1 - x].core.rx());
        let from = suffix
            .first()
            .map_or(u64::from(sent), |&s| u64::from(s) - 1);
        if peer_reads && !self.conns[c].shut && from != peer_rx {
            return fail(format!(
                "side {x} retransmits {suffix:?} to a peer holding {peer_rx} of {sent}"
            ));
        }
        if let Some(old) = self.conns.iter().find_map(|c| c.reader[x]) {
            return fail(format!(
                "side {x} spawns reader {gen} while reader {old} runs"
            ));
        }
        self.side[x].writer = Some(c);
        self.conns[c].reader[x] = Some(gen);
        // The dialer's presentation carried its count to the acceptor.
        self.lost_last_ack &= x != D;
        if let Some(n) = reply {
            self.write(x, Msg::Ok(n))?;
        }
        for s in suffix {
            self.write(x, Msg::Data(s))?;
        }
        Ok(())
    }

    /// A cut took the dialer's last ack after its write, and the dialer
    /// has finished, so it writes and dials no more: the acceptor, not
    /// finished, waits out its grace window.
    fn strands_acceptor(&self) -> bool {
        self.lost_last_ack && self.side[D].core.finished() && !self.side[A].core.finished()
    }

    /// Connections nobody will touch again go; queues nobody will read
    /// are emptied.
    fn collect(&mut self) {
        // A grace watch on a link no longer recovering stands down at its
        // next wake-up, and does nothing else.
        let a = &mut self.side[A];
        a.recovery &= a.core.phase() == Phase::Recovering && !a.core.closing();
        let backlog = |w: &World, c: usize| {
            !w.side[A].core.closing()
                && w.conns[c].reader[A].is_none()
                && matches!(w.conns[c].q[A].front(), Some(Msg::Present { .. }))
        };
        let mut keep = Vec::with_capacity(self.conns.len());
        for c in 0..self.conns.len() {
            let pending = [
                backlog(self, c) || self.admitting.is_some_and(|(a, _)| a == c),
                self.dialing == Some(c),
            ];
            let conn = &mut self.conns[c];
            for x in [A, D] {
                if conn.reader[x].is_none() && !pending[x] {
                    conn.q[x].clear();
                }
            }
            let used = conn.reader.iter().any(Option::is_some)
                || pending.iter().any(|&p| p)
                || self.side.iter().any(|s| s.writer == Some(c));
            keep.push(used);
        }
        let mut map = vec![None; keep.len()];
        let mut n = 0;
        for (c, &k) in keep.iter().enumerate() {
            if k {
                map[c] = Some(n);
                n += 1;
            }
        }
        let mut i = 0;
        self.conns.retain(|_| {
            i += 1;
            keep[i - 1]
        });
        let remap = |c: &mut Option<usize>| *c = c.and_then(|c| map[c]);
        for s in &mut self.side {
            remap(&mut s.writer);
        }
        remap(&mut self.dialing);
        if let Some((c, ..)) = &mut self.admitting {
            if let Some(m) = map[*c] {
                *c = m;
            }
        }
    }
}

/// The application's send of frame `seq`, `ProcDone` when it is `last`.
fn send(seq: u8, last: u8) -> Input {
    let frame = Bytes::from(vec![seq]);
    if seq == last {
        Input::SendDone(frame)
    } else {
        Input::Send(frame)
    }
}

fn is_install(act: Act) -> bool {
    matches!(act, Act::Install { .. })
}

/// One labelled move from a state.
type Move = (&'static str, World);

/// Every move from `w`, or the first invariant it breaks.
fn moves(w: &World, bound: Bound) -> Result<Vec<Move>, String> {
    let mut out: Vec<Move> = Vec::new();
    let last = bound.frames + 1;
    // A send with no stream installed only logs the frame, and commutes
    // with every other move (an install retransmits it, a loss drops the
    // log), so it is the one move explored from such a state.
    // Likewise a read that writes nothing (no ack, not `ProcDone`) from a
    // connection no fault can cut any more: no other move reads or
    // writes what it does.
    for x in [A, D] {
        let s = &w.side[x];
        let quiet = matches!(s.core.phase(), Phase::Up | Phase::Recovering | Phase::Done);
        let free = s.sent + 1 == last || !s.core.at_cap();
        if s.sent < last && quiet && free && !s.core.wired() {
            let mut n = w.clone();
            n.side[x].sent += 1;
            n.step(x, send(n.side[x].sent, last))?;
            n.collect();
            return Ok(vec![("send", n)]);
        }
        let no_ack = !(s.core.rx() + 1).is_multiple_of(bound.ack_every);
        for c in (0..w.conns.len()).filter(|_| w.faults >= bound.faults && no_ack) {
            let conn = &w.conns[c];
            if let (Some(_), false, Some(&Msg::Data(seq))) =
                (conn.reader[x], conn.cut, conn.q[x].front())
            {
                if seq != last {
                    let mut n = w.clone();
                    n.conns[c].q[x].pop_front();
                    n.receive(x, seq, last)?;
                    n.collect();
                    return Ok(vec![("read", n)]);
                }
            }
        }
    }
    for x in [A, D] {
        // The application sends its next frame (the last is `ProcDone`).
        if w.side[x].sent < last {
            let mut n = w.clone();
            let seq = n.side[x].sent + 1;
            let o = n.step(x, send(seq, last))?;
            if o != Act::Wait {
                n.side[x].sent = seq;
                if o == Act::Write {
                    n.write(x, Msg::Data(seq))?;
                }
                out.push(("send", n));
            }
        }
        // Each reader takes its next frame, or exits at EOF.
        for c in 0..w.conns.len() {
            let Some(gen) = w.conns[c].reader[x] else {
                continue;
            };
            let conn = &w.conns[c];
            if conn.cut && !conn.q[x].is_empty() {
                let mut n = w.clone();
                n.conns[c].q[x].clear();
                n.lost_last_ack |= x == A && conn.q[A].contains(&Msg::Ack(u64::from(last)));
                out.push(("eof", n));
            }
            if conn.q[x].is_empty() && !conn.shut {
                continue;
            }
            let mut n = w.clone();
            match n.conns[c].q[x].pop_front() {
                Some(Msg::Data(seq)) => n.receive(x, seq, last)?,
                Some(Msg::Ack(k)) => drop(n.step(x, Input::Acked(k))?),
                Some(m) => return Err(format!("side {x} reads {m:?} on the data plane")),
                None if n.conns[c].shut => {
                    n.conns[c].reader[x] = None;
                    if let Act::Recover(dial) = n.step(x, Input::ReaderExit(gen))? {
                        if dial != (x == D) {
                            return Err(format!("side {x} recovers with dial = {dial}"));
                        }
                        n.side[x].recovery = true;
                    }
                }
                None => continue,
            }
            out.push(("read", n));
        }
        // Set-up fails on another link: this one is abandoned while its
        // reader still drains the peer's `ProcDone`. It counts as a fault.
        let draining = w
            .conns
            .iter()
            .any(|c| c.reader[x].is_some() && c.q[x].contains(&Msg::Data(last)));
        if w.faults < bound.faults && w.side[x].core.phase() == Phase::Up && draining {
            let mut n = w.clone();
            n.faults += 1;
            n.step(x, Input::Abandon)?;
            out.push(("abandon", n));
        }
        // This process closes once its link settled, or (a fault) once
        // its wait for that timed out, in any phase.
        let s = &w.side[x];
        let ended = s.core.finished();
        if s.sent == last && !s.core.closing() && (ended || w.faults < bound.faults) {
            let mut n = w.clone();
            n.faults += u8::from(!ended);
            n.side[x].timed_out = !ended;
            n.early |= !ended || !w.side[1 - x].core.finished();
            n.step(x, Input::Close)?;
            out.push((if ended { "close" } else { "timeout" }, n));
        }
    }
    // A fault cuts a connection. Which prefix of each direction still
    // arrives is decided by its reader, at the read: the `eof` moves.
    for c in 0..w.conns.len() {
        let conn = &w.conns[c];
        let live = !conn.shut || conn.q.iter().any(|q| !q.is_empty());
        if w.faults < bound.faults && !conn.cut && live {
            let mut n = w.clone();
            n.faults += 1;
            (n.conns[c].shut, n.conns[c].cut) = (true, true);
            out.push(("fault", n));
        }
    }
    dialer_moves(w, bound, &mut out)?;
    acceptor_moves(w, &mut out)?;
    for (_, n) in &mut out {
        n.collect();
    }
    Ok(out)
}

/// The dialer gives up: a lost link, or (`Fail`) a first connection
/// that fails set-up, which abandons the link.
fn give_up(n: &mut World, act: Act) -> Check {
    n.side[D].recovery = false;
    if act == Act::Fail {
        n.step(D, Input::Abandon)?;
    }
    Ok(())
}

fn dialer_moves(w: &World, bound: Bound, out: &mut Vec<Move>) -> Check {
    match w.dialing {
        None if w.side[D].recovery => {
            let mut n = w.clone();
            let spent = n.attempts >= bound.attempts;
            match n.step(D, Input::Dial(spent))? {
                Act::Present(rx) => {
                    n.attempts += 1;
                    n.conns.push(Conn {
                        q: [VecDeque::from([Msg::Present { rx }]), VecDeque::new()],
                        shut: false,
                        cut: false,
                        reader: [None, None],
                    });
                    n.dialing = Some(n.conns.len() - 1);
                }
                act => give_up(&mut n, act)?,
            }
            out.push(("dial", n));
        }
        None => {}
        Some(c) => {
            let mut n = w.clone();
            n.dialing = None;
            match n.conns[c].q[D].pop_front() {
                Some(Msg::Ok(peer_rx)) => {
                    let o = n.step(D, Input::Install(peer_rx))?;
                    if let Act::Install { gen, reply } = o {
                        n.side[D].recovery = false;
                        n.install(D, c, gen, reply)?;
                    } else {
                        n.conns[c].shut = true;
                    }
                }
                Some(Msg::Nak(reason)) => {
                    n.conns[c].shut = true;
                    // A retry is the next `Dial` step's to decide.
                    match n.step(D, Input::Refused(reason))? {
                        Act::Nothing => {}
                        act => give_up(&mut n, act)?,
                    }
                }
                Some(m) => return fail(format!("the dialer reads {m:?} as its reply")),
                // The attempt times out; its presentation may still be
                // read later.
                None => n.conns[c].shut = true,
            }
            out.push(("reply", n));
            if w.conns[c].cut && !w.conns[c].q[D].is_empty() {
                // The reply is lost with the connection.
                let mut n = w.clone();
                n.dialing = None;
                n.conns[c].q[D].clear();
                out.push(("eof", n));
            }
        }
    }
    Ok(())
}

fn acceptor_moves(w: &World, out: &mut Vec<Move>) -> Check {
    let admit = |mut n: World, (c, rx): (usize, u64), expired| {
        let input = Input::Presented {
            epoch: EPOCH,
            session: EPOCH,
            peer_rx: rx,
            expired,
        };
        let act = n.step(A, input)?;
        n.admitting = None;
        match act {
            Act::Wait => n.admitting = Some((c, rx)),
            Act::Install { gen, reply } => n.install(A, c, gen, reply)?,
            Act::Nak(reason) => {
                if !n.conns[c].shut {
                    n.conns[c].q[D].push_back(Msg::Nak(reason));
                }
                n.conns[c].shut = true;
            }
            other => return Err(format!("a presentation got {other:?}")),
        }
        Ok(n)
    };
    match w.admitting {
        Some(held) => {
            // The held presentation is stepped again after a wake-up, or
            // once the admission's grace window is spent.
            for expired in [false, true] {
                let n = admit(w.clone(), held, expired)?;
                if n != *w {
                    out.push(("admit", n));
                }
            }
        }
        // A closing process's acceptor takes no new connection.
        None if w.side[A].core.closing() => {}
        None => {
            for c in 0..w.conns.len() {
                if w.conns[c].reader[A].is_some() {
                    continue;
                }
                let mut n = w.clone();
                if let Some(Msg::Present { rx }) = n.conns[c].q[A].pop_front() {
                    if w.conns[c].cut {
                        // The presentation is lost with the connection.
                        out.push(("eof", n.clone()));
                    }
                    out.push(("accept", admit(n, (c, rx), false)?));
                }
            }
        }
    }
    // A presentation from a stale session, probed in every state.
    let mut probe = w.side[A].core.clone();
    let input = Input::Presented {
        epoch: EPOCH + 1,
        session: EPOCH,
        peer_rx: 0,
        expired: false,
    };
    let stale = probe.step(input);
    if stale != Act::Nak(NAK_STALE_EPOCH) || probe != w.side[A].core {
        return fail(format!("a stale epoch got {stale:?}"));
    }
    // The grace window runs out. (A watch that would stand down does so
    // in `collect`.)
    let a = &w.side[A];
    if a.recovery {
        let mut n = w.clone();
        n.step(A, Input::Watch(true))?;
        n.side[A].recovery = false;
        out.push(("watch", n));
    }
    if a.core.phase() == Phase::Connecting {
        // The set-up deadline passes.
        let mut n = w.clone();
        n.step(A, Input::Abandon)?;
        out.push(("deadline", n));
    }
    Ok(())
}

/// The link within a bound, as the explorer sees it.
struct Link(Bound);

impl Model for Link {
    type State = World;

    fn start(&self) -> World {
        World::new(self.0)
    }

    fn moves(&self, w: &World) -> Result<Vec<Move>, String> {
        moves(w, self.0)
    }

    /// Invariant 2: each side ends `Done` or `Lost`, or closed early.
    fn end(&self, w: &World) -> Check {
        let ended = |s: &Side| matches!(s.core.phase(), Phase::Done | Phase::Lost);
        if w.side.iter().all(|s| ended(s) || s.timed_out) {
            return Ok(());
        }
        let phases = [w.side[A].core.phase(), w.side[D].core.phase()];
        fail(format!("stuck in {phases:?}"))
    }

    fn good_end(&self, w: &World) -> bool {
        w.side.iter().all(|s| s.core.phase() == Phase::Done)
    }

    /// Invariant 7 is owed only with no budget spent, none closed early,
    /// no side lost (abandoned, or out of budget or grace) and the
    /// acceptor not stranded.
    fn spoilt(&self, w: &World) -> Option<&'static str> {
        if w.attempts >= self.0.attempts {
            Some("budget spent")
        } else if w.early {
            Some("closed early")
        } else if w.side.iter().any(|s| s.core.phase() == Phase::Lost) {
            Some("side lost")
        } else {
            w.strands_acceptor().then_some(STRANDED)
        }
    }
}

/// The bound CI runs: three data frames and a `ProcDone` each way, two
/// faults, and a first connection plus two redials, with a cap that never
/// binds: every frame fits in the log.
const DEFAULT: Bound = Bound {
    frames: 3,
    faults: 2,
    attempts: 3,
    ack_every: 2,
    tx_cap: 8,
};

/// [`DEFAULT`] with the cap binding: a third data frame waits for the ack
/// of the first two (an ack comes every second frame, so the cap is the
/// smallest that cannot deadlock).
const CAPPED: Bound = Bound {
    tx_cap: 2,
    ..DEFAULT
};

/// The states [`Link::spoilt`] excuses only because a cut took the
/// dialer's last ack.
const STRANDED: &str = "acceptor stranded";

fn run(bound: Bound, max_states: usize) {
    let s = opmr_explore::run(&format!("{bound:?}"), &Link(bound), max_states)
        .expect("an invariant broke on the schedule printed above");
    eprintln!(
        "{} healthy states strand the acceptor: a cut took the dialer's last ack",
        s.spoilt.get(STRANDED).unwrap_or(&0)
    );
    assert!(s.good_ends > 0, "no schedule ends with both sides done");
    assert!(
        s.first_doomed.is_none(),
        "{} healthy states cannot end both done, the first after: {:?}",
        s.doomed,
        s.first_doomed
    );
}

#[test]
fn every_link_schedule_delivers_exactly_once_and_ends_done_or_lost() {
    run(DEFAULT, opmr_explore::MAX_STATES);
}

#[test]
fn every_capped_link_schedule_keeps_the_cap_and_wakes_a_held_send() {
    run(CAPPED, opmr_explore::MAX_STATES);
}

/// Deeper: three faults. About 5.7 M states with acks in flight, past
/// `opmr_explore::MAX_STATES`; the search holds them in about 1.2 GB.
#[test]
#[ignore = "minutes in a debug build; the nightly sweep runs it"]
fn every_deeper_link_schedule_delivers_exactly_once_and_ends_done_or_lost() {
    run(
        Bound {
            faults: 3,
            ..DEFAULT
        },
        8_000_000,
    );
}
