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
//! Two reductions keep it small without losing a state that matters. A
//! send with no stream installed only logs the frame, and a read that
//! writes nothing from a connection no fault can cut any more touches
//! nothing another move touches: each commutes with every other move, so
//! it is the one move explored from a state that has it. And an ack
//! written into a live connection is applied to the peer's log at once,
//! never held in flight: the model takes a cut that would lose it for one
//! just before the write, which fails it. (A real ack lost after its write
//! leaves the peer unfinished while this side may close: an early close,
//! as invariant 7 counts it.) Visited states are kept as 64-bit
//! fingerprints.
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
//!    or out of budget or grace) and none closed early, a terminal state
//!    in which both sides are `Done` is reachable. A close is early when
//!    its finalize timed out, or when it came while the peer had not
//!    finished: no close can wait for the peer's own, so a later cut may
//!    strand the peer.
//! 8. an input whose driver wakes no waiter ([`Input::wakes`]) changes no
//!    phase and finishes no link, unless it installs a stream: a finalize,
//!    a held send or presentation and a grace watch sleep until a wake-up.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use super::machine::{Act, Input, LinkCore, Phase};
use super::wire::NAK_STALE_EPOCH;
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};

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
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Msg {
    Data(u8),
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
}

type Check = Result<(), String>;

fn fail(what: impl Into<String>) -> Check {
    Err(what.into())
}

impl World {
    fn new(bound: Bound) -> Self {
        let side = |dials: bool| Side {
            core: LinkCore::new(dials, None).with_ack_every(bound.ack_every),
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
        }
    }

    /// Steps side `x` and severs its stream the way the driver does;
    /// checks invariants 5 and 8.
    fn step(&mut self, x: usize, input: Input) -> Result<Act, String> {
        let core = &self.side[x].core;
        let (before, gen, finished) = (core.phase(), core.gen(), core.finished());
        let act = self.side[x].core.step(input.clone());
        let core = &self.side[x].core;
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
        if let Act::Ack(k) = self.step(x, Input::Received)? {
            self.ack(x, k)?;
        }
        if seq == last {
            if let Act::Ack(k) = self.step(x, Input::PeerDone)? {
                self.ack(x, k)?;
            }
        }
        Ok(())
    }

    /// `x` acknowledges `k` frames, applied to the peer's log as it is
    /// written into a live connection (the module docs say why).
    fn ack(&mut self, x: usize, k: u64) -> Check {
        match self.side[x].writer {
            Some(c) if self.conns[c].shut => self.step(x, Input::WriteFailed).map(drop),
            Some(_) => self.step(1 - x, Input::Acked(k)).map(drop),
            None => Ok(()),
        }
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
        if let Some(n) = reply {
            self.write(x, Msg::Ok(n))?;
        }
        for s in suffix {
            self.write(x, Msg::Data(s))?;
        }
        Ok(())
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
        if s.sent < last && quiet && !s.core.wired() {
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
                out.push(("eof", n));
            }
            if conn.q[x].is_empty() && !conn.shut {
                continue;
            }
            let mut n = w.clone();
            match n.conns[c].q[x].pop_front() {
                Some(Msg::Data(seq)) => n.receive(x, seq, last)?,
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

/// Past this many states the exploration stops: a bound too deep for
/// the memory of a small box.
const MAX_STATES: usize = 4_000_000;

/// What an exploration found.
#[derive(Debug)]
struct Stats {
    states: usize,
    edges: usize,
    depth: usize,
    /// Terminal states.
    ends: usize,
    /// Terminal states in which both sides are `Done`.
    both_done: usize,
    /// States with no budget spent, no side lost (abandoned or out of
    /// budget or grace) and none closed early, from which no both-`Done`
    /// terminal is reachable.
    doomed: usize,
    /// The moves to the first such state.
    first_doomed: Option<String>,
}

/// A 64-bit fingerprint of a state (splitmix64 over its `Hash` words):
/// visited states are kept as fingerprints only. Two states collide with
/// probability about n² / 2⁶⁵, under 10⁻⁶ for the bounds here.
#[derive(Default)]
struct Fingerprint(u64);

impl std::hash::Hasher for Fingerprint {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = (self.0 ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

type Index = HashMap<u64, u32, std::hash::BuildHasherDefault<Fingerprint>>;

/// Breadth-first over every state `bound` allows; the first broken
/// invariant comes back with the moves that led to it.
fn explore(bound: Bound) -> Result<Stats, String> {
    use std::hash::BuildHasher;
    let fingerprint =
        |w: &World| std::hash::BuildHasherDefault::<Fingerprint>::default().hash_one(w);
    let start = World::new(bound);
    let mut index = Index::default();
    index.insert(fingerprint(&start), 0);
    // Per state, in discovery order, which is also expansion order.
    let mut parent: Vec<(u32, &'static str)> = vec![(0, "start")];
    let mut depth: Vec<u16> = vec![0];
    let mut spoilt = vec![false];
    let mut first_edge: Vec<u32> = Vec::new();
    let mut edges: Vec<u32> = Vec::new();
    let mut ends = Vec::new();
    let mut queue = VecDeque::from([start]);
    let path = |parent: &[(u32, &'static str)], mut i: u32| {
        let mut p = Vec::new();
        while i != 0 {
            p.push(parent[i as usize].1);
            i = parent[i as usize].0;
        }
        p.reverse();
        p.join(" ")
    };
    while let Some(w) = queue.pop_front() {
        let i = first_edge.len() as u32;
        first_edge.push(edges.len() as u32);
        if parent.len() > MAX_STATES {
            return Err(format!("more than {MAX_STATES} states"));
        }
        let next = moves(&w, bound).map_err(|e| format!("{e}\n  after: {}", path(&parent, i)))?;
        if next.is_empty() {
            let phases = [w.side[A].core.phase(), w.side[D].core.phase()];
            let ended = |s: &Side| matches!(s.core.phase(), Phase::Done | Phase::Lost);
            if !w.side.iter().all(|s| ended(s) || s.timed_out) {
                return Err(format!(
                    "stuck in {phases:?}\n  after: {}",
                    path(&parent, i)
                ));
            }
            ends.push((i, phases == [Phase::Done; 2]));
        }
        for (label, n) in next {
            let j = *index.entry(fingerprint(&n)).or_insert_with(|| {
                parent.push((i, label));
                depth.push(depth[i as usize] + 1);
                spoilt.push(
                    n.attempts >= bound.attempts
                        || n.early
                        || n.side.iter().any(|s| s.core.phase() == Phase::Lost),
                );
                queue.push_back(n);
                parent.len() as u32 - 1
            });
            edges.push(j);
        }
    }
    let states = parent.len();
    first_edge.push(edges.len() as u32);
    // The edges reversed, so reachability can run back from the ends.
    let mut first_pred = vec![0u32; states + 1];
    for &j in &edges {
        first_pred[j as usize + 1] += 1;
    }
    for k in 0..states {
        first_pred[k + 1] += first_pred[k];
    }
    let mut fill = first_pred.clone();
    let mut preds = vec![0u32; edges.len()];
    for i in 0..states {
        for &j in &edges[first_edge[i] as usize..first_edge[i + 1] as usize] {
            preds[fill[j as usize] as usize] = i as u32;
            fill[j as usize] += 1;
        }
    }
    let reach = |seeds: Vec<u32>| {
        let mut seen = vec![false; states];
        let mut stack = seeds;
        while let Some(j) = stack.pop() {
            let j = j as usize;
            if !std::mem::replace(&mut seen[j], true) {
                stack.extend(&preds[first_pred[j] as usize..first_pred[j + 1] as usize]);
            }
        }
        seen
    };
    let to_end = reach(ends.iter().map(|e| e.0).collect());
    if let Some(i) = to_end.iter().position(|&r| !r) {
        return Err(format!(
            "no end is reachable from\n  {}",
            path(&parent, i as u32)
        ));
    }
    let to_done = reach(ends.iter().filter(|e| e.1).map(|e| e.0).collect());
    Ok(Stats {
        states,
        edges: edges.len(),
        depth: depth.iter().copied().max().map_or(0, usize::from),
        ends: ends.len(),
        both_done: ends.iter().filter(|e| e.1).count(),
        doomed: (0..states).filter(|&i| !to_done[i] && !spoilt[i]).count(),
        first_doomed: (0..states)
            .find(|&i| !to_done[i] && !spoilt[i])
            .map(|i| path(&parent, i as u32)),
    })
}

/// The bound CI runs: three data frames and a `ProcDone` each way, two
/// faults, and a first connection plus two redials.
const DEFAULT: Bound = Bound {
    frames: 3,
    faults: 2,
    attempts: 3,
    ack_every: 2,
};

fn run(bound: Bound) {
    let t = std::time::Instant::now();
    let s = explore(bound);
    if let Err(e) = &s {
        eprintln!("{bound:?}: {e}");
    }
    let s = s.expect("an invariant broke on the schedule printed above");
    eprintln!(
        "{bound:?}: {} states, {} moves, depth {}, {} ends ({} both done), \
         {} healthy states that cannot end both done, in {:.2?}",
        s.states,
        s.edges,
        s.depth,
        s.ends,
        s.both_done,
        s.doomed,
        t.elapsed()
    );
    assert!(s.both_done > 0, "no schedule ends with both sides done");
    assert!(
        s.first_doomed.is_none(),
        "{} healthy states cannot end both done, the first after: {:?}",
        s.doomed,
        s.first_doomed
    );
}

#[test]
fn every_link_schedule_delivers_exactly_once_and_ends_done_or_lost() {
    run(DEFAULT);
}

/// Deeper: three faults.
#[test]
#[ignore = "a minute in a debug build; the nightly sweep runs it"]
fn every_deeper_link_schedule_delivers_exactly_once_and_ends_done_or_lost() {
    run(Bound {
        faults: 3,
        ..DEFAULT
    });
}
