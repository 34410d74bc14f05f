//! Connection set-up: the byte-stream plumbing over TCP and Unix sockets,
//! the coordinator's hello / roster exchange and a link's presentation.

use super::obs;
use super::wire::{
    decode_hello, decode_reconn, decode_roster, encode_hello, encode_reconn, encode_roster,
    HelloReject,
};
use super::{Endpoint, SocketError};
use bytes::Bytes;
use opmr_events::{frame, FrameBuf};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime};

/// Per-connection budget for reading a single handshake frame (a hello
/// or a link presentation), so a stalled rogue connection cannot eat the
/// whole handshake budget.
pub(super) const HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// One enum over TCP / Unix streams.
pub(super) enum SockStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl SockStream {
    pub(super) fn try_clone(&self) -> std::io::Result<SockStream> {
        Ok(match self {
            SockStream::Tcp(s) => SockStream::Tcp(s.try_clone()?),
            SockStream::Unix(s) => SockStream::Unix(s.try_clone()?),
        })
    }

    pub(super) fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.set_read_timeout(d),
            SockStream::Unix(s) => s.set_read_timeout(d),
        }
    }

    pub(super) fn shutdown_both(&self) {
        let _ = match self {
            SockStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            SockStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    pub(super) fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.read(buf),
            SockStream::Unix(s) => s.read(buf),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.write_all(buf),
            SockStream::Unix(s) => s.write_all(buf),
        }
    }
}

/// A set-up I/O failure, typed.
pub(super) fn io_err(during: &'static str) -> impl Fn(std::io::Error) -> SocketError {
    move |e| SocketError::Io {
        during,
        detail: e.to_string(),
    }
}

pub(super) enum SockListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl SockListener {
    pub(super) fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            SockListener::Tcp(l) => l.set_nonblocking(on),
            SockListener::Unix(l) => l.set_nonblocking(on),
        }
    }

    pub(super) fn accept(&self) -> std::io::Result<SockStream> {
        match self {
            SockListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                Ok(SockStream::Tcp(s))
            }
            SockListener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(SockStream::Unix(s))
            }
        }
    }
}

/// The address process `i` listens on, and how to advertise it.
pub(super) fn listen_endpoint(endpoint: &Endpoint, proc_index: usize) -> Endpoint {
    if proc_index == 0 {
        return endpoint.clone();
    }
    match endpoint {
        // Ephemeral loopback port; the real address is advertised via Hello.
        Endpoint::Tcp(_) => Endpoint::Tcp("127.0.0.1:0".to_string()),
        Endpoint::Unix(p) => {
            let mut os = p.clone().into_os_string();
            os.push(format!(".p{proc_index}"));
            Endpoint::Unix(PathBuf::from(os))
        }
    }
}

/// Binds a non-blocking listener (the coordinator's hello loop polls it
/// against its deadline) and says how to advertise it.
pub(super) fn bind(endpoint: &Endpoint) -> Result<(SockListener, String), SocketError> {
    let bind_err = |e: std::io::Error| SocketError::Bind {
        addr: endpoint.describe(),
        detail: e.to_string(),
    };
    match endpoint {
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr).map_err(bind_err)?;
            l.set_nonblocking(true).map_err(bind_err)?;
            let advertised = l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.clone());
            Ok((SockListener::Tcp(l), format!("tcp:{advertised}")))
        }
        Endpoint::Unix(path) => {
            // A stale socket file from a previous run would fail the bind.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path).map_err(bind_err)?;
            l.set_nonblocking(true).map_err(bind_err)?;
            Ok((SockListener::Unix(l), format!("unix:{}", path.display())))
        }
    }
}

/// One connect attempt, no retry loop.
pub(super) fn dial_once(addr: &str) -> Result<SockStream, SocketError> {
    let attempt = if let Some(a) = addr.strip_prefix("tcp:") {
        TcpStream::connect(a).map(|s| {
            let _ = s.set_nodelay(true);
            SockStream::Tcp(s)
        })
    } else if let Some(p) = addr.strip_prefix("unix:") {
        UnixStream::connect(p).map(SockStream::Unix)
    } else {
        return Err(SocketError::Handshake {
            addr: addr.to_string(),
            what: "unparseable peer address in roster".to_string(),
        });
    };
    attempt.map_err(io_err("dial"))
}

/// Dials the coordinator until it answers or `deadline` passes.
fn dial(addr: &str, deadline: Instant, waited: Duration) -> Result<SockStream, SocketError> {
    loop {
        match dial_once(addr) {
            Ok(s) => return Ok(s),
            Err(e @ SocketError::Handshake { .. }) => return Err(e),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                obs::m().connect_timeouts.inc();
                return Err(SocketError::ConnectTimeout {
                    addr: addr.to_string(),
                    waited_ms: waited.as_millis() as u64,
                });
            }
        }
    }
}

/// Reads exactly one frame from a handshake-phase connection, keeping any
/// over-read bytes in `fb` for the subsequent reader thread.
fn read_one_frame(
    stream: &mut SockStream,
    fb: &mut FrameBuf,
    deadline: Instant,
    addr: &str,
) -> Result<Bytes, SocketError> {
    let fail = |what: String| SocketError::Handshake {
        addr: addr.to_string(),
        what,
    };
    let timed_out = || fail("timed out waiting for a handshake frame".to_string());
    let mut buf = [0u8; 16 * 1024];
    loop {
        match fb.next_frame() {
            Ok(Some(p)) => return Ok(p),
            Ok(None) => {}
            Err(e) => return Err(fail(format!("unframeable bytes on the wire: {e}"))),
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(timed_out());
        }
        let _ = stream.set_read_timeout(Some(deadline - now));
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(fail(
                    "peer closed the connection during the handshake".to_string(),
                ))
            }
            Ok(n) => fb.push(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(timed_out())
            }
            Err(e) => return Err(io_err("handshake read")(e)),
        }
    }
}

/// Frames and writes one unsequenced frame (handshake, ack).
pub(super) fn write_frame(stream: &mut SockStream, payload: &[u8]) -> std::io::Result<()> {
    write_framed(stream, &frame(payload))
}

/// Writes one already-framed frame.
pub(super) fn write_framed(stream: &mut SockStream, framed: &[u8]) -> std::io::Result<()> {
    stream.write_all(framed)?;
    obs::m().frames_sent.inc();
    obs::m().bytes_sent.add(framed.len() as u64);
    Ok(())
}

/// What the coordinator hello / roster exchange yields: the session epoch
/// and every process's advertised address. The hello connections close
/// after it; every link, the coordinator's included, is dialed.
pub(super) struct Session {
    pub(super) epoch: u64,
    pub(super) roster: Vec<String>,
}

/// One admitted hello: the process, its connection and the listen
/// address it advertises.
type Hello = (usize, SockStream, String);

/// The coordinator's accept loop: one hello from each process `1..n`.
/// Any other hello — garbled, for another topology, out of range or for
/// an index already admitted — is rejected, counted and closed, and the
/// wait goes on until `deadline`.
pub(super) fn accept_hellos(
    listener: &SockListener,
    n: usize,
    deadline: Instant,
    topo_hash: u64,
) -> Result<Vec<Hello>, SocketError> {
    let started = Instant::now();
    let admit = 1..n;
    let mut admitted: Vec<Hello> = Vec::with_capacity(admit.len());
    while admitted.len() < admit.len() {
        match listener.accept() {
            Ok(mut s) => {
                let mut fb = FrameBuf::new();
                let hello_deadline = deadline.min(Instant::now() + HELLO_TIMEOUT);
                let hello = read_one_frame(&mut s, &mut fb, hello_deadline, "incoming")
                    .map_err(|e| HelloReject(e.to_string()))
                    .and_then(|p| decode_hello(&p, topo_hash));
                match hello {
                    Ok((proc, addr))
                        if admit.contains(&proc) && !admitted.iter().any(|h| h.0 == proc) =>
                    {
                        admitted.push((proc, s, addr));
                    }
                    _ => {
                        obs::m().handshake_rejected.inc();
                        s.shutdown_both();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    obs::m().connect_timeouts.inc();
                    return Err(SocketError::AcceptTimeout {
                        waited_ms: started.elapsed().as_millis() as u64,
                        missing: admit.len() - admitted.len(),
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err("accept")(e)),
        }
    }
    Ok(admitted)
}

/// Process 0's half of the exchange: collect a hello from every other
/// process, then broadcast the roster of listen addresses with a fresh
/// session epoch.
pub(super) fn coordinate(
    listener: &SockListener,
    my_addr: String,
    n: usize,
    deadline: Instant,
    topo_hash: u64,
) -> Result<Session, SocketError> {
    let epoch = session_epoch();
    let mut roster = vec![String::new(); n];
    roster[0] = my_addr;
    let mut hellos = accept_hellos(listener, n, deadline, topo_hash)?;
    for (proc, _, addr) in &mut hellos {
        roster[*proc] = std::mem::take(addr);
    }
    let payload = encode_roster(epoch, &roster);
    for (_, s, _) in &mut hellos {
        write_frame(s, &payload).map_err(io_err("roster broadcast"))?;
    }
    Ok(Session { epoch, roster })
}

/// A non-coordinator's half: dial the coordinator, say hello, learn the
/// roster.
pub(super) fn join(
    endpoint: &Endpoint,
    me: usize,
    n: usize,
    my_addr: &str,
    timeout: Duration,
    topo_hash: u64,
) -> Result<Session, SocketError> {
    let deadline = Instant::now() + timeout;
    let coord_addr = endpoint.describe();
    let mut coord = dial(&coord_addr, deadline, timeout)?;
    write_frame(&mut coord, &encode_hello(me, topo_hash, my_addr)).map_err(io_err("hello send"))?;
    let roster_frame = read_one_frame(&mut coord, &mut FrameBuf::new(), deadline, &coord_addr)?;
    let (epoch, roster) = decode_roster(&roster_frame).ok_or_else(|| {
        obs::m().handshake_rejected.inc();
        SocketError::Handshake {
            addr: coord_addr.clone(),
            what: "coordinator sent an invalid roster".to_string(),
        }
    })?;
    if roster.len() != n {
        return Err(SocketError::Handshake {
            addr: coord_addr,
            what: format!("roster lists {} processes, expected {n}", roster.len()),
        });
    }
    Ok(Session { epoch, roster })
}

/// The dialing side's presentation of a link (epoch, frames received):
/// the connection, its over-read bytes and the acceptor's reply.
pub(super) fn present(
    addr: &str,
    me: usize,
    epoch: u64,
    rx_seq: u64,
    deadline: Instant,
) -> Option<(SockStream, FrameBuf, Bytes)> {
    let mut s = dial_once(addr).ok()?;
    write_frame(&mut s, &encode_reconn(me, epoch, rx_seq)).ok()?;
    let mut fb = FrameBuf::new();
    let reply = read_one_frame(&mut s, &mut fb, deadline, addr).ok()?;
    Some((s, fb, reply))
}

/// The accepting side's read of a presentation: `(proc, epoch, rx_seq)`
/// and the over-read bytes, or `None` (rejected and counted).
pub(super) fn read_presentation(s: &mut SockStream) -> Option<(usize, u64, u64, FrameBuf)> {
    let mut fb = FrameBuf::new();
    let deadline = Instant::now() + HELLO_TIMEOUT;
    let frame = read_one_frame(s, &mut fb, deadline, "presentation").ok()?;
    let (proc, epoch, rx) = decode_reconn(&frame).ok()?;
    Some((proc, epoch, rx, fb))
}

/// Deterministic hash of the topology every process must agree on.
pub(super) fn topology_hash(num_procs: usize, rank_owner: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = h.rotate_left(27).wrapping_mul(0x1000_0000_01B3);
    };
    mix(num_procs as u64);
    mix(rank_owner.len() as u64);
    for &o in rank_owner {
        mix(o as u64);
    }
    h
}

/// A fresh session epoch, unique enough to reject a redial from a stale
/// job that found the same endpoint: wall-clock nanoseconds mixed with
/// the coordinator's pid.
fn session_epoch() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED_5EED);
    let mut h = nanos ^ ((std::process::id() as u64) << 32);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    // Epoch 0 is reserved as "no session" so a zeroed frame never matches.
    h.max(1)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
    use super::*;

    /// The coordinator's accept loop admits each index in `1..n` once; a
    /// duplicate or out-of-range hello is rejected, counted and closed
    /// while the loop keeps waiting.
    #[test]
    fn accept_loop_admits_each_index_once_and_rejects_the_rest() {
        let path = std::env::temp_dir().join(format!("opmr-accept-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        listener.set_nonblocking(true).unwrap();
        let listener = SockListener::Unix(listener);
        let dial_path = path.clone();
        let peers = std::thread::spawn(move || {
            [2usize, 2, 9, 1].map(|proc| {
                let mut s = UnixStream::connect(&dial_path).unwrap();
                let hello = encode_hello(proc, 0xABCD, &format!("unix:/p{proc}"));
                s.write_all(&opmr_events::try_frame(&hello).unwrap())
                    .unwrap();
                s
            })
        });
        let rejected0 = obs::m().handshake_rejected.get();
        let deadline = Instant::now() + Duration::from_secs(10);
        let admitted = accept_hellos(&listener, 3, deadline, 0xABCD).unwrap();
        let _conns = peers.join().unwrap();
        let _ = std::fs::remove_file(&path);
        let got: Vec<(usize, &str)> = admitted
            .iter()
            .map(|(proc, _, addr)| (*proc, addr.as_str()))
            .collect();
        assert_eq!(got, vec![(2, "unix:/p2"), (1, "unix:/p1")]);
        assert_eq!(obs::m().handshake_rejected.get() - rejected0, 2);
    }

    #[test]
    fn session_epochs_are_nonzero_and_distinct_across_time() {
        let a = session_epoch();
        assert_ne!(a, 0);
        // Two calls in a row *may* collide within clock resolution, but
        // a sample of many must produce at least two distinct values.
        let distinct: std::collections::HashSet<u64> = (0..64)
            .map(|_| {
                std::thread::sleep(Duration::from_micros(50));
                session_epoch()
            })
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn topology_hash_is_order_sensitive() {
        let a = topology_hash(2, &[0, 0, 1]);
        let b = topology_hash(2, &[0, 1, 0]);
        let c = topology_hash(3, &[0, 0, 1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, topology_hash(2, &[0, 0, 1]));
    }
}
