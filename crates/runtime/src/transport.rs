//! Pluggable envelope transport.
//!
//! Everything above this seam — the mailbox matching engine, the
//! eager/rendezvous protocol split, [`crate::FaultPlan`] injection (it
//! runs in `Mpi::deliver_env`, *before* the transport is asked to move
//! the envelope), obs counters and the typed `PeerLost`/shutdown
//! semantics — is backend-independent. A [`Transport`] only has to answer
//! four questions:
//!
//! 1. *deliver*: hand an [`Envelope`] to the mailbox of `dst_world`,
//!    wherever that mailbox lives;
//! 2. *local_mailbox*: which ranks' mailboxes are hosted in this process
//!    (receives always happen on a local mailbox);
//! 3. *rank_alive*: is a rank's entry point still running — the liveness
//!    bit stream readers use to tell "no data yet" from "writer is gone";
//! 4. *teardown*: propagate `mark_rank_done` / `shutdown_all` to every
//!    process hosting part of the job.
//!
//! [`InProc`] is the original single-process backend: one mailbox and one
//! liveness flag per rank, all in this address space. The socket backend
//! lives in [`crate::socket`] and must pass the same conformance suite
//! (`tests/transport_conformance.rs`) — as must any future backend.
//!
//! # Delivery contract
//!
//! * Reliable: `deliver` hands over exactly one envelope, or fails with
//!   [`crate::RtError::Unreachable`]. Nothing above the trait retries,
//!   deduplicates or reorders; a backend that can lose bytes (the socket
//!   link) recovers them itself.
//! * FIFO per (source, destination): two envelopes sent by the same rank
//!   to the same destination arrive in send order (MPI non-overtaking).
//! * `deliver` to a rank whose mailbox is local applies the
//!   eager/rendezvous split and may return [`Delivery::Pending`]; the
//!   sender then blocks on the *local* destination mailbox.
//! * `deliver` to a remote rank always completes eagerly from the
//!   sender's point of view ([`Delivery::Complete`]); back-pressure is
//!   the byte stream's flow control.
//! * Once `rank_alive(r)` returns `false`, every envelope `r` ever sent
//!   is already delivered (or the peer connection is gone, which readers
//!   surface as a typed peer-lost error). Backends must order the
//!   "rank done" signal *after* the rank's last envelope.

use crate::envelope::Envelope;
use crate::mailbox::{Delivery, Mailbox};
use crate::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Moves envelopes between ranks and tracks rank liveness.
///
/// See the module docs for the delivery contract every implementation
/// must honour; `tests/transport_conformance.rs` checks it per backend.
pub trait Transport: Send + Sync {
    /// Total number of ranks in the job (across all processes).
    fn world_size(&self) -> usize;

    /// Short backend identifier ("inproc", "socket") for diagnostics.
    fn backend_name(&self) -> &'static str;

    /// Delivers one envelope to `dst_world`'s mailbox, applying the
    /// eager/rendezvous split at `eager_limit` bytes for local
    /// destinations.
    fn deliver(&self, dst_world: usize, env: Envelope, eager_limit: usize) -> Result<Delivery>;

    /// The mailbox of `world_rank` when it is hosted in this process.
    fn local_mailbox(&self, world_rank: usize) -> Option<&Arc<Mailbox>>;

    /// True while `world_rank`'s entry point is still running.
    fn rank_alive(&self, world_rank: usize) -> bool;

    /// Marks a (local) rank's entry point as returned and propagates the
    /// fact to every process, *after* all the rank's sends. Wherever the
    /// flag drops, every local mailbox is [`Mailbox::bump`]ed afterwards,
    /// so a reader parked in `wait_delivery` re-checks liveness.
    fn mark_rank_done(&self, world_rank: usize);

    /// Wakes every blocked rank in the whole job with
    /// [`crate::RtError::Shutdown`] (job teardown after a failure).
    fn shutdown_all(&self);

    /// Called once per process after all locally hosted ranks have been
    /// joined: drain and close cross-process connections. In-process
    /// backends have nothing to do.
    fn finalize_local(&self) {}
}

/// The original single-process backend: every rank is a thread in this
/// address space, one [`Mailbox`] and one liveness flag per rank.
pub struct InProc {
    mailboxes: Vec<Arc<Mailbox>>,
    /// One liveness flag per rank, cleared when the rank's entry returns
    /// (normally or by panic). Stream readers use this to distinguish
    /// "no data yet" from "the writer is gone".
    alive: Vec<AtomicBool>,
}

impl InProc {
    /// Builds the backend for a world of `total` ranks.
    pub fn new(total: usize) -> Self {
        InProc {
            mailboxes: (0..total).map(|_| Arc::new(Mailbox::default())).collect(),
            alive: (0..total).map(|_| AtomicBool::new(true)).collect(),
        }
    }
}

impl Transport for InProc {
    fn world_size(&self) -> usize {
        self.mailboxes.len()
    }

    fn backend_name(&self) -> &'static str {
        "inproc"
    }

    fn deliver(&self, dst_world: usize, env: Envelope, eager_limit: usize) -> Result<Delivery> {
        self.mailboxes[dst_world].deliver(env, eager_limit)
    }

    fn local_mailbox(&self, world_rank: usize) -> Option<&Arc<Mailbox>> {
        self.mailboxes.get(world_rank)
    }

    fn rank_alive(&self, world_rank: usize) -> bool {
        self.alive[world_rank].load(Ordering::Acquire)
    }

    fn mark_rank_done(&self, world_rank: usize) {
        self.alive[world_rank].store(false, Ordering::Release);
        // Readers parked on their mailbox learn of the exit now, not at a
        // timeout.
        for mb in &self.mailboxes {
            mb.bump();
        }
    }

    fn shutdown_all(&self) {
        for mb in &self.mailboxes {
            mb.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommId;
    use crate::envelope::{Context, Src, TagSel};
    use crate::mailbox::make_envelope;
    use bytes::Bytes;

    #[test]
    fn inproc_hosts_every_mailbox() {
        let t = InProc::new(3);
        assert_eq!(t.world_size(), 3);
        assert_eq!(t.backend_name(), "inproc");
        for r in 0..3 {
            assert!(t.local_mailbox(r).is_some());
            assert!(t.rank_alive(r));
        }
        assert!(t.local_mailbox(3).is_none());
    }

    #[test]
    fn inproc_deliver_reaches_the_destination_mailbox() {
        let t = InProc::new(2);
        let env = make_envelope(
            Context::Pt2pt,
            CommId(1),
            0,
            0,
            7,
            Bytes::from_static(b"hi"),
        );
        assert!(matches!(t.deliver(1, env, 64), Ok(Delivery::Complete)));
        let got = t
            .local_mailbox(1)
            .and_then(|mb| {
                mb.try_take(Context::Pt2pt, CommId(1), Src::Any, TagSel::Any)
                    .ok()
                    .flatten()
            })
            .map(|e| e.payload);
        assert_eq!(got.as_deref(), Some(&b"hi"[..]));
    }

    #[test]
    fn inproc_liveness_and_shutdown() {
        let t = InProc::new(2);
        t.mark_rank_done(0);
        assert!(!t.rank_alive(0));
        assert!(t.rank_alive(1));
        t.shutdown_all();
        let err = t
            .local_mailbox(1)
            .map(|mb| mb.try_take(Context::Pt2pt, CommId(1), Src::Any, TagSel::Any));
        assert!(matches!(err, Some(Err(crate::RtError::Shutdown))));
    }
}
