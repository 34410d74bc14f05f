//! Non-blocking operation handles.
//!
//! [`Request`] is the runtime's analogue of `MPI_Request`: returned by
//! `isend`/`irecv`, completed by `wait`/`is_complete`. A send request
//! completes when the message has been accepted by the destination (for
//! rendezvous messages this is when a matching receive took it); a receive
//! request completes when a matching message has been delivered into its
//! slot.

use crate::envelope::Status;
use crate::mailbox::{Mailbox, RecvSlot, SendHandle};
use crate::{Result, RtError};
use bytes::Bytes;
use std::sync::Arc;

enum State {
    /// Send already complete at creation (eager delivery).
    SendDone,
    /// Receive already complete (unexpected message matched at post time) —
    /// or completed by a prior `is_complete` poll.
    RecvDone(Status, Bytes),
    /// Rendezvous send waiting to be taken at the destination.
    Send(Arc<SendHandle>),
    /// Posted receive waiting for delivery.
    Recv {
        own_mailbox: Arc<Mailbox>,
        slot: Arc<RecvSlot>,
    },
}

/// Handle for an in-flight non-blocking operation.
pub struct Request {
    state: State,
}

impl Request {
    pub(crate) fn send_done() -> Self {
        Request {
            state: State::SendDone,
        }
    }

    pub(crate) fn pending_send(handle: Arc<SendHandle>) -> Self {
        Request {
            state: State::Send(handle),
        }
    }

    pub(crate) fn pending_recv(own_mailbox: Arc<Mailbox>, slot: Arc<RecvSlot>) -> Self {
        Request {
            state: State::Recv { own_mailbox, slot },
        }
    }

    /// Polls for completion without blocking. A completed receive buffers its
    /// payload inside the request until [`Request::wait`] is called.
    pub fn is_complete(&mut self) -> bool {
        match &self.state {
            State::SendDone | State::RecvDone(..) => true,
            State::Send(handle) => handle.is_done(),
            State::Recv { slot, .. } => {
                if let Some(env) = slot.take() {
                    let st = env.status();
                    self.state = State::RecvDone(st, env.payload);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Blocks until the operation completes. Returns `Some((status, data))`
    /// for receives and `None` for sends.
    pub fn wait(self) -> Result<Option<(Status, Bytes)>> {
        match self.state {
            State::SendDone => Ok(None),
            State::RecvDone(st, data) => Ok(Some((st, data))),
            State::Send(handle) => {
                handle.wait()?;
                Ok(None)
            }
            State::Recv { own_mailbox, slot } => {
                let env = own_mailbox.wait_recv(&slot)?;
                Ok(Some((env.status(), env.payload)))
            }
        }
    }
}

/// Waits on a batch of requests, returning receive payloads in request order
/// (`None` entries for sends) — the analogue of `MPI_Waitall`.
pub fn wait_all(reqs: Vec<Request>) -> Result<Vec<Option<(Status, Bytes)>>> {
    let mut out = Vec::with_capacity(reqs.len());
    let mut first_err: Option<RtError> = None;
    for r in reqs {
        match r.wait() {
            Ok(v) => out.push(v),
            Err(e) => {
                // Keep draining so no request is leaked half-waited.
                if first_err.is_none() {
                    first_err = Some(e);
                }
                out.push(None);
            }
        }
    }
    match first_err {
        None => Ok(out),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommId;
    use crate::envelope::{Context, Src, TagSel};
    use crate::mailbox::make_envelope;

    const C: CommId = CommId(3);

    #[test]
    fn send_done_is_complete() {
        let mut r = Request::send_done();
        assert!(r.is_complete());
        assert!(r.wait().unwrap().is_none());
    }

    #[test]
    fn recv_request_completes_on_delivery() {
        let mb = Arc::new(Mailbox::default());
        let slot = mb
            .post_recv(Context::Pt2pt, C, Src::Any, TagSel::Any)
            .unwrap();
        let mut req = Request::pending_recv(Arc::clone(&mb), slot);
        assert!(!req.is_complete());
        mb.deliver(make_envelope(
            Context::Pt2pt,
            C,
            1,
            1,
            4,
            Bytes::from_static(b"abc"),
        ))
        .unwrap();
        assert!(req.is_complete());
        let (st, data) = req.wait().unwrap().unwrap();
        assert_eq!(st.source, 1);
        assert_eq!(&data[..], b"abc");
    }

    #[test]
    fn poll_then_wait_does_not_lose_payload() {
        let mb = Arc::new(Mailbox::default());
        let slot = mb
            .post_recv(Context::Pt2pt, C, Src::Any, TagSel::Any)
            .unwrap();
        let mut req = Request::pending_recv(Arc::clone(&mb), slot);
        mb.deliver(make_envelope(
            Context::Pt2pt,
            C,
            0,
            0,
            1,
            Bytes::from_static(b"z"),
        ))
        .unwrap();
        assert!(req.is_complete());
        assert!(req.is_complete(), "polling twice must stay complete");
        assert_eq!(&req.wait().unwrap().unwrap().1[..], b"z");
    }

    #[test]
    fn wait_all_preserves_order() {
        let mb = Arc::new(Mailbox::default());
        let mut reqs = Vec::new();
        for tag in 0..3 {
            mb.deliver(make_envelope(
                Context::Pt2pt,
                C,
                0,
                0,
                tag,
                Bytes::from(vec![tag as u8; 1]),
            ))
            .unwrap();
            let slot = mb
                .post_recv(Context::Pt2pt, C, Src::Any, TagSel::Tag(tag))
                .unwrap();
            reqs.push(Request::pending_recv(Arc::clone(&mb), slot));
        }
        reqs.push(Request::send_done());
        let out = wait_all(reqs).unwrap();
        assert_eq!(out.len(), 4);
        for (tag, item) in out.iter().take(3).enumerate() {
            assert_eq!(item.as_ref().unwrap().1[0], tag as u8);
        }
        assert!(out[3].is_none());
    }
}
