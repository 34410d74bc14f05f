//! Message envelopes and matching rules.
//!
//! Every message in flight carries an [`EnvelopeHeader`] used for MPI-style
//! matching: the receiver selects on `(context, communicator, source, tag)`,
//! where source and tag each admit a wildcard. The `context` field separates
//! the point-to-point, collective and stream planes so that library-internal
//! traffic can never be matched by user receives (the same role MPI's
//! communicator *context id* plays).

use crate::comm::CommId;
use bytes::Bytes;

/// Wildcard tag value (mirrors `MPI_ANY_TAG` when used through [`TagSel`]).
pub const ANY_TAG: i32 = -1;

/// Communication plane of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Context {
    /// User point-to-point traffic.
    Pt2pt,
    /// Collective-internal traffic (never visible to user receives).
    Coll,
    /// VMPI stream traffic (block transport and control).
    Stream,
}

/// Source selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Match any source rank (`MPI_ANY_SOURCE`).
    Any,
    /// Match one specific communicator-local rank.
    Rank(usize),
}

/// Tag selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match any tag (`MPI_ANY_TAG`).
    Any,
    /// Match one specific tag.
    Tag(i32),
}

impl TagSel {
    pub(crate) fn matches(self, tag: i32) -> bool {
        match self {
            TagSel::Any => true,
            TagSel::Tag(t) => t == tag,
        }
    }
}

/// Completion information returned by receives and probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Communicator-local rank of the sender.
    pub source: usize,
    /// Tag the message was sent with.
    pub tag: i32,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// Matching header of an in-flight message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeHeader {
    pub ctx: Context,
    pub comm: CommId,
    /// Sender's communicator-local rank (what the receiver matches against).
    pub src_local: usize,
    /// Sender's world rank (for diagnostics and stream bookkeeping).
    pub src_world: usize,
    pub tag: i32,
}

/// A complete in-flight message.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub header: EnvelopeHeader,
    pub payload: Bytes,
    /// The sender waits until a receive holds the message (rendezvous): a
    /// synchronous-mode send (`MPI_Issend`), or a standard one over
    /// [`crate::Universe::DEFAULT_EAGER_LIMIT`] bytes. Otherwise the
    /// send completes at delivery (eager). Local only: a link delivers
    /// what it carries eagerly, its sender having completed at the link.
    pub sync: bool,
}

impl Envelope {
    /// Does this message satisfy a receive posted with the given selectors?
    pub fn matches(&self, ctx: Context, comm: CommId, src: Src, tag: TagSel) -> bool {
        if self.header.ctx != ctx || self.header.comm != comm {
            return false;
        }
        let src_ok = match src {
            Src::Any => true,
            Src::Rank(r) => self.header.src_local == r,
        };
        src_ok && tag.matches(self.header.tag)
    }

    /// Status as seen by the receiver.
    pub fn status(&self) -> Status {
        Status {
            source: self.header.src_local,
            tag: self.header.tag,
            bytes: self.payload.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: i32) -> Envelope {
        Envelope {
            header: EnvelopeHeader {
                ctx: Context::Pt2pt,
                comm: CommId(42),
                src_local: src,
                src_world: src,
                tag,
            },
            payload: Bytes::from_static(b"xy"),
            sync: false,
        }
    }

    #[test]
    fn exact_match() {
        let e = env(3, 7);
        assert!(e.matches(Context::Pt2pt, CommId(42), Src::Rank(3), TagSel::Tag(7)));
    }

    #[test]
    fn wildcards_match() {
        let e = env(3, 7);
        assert!(e.matches(Context::Pt2pt, CommId(42), Src::Any, TagSel::Any));
        assert!(e.matches(Context::Pt2pt, CommId(42), Src::Any, TagSel::Tag(7)));
        assert!(e.matches(Context::Pt2pt, CommId(42), Src::Rank(3), TagSel::Any));
    }

    #[test]
    fn wrong_fields_do_not_match() {
        let e = env(3, 7);
        assert!(!e.matches(Context::Pt2pt, CommId(41), Src::Any, TagSel::Any));
        assert!(!e.matches(Context::Coll, CommId(42), Src::Any, TagSel::Any));
        assert!(!e.matches(Context::Pt2pt, CommId(42), Src::Rank(2), TagSel::Any));
        assert!(!e.matches(Context::Pt2pt, CommId(42), Src::Any, TagSel::Tag(8)));
    }

    #[test]
    fn status_reflects_envelope() {
        let e = env(5, 9);
        assert_eq!(
            e.status(),
            Status {
                source: 5,
                tag: 9,
                bytes: 2
            }
        );
    }
}
