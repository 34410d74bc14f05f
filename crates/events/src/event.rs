//! The event record and the intercepted-call taxonomy.

/// Kind of intercepted call (or synthetic marker) an [`Event`] describes.
///
/// The numeric discriminants are part of the Fixed wire format, and the
/// order of [`EventKind::ALL`] is part of the Delta one (a row's head
/// carries the kind's position there in five bits, which `codec.rs`
/// asserts at compile time): both are append only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u16)]
pub enum EventKind {
    // Lifecycle --------------------------------------------------------
    Init = 0,
    Finalize = 1,
    // Point-to-point ----------------------------------------------------
    Send = 10,
    Recv = 11,
    Isend = 12,
    Irecv = 13,
    Sendrecv = 14,
    Wait = 15,
    Waitall = 16,
    Probe = 17,
    // Collectives -------------------------------------------------------
    Barrier = 30,
    Bcast = 31,
    Reduce = 32,
    Allreduce = 33,
    Gather = 34,
    Allgather = 35,
    Scatter = 36,
    Alltoall = 37,
    // Communicator management --------------------------------------------
    CommSplit = 50,
    CommDup = 51,
    // POSIX-like I/O ------------------------------------------------------
    PosixOpen = 70,
    PosixClose = 71,
    PosixRead = 72,
    PosixWrite = 73,
    // Synthetic ----------------------------------------------------------
    /// Pure computation interval between communication calls.
    Compute = 90,
    /// User-defined phase marker.
    Marker = 91,
}

impl EventKind {
    /// All kinds, for iteration in tests and reports. The order is wire:
    /// a Delta row names its kind by [`EventKind::index`].
    pub const ALL: [EventKind; 26] = [
        EventKind::Init,
        EventKind::Finalize,
        EventKind::Send,
        EventKind::Recv,
        EventKind::Isend,
        EventKind::Irecv,
        EventKind::Sendrecv,
        EventKind::Wait,
        EventKind::Waitall,
        EventKind::Probe,
        EventKind::Barrier,
        EventKind::Bcast,
        EventKind::Reduce,
        EventKind::Allreduce,
        EventKind::Gather,
        EventKind::Allgather,
        EventKind::Scatter,
        EventKind::Alltoall,
        EventKind::CommSplit,
        EventKind::CommDup,
        EventKind::PosixOpen,
        EventKind::PosixClose,
        EventKind::PosixRead,
        EventKind::PosixWrite,
        EventKind::Compute,
        EventKind::Marker,
    ];

    /// Discriminant → kind, one slot per value up to the largest
    /// discriminant (`Marker` = 91), built from [`EventKind::ALL`] at
    /// compile time so a decode is one bounds check and one load.
    const BY_DISCRIMINANT: [Option<EventKind>; EventKind::Marker as usize + 1] = {
        let mut table = [None; EventKind::Marker as usize + 1];
        let mut i = 0;
        while i < EventKind::ALL.len() {
            let kind = EventKind::ALL[i];
            table[kind as usize] = Some(kind);
            i += 1;
        }
        table
    };

    /// Discriminant → position in [`EventKind::ALL`].
    const INDEX_BY_DISCRIMINANT: [u8; EventKind::Marker as usize + 1] = {
        let mut table = [0; EventKind::Marker as usize + 1];
        let mut i = 0;
        while i < EventKind::ALL.len() {
            table[EventKind::ALL[i] as usize] = i as u8;
            i += 1;
        }
        table
    };

    /// The kind's position in [`EventKind::ALL`]: the dense index a Delta
    /// row's head byte carries.
    #[inline]
    pub const fn index(self) -> u8 {
        EventKind::INDEX_BY_DISCRIMINANT[self as usize]
    }

    /// Decodes a wire discriminant.
    #[inline]
    pub fn from_u16(v: u16) -> Option<EventKind> {
        EventKind::BY_DISCRIMINANT
            .get(v as usize)
            .copied()
            .flatten()
    }

    /// Canonical display name (`MPI_Send`, `write`, ...).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Init => "MPI_Init",
            EventKind::Finalize => "MPI_Finalize",
            EventKind::Send => "MPI_Send",
            EventKind::Recv => "MPI_Recv",
            EventKind::Isend => "MPI_Isend",
            EventKind::Irecv => "MPI_Irecv",
            EventKind::Sendrecv => "MPI_Sendrecv",
            EventKind::Wait => "MPI_Wait",
            EventKind::Waitall => "MPI_Waitall",
            EventKind::Probe => "MPI_Probe",
            EventKind::Barrier => "MPI_Barrier",
            EventKind::Bcast => "MPI_Bcast",
            EventKind::Reduce => "MPI_Reduce",
            EventKind::Allreduce => "MPI_Allreduce",
            EventKind::Gather => "MPI_Gather",
            EventKind::Allgather => "MPI_Allgather",
            EventKind::Scatter => "MPI_Scatter",
            EventKind::Alltoall => "MPI_Alltoall",
            EventKind::CommSplit => "MPI_Comm_split",
            EventKind::CommDup => "MPI_Comm_dup",
            EventKind::PosixOpen => "open",
            EventKind::PosixClose => "close",
            EventKind::PosixRead => "read",
            EventKind::PosixWrite => "write",
            EventKind::Compute => "compute",
            EventKind::Marker => "marker",
        }
    }

    /// Point-to-point data movement (send or receive side).
    pub fn is_p2p(self) -> bool {
        matches!(
            self,
            EventKind::Send
                | EventKind::Recv
                | EventKind::Isend
                | EventKind::Irecv
                | EventKind::Sendrecv
        )
    }

    /// Sending half of a point-to-point transfer.
    pub fn is_p2p_send(self) -> bool {
        matches!(
            self,
            EventKind::Send | EventKind::Isend | EventKind::Sendrecv
        )
    }

    /// Collective operation.
    pub fn is_collective(self) -> bool {
        matches!(
            self,
            EventKind::Barrier
                | EventKind::Bcast
                | EventKind::Reduce
                | EventKind::Allreduce
                | EventKind::Gather
                | EventKind::Allgather
                | EventKind::Scatter
                | EventKind::Alltoall
        )
    }

    /// Request-completion call (`MPI_Wait` family).
    pub fn is_wait(self) -> bool {
        matches!(self, EventKind::Wait | EventKind::Waitall)
    }

    /// Data-movement call (point-to-point or collective) — the "transfer"
    /// half of the serialization/transfer decomposition, as opposed to
    /// request completion ([`EventKind::is_wait`]) and control calls.
    pub fn is_transfer(self) -> bool {
        self.is_p2p() || self.is_collective()
    }

    /// POSIX-like file I/O.
    pub fn is_posix(self) -> bool {
        matches!(
            self,
            EventKind::PosixOpen
                | EventKind::PosixClose
                | EventKind::PosixRead
                | EventKind::PosixWrite
        )
    }

    /// Any MPI call (everything that is not POSIX or synthetic).
    pub fn is_mpi(self) -> bool {
        !self.is_posix() && !matches!(self, EventKind::Compute | EventKind::Marker)
    }
}

/// One intercepted call. Fixed-size, directly streamed (48 bytes on wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Call entry timestamp, nanoseconds since application `MPI_Init`.
    pub time_ns: u64,
    /// Time spent inside the call, nanoseconds.
    pub duration_ns: u64,
    /// Which call this is.
    pub kind: EventKind,
    /// Partition-local rank that issued the call.
    pub rank: u32,
    /// Peer rank for point-to-point (destination for sends, matched source
    /// for receives), root for rooted collectives, `-1` otherwise.
    pub peer: i32,
    /// Message tag for point-to-point, `-1` otherwise.
    pub tag: i32,
    /// Dense communicator index within the application (0 = its world).
    pub comm: u32,
    /// Payload bytes moved by the call (0 when not applicable).
    pub bytes: u64,
}

impl Event {
    /// A minimal event with the given kind/rank/time, other fields neutral.
    pub fn basic(kind: EventKind, rank: u32, time_ns: u64, duration_ns: u64) -> Event {
        Event {
            time_ns,
            duration_ns,
            kind,
            rank,
            peer: -1,
            tag: -1,
            comm: 0,
            bytes: 0,
        }
    }

    /// End timestamp of the call.
    pub fn end_ns(&self) -> u64 {
        self.time_ns + self.duration_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_roundtrip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u16(k as u16), Some(k), "{}", k.name());
        }
        assert_eq!(EventKind::from_u16(9999), None);
    }

    #[test]
    fn from_u16_agrees_with_the_discriminant_list_everywhere() {
        for v in 0..=u16::MAX {
            let listed = EventKind::ALL.iter().copied().find(|k| *k as u16 == v);
            assert_eq!(EventKind::from_u16(v), listed, "discriminant {v}");
        }
    }

    #[test]
    fn the_order_of_all_is_pinned_because_it_is_wire() {
        // A Delta row names its kind by position in `ALL`: reordering the
        // list, or inserting anywhere but the end, re-labels recorded rows.
        let discriminants: Vec<u16> = EventKind::ALL.iter().map(|&k| k as u16).collect();
        assert_eq!(
            discriminants,
            [
                0, 1, 10, 11, 12, 13, 14, 15, 16, 17, 30, 31, 32, 33, 34, 35, 36, 37, 50, 51, 70,
                71, 72, 73, 90, 91
            ]
        );
        for (i, k) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index() as usize, i, "{}", k.name());
        }
    }

    #[test]
    fn taxonomy_is_a_partition() {
        for k in EventKind::ALL {
            let classes = [
                k.is_p2p(),
                k.is_collective(),
                k.is_wait(),
                k.is_posix(),
                matches!(k, EventKind::Compute | EventKind::Marker),
                matches!(
                    k,
                    EventKind::Init
                        | EventKind::Finalize
                        | EventKind::Probe
                        | EventKind::CommSplit
                        | EventKind::CommDup
                ),
            ];
            assert_eq!(
                classes.iter().filter(|&&c| c).count(),
                1,
                "{} must be in exactly one class",
                k.name()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn mpi_classification() {
        assert!(EventKind::Send.is_mpi());
        assert!(EventKind::Barrier.is_mpi());
        assert!(!EventKind::PosixRead.is_mpi());
        assert!(!EventKind::Compute.is_mpi());
        assert!(EventKind::Isend.is_p2p_send());
        assert!(!EventKind::Irecv.is_p2p_send());
    }

    #[test]
    fn transfer_excludes_waits_and_control() {
        assert!(EventKind::Send.is_transfer());
        assert!(EventKind::Irecv.is_transfer());
        assert!(EventKind::Allreduce.is_transfer());
        assert!(!EventKind::Wait.is_transfer());
        assert!(!EventKind::Waitall.is_transfer());
        assert!(!EventKind::Init.is_transfer());
        assert!(!EventKind::PosixWrite.is_transfer());
    }

    #[test]
    fn end_time() {
        let e = Event::basic(EventKind::Send, 0, 100, 20);
        assert_eq!(e.end_ns(), 120);
    }
}
