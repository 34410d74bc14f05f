//! Property-based tests for the runtime's invariants.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use bytes::Bytes;
use opmr_runtime::pod::{bytes_of_slice, vec_from_bytes};
use opmr_runtime::{Launcher, Src, TagSel, Universe};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// POD slice encode/decode is the identity.
    #[test]
    fn pod_roundtrip_u64(data in proptest::collection::vec(any::<u64>(), 0..256)) {
        let b = bytes_of_slice(&data);
        prop_assert_eq!(vec_from_bytes::<u64>(&b).unwrap(), data);
    }

    #[test]
    fn pod_roundtrip_f64(data in proptest::collection::vec(any::<f64>(), 0..128)) {
        let b = bytes_of_slice(&data);
        let back = vec_from_bytes::<f64>(&b).unwrap();
        prop_assert_eq!(back.len(), data.len());
        for (a, b) in back.iter().zip(&data) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Every message injected between a random pair arrives exactly once,
    /// in order, regardless of eager/rendezvous mix: sizes straddle the
    /// eager limit.
    #[test]
    fn pairwise_delivery_exactly_once(
        sizes in proptest::collection::vec(
            Universe::DEFAULT_EAGER_LIMIT - 2048..Universe::DEFAULT_EAGER_LIMIT + 2048,
            1..24,
        ),
    ) {
        let sizes2 = sizes.clone();
        Launcher::new()
            .partition("p", 2, move |mpi| {
                let w = mpi.world();
                if w.local_rank() == 0 {
                    for (i, &len) in sizes2.iter().enumerate() {
                        mpi.send(&w, 1, 0, Bytes::from(vec![i as u8; len])).unwrap();
                    }
                } else {
                    for (i, &len) in sizes2.iter().enumerate() {
                        let (_s, data) = mpi.recv(&w, Src::Rank(0), TagSel::Tag(0)).unwrap();
                        assert_eq!(data.len(), len, "message {i} size");
                        assert!(data.iter().all(|&b| b == i as u8), "message {i} content");
                    }
                }
            })
            .run()
            .unwrap();
    }

    /// Allreduce(sum) over random vectors equals the local fold on every rank.
    #[test]
    fn allreduce_equals_fold(
        n_ranks in 2usize..9,
        per_rank in proptest::collection::vec(0i64..1_000_000, 1..8),
    ) {
        let vals: Vec<i64> = (0..n_ranks).map(|r| per_rank[r % per_rank.len()]).collect();
        let expect: i64 = vals.iter().sum();
        let vals2 = vals.clone();
        Launcher::new()
            .partition("p", n_ranks, move |mpi| {
                let w = mpi.world();
                let mine = vals2[w.local_rank()];
                let got = mpi
                    .allreduce_t(&w, &[mine], opmr_runtime::collectives::ops::sum)
                    .unwrap();
                assert_eq!(got, vec![expect]);
            })
            .run()
            .unwrap();
    }

    /// Alltoall is a transpose: out[src][..] was parts[src→me].
    #[test]
    fn alltoall_is_transpose(n_ranks in 2usize..7, elem in any::<u8>()) {
        Launcher::new()
            .partition("p", n_ranks, move |mpi| {
                let w = mpi.world();
                let r = w.local_rank();
                let parts: Vec<Bytes> = (0..w.size())
                    .map(|d| Bytes::from(vec![elem ^ (r * 31 + d) as u8; 2]))
                    .collect();
                let got = mpi.alltoall(&w, parts).unwrap();
                for (src, p) in got.iter().enumerate() {
                    assert_eq!(p[0], elem ^ (src * 31 + r) as u8);
                }
            })
            .run()
            .unwrap();
    }
}
