//! End-to-end semantics tests for the in-process MPI runtime: real threads,
//! real blocking, real back-pressure.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use bytes::Bytes;
use opmr_runtime::collectives::ops;
use opmr_runtime::{Launcher, Mpi, Src, TagSel, Universe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn run_n(n: usize, f: impl Fn(Mpi) + Send + Sync + 'static) {
    Launcher::new().partition("t", n, f).run().unwrap();
}

#[test]
fn ring_pass_delivers_in_order() {
    run_n(5, |mpi| {
        let w = mpi.world();
        let n = w.size();
        let r = w.local_rank();
        let next = (r + 1) % n;
        let prev = (r + n - 1) % n;
        if r == 0 {
            mpi.send_t(&w, next, 0, &[0u64]).unwrap();
            let (_s, v) = mpi
                .recv_t::<u64>(&w, Src::Rank(prev), TagSel::Tag(0))
                .unwrap();
            assert_eq!(v, vec![(n - 1) as u64]);
        } else {
            let (_s, v) = mpi
                .recv_t::<u64>(&w, Src::Rank(prev), TagSel::Tag(0))
                .unwrap();
            mpi.send_t(&w, next, 0, &[v[0] + 1]).unwrap();
        }
    });
}

#[test]
fn any_source_any_tag_receives_everything() {
    run_n(6, |mpi| {
        let w = mpi.world();
        if w.local_rank() == 0 {
            let mut seen = vec![false; w.size()];
            seen[0] = true;
            for _ in 1..w.size() {
                let (st, data) = mpi.recv(&w, Src::Any, TagSel::Any).unwrap();
                assert_eq!(data.len(), st.source);
                assert_eq!(st.tag, st.source as i32 * 10);
                assert!(!seen[st.source], "duplicate source");
                seen[st.source] = true;
            }
            assert!(seen.iter().all(|&s| s));
        } else {
            let r = w.local_rank();
            mpi.send(&w, 0, r as i32 * 10, Bytes::from(vec![7u8; r]))
                .unwrap();
        }
    });
}

#[test]
fn non_overtaking_same_pair_same_tag() {
    run_n(2, |mpi| {
        let w = mpi.world();
        if w.local_rank() == 0 {
            for i in 0..100u32 {
                mpi.send_t(&w, 1, 3, &[i]).unwrap();
            }
        } else {
            for i in 0..100u32 {
                let (_s, v) = mpi.recv_t::<u32>(&w, Src::Rank(0), TagSel::Tag(3)).unwrap();
                assert_eq!(v[0], i);
            }
        }
    });
}

#[test]
fn rendezvous_blocks_until_receiver_arrives() {
    // A 1 MB message exceeds the eager limit: the sender must block until
    // the receiver posts, proving back-pressure exists.
    static SEND_DONE_BEFORE_RECV: AtomicUsize = AtomicUsize::new(0);
    const { assert!(1 << 20 > Universe::DEFAULT_EAGER_LIMIT) };
    Launcher::new()
        .partition("t", 2, |mpi| {
            let w = mpi.world();
            if w.local_rank() == 0 {
                let payload = Bytes::from(vec![0xAB; 1 << 20]);
                mpi.send(&w, 1, 0, payload).unwrap();
                SEND_DONE_BEFORE_RECV.fetch_add(1, Ordering::SeqCst);
            } else {
                std::thread::sleep(std::time::Duration::from_millis(100));
                // Sender must still be blocked here.
                assert_eq!(SEND_DONE_BEFORE_RECV.load(Ordering::SeqCst), 0);
                let (_s, data) = mpi.recv(&w, Src::Rank(0), TagSel::Any).unwrap();
                assert_eq!(data.len(), 1 << 20);
            }
        })
        .run()
        .unwrap();
    assert_eq!(SEND_DONE_BEFORE_RECV.load(Ordering::SeqCst), 1);
}

#[test]
fn isend_large_completes_after_matching_recv() {
    const LEN: usize = Universe::DEFAULT_EAGER_LIMIT + 1;
    Launcher::new()
        .partition("t", 2, |mpi| {
            let w = mpi.world();
            if w.local_rank() == 0 {
                let mut req = mpi.isend(&w, 1, 1, Bytes::from(vec![1u8; LEN])).unwrap();
                assert!(!req.is_complete());
                mpi.send(&w, 1, 2, Bytes::new()).unwrap(); // eager go-signal
                req.wait().unwrap();
            } else {
                mpi.recv(&w, Src::Rank(0), TagSel::Tag(2)).unwrap();
                let (_s, data) = mpi.recv(&w, Src::Rank(0), TagSel::Tag(1)).unwrap();
                assert_eq!(data.len(), LEN);
            }
        })
        .run()
        .unwrap();
}

#[test]
fn sendrecv_exchange_does_not_deadlock() {
    run_n(4, |mpi| {
        let w = mpi.world();
        let n = w.size();
        let r = w.local_rank();
        let partner = n - 1 - r;
        let (st, data) = mpi
            .sendrecv(
                &w,
                partner,
                5,
                Bytes::from(vec![r as u8; 1 << 17]), // rendezvous-sized both ways
                Src::Rank(partner),
                TagSel::Tag(5),
            )
            .unwrap();
        assert_eq!(st.source, partner);
        assert!(data.iter().all(|&b| b == partner as u8));
    });
}

#[test]
fn barrier_orders_phases() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    run_n(8, move |mpi| {
        let w = mpi.world();
        log2.lock().unwrap().push((0u8, w.local_rank()));
        mpi.barrier(&w).unwrap();
        log2.lock().unwrap().push((1u8, w.local_rank()));
    });
    let log = log.lock().unwrap();
    let last_pre = log.iter().rposition(|e| e.0 == 0).unwrap();
    let first_post = log.iter().position(|e| e.0 == 1).unwrap();
    assert!(
        last_pre < first_post,
        "a rank left the barrier before all entered"
    );
}

#[test]
fn bcast_from_every_root() {
    run_n(7, |mpi| {
        let w = mpi.world();
        for root in 0..w.size() {
            let data = if w.local_rank() == root {
                Some(Bytes::from(format!("payload-from-{root}")))
            } else {
                None
            };
            let got = mpi.bcast(&w, root, data).unwrap();
            assert_eq!(&got[..], format!("payload-from-{root}").as_bytes());
        }
    });
}

#[test]
fn reduce_sum_matches_closed_form() {
    run_n(9, |mpi| {
        let w = mpi.world();
        let r = w.local_rank() as u64;
        let local = [r, r * r, 1];
        let res = mpi.reduce_t(&w, 3, &local, ops::sum).unwrap();
        if w.local_rank() == 3 {
            let n = w.size() as u64;
            let s1 = n * (n - 1) / 2;
            let s2 = (0..n).map(|x| x * x).sum::<u64>();
            assert_eq!(res.unwrap(), vec![s1, s2, n]);
        } else {
            assert!(res.is_none());
        }
    });
}

#[test]
fn allreduce_min_max() {
    run_n(6, |mpi| {
        let w = mpi.world();
        let r = w.local_rank() as f64;
        let mn = mpi.allreduce_t(&w, &[r + 10.0], ops::min).unwrap();
        let mx = mpi.allreduce_t(&w, &[r + 10.0], ops::max).unwrap();
        assert_eq!(mn, vec![10.0]);
        assert_eq!(mx, vec![15.0]);
    });
}

#[test]
fn gather_scatter_roundtrip() {
    run_n(5, |mpi| {
        let w = mpi.world();
        let r = w.local_rank();
        let gathered = mpi
            .gather(&w, 2, Bytes::from(vec![r as u8; r + 1]))
            .unwrap();
        let parts = if r == 2 {
            let parts = gathered.unwrap();
            for (i, p) in parts.iter().enumerate() {
                assert_eq!(p.len(), i + 1);
                assert!(p.iter().all(|&b| b == i as u8));
            }
            Some(parts)
        } else {
            assert!(gathered.is_none());
            None
        };
        let mine = mpi.scatter(&w, 2, parts).unwrap();
        assert_eq!(mine.len(), r + 1);
        assert!(mine.iter().all(|&b| b == r as u8));
    });
}

#[test]
fn allgather_collects_in_rank_order() {
    run_n(6, |mpi| {
        let w = mpi.world();
        let r = w.local_rank() as u32;
        let all = mpi.allgather_t(&w, &[r * 2, r * 2 + 1]).unwrap();
        for (i, v) in all.iter().enumerate() {
            assert_eq!(v, &vec![i as u32 * 2, i as u32 * 2 + 1]);
        }
    });
}

#[test]
fn alltoall_transpose() {
    run_n(4, |mpi| {
        let w = mpi.world();
        let r = w.local_rank();
        let parts: Vec<Bytes> = (0..w.size())
            .map(|dst| Bytes::from(vec![(r * 16 + dst) as u8; 3]))
            .collect();
        let got = mpi.alltoall(&w, parts).unwrap();
        for (src, p) in got.iter().enumerate() {
            assert_eq!(p[0], (src * 16 + r) as u8);
        }
    });
}

#[test]
fn comm_split_even_odd() {
    run_n(8, |mpi| {
        let w = mpi.world();
        let r = w.local_rank();
        let sub = mpi
            .comm_split(&w, (r % 2) as i64, r as i64)
            .unwrap()
            .unwrap();
        assert_eq!(sub.size(), 4);
        assert_eq!(sub.local_rank(), r / 2);
        // Communicate within the sub-communicator only.
        let sum = mpi.allreduce_t(&sub, &[r as u64], ops::sum).unwrap();
        let expect: u64 = (0..8u64).filter(|x| x % 2 == r as u64 % 2).sum();
        assert_eq!(sum, vec![expect]);
    });
}

#[test]
fn comm_split_undefined_color() {
    run_n(4, |mpi| {
        let w = mpi.world();
        let r = w.local_rank();
        let color = if r == 0 { -1 } else { 1 };
        let sub = mpi.comm_split(&w, color, 0).unwrap();
        if r == 0 {
            assert!(sub.is_none());
        } else {
            assert_eq!(sub.unwrap().size(), 3);
        }
    });
}

#[test]
fn comm_dup_isolates_traffic() {
    run_n(2, |mpi| {
        let w = mpi.world();
        let dup = mpi.comm_dup(&w).unwrap();
        assert_ne!(dup.id(), w.id());
        if w.local_rank() == 0 {
            mpi.send_t(&w, 1, 0, &[1u8]).unwrap();
            mpi.send_t(&dup, 1, 0, &[2u8]).unwrap();
        } else {
            // Receive from the dup first: tags/ranks identical, only the
            // communicator distinguishes the two messages.
            let (_s, vdup) = mpi
                .recv_t::<u8>(&dup, Src::Rank(0), TagSel::Tag(0))
                .unwrap();
            let (_s, vw) = mpi.recv_t::<u8>(&w, Src::Rank(0), TagSel::Tag(0)).unwrap();
            assert_eq!(vdup, vec![2]);
            assert_eq!(vw, vec![1]);
        }
    });
}

#[test]
fn mpmd_partitions_visible_everywhere() {
    Launcher::new()
        .partition("appA", 3, |mpi| {
            assert_eq!(mpi.my_partition().name, "appA");
            assert_eq!(mpi.partitions().len(), 3);
            let an = mpi.universe().partition_by_name("Analyzer").unwrap();
            assert_eq!(an.size, 2);
            assert_eq!(an.first_world_rank, 5);
        })
        .partition("appB", 2, |mpi| {
            assert_eq!(mpi.my_partition().id, 1);
            assert_eq!(mpi.partition_rank(), mpi.world_rank() - 3);
        })
        .partition("Analyzer", 2, |mpi| {
            assert_eq!(mpi.my_partition().name, "Analyzer");
        })
        .run()
        .unwrap();
}

#[test]
fn cross_partition_traffic_over_world() {
    Launcher::new()
        .partition("w", 3, |mpi| {
            let world = mpi.world();
            mpi.send_t(&world, 3, 9, &[mpi.world_rank() as u64])
                .unwrap();
        })
        .partition("r", 1, |mpi| {
            let world = mpi.world();
            let mut got = Vec::new();
            for _ in 0..3 {
                let (_s, v) = mpi.recv_t::<u64>(&world, Src::Any, TagSel::Tag(9)).unwrap();
                got.extend(v);
            }
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2]);
        })
        .run()
        .unwrap();
}

#[test]
fn wtime_advances_across_ranks() {
    run_n(2, |mpi| {
        let t0 = mpi.wtime();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(mpi.wtime() > t0);
        assert!(mpi.wtime_ns() > 0);
    });
}

#[test]
fn stress_many_ranks_allreduce() {
    run_n(32, |mpi| {
        let w = mpi.world();
        let v = mpi.allreduce_t(&w, &[1u64], ops::sum).unwrap();
        assert_eq!(v, vec![32]);
    });
}

#[test]
fn scan_is_inclusive_prefix() {
    run_n(7, |mpi| {
        let w = mpi.world();
        let r = w.local_rank() as u64;
        let got = opmr_runtime::collectives::scan_t(&mpi, &w, &[r + 1], ops::sum).unwrap();
        // 1 + 2 + … + (r+1).
        assert_eq!(got, vec![(r + 1) * (r + 2) / 2]);
    });
}

#[test]
fn exscan_is_exclusive_prefix() {
    run_n(6, |mpi| {
        let w = mpi.world();
        let r = w.local_rank() as u64;
        let got = opmr_runtime::collectives::exscan_t(&mpi, &w, &[r + 1], ops::sum).unwrap();
        if r == 0 {
            assert!(got.is_none());
        } else {
            assert_eq!(got.unwrap(), vec![r * (r + 1) / 2]);
        }
    });
}

#[test]
fn reduce_scatter_distributes_blocks() {
    run_n(4, |mpi| {
        let w = mpi.world();
        let r = w.local_rank() as u64;
        // Each rank contributes [r*10+0, r*10+1, r*10+2, r*10+3] doubled up
        // into blocks of 2.
        let local: Vec<u64> = (0..8).map(|i| r * 100 + i).collect();
        let got = opmr_runtime::collectives::reduce_scatter_t(&mpi, &w, &local, ops::sum).unwrap();
        // Block b element e = sum over ranks of (rank*100 + b*2 + e).
        let base: u64 = (0..4u64).map(|x| x * 100).sum();
        let b = r as usize;
        assert_eq!(
            got,
            vec![base + 4 * (2 * b as u64), base + 4 * (2 * b as u64 + 1)]
        );
    });
}

#[test]
fn reduce_scatter_rejects_indivisible_input() {
    run_n(3, |mpi| {
        let w = mpi.world();
        let res = opmr_runtime::collectives::reduce_scatter_t(&mpi, &w, &[1u64; 7], ops::sum);
        assert!(res.is_err());
    });
}

#[test]
fn scan_with_max_is_running_maximum() {
    run_n(5, |mpi| {
        let w = mpi.world();
        let vals = [3u64, 1, 4, 1, 5];
        let mine = vals[w.local_rank()];
        let got = opmr_runtime::collectives::scan_t(&mpi, &w, &[mine], ops::max).unwrap();
        let expect = *vals[..=w.local_rank()].iter().max().unwrap();
        assert_eq!(got, vec![expect]);
    });
}
