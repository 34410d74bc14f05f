//! Property tests for the reduction algebra: merging partials *up a tree*
//! — any fanout, any node count, any arrival order — must equal the flat
//! merge the paper's direct mapping computes. This is the invariant that
//! makes the overlay transparent to the analysis.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use bytes::BytesMut;
use opmr_analysis::waitstate::{WaitStateAnalysis, WaitStats};
use opmr_analysis::wire::{encode_waitstats, merge_waitstats};
use opmr_events::{Event, EventKind};
use opmr_reduce::{decode_partial_set, encode_partial_set, ReducePartial, Reducible, Tree};
use proptest::prelude::*;
use proptest::sample::Index;

const APP: u16 = 0;
const MAX_LEAVES: usize = 8;

fn arb_event() -> impl Strategy<Value = Event> {
    let kind = prop_oneof![
        Just(EventKind::Send),
        Just(EventKind::Recv),
        Just(EventKind::Isend),
        Just(EventKind::Barrier),
        Just(EventKind::Allreduce),
    ];
    (
        kind,
        0u32..6,
        0i32..6,
        0u64..1_000_000,
        1u64..10_000,
        0u64..65_536,
    )
        .prop_map(|(kind, rank, peer, time_ns, duration_ns, bytes)| Event {
            time_ns,
            duration_ns,
            kind,
            rank,
            peer,
            tag: 0,
            comm: 0,
            bytes,
        })
}

/// Transfers with *one send and one recv per distinct channel*, each half
/// assigned to an arbitrary leaf. The single-transfer-per-channel
/// constraint makes FIFO pairing order-independent, which is exactly the
/// regime where tree-merge and flat-merge must coincide byte-for-byte.
type Transfer = (Event, Index, Event, Index);

/// Distinct (src, dst) channels; transfer `i` uses channel `i`, so any
/// generated set of transfers touches each channel at most once.
const CHANNELS: [(u32, u32); 7] = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 0)];

fn arb_transfers() -> impl Strategy<Value = Vec<Transfer>> {
    let params = (
        0u64..1_000,
        1u64..1_000,
        0u64..1_000,
        1u64..4_096,
        any::<Index>(),
        any::<Index>(),
    );
    proptest::collection::vec(params, 0..CHANNELS.len()).prop_map(|params| {
        params
            .into_iter()
            .enumerate()
            .map(|(i, (ts, dur, tr, bytes, ls, lr))| {
                let (src, dst) = CHANNELS[i];
                let send = Event {
                    time_ns: ts,
                    duration_ns: dur,
                    kind: EventKind::Send,
                    rank: src,
                    peer: dst as i32,
                    tag: 0,
                    comm: 0,
                    bytes,
                };
                let recv = Event {
                    time_ns: tr,
                    duration_ns: 1,
                    kind: EventKind::Recv,
                    rank: dst,
                    peer: src as i32,
                    tag: 0,
                    comm: 0,
                    bytes,
                };
                (send, ls, recv, lr)
            })
            .collect()
    })
}

/// Fisher–Yates permutation of `0..len` driven by generated indices.
fn permutation(order: &[Index], len: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = order[i % order.len()].index(i + 1);
        perm.swap(i, j);
    }
    perm
}

/// Builds one partial per leaf from (event, leaf) assignments.
fn build_leaves(
    leaves: usize,
    events: &[(Event, Index)],
    transfers: &[Transfer],
) -> Vec<ReducePartial> {
    let mut evs: Vec<Vec<Event>> = vec![Vec::new(); leaves];
    let mut ws: Vec<Vec<Event>> = vec![Vec::new(); leaves];
    for (e, leaf) in events {
        evs[leaf.index(leaves)].push(*e);
    }
    for (s, ls, r, lr) in transfers {
        ws[ls.index(leaves)].push(*s);
        ws[lr.index(leaves)].push(*r);
    }
    (0..leaves)
        .map(|i| {
            let mut p = ReducePartial::new(APP);
            p.packs = 1;
            p.wire_bytes = 24 + 48 * evs[i].len() as u64;
            p.profile.add_all(&evs[i]);
            p.topology.add_all(&evs[i]);
            for e in &evs[i] {
                p.density.add_event(e.rank);
            }
            let mut wsa = WaitStateAnalysis::new();
            ws[i].sort_by_key(|e| e.time_ns);
            for e in &ws[i] {
                wsa.add(e);
            }
            p.waitstate = Some(wsa.finish().clone());
            p
        })
        .collect()
}

/// Folds leaf partials up an arbitrary reduction tree: leaves attach to
/// frontier nodes round-robin (the overlay's leaf policy), every node
/// merges its children, the root's accumulate is the result.
fn tree_merge(leaves: &[ReducePartial], fanout: usize, nodes: usize) -> ReducePartial {
    let tree = Tree::new(fanout, nodes);
    let frontier = tree.frontier();
    let mut acc: Vec<ReducePartial> = (0..tree.nodes()).map(|_| ReducePartial::new(APP)).collect();
    for (i, leaf) in leaves.iter().enumerate() {
        acc[frontier[i % frontier.len()]].merge_from(leaf);
    }
    // BFS numbering puts every child after its parent, so a descending
    // sweep folds each subtree before its parent is folded in turn.
    for k in (1..tree.nodes()).rev() {
        let child = std::mem::replace(&mut acc[k], ReducePartial::new(APP));
        acc[tree.parent(k).unwrap()].merge_from(&child);
    }
    acc.swap_remove(0)
}

fn ws_bytes(w: &WaitStats) -> Vec<u8> {
    let mut out = BytesMut::new();
    encode_waitstats(w, &mut out);
    out.to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    /// The headline property: for any tree shape and any flat arrival
    /// order, the root's merged partial is byte-identical to the flat
    /// merge over the same leaves.
    #[test]
    fn tree_merge_equals_flat_merge(
        fanout in 1usize..5,
        nodes in 1usize..12,
        leaves in 1usize..=MAX_LEAVES,
        events in proptest::collection::vec((arb_event(), any::<Index>()), 0..24),
        transfers in arb_transfers(),
        order in proptest::collection::vec(any::<Index>(), MAX_LEAVES..MAX_LEAVES + 1),
    ) {
        let parts = build_leaves(leaves, &events, &transfers);

        let tree_result = tree_merge(&parts, fanout, nodes);

        let mut flat = ReducePartial::new(APP);
        for &i in &permutation(&order, leaves) {
            flat.merge_from(&parts[i]);
        }

        prop_assert_eq!(
            encode_partial_set(std::slice::from_ref(&tree_result)),
            encode_partial_set(std::slice::from_ref(&flat)),
            "tree shape (fanout {}, {} nodes) changed the merge", fanout, nodes
        );

        // Every channel carries exactly one transfer and both halves were
        // fed somewhere, so the merged wait-state is fully paired.
        let ws = tree_result.waitstate.unwrap();
        prop_assert_eq!(ws.matched as usize, transfers.len());
        prop_assert!(ws.pending_sends.is_empty());
        prop_assert!(ws.pending_recvs.is_empty());
        prop_assert_eq!(flat.packs as usize, leaves);
        prop_assert_eq!(flat.profile.events() as usize, events.len());
    }

    /// Dedicated wait-state fold: `merge_waitstats` applied up a tree
    /// equals the flat fold, in counters and in canonical encoding.
    #[test]
    fn waitstats_tree_fold_equals_flat_fold(
        fanout in 1usize..4,
        nodes in 1usize..10,
        leaves in 1usize..=MAX_LEAVES,
        transfers in arb_transfers(),
        order in proptest::collection::vec(any::<Index>(), MAX_LEAVES..MAX_LEAVES + 1),
    ) {
        let parts = build_leaves(leaves, &[], &transfers);
        let per_leaf: Vec<WaitStats> =
            parts.iter().map(|p| p.waitstate.clone().unwrap()).collect();

        // Tree fold.
        let tree = Tree::new(fanout, nodes);
        let frontier = tree.frontier();
        let mut acc: Vec<WaitStats> = vec![WaitStats::default(); tree.nodes()];
        for (i, w) in per_leaf.iter().enumerate() {
            merge_waitstats(&mut acc[frontier[i % frontier.len()]], w);
        }
        for k in (1..tree.nodes()).rev() {
            let child = std::mem::take(&mut acc[k]);
            merge_waitstats(&mut acc[tree.parent(k).unwrap()], &child);
        }
        let tree_ws = acc.swap_remove(0);

        // Flat fold in an arbitrary order.
        let mut flat_ws = WaitStats::default();
        for &i in &permutation(&order, leaves) {
            merge_waitstats(&mut flat_ws, &per_leaf[i]);
        }

        prop_assert_eq!(tree_ws.matched, flat_ws.matched);
        prop_assert_eq!(tree_ws.total_late_sender_ns, flat_ws.total_late_sender_ns);
        prop_assert_eq!(tree_ws.total_late_receiver_ns, flat_ws.total_late_receiver_ns);
        prop_assert_eq!(ws_bytes(&tree_ws), ws_bytes(&flat_ws));
    }

    /// The overlay wire format is lossless: decode ∘ encode = identity,
    /// up to re-encoding.
    #[test]
    fn partial_set_roundtrip_is_identity(
        leaves in 1usize..=4,
        events in proptest::collection::vec((arb_event(), any::<Index>()), 0..16),
        transfers in arb_transfers(),
    ) {
        let parts = build_leaves(leaves, &events, &transfers);
        let enc = encode_partial_set(&parts);
        let dec = decode_partial_set(&enc).unwrap();
        prop_assert_eq!(encode_partial_set(&dec), enc);
    }
}
