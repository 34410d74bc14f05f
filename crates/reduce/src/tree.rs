//! Reduction-tree shape over a partition's local ranks.
//!
//! The tree is laid out breadth-first over the node partition: local rank
//! 0 is the root (the front-end), rank `k`'s children are ranks
//! `k·f+1 ..= k·f+f` (clamped to the partition size). Nodes without
//! internal children form the **frontier**; instrumented leaf ranks attach
//! to frontier nodes round-robin via the VMPI map pivot protocol. Both
//! sides of the mapping derive the same shape from `(fanout, nodes)`
//! alone, so no topology exchange is ever needed.
//!
//! Fanout 0 is the paper's direct partition mapping: a flat forest in
//! which every node is its own root and its own frontier, so leaves
//! spread round-robin over all nodes and no node forwards anything.

use opmr_vmpi::MapPolicy;
use std::sync::Arc;

/// A breadth-first reduction tree over `nodes` partition-local ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    fanout: usize,
    nodes: usize,
}

impl Tree {
    /// Builds the tree shape; `nodes` is clamped to ≥ 1. Fanout 0 is the
    /// depth-0 tree of direct mapping: every node a root at level 0, with
    /// no parent and no internal children.
    pub fn new(fanout: usize, nodes: usize) -> Tree {
        Tree {
            fanout,
            nodes: nodes.max(1),
        }
    }

    /// Children per internal node (0: a flat forest).
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Total tree nodes (= partition size).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Parent of node `k`; `None` for a root (node 0, or every node at
    /// fanout 0).
    pub fn parent(&self, k: usize) -> Option<usize> {
        k.checked_sub(1)?.checked_div(self.fanout)
    }

    /// Internal (in-partition) children of node `k`.
    pub fn internal_children(&self, k: usize) -> std::ops::Range<usize> {
        let lo = (k * self.fanout + 1).min(self.nodes);
        let hi = (k * self.fanout + self.fanout + 1).min(self.nodes);
        lo..hi
    }

    /// True when node `k` has no internal children (leaves attach here).
    pub fn is_frontier(&self, k: usize) -> bool {
        self.internal_children(k).is_empty()
    }

    /// Frontier nodes in ascending order. Never empty: a single-node tree
    /// is its own frontier (the root reads the leaves directly).
    pub fn frontier(&self) -> Vec<usize> {
        (0..self.nodes).filter(|&k| self.is_frontier(k)).collect()
    }

    /// Level of node `k` (root = 0).
    pub fn level_of(&self, k: usize) -> usize {
        let mut level = 0;
        let mut at = k;
        while let Some(p) = self.parent(at) {
            at = p;
            level += 1;
        }
        level
    }

    /// Number of node levels (1 for a single-node tree).
    pub fn depth(&self) -> usize {
        self.level_of(self.nodes - 1) + 1
    }

    /// Map policy attaching arriving leaves to frontier nodes round-robin
    /// (the pivot evaluates it; leaves only need the same `(fanout,
    /// nodes)` pair to know the tree exists).
    pub fn leaf_policy(&self) -> MapPolicy {
        let frontier = self.frontier();
        MapPolicy::Custom(Arc::new(move |i| frontier[i % frontier.len()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_tree_is_its_own_frontier() {
        let t = Tree::new(4, 1);
        assert_eq!(t.frontier(), vec![0]);
        assert!(t.is_frontier(0));
        assert_eq!(t.depth(), 1);
        assert_eq!(t.parent(0), None);
    }

    #[test]
    fn binary_tree_of_seven() {
        let t = Tree::new(2, 7);
        assert_eq!(t.internal_children(0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(t.internal_children(1).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(t.internal_children(2).collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!(t.frontier(), vec![3, 4, 5, 6]);
        assert_eq!(t.depth(), 3);
        for k in 1..7 {
            let p = t.parent(k).unwrap();
            assert!(t.internal_children(p).contains(&k));
        }
    }

    #[test]
    fn ragged_tree_frontier() {
        // 4 nodes, fanout 2: node 1 keeps one child, node 2 is childless.
        let t = Tree::new(2, 4);
        assert_eq!(t.internal_children(1).collect::<Vec<_>>(), vec![3]);
        assert!(t.internal_children(2).is_empty());
        assert_eq!(t.frontier(), vec![2, 3]);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn chain_when_fanout_is_one() {
        let t = Tree::new(1, 4);
        assert_eq!(t.frontier(), vec![3]);
        assert_eq!(t.depth(), 4);
        assert_eq!(t.parent(3), Some(2));
    }

    #[test]
    fn fanout_zero_is_a_flat_forest_with_round_robin_leaves() {
        let t = Tree::new(0, 3);
        assert_eq!(t.frontier(), vec![0, 1, 2]);
        assert_eq!(t.depth(), 1);
        for k in 0..3 {
            assert_eq!(t.parent(k), None);
            assert!(t.internal_children(k).is_empty());
            assert_eq!(t.level_of(k), 0);
        }
        let MapPolicy::Custom(f) = t.leaf_policy() else {
            panic!("leaf policy is custom")
        };
        assert_eq!(
            (0..7).map(|i| f(i)).collect::<Vec<_>>(),
            [0, 1, 2, 0, 1, 2, 0]
        );
    }

    #[test]
    fn every_node_reaches_the_root() {
        for fanout in 0..5 {
            for nodes in 1..40 {
                let t = Tree::new(fanout, nodes);
                for k in 0..nodes {
                    assert!(t.level_of(k) < t.depth());
                }
                assert!(!t.frontier().is_empty());
            }
        }
    }

    #[test]
    fn leaf_policy_cycles_the_frontier() {
        let t = Tree::new(2, 7);
        let policy = t.leaf_policy();
        let MapPolicy::Custom(f) = policy else {
            panic!("leaf policy is custom")
        };
        assert_eq!(f(0), 3);
        assert_eq!(f(3), 6);
        assert_eq!(f(4), 3);
    }
}
