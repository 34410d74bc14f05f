//! The explorer on toy models small enough to check by hand: each test
//! fails if the search stops making the check it names.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr_explore::{explore, Failure, Model, Stats, MAX_STATES};
use std::collections::BTreeMap;

/// A graph of numbered states: its moves, its proper ends, its good ends
/// and its spoilt states.
struct Graph {
    moves: &'static [(u8, &'static str, u8)],
    ends: &'static [u8],
    good: &'static [u8],
    spoilt: &'static [u8],
}

impl Model for Graph {
    type State = u8;

    fn start(&self) -> u8 {
        0
    }

    fn moves(&self, s: &u8) -> Result<Vec<(&'static str, u8)>, String> {
        Ok(self
            .moves
            .iter()
            .filter(|m| m.0 == *s)
            .map(|m| (m.1, m.2))
            .collect())
    }

    fn end(&self, s: &u8) -> Result<(), String> {
        if self.ends.contains(s) {
            Ok(())
        } else {
            Err(format!("stuck in {s}"))
        }
    }

    fn good_end(&self, s: &u8) -> bool {
        self.good.contains(s)
    }

    fn spoilt(&self, s: &u8) -> Option<&'static str> {
        self.spoilt.contains(s).then_some("listed")
    }
}

/// Two dead ends, 2 and 7; 2 is the nearer one, reached by a longer
/// route first in move order.
#[test]
fn a_dead_end_is_stuck_with_its_shortest_path() {
    let g = Graph {
        moves: &[
            (0, "long", 5),
            (0, "a", 1),
            (5, "on", 6),
            (6, "on", 2),
            (1, "b", 2),
            (1, "c", 7),
            (1, "d", 9),
        ],
        ends: &[9],
        good: &[9],
        spoilt: &[],
    };
    assert_eq!(
        explore(&g, MAX_STATES),
        Err(Failure::Stuck {
            what: "stuck in 2".into(),
            path: vec!["a", "b"],
        })
    );
}

/// Going right ends, but never in the good end: both states on that side
/// are doomed, unless the model calls them spoilt.
#[test]
fn an_unreachable_good_end_counts_doomed_states_and_the_first_path() {
    let mut g = Graph {
        moves: &[(0, "left", 1), (1, "on", 3), (0, "right", 2), (2, "on", 4)],
        ends: &[3, 4],
        good: &[3],
        spoilt: &[],
    };
    let s = explore(&g, MAX_STATES).unwrap();
    assert_eq!(
        s,
        Stats {
            states: 5,
            moves: 4,
            depth: 2,
            ends: 2,
            good_ends: 1,
            doomed: 2,
            first_doomed: Some(vec!["right"]),
            spoilt: BTreeMap::new(),
        }
    );
    g.spoilt = &[2, 4];
    let s = explore(&g, MAX_STATES).unwrap();
    assert_eq!((s.doomed, s.first_doomed), (0, None));
    assert_eq!(s.spoilt, BTreeMap::from([("listed", 2)]));
}

/// A cycle with no way out has no end.
#[test]
fn a_cycle_without_an_exit_reaches_no_end() {
    let g = Graph {
        moves: &[
            (0, "go", 1),
            (1, "back", 0),
            (0, "out", 2),
            (1, "spin", 3),
            (3, "spin", 1),
        ],
        ends: &[2],
        good: &[2],
        spoilt: &[],
    };
    assert!(explore(&g, MAX_STATES).is_ok());
    let g = Graph {
        moves: &[(0, "go", 1), (1, "back", 0), (1, "spin", 3), (3, "spin", 1)],
        ..g
    };
    assert_eq!(
        explore(&g, MAX_STATES),
        Err(Failure::NoEnd { path: vec![] })
    );
}

/// Steps of one and jumps of three up to 10; state 6 breaks the
/// invariant. Six steps reach it first in depth-first order, two jumps
/// in breadth-first order.
struct Hops;

impl Model for Hops {
    type State = u8;

    fn start(&self) -> u8 {
        0
    }

    fn moves(&self, s: &u8) -> Result<Vec<(&'static str, u8)>, String> {
        if *s == 6 {
            return Err("six".into());
        }
        Ok([("step", 1), ("jump", 3)]
            .into_iter()
            .filter(|m| s + m.1 <= 10)
            .map(|m| (m.0, s + m.1))
            .collect())
    }

    fn end(&self, _: &u8) -> Result<(), String> {
        Ok(())
    }
}

#[test]
fn a_broken_invariant_comes_back_with_the_shortest_schedule() {
    let e = explore(&Hops, MAX_STATES).unwrap_err();
    assert_eq!(
        e,
        Failure::Broken {
            what: "six".into(),
            path: vec!["jump", "jump"],
        }
    );
    assert_eq!(e.to_string(), "six\n  after: jump jump");
}

/// A counter with no bound.
struct Unbounded;

impl Model for Unbounded {
    type State = u64;

    fn start(&self) -> u64 {
        0
    }

    fn moves(&self, s: &u64) -> Result<Vec<(&'static str, u64)>, String> {
        Ok(vec![("inc", s + 1)])
    }

    fn end(&self, _: &u64) -> Result<(), String> {
        Ok(())
    }
}

#[test]
fn the_state_bound_is_a_typed_error_not_an_abort() {
    assert_eq!(explore(&Unbounded, 1000), Err(Failure::TooManyStates(1000)));
}
