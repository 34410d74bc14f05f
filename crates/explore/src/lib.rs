//! Every schedule of a protocol model, explored breadth-first.
//!
//! A [`Model`] names a start state and, for any state, its labelled moves,
//! or the invariant one of them breaks. [`explore`] visits every state
//! reachable from the start once, keeping visited states as 64-bit
//! fingerprints, and checks besides the model's own invariants that
//!
//! * a state with no move is an end the model accepts ([`Model::end`]);
//! * some end is reachable from every state;
//! * a good end ([`Model::good_end`]) is reachable from every state the
//!   model does not call spoilt ([`Model::spoilt`]). The states that fail
//!   this are counted, not refused: [`Stats::doomed`], with a path to the
//!   first of them. Spoilt states are counted by the reason the model
//!   gives ([`Stats::spoilt`]).
//!
//! The search is breadth-first, so every path it reports is a shortest
//! schedule to its state. A model stays a test's: this crate is only ever
//! a dev-dependency.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::time::Instant;

/// Past this many states an exploration stops with
/// [`Failure::TooManyStates`]: a bound too deep for the memory of a small
/// box.
pub const MAX_STATES: usize = 4_000_000;

/// A protocol to explore: its states and the moves between them.
pub trait Model {
    /// Everything a schedule can tell apart. Two states that hash alike
    /// are one state.
    type State: Hash;

    fn start(&self) -> Self::State;

    /// Every move from `state`, each with a label for the schedules the
    /// explorer prints, or the first invariant `state` or a move from it
    /// breaks.
    fn moves(&self, state: &Self::State) -> Result<Vec<(&'static str, Self::State)>, String>;

    /// Whether a state with no move is a proper end; `Err` says why not.
    fn end(&self, state: &Self::State) -> Result<(), String>;

    /// An end the protocol should be able to reach.
    fn good_end(&self, _end: &Self::State) -> bool {
        true
    }

    /// Why a state is excused from reaching a good end (a fault spent
    /// it, say), or `None` when it is not. Asked once per state.
    fn spoilt(&self, _state: &Self::State) -> Option<&'static str> {
        None
    }
}

/// What an exploration found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    pub states: usize,
    pub moves: usize,
    /// The longest shortest schedule.
    pub depth: usize,
    /// States with no move.
    pub ends: usize,
    pub good_ends: usize,
    /// States not spoilt from which no good end is reachable.
    pub doomed: usize,
    /// A shortest schedule to the first of them.
    pub first_doomed: Option<Vec<&'static str>>,
    /// Spoilt states, by the reason [`Model::spoilt`] gave.
    pub spoilt: BTreeMap<&'static str, usize>,
}

/// Why an exploration failed. Every path is a shortest schedule from the
/// start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The state `path` leads to, or a move from it, broke an invariant.
    Broken {
        what: String,
        path: Vec<&'static str>,
    },
    /// The state `path` leads to has no move and is no proper end.
    Stuck {
        what: String,
        path: Vec<&'static str>,
    },
    /// No end is reachable from the state `path` leads to.
    NoEnd { path: Vec<&'static str> },
    /// The model has more states than the bound explored allows.
    TooManyStates(usize),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Broken { what, path } | Failure::Stuck { what, path } => {
                write!(f, "{what}\n  after: {}", path.join(" "))
            }
            Failure::NoEnd { path } => {
                write!(f, "no end is reachable from\n  {}", path.join(" "))
            }
            Failure::TooManyStates(n) => write!(f, "more than {n} states"),
        }
    }
}

/// A 64-bit fingerprint of a state (splitmix64 over its `Hash` words):
/// visited states are kept as fingerprints only. Two states collide with
/// probability about n² / 2⁶⁵, under 10⁻⁶ for a few million states.
#[derive(Default)]
struct Fingerprint(u64);

impl Hasher for Fingerprint {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = (self.0 ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

type Fingerprints = BuildHasherDefault<Fingerprint>;

/// Breadth-first over every state of `model`, up to `max_states`.
pub fn explore<M: Model>(model: &M, max_states: usize) -> Result<Stats, Failure> {
    let fingerprint = |s: &M::State| Fingerprints::default().hash_one(s);
    let start = model.start();
    let mut index: HashMap<u64, u32, Fingerprints> = HashMap::default();
    index.insert(fingerprint(&start), 0);
    // Per state, in discovery order, which is also expansion order.
    let mut parent: Vec<(u32, &'static str)> = vec![(0, "start")];
    let mut depth: Vec<u16> = vec![0];
    let mut spoilt = vec![model.spoilt(&start)];
    let mut first_edge: Vec<u32> = Vec::new();
    let mut edges: Vec<u32> = Vec::new();
    let mut ends = Vec::new();
    let mut queue = VecDeque::from([start]);
    let path = |parent: &[(u32, &'static str)], mut i: u32| {
        let mut p = Vec::new();
        while i != 0 {
            p.push(parent[i as usize].1);
            i = parent[i as usize].0;
        }
        p.reverse();
        p
    };
    while let Some(s) = queue.pop_front() {
        let i = first_edge.len() as u32;
        first_edge.push(edges.len() as u32);
        if parent.len() > max_states {
            return Err(Failure::TooManyStates(max_states));
        }
        let next = model.moves(&s).map_err(|what| Failure::Broken {
            what,
            path: path(&parent, i),
        })?;
        if next.is_empty() {
            model.end(&s).map_err(|what| Failure::Stuck {
                what,
                path: path(&parent, i),
            })?;
            ends.push((i, model.good_end(&s)));
        }
        for (label, n) in next {
            let j = *index.entry(fingerprint(&n)).or_insert_with(|| {
                parent.push((i, label));
                depth.push(depth[i as usize] + 1);
                spoilt.push(model.spoilt(&n));
                queue.push_back(n);
                parent.len() as u32 - 1
            });
            edges.push(j);
        }
    }
    let states = parent.len();
    first_edge.push(edges.len() as u32);
    // The edges reversed, so reachability can run back from the ends.
    let mut first_pred = vec![0u32; states + 1];
    for &j in &edges {
        first_pred[j as usize + 1] += 1;
    }
    for k in 0..states {
        first_pred[k + 1] += first_pred[k];
    }
    let mut fill = first_pred.clone();
    let mut preds = vec![0u32; edges.len()];
    for i in 0..states {
        for &j in &edges[first_edge[i] as usize..first_edge[i + 1] as usize] {
            preds[fill[j as usize] as usize] = i as u32;
            fill[j as usize] += 1;
        }
    }
    let reach = |seeds: Vec<u32>| {
        let mut seen = vec![false; states];
        let mut stack = seeds;
        while let Some(j) = stack.pop() {
            let j = j as usize;
            if !std::mem::replace(&mut seen[j], true) {
                stack.extend(&preds[first_pred[j] as usize..first_pred[j + 1] as usize]);
            }
        }
        seen
    };
    let to_end = reach(ends.iter().map(|e| e.0).collect());
    if let Some(i) = to_end.iter().position(|&r| !r) {
        return Err(Failure::NoEnd {
            path: path(&parent, i as u32),
        });
    }
    let to_good = reach(ends.iter().filter(|e| e.1).map(|e| e.0).collect());
    let doomed = |i: &usize| !to_good[*i] && spoilt[*i].is_none();
    let mut by_reason = BTreeMap::new();
    for why in spoilt.iter().flatten() {
        *by_reason.entry(*why).or_insert(0) += 1;
    }
    Ok(Stats {
        states,
        moves: edges.len(),
        depth: depth.iter().copied().max().map_or(0, usize::from),
        ends: ends.len(),
        good_ends: ends.iter().filter(|e| e.1).count(),
        doomed: (0..states).filter(doomed).count(),
        first_doomed: (0..states).find(doomed).map(|i| path(&parent, i as u32)),
        spoilt: by_reason,
    })
}

/// Explores `model` within `max_states` and prints one line on stderr:
/// `name`, the counts and the time taken, or the failure with its
/// schedule.
pub fn run<M: Model>(name: &str, model: &M, max_states: usize) -> Result<Stats, Failure> {
    let t = Instant::now();
    let stats = explore(model, max_states);
    match &stats {
        Ok(s) => eprintln!(
            "{name}: {} states, {} moves, depth {}, {} ends ({} good), {} doomed, spoilt {:?}, in {:.2?}",
            s.states,
            s.moves,
            s.depth,
            s.ends,
            s.good_ends,
            s.doomed,
            s.spoilt,
            t.elapsed()
        ),
        Err(e) => eprintln!("{name}: {e}"),
    }
    stats
}
