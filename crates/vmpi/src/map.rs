//! VMPI Map: partition-to-partition process mapping via the pivot protocol.
//!
//! The paper (Figure 7): when mapping two partitions, the larger becomes the
//! *slave* and the smaller the *master*. Every slave process sends its
//! global rank to the master partition's root (the *pivot*); the pivot
//! assigns each incoming rank a master-local rank according to a policy and
//! returns the association both ways. The pivot also serves as the
//! synchronization point ending the mapping. Maps are *additive*: a
//! partition may successively append mappings to several other partitions —
//! the mechanism multi-instrumentation is built on (Figure 10).

use crate::virt::Vmpi;
use crate::{Result, VmpiError};
use opmr_runtime::{Context, Src, TagSel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Assignment policy applied by the pivot (Figure 8).
#[derive(Clone)]
pub enum MapPolicy {
    /// Slave `i` → master `i % master_size`.
    RoundRobin,
    /// Slave `i` → uniformly random master rank (seeded, reproducible).
    Random { seed: u64 },
    /// Slave `i` → master `min(i, master_size - 1)` (identity while sizes
    /// allow, clamping beyond — the "fixed" topology of Figure 8c).
    Fixed,
    /// User-defined: takes the slave index, returns a master-local rank.
    Custom(Arc<dyn Fn(usize) -> usize + Send + Sync>),
}

impl std::fmt::Debug for MapPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapPolicy::RoundRobin => write!(f, "RoundRobin"),
            MapPolicy::Random { seed } => write!(f, "Random{{seed:{seed}}}"),
            MapPolicy::Fixed => write!(f, "Fixed"),
            MapPolicy::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// A [`MapPolicy`] as the pivot applies it: a random one holds its
/// seeded RNG.
enum Assigner<'a> {
    RoundRobin,
    Random(StdRng),
    Fixed,
    Custom(&'a (dyn Fn(usize) -> usize + Send + Sync)),
}

impl<'a> Assigner<'a> {
    fn new(policy: &'a MapPolicy) -> Self {
        match policy {
            MapPolicy::RoundRobin => Assigner::RoundRobin,
            MapPolicy::Random { seed } => Assigner::Random(StdRng::seed_from_u64(*seed)),
            MapPolicy::Fixed => Assigner::Fixed,
            MapPolicy::Custom(f) => Assigner::Custom(f.as_ref()),
        }
    }

    /// Computes the master-local rank for slave index `i`. A custom
    /// policy returning an out-of-range rank is the caller's bug and
    /// surfaces as [`VmpiError::InvalidAssignment`].
    fn assign(&mut self, i: usize, master_size: usize) -> Result<usize> {
        match self {
            Assigner::RoundRobin => Ok(i % master_size),
            Assigner::Random(rng) => Ok(rng.gen_range(0..master_size)),
            Assigner::Fixed => Ok(i.min(master_size.saturating_sub(1))),
            Assigner::Custom(f) => {
                let m = f(i);
                if m >= master_size {
                    return Err(VmpiError::InvalidAssignment {
                        index: m,
                        master_size,
                    });
                }
                Ok(m)
            }
        }
    }
}

// Map-plane error accounting: every typed failure on the pivot protocol is
// also counted process-wide so a live session surfaces hostile or corrupt
// peers in its metrics snapshot.
mod obs {
    use opmr_obs::{registry, Counter};
    use std::sync::{Arc, OnceLock};

    pub(super) struct MapMetrics {
        pub malformed_replies: Arc<Counter>,
        pub protocol_violations: Arc<Counter>,
    }

    pub(super) fn m() -> &'static MapMetrics {
        static M: OnceLock<MapMetrics> = OnceLock::new();
        M.get_or_init(|| {
            let r = registry();
            MapMetrics {
                malformed_replies: r.counter("vmpi_map_malformed_pivot_total"),
                protocol_violations: r.counter("vmpi_map_protocol_violations_total"),
            }
        })
    }
}

/// A process's accumulated peer set (`VMPI_Map`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Map {
    peers: Vec<usize>,
}

impl Map {
    /// An empty map (`VMPI_Map_clear`).
    pub fn new() -> Map {
        Map::default()
    }

    /// Clears all accumulated entries.
    pub fn clear(&mut self) {
        self.peers.clear();
    }

    /// World ranks of the mapped remote processes, in mapping order.
    pub fn peers(&self) -> &[usize] {
        &self.peers
    }

    /// Number of mapped peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True when no peer has been mapped yet.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Appends a peer (used by the protocol and by tests building fixtures).
    pub fn push(&mut self, world_rank: usize) {
        self.peers.push(world_rank);
    }
}

/// Tag space reserved for mapping traffic in the [`Context::Stream`] plane.
fn map_tag(master_pid: usize, slave_pid: usize) -> i32 {
    0x0400_0000 | ((master_pid as i32) << 12) | slave_pid as i32
}

/// Maps the caller's partition to `target_pid`, appending the resulting peer
/// set to `map` (`VMPI_Map_partitions`).
///
/// Must be called collectively by every rank of *both* partitions with the
/// same policy. Returns after the pivot has distributed all associations.
pub fn map_partitions(
    vmpi: &Vmpi,
    target_pid: usize,
    policy: MapPolicy,
    map: &mut Map,
) -> Result<()> {
    let my_pid = vmpi.partition_id();
    if target_pid == my_pid {
        return Err(VmpiError::SelfMapping);
    }
    let target = vmpi
        .partition(target_pid)
        .ok_or_else(|| VmpiError::UnknownPartition(format!("#{target_pid}")))?
        .clone();
    let mine = vmpi
        .partition(my_pid)
        .ok_or(VmpiError::PartitionInconsistent {
            world_rank: vmpi.mpi().world_rank(),
            partition: my_pid,
        })?
        .clone();

    // Smaller partition is the master; ties break toward the lower id so
    // both sides agree without communicating.
    let master_pid = if (mine.size, my_pid) < (target.size, target_pid) {
        my_pid
    } else {
        target_pid
    };
    map_partitions_directed(vmpi, target_pid, master_pid, policy, map)
}

/// Like [`map_partitions`], but the caller fixes which of the two
/// partitions acts as the master (the side whose ranks accumulate peer
/// lists and whose root is the pivot), overriding the size-based choice.
///
/// Reduction overlays need this: the tree partition must master the
/// mapping so its frontier nodes adopt the instrumented leaves, even when
/// an application partition is smaller than the tree partition. Must be
/// called collectively by every rank of both partitions with the same
/// `master_pid` and policy.
pub fn map_partitions_directed(
    vmpi: &Vmpi,
    target_pid: usize,
    master_pid: usize,
    policy: MapPolicy,
    map: &mut Map,
) -> Result<()> {
    let my_pid = vmpi.partition_id();
    if target_pid == my_pid {
        return Err(VmpiError::SelfMapping);
    }
    if master_pid != my_pid && master_pid != target_pid {
        return Err(VmpiError::UnknownPartition(format!(
            "master #{master_pid} is not part of the mapping"
        )));
    }
    let target = vmpi
        .partition(target_pid)
        .ok_or_else(|| VmpiError::UnknownPartition(format!("#{target_pid}")))?
        .clone();
    let mine = vmpi
        .partition(my_pid)
        .ok_or(VmpiError::PartitionInconsistent {
            world_rank: vmpi.mpi().world_rank(),
            partition: my_pid,
        })?
        .clone();

    let i_am_master = master_pid == my_pid;
    let (master, slave) = if i_am_master {
        (mine.clone(), target.clone())
    } else {
        (target.clone(), mine.clone())
    };
    let tag = map_tag(master.id, slave.id);
    let universe = vmpi.comm_universe();
    let mpi = vmpi.mpi();
    let pivot = master.root_world_rank();

    if !i_am_master {
        // Slave side: publish our global rank to the pivot, receive our
        // assigned master peer back.
        mpi.send_ctx(
            Context::Stream,
            &universe,
            pivot,
            tag,
            opmr_runtime::pod::bytes_of(&(mpi.world_rank() as u64)),
        )?;
        let (_st, data) = mpi.recv_ctx(
            Context::Stream,
            &universe,
            Src::Rank(pivot),
            TagSel::Tag(tag),
        )?;
        let peer = opmr_runtime::pod::from_bytes::<u64>(&data).ok_or_else(|| {
            obs::m().malformed_replies.inc();
            VmpiError::MalformedPivotReply {
                what: "pivot reply of exactly one u64",
                len: data.len(),
            }
        })?;
        let peer = peer as usize;
        if !master.world_ranks().contains(&peer) {
            obs::m().protocol_violations.inc();
            return Err(VmpiError::ProtocolViolation {
                expected: "assigned master world rank inside the master partition",
                got: format!("rank {peer}"),
            });
        }
        map.push(peer);
        return Ok(());
    }

    // Master side.
    if mpi.world_rank() == pivot {
        let mut assigner = Assigner::new(&policy);
        // Per-master-local peer lists; the pivot is master-local 0.
        let mut assigned: Vec<Vec<u64>> = vec![Vec::new(); master.size];
        // Registrations arrive in scheduling order; the policy is applied
        // in world-rank order, so the same job always gets the same map.
        let mut registered = Vec::with_capacity(slave.size);
        for _ in 0..slave.size {
            let (_st, data) =
                mpi.recv_ctx(Context::Stream, &universe, Src::Any, TagSel::Tag(tag))?;
            let slave_world = opmr_runtime::pod::from_bytes::<u64>(&data).ok_or_else(|| {
                obs::m().malformed_replies.inc();
                VmpiError::MalformedPivotReply {
                    what: "slave registration of exactly one u64",
                    len: data.len(),
                }
            })?;
            if !slave.world_ranks().contains(&(slave_world as usize)) {
                obs::m().protocol_violations.inc();
                return Err(VmpiError::ProtocolViolation {
                    expected: "slave world rank inside the slave partition",
                    got: format!("rank {slave_world}"),
                });
            }
            registered.push(slave_world);
        }
        registered.sort_unstable();
        for (i, slave_world) in registered.into_iter().enumerate() {
            let master_local = assigner.assign(i, master.size)?;
            let master_world = master.first_world_rank + master_local;
            assigned[master_local].push(slave_world);
            // Reply to the slave with its assigned master rank.
            mpi.send_ctx(
                Context::Stream,
                &universe,
                slave_world as usize,
                tag,
                opmr_runtime::pod::bytes_of(&(master_world as u64)),
            )?;
        }
        // Distribute peer lists to the master partition (the "end of
        // mapping" broadcast of the pivot), self included for uniformity.
        for (master_local, list) in assigned.iter().enumerate() {
            let dst = master.first_world_rank + master_local;
            mpi.send_ctx(
                Context::Stream,
                &universe,
                dst,
                tag,
                opmr_runtime::pod::bytes_of_slice(list),
            )?;
        }
    }
    // Every master rank (pivot included) receives its peer list.
    let (_st, data) = mpi.recv_ctx(
        Context::Stream,
        &universe,
        Src::Rank(pivot),
        TagSel::Tag(tag),
    )?;
    let peers = opmr_runtime::pod::vec_from_bytes::<u64>(&data).ok_or_else(|| {
        obs::m().malformed_replies.inc();
        VmpiError::MalformedPivotReply {
            what: "peer list of whole u64s",
            len: data.len(),
        }
    })?;
    for p in peers {
        map.push(p as usize);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_runtime::Launcher;
    use std::sync::{Arc as StdArc, Mutex};

    type RankMaps = Vec<(usize, Map)>;

    /// Runs a writer/analyzer pair and returns (writer maps, analyzer maps)
    /// keyed by world rank.
    fn run_mapping(writers: usize, analyzers: usize, policy: MapPolicy) -> (RankMaps, RankMaps) {
        let w_maps = StdArc::new(Mutex::new(Vec::new()));
        let a_maps = StdArc::new(Mutex::new(Vec::new()));
        let (w2, a2) = (StdArc::clone(&w_maps), StdArc::clone(&a_maps));
        let (p1, p2) = (policy.clone(), policy);
        Launcher::new()
            .partition("writers", writers, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let target = v.partition_by_name("Analyzer").unwrap().id;
                let mut map = Map::new();
                map_partitions(&v, target, p1.clone(), &mut map).unwrap();
                w2.lock().unwrap().push((v.mpi().world_rank(), map));
            })
            .partition("Analyzer", analyzers, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut map = Map::new();
                map_partitions(&v, 0, p2.clone(), &mut map).unwrap();
                a2.lock().unwrap().push((v.mpi().world_rank(), map));
            })
            .run()
            .unwrap();
        let mut w = w_maps.lock().unwrap().clone();
        let mut a = a_maps.lock().unwrap().clone();
        w.sort_by_key(|e| e.0);
        a.sort_by_key(|e| e.0);
        (w, a)
    }

    /// Mapping validity (the paper's requirement): each process is
    /// associated with at least one process of the remote partition, and
    /// the two sides' views are mutually consistent.
    fn assert_consistent(writers: &[(usize, Map)], analyzers: &[(usize, Map)]) {
        for (wr, map) in writers {
            assert_eq!(map.len(), 1, "each slave gets exactly one master peer");
            let master = map.peers()[0];
            let (_, amap) = analyzers
                .iter()
                .find(|(ar, _)| *ar == master)
                .expect("peer exists in analyzer partition");
            assert!(
                amap.peers().contains(wr),
                "analyzer {master} must list writer {wr}"
            );
        }
        let total: usize = analyzers.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, writers.len(), "every writer appears exactly once");
    }

    #[test]
    fn round_robin_balances_evenly() {
        let (w, a) = run_mapping(8, 4, MapPolicy::RoundRobin);
        assert_consistent(&w, &a);
        for (_, m) in &a {
            assert_eq!(m.len(), 2, "8 writers over 4 analyzers = 2 each");
        }
    }

    #[test]
    fn round_robin_uneven_sizes() {
        let (w, a) = run_mapping(7, 3, MapPolicy::RoundRobin);
        assert_consistent(&w, &a);
        let mut lens: Vec<usize> = a.iter().map(|(_, m)| m.len()).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![2, 2, 3]);
    }

    #[test]
    fn fixed_policy_clamps() {
        let (w, a) = run_mapping(5, 3, MapPolicy::Fixed);
        assert_consistent(&w, &a);
        // Masters 0 and 1 get one writer, master 2 absorbs the overflow.
        let last = a.last().unwrap();
        assert_eq!(last.1.len(), 3);
    }

    #[test]
    fn random_policy_is_valid_and_seeded() {
        let (w1, a1) = run_mapping(12, 4, MapPolicy::Random { seed: 42 });
        assert_consistent(&w1, &a1);
        let (w2, _a2) = run_mapping(12, 4, MapPolicy::Random { seed: 42 });
        // Same seed → same pairing, rank by rank: the pivot applies the
        // policy in world-rank order whatever order registrations arrive in.
        let pairs =
            |w: &RankMaps| -> Vec<_> { w.iter().map(|(r, m)| (*r, m.peers()[0])).collect() };
        assert_eq!(pairs(&w1), pairs(&w2), "seeded random assignment is stable");
    }

    #[test]
    fn custom_policy_reverses() {
        let (w, a) = run_mapping(4, 4, MapPolicy::Custom(Arc::new(|i| 3 - i)));
        assert_consistent(&w, &a);
    }

    #[test]
    fn smaller_partition_is_master_even_when_caller_is_larger() {
        // Analyzer (2) masters the writers (6) regardless of which side's
        // id is lower.
        let (w, a) = run_mapping(6, 2, MapPolicy::RoundRobin);
        assert_consistent(&w, &a);
        for (_, m) in &a {
            assert_eq!(m.len(), 3);
        }
        for (_, m) in &w {
            assert_eq!(m.len(), 1);
        }
    }

    #[test]
    fn additive_multi_partition_mapping() {
        // Figure 10: the analyzer maps N application partitions into one
        // additive map.
        let a_map = StdArc::new(Mutex::new(Map::new()));
        let a2 = StdArc::clone(&a_map);
        Launcher::new()
            .partition("app0", 3, |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let an = v.partition_by_name("Analyzer").unwrap().id;
                let mut map = Map::new();
                map_partitions(&v, an, MapPolicy::RoundRobin, &mut map).unwrap();
                assert_eq!(map.len(), 1);
            })
            .partition("app1", 4, |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let an = v.partition_by_name("Analyzer").unwrap().id;
                let mut map = Map::new();
                map_partitions(&v, an, MapPolicy::RoundRobin, &mut map).unwrap();
                assert_eq!(map.len(), 1);
            })
            .partition("Analyzer", 2, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut map = Map::new();
                for pid in 0..v.partition_count() {
                    if pid != v.partition_id() {
                        map_partitions(&v, pid, MapPolicy::RoundRobin, &mut map).unwrap();
                    }
                }
                if v.rank() == 0 {
                    *a2.lock().unwrap() = map;
                }
            })
            .run()
            .unwrap();
        // Analyzer rank 0 sees writers from both apps: ceil shares of 3 + 4.
        let m = a_map.lock().unwrap();
        assert_eq!(m.len(), 2 + 2);
    }

    #[test]
    fn directed_mapping_masters_the_larger_partition() {
        // The size rule would master the 2-rank writers; the directed call
        // masters the 5-rank "tree" partition instead, so its ranks get
        // peer lists even though they outnumber the slaves.
        let t_maps = StdArc::new(Mutex::new(Vec::new()));
        let t2 = StdArc::clone(&t_maps);
        Launcher::new()
            .partition("w", 2, |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let tree = v.partition_by_name("tree").unwrap().id;
                let mut map = Map::new();
                map_partitions_directed(&v, tree, tree, MapPolicy::RoundRobin, &mut map).unwrap();
                assert_eq!(map.len(), 1, "each writer gets one tree peer");
            })
            .partition("tree", 5, move |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut map = Map::new();
                map_partitions_directed(&v, 0, v.partition_id(), MapPolicy::RoundRobin, &mut map)
                    .unwrap();
                t2.lock().unwrap().push((v.rank(), map));
            })
            .run()
            .unwrap();
        let mut t = t_maps.lock().unwrap().clone();
        t.sort_by_key(|e| e.0);
        // Round-robin over world-rank order: exactly ranks 0 and 1 adopt one
        // writer each; ranks 2..4 stay empty.
        let lens: Vec<usize> = t.iter().map(|(_, m)| m.len()).collect();
        assert_eq!(lens.iter().sum::<usize>(), 2);
        assert_eq!(lens[0], 1);
        assert_eq!(lens[1], 1);
        assert_eq!(&lens[2..], &[0, 0, 0]);
    }

    #[test]
    fn directed_mapping_rejects_foreign_master() {
        Launcher::new()
            .partition("a", 1, |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut map = Map::new();
                assert!(matches!(
                    map_partitions_directed(&v, 1, 7, MapPolicy::RoundRobin, &mut map),
                    Err(VmpiError::UnknownPartition(_))
                ));
            })
            .partition("b", 1, |_mpi| {})
            .run()
            .unwrap();
    }

    #[test]
    fn custom_policy_out_of_range_is_typed() {
        let p = MapPolicy::Custom(Arc::new(|_| 99));
        assert!(matches!(
            Assigner::new(&p).assign(0, 4),
            Err(VmpiError::InvalidAssignment {
                index: 99,
                master_size: 4
            })
        ));
    }

    #[test]
    fn self_mapping_rejected() {
        Launcher::new()
            .partition("solo", 2, |mpi| {
                let v = Vmpi::new(mpi).unwrap();
                let mut map = Map::new();
                assert_eq!(
                    map_partitions(&v, v.partition_id(), MapPolicy::RoundRobin, &mut map),
                    Err(VmpiError::SelfMapping)
                );
            })
            .partition("other", 1, |_mpi| {})
            .run()
            .unwrap();
    }
}
