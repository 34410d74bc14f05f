//! The worklist discrete-event engine.
//!
//! Each rank owns a virtual clock and a cursor into its [`crate::op::Program`]. Ranks
//! execute until they block (receive with no matching send, rendezvous send
//! with no matching receive, halo exchange waiting for its peer, collective
//! waiting for the group); matching events transfer completion times and
//! put blocked ranks back on the worklist. The algorithm is deterministic:
//! rank order on the worklist never influences computed times, only
//! discovery order.

use crate::machine::Machine;
use crate::op::{CollKind, Op, Phase, Workload};
use crate::tools::{ToolModel, ToolState};
use std::collections::{HashMap, VecDeque};

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No rank can make progress but some have not finished.
    Deadlock {
        finished: usize,
        total: usize,
        /// A few blocked ranks with a description of what they wait for.
        sample: Vec<(u32, String)>,
    },
    /// An op referenced an invalid rank or group.
    BadReference(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock {
                finished,
                total,
                sample,
            } => {
                write!(f, "deadlock: {finished}/{total} ranks finished; blocked: ")?;
                for (r, what) in sample {
                    write!(f, "[{r}: {what}] ")?;
                }
                Ok(())
            }
            SimError::BadReference(what) => write!(f, "bad reference: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate counters of one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Communication ops executed (events under instrumentation).
    pub comm_ops: u64,
    /// Application payload bytes moved by point-to-point ops.
    pub p2p_bytes: u64,
    /// Instrumentation events recorded (0 for the reference model).
    pub events: u64,
    /// Measurement data produced, bytes.
    pub event_bytes: u64,
    /// Total stream back-pressure stall time across ranks, ns.
    pub stall_ns: f64,
    /// Total file-system time across ranks, ns.
    pub fs_ns: f64,
}

/// Deterministic transport-fault model for simulations — the analytic twin
/// of the runtime's `opmr_runtime::FaultPlan`. Decisions are a pure hash of
/// `(seed, src, dst, per-channel sequence)`, so a given seed always yields
/// the same fault schedule regardless of worklist discovery order.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFaults {
    /// Seed for the per-message fault rolls.
    pub seed: u64,
    /// Probability a message is delayed by `delay_ns`.
    pub delay_p: f64,
    /// Extra in-flight time for delayed messages, ns.
    pub delay_ns: f64,
    /// Ranks whose every send pays `slow_factor` × the transfer time.
    pub slow_ranks: Vec<u32>,
    /// Transfer-time multiplier for slow ranks (≥ 1).
    pub slow_factor: f64,
}

impl SimFaults {
    /// A fault-free plan under `seed` — useful as a builder base.
    pub fn seeded(seed: u64) -> Self {
        SimFaults {
            seed,
            delay_p: 0.0,
            delay_ns: 0.0,
            slow_ranks: Vec::new(),
            slow_factor: 1.0,
        }
    }
}

/// Salt of the delay decision stream.
const SALT_DELAY: u64 = 1;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-channel sequence counters driving the deterministic fault rolls.
struct FaultRoller<'a> {
    f: &'a SimFaults,
    seqs: HashMap<(u32, u32), u64>,
}

impl<'a> FaultRoller<'a> {
    fn new(f: &'a SimFaults) -> Self {
        FaultRoller {
            f,
            seqs: HashMap::new(),
        }
    }

    /// Whether message `seq` on channel `(src, dst)` is delayed.
    fn delayed(&self, src: u32, dst: u32, seq: u64) -> bool {
        let p = self.f.delay_p;
        if p <= 0.0 {
            return false;
        }
        let h = splitmix64(
            splitmix64(self.f.seed ^ SALT_DELAY)
                ^ splitmix64(((src as u64) << 32) | dst as u64)
                ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        h < (p * u64::MAX as f64) as u64
    }

    /// Extra sender-side nanoseconds for one point-to-point message on
    /// channel `(src, dst)`.
    fn send_penalty(&mut self, m: &Machine, src: u32, dst: u32, bytes: u64) -> f64 {
        let seq = self.seqs.entry((src, dst)).or_insert(0);
        let this = *seq;
        *seq += 1;
        let mut extra = 0.0;
        if self.delayed(src, dst, this) {
            extra += self.f.delay_ns;
        }
        if self.f.slow_ranks.contains(&src) && self.f.slow_factor > 1.0 {
            let transfer = m.latency_ns + bytes as f64 / m.rank_bw * 1e9;
            extra += (self.f.slow_factor - 1.0) * transfer;
        }
        extra
    }
}

/// Result of one simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Job makespan, seconds (max over ranks).
    pub elapsed_s: f64,
    /// Per-rank completion times, seconds.
    pub per_rank_s: Vec<f64>,
    /// Per-rank time inside point-to-point calls, ns.
    pub per_rank_p2p_ns: Vec<f64>,
    /// Per-rank time inside collectives, ns.
    pub per_rank_coll_ns: Vec<f64>,
    /// Per-rank point-to-point sends issued.
    pub per_rank_sends: Vec<u64>,
    /// Per-rank point-to-point bytes sent.
    pub per_rank_send_bytes: Vec<u64>,
    pub stats: SimStats,
}

impl SimResult {
    /// Average instrumentation-data bandwidth `Bi = total event size /
    /// execution time` (Section IV-C).
    pub fn bi_bps(&self) -> f64 {
        if self.elapsed_s == 0.0 {
            0.0
        } else {
            self.stats.event_bytes as f64 / self.elapsed_s
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Blocked {
    No,
    Done,
    Recv { from: u32 },
    RendezvousSend { to: u32 },
    Exchange { peer: u32 },
    Coll { group: u32 },
}

struct RankCtx {
    t: f64,
    phase: Option<Phase>,
    blocked: Blocked,
    tool: ToolState,
    /// Time spent inside point-to-point ops (send/recv/exchange), ns.
    p2p_ns: f64,
    /// Time spent inside collectives, ns.
    coll_ns: f64,
    /// Point-to-point messages sent.
    sends: u64,
    /// Bytes sent point-to-point.
    send_bytes: u64,
    /// Virtual time when the current communication op started (set when
    /// the op begins, consumed at completion).
    op_start: f64,
}

struct SendPost {
    sender: u32,
    bytes: u64,
    /// Sender clock when the message was handed to the network.
    t_ready: f64,
    /// Rendezvous sends park the sender until matched.
    rendezvous: bool,
}

struct RecvPost {
    t_ready: f64,
}

#[derive(Default)]
struct Channel {
    sends: VecDeque<SendPost>,
    recvs: VecDeque<RecvPost>,
}

struct ExchangePost {
    rank: u32,
    bytes: u64,
    t_ready: f64,
}

#[derive(Default)]
struct CollSlot {
    arrived: Vec<u32>,
    bytes_max: u64,
    t_max: f64,
}

/// Cost of one collective over `n` ranks moving `bytes` per rank.
fn coll_cost_ns(m: &Machine, kind: CollKind, n: usize, bytes: u64) -> f64 {
    let n = n.max(2) as f64;
    let log = n.log2().ceil();
    let hop = |b: u64| m.latency_ns + b as f64 / m.rank_bw * 1e9;
    match kind {
        CollKind::Barrier => 2.0 * log * m.latency_ns,
        CollKind::Bcast | CollKind::Reduce | CollKind::Gather => log * hop(bytes),
        CollKind::Allreduce | CollKind::Allgather => 2.0 * log * hop(bytes),
        CollKind::Alltoall => (n - 1.0) * hop(bytes),
    }
}

/// Runs the workload on the machine under a measurement-chain model.
pub fn simulate(w: &Workload, m: &Machine, tool: &ToolModel) -> Result<SimResult, SimError> {
    simulate_with_faults(w, m, tool, None)
}

/// [`simulate`] with an optional transport-fault model: point-to-point
/// sends pay deterministic seeded penalties for delays and slow source
/// ranks. `None` is exactly the fault-free simulation.
pub fn simulate_with_faults(
    w: &Workload,
    m: &Machine,
    tool: &ToolModel,
    faults: Option<&SimFaults>,
) -> Result<SimResult, SimError> {
    let mut roller = faults.map(FaultRoller::new);
    let n = w.ranks();
    let job_ranks = n;
    let mut ranks: Vec<RankCtx> = (0..n)
        .map(|r| RankCtx {
            t: 0.0,
            phase: Phase::start().normalize(&w.programs[r]),
            blocked: Blocked::No,
            tool: ToolState::default(),
            p2p_ns: 0.0,
            coll_ns: 0.0,
            sends: 0,
            send_bytes: 0,
            op_start: 0.0,
        })
        .collect();
    let mut channels: HashMap<(u32, u32), Channel> = HashMap::new();
    let mut exchanges: HashMap<(u32, u32), VecDeque<ExchangePost>> = HashMap::new();
    let mut colls: HashMap<u32, CollSlot> = HashMap::new();
    let mut stats = SimStats::default();

    let mut runnable: VecDeque<u32> = (0..n as u32).collect();
    let mut finished = 0usize;

    // Finishes rank `r`'s current op at time `t_end`, applies the tool cost
    // and advances the cursor. Returns nothing; rank must then be run.
    #[allow(clippy::too_many_arguments)] // internal helper threading sim state
    fn complete_comm(
        ranks: &mut [RankCtx],
        w: &Workload,
        m: &Machine,
        tool: &ToolModel,
        job_ranks: usize,
        stats: &mut SimStats,
        r: u32,
        t_end: f64,
        ev_count: u64,
        is_coll: bool,
    ) {
        let ctx = &mut ranks[r as usize];
        let spent = (t_end - ctx.op_start).max(0.0);
        if is_coll {
            ctx.coll_ns += spent;
        } else {
            ctx.p2p_ns += spent;
        }
        ctx.t = t_end;
        stats.comm_ops += 1;
        ctx.tool
            .after_comm(tool, m, job_ranks, &mut ctx.t, ev_count);
        ctx.blocked = Blocked::No;
        // A completing rank always has a current op; a missing phase can
        // only come from corrupt bookkeeping, in which case the rank simply
        // finalizes on its next scheduling slice.
        ctx.phase = ctx.phase.and_then(|p| p.advance(&w.programs[r as usize]));
    }

    while let Some(r) = runnable.pop_front() {
        // Run rank r until it blocks or finishes.
        loop {
            if matches!(ranks[r as usize].blocked, Blocked::Done) {
                break;
            }
            let Some(phase) = ranks[r as usize].phase else {
                // Program complete: finalize-time tool costs, mark done.
                let ctx = &mut ranks[r as usize];
                ctx.tool.finish(tool, m, job_ranks, &mut ctx.t);
                ctx.blocked = Blocked::Done;
                finished += 1;
                break;
            };
            let Some(op) = w.programs[r as usize].op_at(phase) else {
                // A phase outside the program can only come from corrupt
                // input; treat it as program end.
                ranks[r as usize].phase = None;
                continue;
            };
            match op {
                Op::Compute { ns } => {
                    let ctx = &mut ranks[r as usize];
                    ctx.t += ns;
                    ctx.phase = phase.advance(&w.programs[r as usize]);
                }
                Op::FsWrite { bytes } => {
                    let cost = m.fs.write_ns(bytes, job_ranks);
                    let ctx = &mut ranks[r as usize];
                    ctx.tool.fs_ns += cost;
                    ctx.t += cost;
                    ctx.phase = phase.advance(&w.programs[r as usize]);
                }
                Op::FsMeta => {
                    let cost = m.fs.meta_op_ns(job_ranks);
                    let ctx = &mut ranks[r as usize];
                    ctx.tool.fs_ns += cost;
                    ctx.t += cost;
                    ctx.phase = phase.advance(&w.programs[r as usize]);
                }
                Op::Send { to, bytes } => {
                    if to as usize >= n {
                        return Err(SimError::BadReference(format!(
                            "rank {r} sends to {to} of {n}"
                        )));
                    }
                    stats.p2p_bytes += bytes;
                    {
                        let ctx = &mut ranks[r as usize];
                        ctx.op_start = ctx.t;
                        ctx.sends += 1;
                        ctx.send_bytes += bytes;
                    }
                    let eager = bytes <= m.eager_limit;
                    let mut t_send = ranks[r as usize].t;
                    if let Some(roller) = roller.as_mut() {
                        t_send += roller.send_penalty(m, r, to, bytes);
                    }
                    let ch = channels.entry((r, to)).or_default();
                    if let Some(recv) = ch.recvs.pop_front() {
                        // Receiver already waiting.
                        let t_end = t_send.max(recv.t_ready) + m.transfer_ns(bytes);
                        // Sender completes per protocol.
                        let t_sender = if eager {
                            t_send + bytes as f64 / m.rank_bw * 1e9
                        } else {
                            t_end
                        };
                        complete_comm(
                            &mut ranks, w, m, tool, job_ranks, &mut stats, r, t_sender, 2, false,
                        );
                        complete_comm(
                            &mut ranks, w, m, tool, job_ranks, &mut stats, to, t_end, 2, false,
                        );
                        runnable.push_back(to);
                    } else {
                        ch.sends.push_back(SendPost {
                            sender: r,
                            bytes,
                            t_ready: t_send,
                            rendezvous: !eager,
                        });
                        if eager {
                            let t_sender = t_send + bytes as f64 / m.rank_bw * 1e9;
                            complete_comm(
                                &mut ranks, w, m, tool, job_ranks, &mut stats, r, t_sender, 2,
                                false,
                            );
                        } else {
                            ranks[r as usize].blocked = Blocked::RendezvousSend { to };
                            break;
                        }
                    }
                }
                Op::Recv { from } => {
                    if from as usize >= n {
                        return Err(SimError::BadReference(format!(
                            "rank {r} receives from {from} of {n}"
                        )));
                    }
                    ranks[r as usize].op_start = ranks[r as usize].t;
                    let t_recv = ranks[r as usize].t;
                    let ch = channels.entry((from, r)).or_default();
                    if let Some(send) = ch.sends.pop_front() {
                        let t_end = t_recv.max(send.t_ready) + m.transfer_ns(send.bytes);
                        if send.rendezvous {
                            // Unblock the parked sender at the same instant.
                            complete_comm(
                                &mut ranks,
                                w,
                                m,
                                tool,
                                job_ranks,
                                &mut stats,
                                send.sender,
                                t_end,
                                2,
                                false,
                            );
                            runnable.push_back(send.sender);
                        }
                        complete_comm(
                            &mut ranks, w, m, tool, job_ranks, &mut stats, r, t_end, 2, false,
                        );
                    } else {
                        ch.recvs.push_back(RecvPost { t_ready: t_recv });
                        ranks[r as usize].blocked = Blocked::Recv { from };
                        break;
                    }
                }
                Op::Exchange { peer, bytes } => {
                    if peer as usize >= n {
                        return Err(SimError::BadReference(format!(
                            "rank {r} exchanges with {peer} of {n}"
                        )));
                    }
                    stats.p2p_bytes += bytes;
                    {
                        let ctx = &mut ranks[r as usize];
                        ctx.op_start = ctx.t;
                        ctx.sends += 1;
                        ctx.send_bytes += bytes;
                    }
                    let key = (r.min(peer), r.max(peer));
                    let t_here = ranks[r as usize].t;
                    let queue = exchanges.entry(key).or_default();
                    // Only match a post made by the *other* side.
                    let matched = queue
                        .iter()
                        .position(|p| p.rank == peer)
                        .and_then(|pos| queue.remove(pos));
                    if let Some(other) = matched {
                        let both_bytes = bytes.max(other.bytes);
                        let t_end = t_here.max(other.t_ready) + m.transfer_ns(both_bytes);
                        complete_comm(
                            &mut ranks, w, m, tool, job_ranks, &mut stats, peer, t_end, 6, false,
                        );
                        runnable.push_back(peer);
                        complete_comm(
                            &mut ranks, w, m, tool, job_ranks, &mut stats, r, t_end, 6, false,
                        );
                    } else {
                        queue.push_back(ExchangePost {
                            rank: r,
                            bytes,
                            t_ready: t_here,
                        });
                        ranks[r as usize].blocked = Blocked::Exchange { peer };
                        break;
                    }
                }
                Op::Coll { group, kind, bytes } => {
                    let members = w
                        .groups
                        .get(group as usize)
                        .ok_or_else(|| SimError::BadReference(format!("group {group}")))?;
                    debug_assert!(members.contains(&r), "rank {r} not in group {group}");
                    ranks[r as usize].op_start = ranks[r as usize].t;
                    let slot = colls.entry(group).or_default();
                    let t_here = ranks[r as usize].t;
                    slot.t_max = slot.t_max.max(t_here);
                    slot.bytes_max = slot.bytes_max.max(bytes);
                    slot.arrived.push(r);
                    if slot.arrived.len() == members.len() {
                        if let Some(slot) = colls.remove(&group) {
                            let t_end =
                                slot.t_max + coll_cost_ns(m, kind, members.len(), slot.bytes_max);
                            for &member in &slot.arrived {
                                complete_comm(
                                    &mut ranks, w, m, tool, job_ranks, &mut stats, member, t_end,
                                    1, true,
                                );
                                if member != r {
                                    runnable.push_back(member);
                                }
                            }
                        }
                    } else {
                        ranks[r as usize].blocked = Blocked::Coll { group };
                        break;
                    }
                }
            }
        }
        // `runnable` may contain duplicates of ranks pushed while already
        // queued; the loop guards handle that (Done / blocked ranks fall
        // through immediately).
        while let Some(&front) = runnable.front() {
            match ranks[front as usize].blocked {
                Blocked::Done => {
                    runnable.pop_front();
                }
                Blocked::No => break,
                _ => {
                    runnable.pop_front();
                }
            }
        }
    }

    if finished != n {
        let mut sample = Vec::new();
        for (i, ctx) in ranks.iter().enumerate() {
            if !matches!(ctx.blocked, Blocked::Done) {
                sample.push((i as u32, format!("{:?} at {:?}", ctx.blocked, ctx.phase)));
                if sample.len() >= 5 {
                    break;
                }
            }
        }
        return Err(SimError::Deadlock {
            finished,
            total: n,
            sample,
        });
    }

    let per_rank_s: Vec<f64> = ranks.iter().map(|c| c.t / 1e9).collect();
    let elapsed_s = per_rank_s.iter().cloned().fold(0.0, f64::max);
    for ctx in &ranks {
        stats.events += ctx.tool.events;
        stats.stall_ns += ctx.tool.stall_ns;
        stats.fs_ns += ctx.tool.fs_ns;
    }
    stats.event_bytes = stats.events * tool.event_bytes();
    Ok(SimResult {
        elapsed_s,
        per_rank_p2p_ns: ranks.iter().map(|c| c.p2p_ns).collect(),
        per_rank_coll_ns: ranks.iter().map(|c| c.coll_ns).collect(),
        per_rank_sends: ranks.iter().map(|c| c.sends).collect(),
        per_rank_send_bytes: ranks.iter().map(|c| c.send_bytes).collect(),
        per_rank_s,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::tera100;
    use crate::op::Program;

    fn two_rank_pingpong(iters: u32, bytes: u64) -> Workload {
        Workload {
            programs: vec![
                Program {
                    prologue: vec![],
                    body: vec![Op::Send { to: 1, bytes }, Op::Recv { from: 1 }],
                    iters,
                    epilogue: vec![],
                },
                Program {
                    prologue: vec![],
                    body: vec![Op::Recv { from: 0 }, Op::Send { to: 0, bytes }],
                    iters,
                    epilogue: vec![],
                },
            ],
            groups: vec![],
        }
    }

    #[test]
    fn compute_only_is_additive() {
        let w = Workload {
            programs: vec![Program {
                prologue: vec![Op::Compute { ns: 100.0 }],
                body: vec![Op::Compute { ns: 10.0 }],
                iters: 5,
                epilogue: vec![Op::Compute { ns: 1.0 }],
            }],
            groups: vec![],
        };
        let r = simulate(&w, &tera100(), &ToolModel::None).unwrap();
        assert!((r.elapsed_s * 1e9 - 151.0).abs() < 1e-6);
    }

    #[test]
    fn pingpong_latency_bound() {
        let m = tera100();
        let w = two_rank_pingpong(10, 8);
        let r = simulate(&w, &m, &ToolModel::None).unwrap();
        // 20 messages × (latency + ~0 transfer) plus eager sender-side time.
        let expect_min = 20.0 * m.latency_ns / 1e9;
        assert!(r.elapsed_s >= expect_min, "{} < {expect_min}", r.elapsed_s);
        assert!(r.elapsed_s < expect_min * 2.0);
        assert_eq!(r.stats.comm_ops, 40);
        assert_eq!(r.stats.p2p_bytes, 20 * 8);
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let m = tera100();
        let w = two_rank_pingpong(1, 100 << 20); // 100 MB rendezvous
        let r = simulate(&w, &m, &ToolModel::None).unwrap();
        let transfer_s = (100 << 20) as f64 / m.rank_bw;
        assert!(r.elapsed_s > 2.0 * transfer_s * 0.95);
        assert!(r.elapsed_s < 2.0 * transfer_s * 1.2);
    }

    #[test]
    fn rendezvous_sender_waits_for_receiver() {
        let m = tera100();
        // Rank 1 computes 1 s before receiving; sender must not finish
        // earlier (rendezvous-sized message).
        let w = Workload {
            programs: vec![
                Program {
                    prologue: vec![Op::Send {
                        to: 1,
                        bytes: 1 << 20,
                    }],
                    body: vec![],
                    iters: 0,
                    epilogue: vec![],
                },
                Program {
                    prologue: vec![Op::Compute { ns: 1e9 }, Op::Recv { from: 0 }],
                    body: vec![],
                    iters: 0,
                    epilogue: vec![],
                },
            ],
            groups: vec![],
        };
        let r = simulate(&w, &m, &ToolModel::None).unwrap();
        assert!(r.per_rank_s[0] >= 1.0, "sender parked until recv posted");
    }

    #[test]
    fn eager_sender_proceeds_early() {
        let m = tera100();
        let w = Workload {
            programs: vec![
                Program {
                    prologue: vec![Op::Send { to: 1, bytes: 64 }],
                    body: vec![],
                    iters: 0,
                    epilogue: vec![],
                },
                Program {
                    prologue: vec![Op::Compute { ns: 1e9 }, Op::Recv { from: 0 }],
                    body: vec![],
                    iters: 0,
                    epilogue: vec![],
                },
            ],
            groups: vec![],
        };
        let r = simulate(&w, &m, &ToolModel::None).unwrap();
        assert!(r.per_rank_s[0] < 0.01, "eager sender must not wait 1 s");
        assert!(r.per_rank_s[1] >= 1.0);
    }

    #[test]
    fn exchange_synchronizes_pairs() {
        let m = tera100();
        let w = Workload {
            programs: vec![
                Program {
                    prologue: vec![
                        Op::Compute { ns: 5e8 },
                        Op::Exchange {
                            peer: 1,
                            bytes: 1 << 20,
                        },
                    ],
                    body: vec![],
                    iters: 0,
                    epilogue: vec![],
                },
                Program {
                    prologue: vec![Op::Exchange {
                        peer: 0,
                        bytes: 1 << 20,
                    }],
                    body: vec![],
                    iters: 0,
                    epilogue: vec![],
                },
            ],
            groups: vec![],
        };
        let r = simulate(&w, &m, &ToolModel::None).unwrap();
        // Both finish together, after the slower side arrives.
        assert!((r.per_rank_s[0] - r.per_rank_s[1]).abs() < 1e-9);
        assert!(r.per_rank_s[0] >= 0.5);
    }

    #[test]
    fn collective_waits_for_all_members() {
        let m = tera100();
        let mut w = Workload {
            programs: (0..4)
                .map(|r| Program {
                    prologue: vec![
                        Op::Compute {
                            ns: (r as f64 + 1.0) * 1e8,
                        },
                        Op::Coll {
                            group: 0,
                            kind: CollKind::Barrier,
                            bytes: 0,
                        },
                    ],
                    body: vec![],
                    iters: 0,
                    epilogue: vec![],
                })
                .collect(),
            groups: vec![],
        };
        w.add_group(vec![0, 1, 2, 3]);
        let r = simulate(&w, &m, &ToolModel::None).unwrap();
        // All leave at (slowest arrival 0.4 s) + barrier cost.
        for t in &r.per_rank_s {
            assert!(*t >= 0.4);
            assert!((*t - r.per_rank_s[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn subgroup_collectives_are_independent() {
        let m = tera100();
        let mut w = Workload {
            programs: (0..4)
                .map(|r| Program {
                    prologue: vec![Op::Coll {
                        group: r / 2,
                        kind: CollKind::Allreduce,
                        bytes: 8,
                    }],
                    body: vec![],
                    iters: 0,
                    epilogue: vec![],
                })
                .collect(),
            groups: vec![],
        };
        w.add_group(vec![0, 1]);
        w.add_group(vec![2, 3]);
        let r = simulate(&w, &m, &ToolModel::None).unwrap();
        assert!(r.elapsed_s > 0.0);
    }

    #[test]
    fn deadlock_detected_and_reported() {
        let w = Workload {
            programs: vec![Program {
                prologue: vec![Op::Recv { from: 0 }],
                body: vec![],
                iters: 0,
                epilogue: vec![],
            }],
            groups: vec![],
        };
        // Rank 0 receives from itself with no send: deadlock.
        let err = simulate(&w, &tera100(), &ToolModel::None).unwrap_err();
        match err {
            SimError::Deadlock {
                finished, total, ..
            } => {
                assert_eq!((finished, total), (0, 1));
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn bad_rank_reference_rejected() {
        let w = Workload {
            programs: vec![Program {
                prologue: vec![Op::Send { to: 7, bytes: 1 }],
                body: vec![],
                iters: 0,
                epilogue: vec![],
            }],
            groups: vec![],
        };
        assert!(matches!(
            simulate(&w, &tera100(), &ToolModel::None),
            Err(SimError::BadReference(_))
        ));
    }

    #[test]
    fn determinism_same_inputs_same_times() {
        let w = two_rank_pingpong(50, 1 << 16);
        let m = tera100();
        let a = simulate(&w, &m, &ToolModel::online_coupling(1.0)).unwrap();
        let b = simulate(&w, &m, &ToolModel::online_coupling(1.0)).unwrap();
        assert_eq!(a.per_rank_s, b.per_rank_s);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn instrumentation_overhead_is_nonnegative_and_bounded() {
        let w = two_rank_pingpong(200, 1 << 14);
        let m = tera100();
        let t0 = simulate(&w, &m, &ToolModel::None).unwrap().elapsed_s;
        let t1 = simulate(&w, &m, &ToolModel::online_coupling(1.0))
            .unwrap()
            .elapsed_s;
        assert!(t1 >= t0);
        assert!(t1 < t0 * 2.0, "coupling overhead should be moderate");
    }

    #[test]
    fn faults_none_equals_plain_simulate() {
        let w = two_rank_pingpong(50, 1 << 16);
        let m = tera100();
        let a = simulate(&w, &m, &ToolModel::online_coupling(1.0)).unwrap();
        let b = simulate_with_faults(&w, &m, &ToolModel::online_coupling(1.0), None).unwrap();
        assert_eq!(a.per_rank_s, b.per_rank_s);
        assert_eq!(a.stats, b.stats);
        let zero = SimFaults::seeded(42);
        let c =
            simulate_with_faults(&w, &m, &ToolModel::online_coupling(1.0), Some(&zero)).unwrap();
        assert_eq!(a.per_rank_s, c.per_rank_s, "all-zero plan is a no-op");
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let w = two_rank_pingpong(100, 1 << 14);
        let m = tera100();
        let f = SimFaults {
            delay_p: 0.1,
            delay_ns: 5_000.0,
            ..SimFaults::seeded(7)
        };
        let a = simulate_with_faults(&w, &m, &ToolModel::None, Some(&f)).unwrap();
        let b = simulate_with_faults(&w, &m, &ToolModel::None, Some(&f)).unwrap();
        assert_eq!(a.per_rank_s, b.per_rank_s);
        assert_eq!(a.stats, b.stats);
        let clean = simulate(&w, &m, &ToolModel::None).unwrap();
        assert_ne!(
            a.per_rank_s, clean.per_rank_s,
            "10% delay over 200 sends must hit"
        );
        let g = SimFaults { seed: 8, ..f };
        let c = simulate_with_faults(&w, &m, &ToolModel::None, Some(&g)).unwrap();
        assert_ne!(
            a.per_rank_s, c.per_rank_s,
            "different seeds give different schedules"
        );
    }

    #[test]
    fn delays_and_slow_ranks_cost_time_monotonically() {
        let w = two_rank_pingpong(100, 1 << 16);
        let m = tera100();
        let t = |f: SimFaults| {
            simulate_with_faults(&w, &m, &ToolModel::None, Some(&f))
                .unwrap()
                .elapsed_s
        };
        let base = simulate(&w, &m, &ToolModel::None).unwrap().elapsed_s;
        let delayed = |p| SimFaults {
            delay_p: p,
            delay_ns: 20_000.0,
            ..SimFaults::seeded(3)
        };
        let t_delay = t(delayed(0.3));
        assert!(t_delay > base, "delays must slow the job down");
        assert!(
            t(delayed(0.6)) > t_delay,
            "higher delay probability costs more"
        );
        let slowed = |factor| SimFaults {
            slow_ranks: vec![0],
            slow_factor: factor,
            ..SimFaults::seeded(3)
        };
        let t_slow = t(slowed(2.0));
        assert!(t_slow > base, "a slow rank must slow the job down");
        assert!(t(slowed(4.0)) > t_slow, "a slower rank costs more");
    }

    #[test]
    fn bi_matches_event_volume() {
        let w = two_rank_pingpong(100, 1 << 10);
        let m = tera100();
        let r = simulate(&w, &m, &ToolModel::online_coupling(1.0)).unwrap();
        // 100 iterations × 2 ops × 2 ranks, two event records per p2p op.
        assert_eq!(r.stats.events, 800);
        assert_eq!(r.stats.event_bytes, 800 * 48);
        assert!(r.bi_bps() > 0.0);
    }
}
