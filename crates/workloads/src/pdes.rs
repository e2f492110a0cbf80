//! Large-scale communication-pattern generators for the sharded PDES
//! engine.
//!
//! The harnesses in the rest of this crate simulate tens to hundreds of
//! ranks through the full verbs/runtime stack. This module targets the
//! other end of the scale axis: **100k–1M simulated ranks**, where holding
//! per-rank simulation machinery (QPs, schedulers, closures) is out of the
//! question. Each rank is a few bytes of dense state inside its owning
//! shard, events are tiny `Copy` enums, and message timing comes straight
//! from the LogGP parameter set — whose wire latency `L` doubles as the
//! engine's conservative lookahead (no delivery can outrun the link, so no
//! cross-shard event can land inside another shard's safe window).
//!
//! Two patterns, matching the paper's aggregation settings:
//!
//! - [`run_fanin`] — a `fanout`-ary reduction tree (the aggregation fan-in
//!   that partitioned sends feed): every leaf contributes a value, interior
//!   ranks fold children in arrival order and forward upward;
//! - [`run_sweep`] — a Sweep3D-style 2-D wavefront: rank `(x, y)` needs a
//!   credit from west and north for each iteration, computes, then credits
//!   east and south, so a diagonal front crosses the grid each sweep.
//!
//! Both fold an **order-sensitive digest** per shard (and, for fan-in, per
//! rank): any reordering of event execution anywhere in the run changes the
//! final digest, making byte-equality of [`PdesOutcome`]s a strong
//! end-to-end determinism check between executors and job counts.

use partix_model::LogGpParams;
use partix_sim::pdes::{
    Pdes, PdesConfig, PdesNode, PdesReport, PdesShardStat, ShardCtx, ShardLogic, ShardMap,
};
use partix_sim::{SimDuration, SimTime};

/// Parameters of one PDES workload run.
#[derive(Clone, Copy, Debug)]
pub struct PdesWorkloadConfig {
    /// Simulated ranks requested. The sweep pattern rounds down to a full
    /// `px * py` grid (see [`grid_dims`]); fan-in uses the count exactly.
    pub ranks: u32,
    /// Shard count. Part of the deterministic result (fixed per
    /// experiment); `--jobs` only changes how shards are driven.
    pub shards: u32,
    /// Tree arity of the fan-in pattern.
    pub fanout: u32,
    /// Wavefront sweeps of the sweep pattern.
    pub sweeps: u32,
    /// Payload bytes per message (feeds the LogGP `G` term).
    pub msg_bytes: u32,
    /// LogGP parameter set for wire timing.
    pub params: LogGpParams,
    /// Root seed for the deterministic per-rank jitter/noise hash.
    pub seed: u64,
}

impl PdesWorkloadConfig {
    /// Defaults tuned for the weak-scaling bench: verbs-level Niagara
    /// parameters, 8-ary tree, 4 sweeps, 4 KiB messages.
    pub fn new(ranks: u32) -> Self {
        PdesWorkloadConfig {
            ranks,
            shards: 16,
            fanout: 8,
            sweeps: 4,
            msg_bytes: 4096,
            params: LogGpParams::niagara_verbs(),
            seed: 0x5EED_0001,
        }
    }

    /// The engine lookahead: the LogGP wire latency `L`, floored to whole
    /// nanoseconds so it never exceeds any actual delivery delay.
    pub fn lookahead(&self) -> SimDuration {
        SimDuration::from_nanos((self.params.l as u64).max(1))
    }

    /// Cross-rank message delay in ns: the classic LogGP single-message
    /// time plus non-negative hash noise, clamped to stay >= lookahead.
    fn wire_delay_ns(&self, noise: u64) -> u64 {
        let base = self.params.single_message_time(self.msg_bytes as usize) as u64;
        (base + (noise & 0xFF)).max(self.lookahead().as_nanos())
    }

    fn engine_config(&self, events_per_shard: usize) -> PdesConfig {
        let per_shard = (self.ranks as usize / self.shards.max(1) as usize) + 64;
        PdesConfig {
            shards: self.shards,
            lookahead: self.lookahead(),
            channel_capacity: per_shard.max(1024),
            event_capacity: events_per_shard.max(1024),
        }
    }
}

/// Result of a PDES workload run: the engine report plus the
/// order-sensitive model digest, and per-shard execution diagnostics.
/// Executors and job counts must agree on [`Self::deterministic_parts`]
/// byte for byte; the diagnostics (barrier wait is wall-clock, mailbox
/// high-water depends on interleaving) are explicitly outside that key.
#[derive(Clone, Debug, PartialEq)]
pub struct PdesOutcome {
    /// Ranks actually simulated (sweep rounds to a full grid).
    pub nodes: u32,
    /// Engine counters.
    pub report: PdesReport,
    /// Order-sensitive FNV fold of final model state.
    pub digest: u64,
    /// Per-shard diagnostics, in shard order.
    pub shard_stats: Vec<PdesShardStat>,
    /// Wall-clock ns workers spent waiting at epoch barriers (0 on the
    /// reference executor).
    pub barrier_wait_ns: u64,
}

impl PdesOutcome {
    /// Everything that must be identical across executors and job counts:
    /// node count, digest, and the deterministic engine counters.
    pub fn deterministic_parts(&self) -> (u32, u64, u64, u64, u64) {
        let (events, cross, makespan) = self.report.deterministic_parts();
        (self.nodes, self.digest, events, cross, makespan)
    }
}

/// splitmix64: the deterministic per-`(rank, step)` noise source. Stateless
/// by construction — per-rank RNG state would defeat O(1)-per-rank memory.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001B3;

#[inline]
fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

fn count_owned(ranks: u32, map: ShardMap, shard: u32) -> usize {
    if shard >= ranks {
        return 0;
    }
    // Nodes shard, shard + S, shard + 2S, ... below `ranks`.
    ((ranks - shard - 1) / map.shards() + 1) as usize
}

// ---------------------------------------------------------------------------
// Fan-in reduction tree
// ---------------------------------------------------------------------------

/// 16 bytes per rank: how many children are still outstanding, and the
/// running fold of their contributions (in arrival order — order matters).
#[derive(Clone, Copy)]
struct FanNode {
    remaining: u32,
    acc: u64,
}

#[derive(Clone, Copy)]
enum FanEv {
    /// A leaf wakes up and contributes.
    Start,
    /// A child subtree's folded value arrives.
    Contribute(u64),
}

struct FanInShard {
    cfg: PdesWorkloadConfig,
    map: ShardMap,
    nodes: Vec<FanNode>,
    /// Order-sensitive shard-level digest (folds every event executed on
    /// this shard, in execution order).
    trace: u64,
}

impl FanInShard {
    fn forward(&self, ctx: &mut ShardCtx<'_, FanEv>, node: PdesNode, value: u64) {
        let compute = 200 + (mix(self.cfg.seed ^ node as u64) & 0x7F);
        let delay = compute
            + self
                .cfg
                .wire_delay_ns(mix(self.cfg.seed ^ (node as u64) << 20));
        let parent = (node - 1) / self.cfg.fanout;
        ctx.send(
            parent,
            SimDuration::from_nanos(delay),
            FanEv::Contribute(value),
        );
    }
}

impl ShardLogic for FanInShard {
    type Event = FanEv;

    fn handle(&mut self, ctx: &mut ShardCtx<'_, FanEv>, node: PdesNode, ev: FanEv) {
        let idx = self.map.local_index(node);
        match ev {
            FanEv::Start => {
                let value = mix(self.cfg.seed ^ 0xFA0 ^ node as u64);
                self.trace = fnv(self.trace, value ^ ctx.now().as_nanos());
                if node == 0 {
                    self.nodes[idx].acc = value; // single-rank degenerate tree
                } else {
                    self.forward(ctx, node, value);
                }
            }
            FanEv::Contribute(v) => {
                let st = &mut self.nodes[idx];
                st.acc = fnv(st.acc, v);
                st.remaining -= 1;
                self.trace = fnv(self.trace, v ^ ctx.now().as_nanos());
                if st.remaining == 0 {
                    let folded = st.acc;
                    if node != 0 {
                        self.forward(ctx, node, folded);
                    }
                }
            }
        }
    }
}

/// Number of children of `node` in the implicit `fanout`-ary tree over
/// `0..ranks` (parent of `i` is `(i - 1) / fanout`).
fn fanin_children(node: u32, ranks: u32, fanout: u32) -> u32 {
    let first = node as u64 * fanout as u64 + 1;
    if first >= ranks as u64 {
        0
    } else {
        ((ranks as u64 - first).min(fanout as u64)) as u32
    }
}

/// Run the fan-in reduction tree. `jobs == None` uses the sequential
/// reference executor; `Some(j)` the epoch-parallel engine with `j` worker
/// threads. All choices produce identical [`PdesOutcome`]s.
pub fn run_fanin(cfg: &PdesWorkloadConfig, jobs: Option<usize>) -> PdesOutcome {
    let ranks = cfg.ranks.max(1);
    let map = ShardMap::new(cfg.shards);
    let logics: Vec<FanInShard> = (0..cfg.shards)
        .map(|s| {
            let owned = count_owned(ranks, map, s);
            let mut nodes = vec![
                FanNode {
                    remaining: 0,
                    acc: FNV_OFFSET
                };
                owned
            ];
            for (i, st) in nodes.iter_mut().enumerate() {
                let node = s + i as u32 * cfg.shards;
                st.remaining = fanin_children(node, ranks, cfg.fanout);
            }
            FanInShard {
                cfg: *cfg,
                map,
                nodes,
                trace: FNV_OFFSET,
            }
        })
        .collect();

    // Each shard's queue peaks near its share of the leaf seeds.
    let events_per_shard = (ranks as usize / cfg.shards.max(1) as usize) + 64;
    let mut pdes = Pdes::new(cfg.engine_config(events_per_shard), logics);
    for node in 0..ranks {
        if fanin_children(node, ranks, cfg.fanout) == 0 {
            // Leaves wake with hash jitter so arrival order is nontrivial.
            let at = SimTime(mix(cfg.seed ^ 0x1EAF ^ node as u64) & 0x3FF);
            pdes.seed(node, at, FanEv::Start);
        }
    }

    let report = match jobs {
        None => pdes.run_reference(),
        Some(j) => pdes.run(j),
    };
    let shard_stats = pdes.shard_stats();
    let barrier_wait_ns = pdes.barrier_wait_ns();
    let logics = pdes.into_logics();
    let mut digest = FNV_OFFSET;
    for logic in &logics {
        digest = fnv(digest, logic.trace);
    }
    // Fold per-rank accumulators in global rank order.
    for node in 0..ranks {
        let st = logics[map.shard_of(node) as usize].nodes[map.local_index(node)];
        digest = fnv(digest, st.acc);
        debug_assert_eq!(st.remaining, 0, "rank {node} never completed");
    }
    PdesOutcome {
        nodes: ranks,
        report,
        digest,
        shard_stats,
        barrier_wait_ns,
    }
}

// ---------------------------------------------------------------------------
// Sweep3D wavefront
// ---------------------------------------------------------------------------

/// 8 bytes per rank: accumulated credits from each upstream neighbour, the
/// next sweep iteration to run, and whether a compute phase is in flight.
#[derive(Clone, Copy)]
struct SweepNode {
    west: u16,
    north: u16,
    iter: u16,
    running: bool,
}

#[derive(Clone, Copy)]
enum SweepEv {
    /// Attempt to start the next iteration (seed / self-wake).
    Try,
    /// Upstream neighbour finished an iteration (`true` = from the west).
    Credit(bool),
    /// This rank's compute phase finished.
    ComputeDone,
}

struct SweepShard {
    cfg: PdesWorkloadConfig,
    map: ShardMap,
    px: u32,
    py: u32,
    nodes: Vec<SweepNode>,
    trace: u64,
}

impl SweepShard {
    /// Start the next iteration if its west/north credits have arrived and
    /// no compute is in flight. Interior ranks need one credit per
    /// completed upstream iteration; edge ranks waive the missing side.
    fn try_start(&mut self, ctx: &mut ShardCtx<'_, SweepEv>, node: PdesNode) {
        let (x, y) = (node % self.px, node / self.px);
        let idx = self.map.local_index(node);
        let st = &mut self.nodes[idx];
        if st.running || st.iter as u32 >= self.cfg.sweeps {
            return;
        }
        let need = st.iter + 1;
        if (x > 0 && st.west < need) || (y > 0 && st.north < need) {
            return;
        }
        st.running = true;
        let compute = 500 + (mix(self.cfg.seed ^ ((node as u64) << 24) ^ st.iter as u64) & 0xFF);
        ctx.send(node, SimDuration::from_nanos(compute), SweepEv::ComputeDone);
    }
}

impl ShardLogic for SweepShard {
    type Event = SweepEv;

    fn handle(&mut self, ctx: &mut ShardCtx<'_, SweepEv>, node: PdesNode, ev: SweepEv) {
        match ev {
            SweepEv::Try => self.try_start(ctx, node),
            SweepEv::Credit(from_west) => {
                let st = &mut self.nodes[self.map.local_index(node)];
                if from_west {
                    st.west += 1;
                } else {
                    st.north += 1;
                }
                self.try_start(ctx, node);
            }
            SweepEv::ComputeDone => {
                let (x, y) = (node % self.px, node / self.px);
                let idx = self.map.local_index(node);
                let iter = {
                    let st = &mut self.nodes[idx];
                    st.running = false;
                    let it = st.iter;
                    st.iter += 1;
                    it
                };
                self.trace = fnv(
                    self.trace,
                    ctx.now().as_nanos() ^ ((node as u64) << 32) ^ iter as u64,
                );
                let noise = mix(self.cfg.seed ^ ((node as u64) << 8) ^ iter as u64);
                let delay = SimDuration::from_nanos(self.cfg.wire_delay_ns(noise));
                if x + 1 < self.px {
                    ctx.send(node + 1, delay, SweepEv::Credit(true));
                }
                if y + 1 < self.py {
                    ctx.send(node + self.px, delay, SweepEv::Credit(false));
                }
                self.try_start(ctx, node); // corner rank self-paces
            }
        }
    }
}

/// Largest `(px, py)` grid with `px * py <= ranks` and `px` the integer
/// square root — the sweep pattern runs on a full rectangle.
pub fn grid_dims(ranks: u32) -> (u32, u32) {
    let ranks = ranks.max(1);
    let mut px = 1u32;
    while (px as u64 + 1) * (px as u64 + 1) <= ranks as u64 {
        px += 1;
    }
    (px, ranks / px)
}

/// Run the Sweep3D-style wavefront. Executor selection as in
/// [`run_fanin`]; outcomes are identical across all choices.
pub fn run_sweep(cfg: &PdesWorkloadConfig, jobs: Option<usize>) -> PdesOutcome {
    let (px, py) = grid_dims(cfg.ranks);
    let nodes_total = px * py;
    let map = ShardMap::new(cfg.shards);
    let logics: Vec<SweepShard> = (0..cfg.shards)
        .map(|s| SweepShard {
            cfg: *cfg,
            map,
            px,
            py,
            nodes: vec![
                SweepNode {
                    west: 0,
                    north: 0,
                    iter: 0,
                    running: false,
                };
                count_owned(nodes_total, map, s)
            ],
            trace: FNV_OFFSET,
        })
        .collect();

    // Per-shard queue peaks near the wavefront width (<= px + py nodes
    // active at once), not the rank count.
    let events_per_shard = ((px + py) as usize * 4 / cfg.shards.max(1) as usize) + 256;
    let mut pdes = Pdes::new(cfg.engine_config(events_per_shard), logics);
    pdes.seed(0, SimTime(0), SweepEv::Try);

    let report = match jobs {
        None => pdes.run_reference(),
        Some(j) => pdes.run(j),
    };
    let shard_stats = pdes.shard_stats();
    let barrier_wait_ns = pdes.barrier_wait_ns();
    let logics = pdes.into_logics();
    let mut digest = FNV_OFFSET;
    for logic in &logics {
        digest = fnv(digest, logic.trace);
    }
    for node in 0..nodes_total {
        let st = logics[map.shard_of(node) as usize].nodes[map.local_index(node)];
        digest = fnv(digest, st.iter as u64);
        debug_assert_eq!(
            st.iter as u32, cfg.sweeps,
            "rank {node} finished {} of {} sweeps",
            st.iter, cfg.sweeps
        );
    }
    PdesOutcome {
        nodes: nodes_total,
        report,
        digest,
        shard_stats,
        barrier_wait_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(ranks: u32) -> PdesWorkloadConfig {
        let mut cfg = PdesWorkloadConfig::new(ranks);
        cfg.shards = 7;
        cfg.sweeps = 3;
        cfg
    }

    #[test]
    fn fanin_modes_agree() {
        let cfg = small(300);
        let reference = run_fanin(&cfg, None);
        // Leaves contribute one Start each; every rank folds to done.
        assert!(reference.report.events >= 300);
        for jobs in [1, 2, 4, 8] {
            let got = run_fanin(&cfg, Some(jobs));
            assert_eq!(
                got.deterministic_parts(),
                reference.deterministic_parts(),
                "fan-in diverged at jobs={jobs}"
            );
        }
    }

    #[test]
    fn sweep_modes_agree() {
        let cfg = small(240);
        let reference = run_sweep(&cfg, None);
        let (px, py) = grid_dims(240);
        assert_eq!(reference.nodes, px * py);
        // Every rank runs `sweeps` compute phases.
        assert!(reference.report.events >= (px * py * 3) as u64);
        for jobs in [1, 2, 4, 8] {
            let got = run_sweep(&cfg, Some(jobs));
            assert_eq!(
                got.deterministic_parts(),
                reference.deterministic_parts(),
                "sweep diverged at jobs={jobs}"
            );
        }
    }

    #[test]
    fn shard_diagnostics_cover_the_run() {
        let cfg = small(300);
        let reference = run_fanin(&cfg, None);
        assert_eq!(reference.shard_stats.len(), cfg.shards as usize);
        let total: u64 = reference.shard_stats.iter().map(|s| s.events).sum();
        assert_eq!(total, reference.report.events);
        // The reference executor never blocks on a barrier.
        assert_eq!(reference.barrier_wait_ns, 0);
        // Per-shard event counts are virtual-time facts: the parallel
        // engine must reproduce them exactly.
        let par = run_fanin(&cfg, Some(4));
        let events =
            |o: &PdesOutcome| -> Vec<u64> { o.shard_stats.iter().map(|s| s.events).collect() };
        assert_eq!(events(&par), events(&reference));
        let ratio = partix_sim::pdes::imbalance_ratio(&reference.shard_stats);
        assert!(ratio >= 1.0, "events ran but ratio is {ratio}");
    }

    #[test]
    fn digests_detect_different_seeds() {
        let a = run_fanin(&small(128), Some(2));
        let mut cfg = small(128);
        cfg.seed ^= 1;
        let b = run_fanin(&cfg, Some(2));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn grid_dims_are_sane() {
        assert_eq!(grid_dims(1), (1, 1));
        assert_eq!(grid_dims(100), (10, 10));
        let (px, py) = grid_dims(100_000);
        assert!(px as u64 * py as u64 <= 100_000);
        assert!(
            px as u64 * py as u64 >= 98_000,
            "grid wastes too many ranks"
        );
    }

    #[test]
    fn single_rank_fanin_completes() {
        let mut cfg = small(1);
        cfg.shards = 3;
        let out = run_fanin(&cfg, Some(2));
        assert_eq!(out.report.events, 1);
        assert_eq!(out.report.cross_messages, 0);
    }
}
