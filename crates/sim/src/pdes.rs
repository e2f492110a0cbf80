//! Sharded parallel discrete-event simulation with conservative
//! synchronisation.
//!
//! This module is the one event engine behind every
//! [`Scheduler`](crate::Scheduler): the sequential scheduler is its
//! one-shard case, and the sharded one is its scale substrate. Simulated
//! nodes are partitioned across **shards**, each shard owns a private
//! event queue (a slab of slots plus an index min-heap), and shards advance
//! in parallel under a **conservative barrier-epoch protocol** whose safety
//! window comes from the physical lookahead of the modelled network — a
//! cross-shard event (a wire delivery) can never be due sooner than the
//! LogGP link latency after the instant that produced it.
//!
//! # Protocol
//!
//! Each epoch executes one safe window and crosses **one barrier**:
//!
//! 1. **advance**: every shard executes all of its events strictly before
//!    the horizon `lbts + lookahead`, routing cross-shard sends into the
//!    destination mailboxes. Each send also lowers the sender's `out_min`,
//!    the earliest delivery time it produced this epoch.
//! 2. **publish**: every worker publishes `min(next local event, out_min)`
//!    over its shards into a minima slot indexed by epoch parity, then
//!    enters the epoch barrier. The last arriver fires the [`EpochHook`]
//!    before it releases the others.
//! 3. **merge**: past the barrier, every shard drains its inbound mailbox,
//!    sorted into the deterministic merge order, and every worker computes
//!    the next `lbts` as the minimum of the same published values.
//!
//! Sender-published minima are what make one barrier enough: a message in
//! flight is counted by its sender, so the bound is known before any
//! mailbox is merged. Mailboxes are double-buffered by the same parity —
//! senders in epoch `e` push into set `e % 2` — so owners merge one set
//! while faster workers already send into the other, and the parity minima
//! keep a slow reader's slots intact until the next barrier. The inline
//! (`jobs = 1`) loop runs the same windows without threads, merging before
//! each window.
//!
//! The window is safe because any message produced while advancing is
//! stamped at or after `lbts` and delivered at least `lookahead` later,
//! i.e. at or after the horizon — never inside the window being executed.
//!
//! # Determinism
//!
//! Results are **byte-identical at any worker count**, and identical to the
//! sequential reference executor ([`Pdes::run_reference`]), because the
//! execution order is a pure function of the event population, never of
//! thread timing:
//!
//! - every event has a unique [`ShardKey`] `(time, shard, seq)` and each
//!   shard executes its own events in ascending key order;
//! - `seq` is split into two lanes: locally scheduled events take even
//!   sequence numbers in scheduling order, merged cross-shard deliveries
//!   take odd ones in the **merge order** `(send_time, src_shard,
//!   src_msg_seq)` — exactly the order in which the sequential reference
//!   executor (which runs events one at a time in global `(time, shard,
//!   seq)` order and merges immediately) performs the same insertions;
//! - shards share no mutable state: cross-shard interaction happens only
//!   through the mailboxes, which are drained after barriers and sorted
//!   before insertion, erasing the nondeterministic arrival interleaving.
//!
//! The epoch structure itself is thread-count-independent (it depends only
//! on event timestamps and the lookahead), so shard count — not job
//! count — is the only topology input to the result. Hold `shards` fixed
//! and `--jobs N` may only change wall-clock time.
//!
//! # Memory discipline
//!
//! The cross-shard channel path performs **zero steady-state allocations**:
//! both parity sets of mailboxes are preallocated to
//! [`PdesConfig::channel_capacity`] when the engine is built and drained in
//! place at merge time, local queues reuse the slab event pool (the
//! crate-private `Slab`), and the merge sort is an in-place
//! `sort_unstable`. `tests/pdes_alloc.rs` pins this with a
//! counting allocator.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::parallel::{par_map, EpochBarrier};
use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};

/// Simulated node identifier. Shards own disjoint node sets; every event is
/// addressed to a node and executes on the shard owning it.
pub type PdesNode = u32;

/// The sharded engine's **public total order**: events execute in ascending
/// `(time, shard, seq)` order. `shard` is the executing (owning) shard;
/// `seq` is unique within a shard, with locally scheduled events on the
/// even lane and merged cross-shard deliveries on the odd lane (see the
/// module docs for why the two lanes are deterministic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardKey {
    /// Virtual execution instant.
    pub time: SimTime,
    /// Executing shard.
    pub shard: u32,
    /// Per-shard sequence number (even = local lane, odd = merge lane).
    pub seq: u64,
}

/// Static node→shard assignment: node `n` lives on shard `n % shards`.
/// Striping spreads spatially contiguous hot regions (a wavefront diagonal,
/// a fan-in level) across shards for balance.
#[derive(Clone, Copy, Debug)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map over `shards` shards.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "at least one shard required");
        ShardMap { shards }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Owning shard of `node`.
    #[inline]
    pub fn shard_of(&self, node: PdesNode) -> u32 {
        node % self.shards
    }

    /// Dense index of `node` within its owning shard's local storage.
    #[inline]
    pub fn local_index(&self, node: PdesNode) -> usize {
        (node / self.shards) as usize
    }
}

/// Engine parameters.
#[derive(Clone, Copy, Debug)]
pub struct PdesConfig {
    /// Number of shards. Fixed per simulation: it participates in the
    /// deterministic total order, so changing it (unlike changing `--jobs`)
    /// is a different experiment.
    pub shards: u32,
    /// Conservative lookahead: the minimum latency of any cross-shard
    /// event. Physically, the LogGP wire latency `L` — no delivery can
    /// outrun the link. Must be positive, or no epoch could make progress.
    pub lookahead: SimDuration,
    /// Preallocated capacity (messages) of each shard's inbound mailbox.
    /// A soft bound: exceeding it is counted, not fatal, and shows up in
    /// [`PdesReport::channel_overflows`] as a sizing diagnostic.
    pub channel_capacity: usize,
    /// Preallocated per-shard event-queue capacity (heap entries and slab
    /// slots).
    pub event_capacity: usize,
}

impl Default for PdesConfig {
    fn default() -> Self {
        PdesConfig {
            shards: 16,
            lookahead: SimDuration::from_nanos(1),
            channel_capacity: 1024,
            event_capacity: 1024,
        }
    }
}

/// Per-shard model logic. One value of the implementing type exists per
/// shard, owns the state of every node mapped to that shard, and is driven
/// exclusively from that shard's event loop — `&mut self` access without
/// locks, on one thread at a time.
pub trait ShardLogic: Send {
    /// Event payload. Kept small and heap-free by well-behaved models: it
    /// is stored inline in the slab and in mailbox entries.
    type Event: Send;

    /// Execute one event addressed to `node` (owned by this shard) at
    /// virtual time `ctx.now()`. Follow-up events are scheduled through
    /// `ctx`.
    fn handle(&mut self, ctx: &mut ShardCtx<'_, Self::Event>, node: PdesNode, ev: Self::Event);
}

/// Heap record of one pending event on a shard: ordering fields plus the
/// slab slot and destination node. `Copy`, 24 bytes.
#[derive(Clone, Copy)]
struct LocalEntry {
    time: SimTime,
    seq: u64,
    node: PdesNode,
    slot: u32,
}

impl PartialEq for LocalEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for LocalEntry {}
impl PartialOrd for LocalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for LocalEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed so BinaryHeap pops the earliest (time, seq).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One cross-shard message in flight. Carries the sender-side identity that
/// defines the deterministic merge order at the destination.
struct WireMsg<E> {
    send_time: SimTime,
    src_shard: u32,
    src_msg_seq: u64,
    deliver_at: SimTime,
    dst_node: PdesNode,
    ev: E,
}

/// Bounded inbound channel of one shard. Senders append under a mutex
/// while they advance; the owner drains the buffer in place at its next
/// merge, so the backing storage is reused for the whole run.
struct Mailbox<E> {
    q: Mutex<Vec<WireMsg<E>>>,
    capacity: usize,
    high_water: AtomicUsize,
    overflows: AtomicU64,
}

impl<E> Mailbox<E> {
    fn with_capacity(capacity: usize) -> Self {
        Mailbox {
            q: Mutex::new(Vec::with_capacity(capacity)),
            capacity,
            high_water: AtomicUsize::new(0),
            overflows: AtomicU64::new(0),
        }
    }

    fn push(&self, msg: WireMsg<E>) {
        let mut q = self.q.lock();
        q.push(msg);
        let len = q.len();
        drop(q);
        self.high_water.fetch_max(len, Ordering::Relaxed);
        if len > self.capacity {
            self.overflows.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Scheduling context handed to [`ShardLogic::handle`] for the duration of
/// one event.
pub struct ShardCtx<'a, E> {
    now: SimTime,
    shard: u32,
    map: ShardMap,
    lookahead: SimDuration,
    heap: &'a mut BinaryHeap<LocalEntry>,
    slab: &'a mut Slab<E>,
    local_ctr: &'a mut u64,
    out_msg_ctr: &'a mut u64,
    sent_cross: &'a mut u64,
    out_min: &'a mut u64,
    mailboxes: &'a [Mailbox<E>],
}

impl<E> ShardCtx<'_, E> {
    /// Virtual time of the executing event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The executing shard.
    #[inline]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The node→shard map in force.
    #[inline]
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Schedule `ev` for `node` at `now + delay`. Same-shard targets accept
    /// any delay (including zero); cross-shard targets must respect the
    /// lookahead — see [`send_at`](Self::send_at).
    #[inline]
    pub fn send(&mut self, node: PdesNode, delay: SimDuration, ev: E) {
        self.send_at(node, self.now + delay, ev);
    }

    /// Schedule `ev` for `node` at absolute time `at` (clamped to now).
    ///
    /// # Panics
    ///
    /// If `node` lives on another shard and `at < now + lookahead`: such an
    /// event could land inside a window another shard is already executing,
    /// which would break conservative synchronisation — the model's minimum
    /// cross-node latency must be declared as the engine's lookahead.
    pub fn send_at(&mut self, node: PdesNode, at: SimTime, ev: E) {
        let at = at.max(self.now);
        let dst = self.map.shard_of(node);
        if dst == self.shard {
            *self.local_ctr += 1;
            let seq = *self.local_ctr << 1;
            let slot = self.slab.insert(ev);
            self.heap.push(LocalEntry {
                time: at,
                seq,
                node,
                slot,
            });
        } else {
            assert!(
                at >= self.now + self.lookahead,
                "cross-shard event to node {node} at {at:?} violates lookahead {:?} (now {:?}): \
                 the model's minimum cross-node latency must be >= PdesConfig::lookahead",
                self.lookahead,
                self.now,
            );
            *self.out_msg_ctr += 1;
            *self.sent_cross += 1;
            *self.out_min = (*self.out_min).min(at.as_nanos());
            self.mailboxes[dst as usize].push(WireMsg {
                send_time: self.now,
                src_shard: self.shard,
                src_msg_seq: *self.out_msg_ctr,
                deliver_at: at,
                dst_node: node,
                ev,
            });
        }
    }
}

/// Aggregate outcome of a run. The first three fields are part of the
/// deterministic result (identical across job counts and executors); the
/// rest are execution diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PdesReport {
    /// Events executed.
    pub events: u64,
    /// Cross-shard messages carried.
    pub cross_messages: u64,
    /// Timestamp of the last executed event.
    pub makespan: SimTime,
    /// Barrier epochs performed (0 for the reference executor).
    pub epochs: u64,
    /// Peak occupancy of any inter-shard mailbox.
    pub channel_high_water: usize,
    /// Messages pushed while a mailbox was beyond its soft capacity bound.
    pub channel_overflows: u64,
    /// Peak live slots of any shard's event slab.
    pub slab_high_water: usize,
}

impl PdesReport {
    /// The fields every executor and job count must reproduce exactly.
    pub fn deterministic_parts(&self) -> (u64, u64, u64) {
        (self.events, self.cross_messages, self.makespan.as_nanos())
    }
}

/// One epoch boundary as seen by the [`EpochHook`]: the state every
/// executor passes through between safe windows. All three fields are
/// deterministic — they depend only on the event population and the
/// lookahead, never on job count (the reference executor reports the same
/// sequence by emulating the window structure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochObservation {
    /// Epoch number within this run, starting at 1.
    pub epoch: u64,
    /// The global lower bound on pending event time at the boundary.
    pub lbts: SimTime,
    /// The window that was just executed ended strictly before this.
    pub horizon: SimTime,
}

/// Callback fired after each epoch's advance phase completes, while no
/// events are in flight. On the parallel executor the last worker to reach
/// the epoch barrier fires it before releasing the others, so every other
/// worker is stopped in the barrier and no window is open until it
/// returns. Used to drive telemetry samplers at deterministic instants.
pub type EpochHook = Arc<dyn Fn(&EpochObservation) + Send + Sync>;

/// Per-shard execution diagnostics, for load-imbalance analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PdesShardStat {
    /// Shard id.
    pub shard: u32,
    /// Events this shard executed.
    pub events: u64,
    /// Cross-shard messages this shard sent.
    pub sent_cross: u64,
    /// Peak occupancy of this shard's inbound mailbox.
    pub mailbox_high_water: usize,
    /// Pushes into this shard's mailbox beyond its soft capacity bound.
    pub mailbox_overflows: u64,
    /// Peak live slots of this shard's event slab.
    pub slab_high_water: usize,
}

/// Load-imbalance ratio over per-shard event counts: max over mean, `1.0`
/// for perfect balance, `0.0` when no events ran.
pub fn imbalance_ratio(stats: &[PdesShardStat]) -> f64 {
    let total: u64 = stats.iter().map(|s| s.events).sum();
    if total == 0 || stats.is_empty() {
        return 0.0;
    }
    let max = stats.iter().map(|s| s.events).max().unwrap_or(0) as f64;
    max / (total as f64 / stats.len() as f64)
}

/// One worker's published lower bounds, one slot per epoch parity, aligned
/// so no two workers' slots share a cache line (128 bytes also keeps the
/// adjacent-line prefetcher from pairing them).
#[derive(Default)]
#[repr(align(128))]
struct WorkerMinima([AtomicU64; 2]);

struct ShardCell<L: ShardLogic> {
    id: u32,
    logic: L,
    heap: BinaryHeap<LocalEntry>,
    slab: Slab<L::Event>,
    /// Local-lane counter (even seqs).
    local_ctr: u64,
    /// Merge-lane counter (odd seqs), bumped as inbound messages merge.
    in_msg_ctr: u64,
    /// Stamp counter for outgoing cross-shard messages.
    out_msg_ctr: u64,
    /// Earliest `deliver_at` (ns) this shard sent cross-shard since the
    /// threaded executor last published it; `u64::MAX` when none.
    out_min: u64,
    executed: u64,
    sent_cross: u64,
    last_time: SimTime,
}

impl<L: ShardLogic> ShardCell<L> {
    fn new(id: u32, logic: L, cfg: &PdesConfig) -> Self {
        ShardCell {
            id,
            logic,
            heap: BinaryHeap::with_capacity(cfg.event_capacity),
            slab: Slab::with_capacity(cfg.event_capacity),
            local_ctr: 0,
            in_msg_ctr: 0,
            out_msg_ctr: 0,
            out_min: u64::MAX,
            executed: 0,
            sent_cross: 0,
            last_time: SimTime::ZERO,
        }
    }

    fn push_local(&mut self, at: SimTime, node: PdesNode, ev: L::Event) {
        self.local_ctr += 1;
        let seq = self.local_ctr << 1;
        let slot = self.slab.insert(ev);
        self.heap.push(LocalEntry {
            time: at,
            seq,
            node,
            slot,
        });
    }

    /// Drain this shard's mailbox into the local queue in the deterministic
    /// merge order `(send_time, src_shard, src_msg_seq)`.
    ///
    /// No sender touches `mailbox` while its owner merges it (every
    /// executor merges a set only while its senders are stopped or writing
    /// the other set), so the lock is uncontended and the buffer is sorted
    /// and drained in place, keeping its capacity.
    fn merge_inbox(&mut self, mailbox: &Mailbox<L::Event>) {
        let mut q = mailbox.q.lock();
        if q.is_empty() {
            return;
        }
        q.sort_unstable_by_key(|m| (m.send_time, m.src_shard, m.src_msg_seq));
        for m in q.drain(..) {
            self.in_msg_ctr += 1;
            let seq = (self.in_msg_ctr << 1) | 1;
            let slot = self.slab.insert(m.ev);
            self.heap.push(LocalEntry {
                time: m.deliver_at,
                seq,
                node: m.dst_node,
                slot,
            });
        }
    }

    /// Earliest pending event time, `u64::MAX` when idle.
    fn next_time_ns(&self) -> u64 {
        self.heap
            .peek()
            .map(|e| e.time.as_nanos())
            .unwrap_or(u64::MAX)
    }

    /// Execute every pending event strictly before `horizon`, including
    /// same-window events scheduled along the way.
    fn run_until(
        &mut self,
        horizon: SimTime,
        map: ShardMap,
        lookahead: SimDuration,
        mailboxes: &[Mailbox<L::Event>],
    ) {
        let ShardCell {
            id,
            logic,
            heap,
            slab,
            local_ctr,
            out_msg_ctr,
            executed,
            sent_cross,
            out_min,
            last_time,
            ..
        } = self;
        while let Some(top) = heap.peek().copied() {
            if top.time >= horizon {
                break;
            }
            heap.pop();
            let ev = slab.take(top.slot);
            *executed += 1;
            *last_time = top.time;
            let mut ctx = ShardCtx {
                now: top.time,
                shard: *id,
                map,
                lookahead,
                heap,
                slab,
                local_ctr,
                out_msg_ctr,
                sent_cross,
                out_min,
                mailboxes,
            };
            logic.handle(&mut ctx, top.node, ev);
        }
    }

    /// Execute exactly the next pending event (reference executor).
    fn step_one(&mut self, map: ShardMap, lookahead: SimDuration, mailboxes: &[Mailbox<L::Event>]) {
        let ShardCell {
            id,
            logic,
            heap,
            slab,
            local_ctr,
            out_msg_ctr,
            executed,
            sent_cross,
            out_min,
            last_time,
            ..
        } = self;
        let top = heap.pop().expect("step_one on an idle shard");
        let ev = slab.take(top.slot);
        *executed += 1;
        *last_time = top.time;
        let mut ctx = ShardCtx {
            now: top.time,
            shard: *id,
            map,
            lookahead,
            heap,
            slab,
            local_ctr,
            out_msg_ctr,
            sent_cross,
            out_min,
            mailboxes,
        };
        logic.handle(&mut ctx, top.node, ev);
    }
}

/// The sharded conservative-sync engine. Single-shot: build, [`seed`]
/// initial events, then call exactly one of [`run`](Pdes::run) /
/// [`run_reference`](Pdes::run_reference), and harvest final model state
/// with [`into_logics`](Pdes::into_logics).
///
/// [`seed`]: Pdes::seed
pub struct Pdes<L: ShardLogic> {
    cfg: PdesConfig,
    map: ShardMap,
    cells: Vec<ShardCell<L>>,
    /// Two inbound mailboxes per shard, one set per epoch parity: the
    /// threaded executor's senders in epoch `e` push into set `e % 2`
    /// while owners merge the other. The inline and reference executors
    /// use set 0 only. Between runs every mailbox is empty.
    mailboxes: [Vec<Mailbox<L::Event>>; 2],
    epoch_hook: Option<EpochHook>,
    /// Cumulative wall time workers spent waiting (spinning, yielding or
    /// parked) at epoch barriers, summed across workers (diagnostic; not
    /// part of the report).
    barrier_wait_ns: AtomicU64,
}

impl<L: ShardLogic> Pdes<L> {
    /// Create an engine over `logics` (one per shard;
    /// `logics.len() == cfg.shards`).
    pub fn new(cfg: PdesConfig, logics: Vec<L>) -> Self {
        assert!(cfg.shards > 0, "at least one shard required");
        assert_eq!(
            logics.len(),
            cfg.shards as usize,
            "one ShardLogic per shard"
        );
        assert!(
            cfg.lookahead > SimDuration::ZERO,
            "zero lookahead admits no safe window"
        );
        let map = ShardMap::new(cfg.shards);
        let cells = logics
            .into_iter()
            .enumerate()
            .map(|(i, logic)| ShardCell::new(i as u32, logic, &cfg))
            .collect();
        let mailboxes = std::array::from_fn(|_| {
            (0..cfg.shards)
                .map(|_| Mailbox::with_capacity(cfg.channel_capacity))
                .collect()
        });
        Pdes {
            cfg,
            map,
            cells,
            mailboxes,
            epoch_hook: None,
            barrier_wait_ns: AtomicU64::new(0),
        }
    }

    /// Install the epoch-boundary callback (see [`EpochHook`]). Install
    /// before running; at most one hook is supported.
    pub fn set_epoch_hook(&mut self, hook: EpochHook) {
        self.epoch_hook = Some(hook);
    }

    /// Cumulative wall time workers spent waiting at epoch barriers, summed
    /// across workers. Zero before a parallel run (the inline and reference
    /// executors have no barriers).
    pub fn barrier_wait_ns(&self) -> u64 {
        self.barrier_wait_ns.load(Ordering::Relaxed)
    }

    /// Per-shard execution diagnostics, in shard order. Mailbox figures
    /// fold both parity sets; each set holds at most one epoch's messages,
    /// so they read the same at every job count.
    pub fn shard_stats(&self) -> Vec<PdesShardStat> {
        self.cells
            .iter()
            .map(|c| {
                let inbox = self.mailboxes.iter().map(|set| &set[c.id as usize]);
                PdesShardStat {
                    shard: c.id,
                    events: c.executed,
                    sent_cross: c.sent_cross,
                    mailbox_high_water: inbox
                        .clone()
                        .map(|m| m.high_water.load(Ordering::Relaxed))
                        .max()
                        .unwrap_or(0),
                    mailbox_overflows: inbox.map(|m| m.overflows.load(Ordering::Relaxed)).sum(),
                    slab_high_water: c.slab.high_water(),
                }
            })
            .collect()
    }

    /// The node→shard map in force.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Inject an initial event for `node` at `at`. Call in a deterministic
    /// order (e.g. ascending node id): seeds take local-lane sequence
    /// numbers in call order.
    pub fn seed(&mut self, node: PdesNode, at: SimTime, ev: L::Event) {
        let shard = self.map.shard_of(node) as usize;
        self.cells[shard].push_local(at, node, ev);
    }

    /// Tear down and return the per-shard logic values (final model state),
    /// in shard order.
    pub fn into_logics(self) -> Vec<L> {
        self.cells.into_iter().map(|c| c.logic).collect()
    }

    fn report(&self, epochs: u64) -> PdesReport {
        PdesReport {
            events: self.cells.iter().map(|c| c.executed).sum(),
            cross_messages: self.cells.iter().map(|c| c.sent_cross).sum(),
            makespan: SimTime(
                self.cells
                    .iter()
                    .map(|c| c.last_time.as_nanos())
                    .max()
                    .unwrap_or(0),
            ),
            epochs,
            channel_high_water: self
                .mailboxes
                .iter()
                .flatten()
                .map(|m| m.high_water.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
            channel_overflows: self
                .mailboxes
                .iter()
                .flatten()
                .map(|m| m.overflows.load(Ordering::Relaxed))
                .sum(),
            slab_high_water: self
                .cells
                .iter()
                .map(|c| c.slab.high_water())
                .max()
                .unwrap_or(0),
        }
    }

    /// Run to completion with up to `jobs` worker threads (clamped to the
    /// shard count; `<= 1` runs the epoch loop inline with no threads or
    /// barriers). Results are byte-identical at every `jobs` value.
    pub fn run(&mut self, jobs: usize) -> PdesReport {
        let shards = self.cells.len();
        let jobs = jobs.max(1).min(shards);
        if jobs == 1 {
            return self.run_epochs_inline();
        }

        let lookahead = self.cfg.lookahead;
        let map = self.map;
        // No message is in flight between runs, so the first bound is the
        // earliest pending event and needs no barrier; `out_min` restarts
        // here because the inline loop never publishes it.
        let mut first_lbts = u64::MAX;
        for cell in &mut self.cells {
            cell.out_min = u64::MAX;
            first_lbts = first_lbts.min(cell.next_time_ns());
        }
        if first_lbts == u64::MAX {
            return self.report(0);
        }
        // Deal shards round-robin into exactly `jobs` groups: par_map
        // spawns one worker per group, so every group is owned by a live
        // thread and the barrier's participant count is exact.
        let mut groups: Vec<(usize, Vec<ShardCell<L>>)> =
            (0..jobs).map(|w| (w, Vec::new())).collect();
        for (i, cell) in self.cells.drain(..).enumerate() {
            groups[i % jobs].1.push(cell);
        }
        let minima: Vec<WorkerMinima> = (0..jobs).map(|_| WorkerMinima::default()).collect();
        let barrier = EpochBarrier::new(jobs);
        let mailboxes = &self.mailboxes;
        let epoch_hook = &self.epoch_hook;
        let barrier_acc = &self.barrier_wait_ns;

        let finished = par_map(jobs, groups, |(worker, mut group)| {
            let mut lbts = first_lbts;
            let mut epochs = 0u64;
            let mut waited_ns = 0u64;
            loop {
                epochs += 1;
                let parity = (epochs & 1) as usize;
                let horizon = SimTime(lbts.saturating_add(lookahead.as_nanos()));
                // Advance inside the safe window; sends land in this
                // epoch's mailbox set, which no owner drains until every
                // sender has passed the barrier below.
                let outbox = &mailboxes[parity];
                let mut next = u64::MAX;
                for cell in &mut group {
                    cell.run_until(horizon, map, lookahead, outbox);
                    next = next
                        .min(cell.next_time_ns())
                        .min(std::mem::replace(&mut cell.out_min, u64::MAX));
                }
                // Publish this group's bound on the next epoch's events:
                // its own earliest pending event or its earliest send.
                // Relaxed: the barrier orders the store before every read.
                minima[worker].0[parity].store(next, Ordering::Relaxed);
                let t0 = Instant::now();
                // The last arriver observes the boundary while every other
                // worker is stopped in the barrier and no window is open.
                barrier.wait(|| {
                    if let Some(hook) = epoch_hook {
                        hook(&EpochObservation {
                            epoch: epochs,
                            lbts: SimTime(lbts),
                            horizon,
                        });
                    }
                });
                waited_ns += t0.elapsed().as_nanos() as u64;
                for cell in &mut group {
                    cell.merge_inbox(&outbox[cell.id as usize]);
                }
                // Every worker computes the same bound from the same
                // published values, so all exit (or continue) together.
                // A slow reader is safe: the slot for this parity is not
                // rewritten until after the next barrier.
                lbts = minima
                    .iter()
                    .map(|m| m.0[parity].load(Ordering::Relaxed))
                    .min()
                    .unwrap_or(u64::MAX);
                if lbts == u64::MAX {
                    break;
                }
            }
            barrier_acc.fetch_add(waited_ns, Ordering::Relaxed);
            (group, epochs)
        });

        let mut epochs = 0;
        for (group, e) in finished {
            epochs = e;
            self.cells.extend(group);
        }
        self.cells.sort_by_key(|c| c.id);
        self.report(epochs)
    }

    /// The `jobs == 1` epoch loop: same protocol, no threads, no barriers,
    /// no allocation in steady state.
    fn run_epochs_inline(&mut self) -> PdesReport {
        let lookahead = self.cfg.lookahead;
        let map = self.map;
        let mut epochs = 0u64;
        loop {
            let mut lbts = u64::MAX;
            for cell in &mut self.cells {
                cell.merge_inbox(&self.mailboxes[0][cell.id as usize]);
                lbts = lbts.min(cell.next_time_ns());
            }
            if lbts == u64::MAX {
                break;
            }
            epochs += 1;
            let horizon = SimTime(lbts.saturating_add(lookahead.as_nanos()));
            for cell in &mut self.cells {
                cell.run_until(horizon, map, lookahead, &self.mailboxes[0]);
            }
            if let Some(hook) = &self.epoch_hook {
                hook(&EpochObservation {
                    epoch: epochs,
                    lbts: SimTime(lbts),
                    horizon,
                });
            }
        }
        self.report(epochs)
    }

    /// Sequential **reference executor**: one event at a time in global
    /// `(time, shard, seq)` order, merging cross-shard messages the moment
    /// they are sent. The plain global-heap semantics the parallel protocol
    /// must reproduce byte for byte. Asymptotically slower (an `O(shards)`
    /// scan per event); exists as the cross-check oracle and the `--jobs 0`
    /// fallback.
    ///
    /// Although execution is strictly one event at a time (never windowed),
    /// the loop *tracks* the epoch structure the parallel executors would
    /// impose — `lbts` is recomputed whenever the next event falls at or
    /// beyond the previous horizon — so the [`EpochHook`] fires at exactly
    /// the same `(epoch, lbts, horizon)` boundaries with exactly the same
    /// intermediate model state as every other executor. The report still
    /// carries `epochs == 0`, preserving the executor's signature.
    pub fn run_reference(&mut self) -> PdesReport {
        let lookahead = self.cfg.lookahead;
        let map = self.map;
        let mut epochs = 0u64;
        'windows: loop {
            // Boundary: all mailboxes are empty (merged after every event),
            // so the published minimum is just the earliest pending event.
            let lbts = self
                .cells
                .iter()
                .map(|c| c.next_time_ns())
                .min()
                .unwrap_or(u64::MAX);
            if lbts == u64::MAX {
                break 'windows;
            }
            epochs += 1;
            let horizon = SimTime(lbts.saturating_add(lookahead.as_nanos()));
            loop {
                // Earliest pending event across all shards, by global key.
                let mut best: Option<(SimTime, u32, u64)> = None;
                for cell in &self.cells {
                    if let Some(top) = cell.heap.peek() {
                        let key = (top.time, cell.id, top.seq);
                        if best.is_none() || key < best.unwrap() {
                            best = Some(key);
                        }
                    }
                }
                // Window exhausted (or engine idle): fire the boundary hook
                // and open the next window.
                let Some((time, shard, _)) = best else { break };
                if time >= horizon {
                    break;
                }
                self.cells[shard as usize].step_one(map, lookahead, &self.mailboxes[0]);
                // Merge immediately: inbound counters advance in exactly
                // the global sender order, the order the merge-phase sort
                // reproduces batch-wise in epoch mode.
                for cell in &mut self.cells {
                    cell.merge_inbox(&self.mailboxes[0][cell.id as usize]);
                }
            }
            if let Some(hook) = &self.epoch_hook {
                hook(&EpochObservation {
                    epoch: epochs,
                    lbts: SimTime(lbts),
                    horizon,
                });
            }
        }
        self.report(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A token ring: node n folds the token value into its accumulator and
    /// forwards it to (n+1) % nodes with a node-dependent latency. Order
    /// sensitivity comes from the fold being non-commutative.
    struct Ring {
        nodes: u32,
        map: ShardMap,
        acc: Vec<u64>, // local accumulators, indexed by local node index
    }

    #[derive(Clone, Copy)]
    struct Hop {
        value: u64,
        remaining: u32,
    }

    impl ShardLogic for Ring {
        type Event = Hop;
        fn handle(&mut self, ctx: &mut ShardCtx<'_, Hop>, node: PdesNode, ev: Hop) {
            let idx = self.map.local_index(node);
            self.acc[idx] = self.acc[idx]
                .wrapping_mul(0x100000001B3)
                .wrapping_add(ev.value ^ ctx.now().as_nanos());
            if ev.remaining > 0 {
                let next = (node + 1) % self.nodes;
                let delay = SimDuration::from_nanos(50 + (node as u64 % 7) * 3);
                ctx.send(
                    next,
                    delay,
                    Hop {
                        value: ev.value.wrapping_add(1),
                        remaining: ev.remaining - 1,
                    },
                );
            }
        }
    }

    fn ring_engine(nodes: u32, shards: u32, hops: u32) -> Pdes<Ring> {
        let cfg = PdesConfig {
            shards,
            lookahead: SimDuration::from_nanos(50),
            channel_capacity: 64,
            event_capacity: 64,
        };
        let map = ShardMap::new(shards);
        let per_shard = |s: u32| {
            let owned = (0..nodes).filter(|n| map.shard_of(*n) == s).count();
            Ring {
                nodes,
                map,
                acc: vec![0; owned],
            }
        };
        let mut pdes = Pdes::new(cfg, (0..shards).map(per_shard).collect());
        pdes.seed(
            0,
            SimTime(0),
            Hop {
                value: 7,
                remaining: hops,
            },
        );
        pdes
    }

    fn ring_digest(pdes: Pdes<Ring>) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for logic in pdes.into_logics() {
            for a in logic.acc {
                h = (h ^ a).wrapping_mul(0x100000001B3);
            }
        }
        h
    }

    #[test]
    fn all_executors_agree_on_the_ring() {
        let runs: Vec<(PdesReport, u64)> = [0usize, 1, 2, 3, 8]
            .iter()
            .map(|&jobs| {
                let mut pdes = ring_engine(23, 5, 400);
                let report = if jobs == 0 {
                    pdes.run_reference()
                } else {
                    pdes.run(jobs)
                };
                (report, ring_digest(pdes))
            })
            .collect();
        let (ref0, d0) = runs[0];
        assert_eq!(ref0.events, 401, "seed + 400 hops");
        for (r, d) in &runs[1..] {
            assert_eq!(r.deterministic_parts(), ref0.deterministic_parts());
            assert_eq!(*d, d0, "digest must not depend on executor or jobs");
        }
    }

    #[test]
    fn single_shard_degenerates_cleanly() {
        let mut pdes = ring_engine(4, 1, 10);
        let r = pdes.run(4); // clamped to 1 shard
        assert_eq!(r.events, 11);
        assert_eq!(r.cross_messages, 0, "one shard has no wire");
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn cross_shard_send_inside_lookahead_panics() {
        struct Bad;
        impl ShardLogic for Bad {
            type Event = ();
            fn handle(&mut self, ctx: &mut ShardCtx<'_, ()>, _node: PdesNode, _ev: ()) {
                // Node 1 lives on shard 1; zero delay < lookahead.
                ctx.send(1, SimDuration::ZERO, ());
            }
        }
        let cfg = PdesConfig {
            shards: 2,
            lookahead: SimDuration::from_nanos(100),
            ..PdesConfig::default()
        };
        let mut pdes = Pdes::new(cfg, vec![Bad, Bad]);
        pdes.seed(0, SimTime(0), ());
        pdes.run(1);
    }

    #[test]
    fn local_sends_may_undercut_lookahead() {
        struct Chain {
            fired: u64,
        }
        impl ShardLogic for Chain {
            type Event = u32;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, u32>, node: PdesNode, rem: u32) {
                self.fired += 1;
                if rem > 0 {
                    // Same node => same shard: zero-delay is legal.
                    ctx.send(node, SimDuration::ZERO, rem - 1);
                }
            }
        }
        let cfg = PdesConfig {
            shards: 2,
            lookahead: SimDuration::from_micros(5),
            ..PdesConfig::default()
        };
        let mut pdes = Pdes::new(cfg, vec![Chain { fired: 0 }, Chain { fired: 0 }]);
        pdes.seed(0, SimTime(0), 9);
        let r = pdes.run(2);
        assert_eq!(r.events, 10);
        assert_eq!(r.makespan, SimTime(0), "zero-delay chain stays at t=0");
    }

    #[test]
    fn same_time_cross_and_local_events_order_deterministically() {
        // Node 1 (shard 1) receives a cross-shard delivery at exactly the
        // same instant as a locally seeded event. The two executors and
        // every job count must agree on the (specified) order: the fold
        // below is order-sensitive.
        struct Probe {
            log: u64,
        }
        #[derive(Clone, Copy)]
        enum Ev {
            Emit,        // node 0: send to node 1, arriving at t=100
            Tagged(u64), // fold the tag
        }
        impl ShardLogic for Probe {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, Ev>, _node: PdesNode, ev: Ev) {
                match ev {
                    Ev::Emit => ctx.send(1, SimDuration::from_nanos(100), Ev::Tagged(3)),
                    Ev::Tagged(t) => self.log = self.log.wrapping_mul(31).wrapping_add(t),
                }
            }
        }
        let run = |mode: usize| {
            let cfg = PdesConfig {
                shards: 2,
                lookahead: SimDuration::from_nanos(100),
                ..PdesConfig::default()
            };
            let mut pdes = Pdes::new(cfg, vec![Probe { log: 0 }, Probe { log: 0 }]);
            pdes.seed(0, SimTime(0), Ev::Emit);
            pdes.seed(1, SimTime(100), Ev::Tagged(5)); // collides with delivery
            if mode == 0 {
                pdes.run_reference();
            } else {
                pdes.run(mode);
            }
            pdes.into_logics()[1].log
        };
        let expect = run(0);
        assert_ne!(expect, 0);
        for jobs in [1, 2, 4] {
            assert_eq!(run(jobs), expect, "jobs={jobs} reordered a tie");
        }
    }

    #[test]
    fn channel_overflow_is_counted_not_fatal() {
        struct Blast {
            nodes: u32,
        }
        #[derive(Clone, Copy)]
        enum Ev {
            Go,
            Sink,
        }
        impl ShardLogic for Blast {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, Ev>, _node: PdesNode, ev: Ev) {
                if let Ev::Go = ev {
                    for n in 0..self.nodes {
                        if ctx.map().shard_of(n) != ctx.shard() {
                            ctx.send(n, SimDuration::from_nanos(10), Ev::Sink);
                        }
                    }
                }
            }
        }
        let cfg = PdesConfig {
            shards: 2,
            lookahead: SimDuration::from_nanos(10),
            channel_capacity: 3, // deliberately undersized
            event_capacity: 64,
        };
        let mut pdes = Pdes::new(cfg, vec![Blast { nodes: 16 }, Blast { nodes: 16 }]);
        pdes.seed(0, SimTime(0), Ev::Go);
        let r = pdes.run(2);
        assert_eq!(r.cross_messages, 8);
        assert!(r.channel_high_water > 3);
        assert!(r.channel_overflows > 0);
    }

    #[test]
    fn empty_engine_reports_zeroes() {
        struct Nop;
        impl ShardLogic for Nop {
            type Event = ();
            fn handle(&mut self, _: &mut ShardCtx<'_, ()>, _: PdesNode, _: ()) {}
        }
        let mut pdes = Pdes::new(PdesConfig::default(), (0..16).map(|_| Nop).collect());
        let r = pdes.run(4);
        assert_eq!(r, PdesReport::default());
    }

    #[test]
    fn mailbox_stats_are_jobs_invariant() {
        // Every node that receives `Go(rounds)` sends a `Sink` to each node on
        // another shard and, while rounds remain, re-arms itself one lookahead
        // later — a multi-epoch burst that overfills undersized mailboxes in
        // both parity sets.
        struct Burst {
            nodes: u32,
        }

        #[derive(Clone, Copy)]
        enum BurstEv {
            Go(u32),
            Sink,
        }

        impl ShardLogic for Burst {
            type Event = BurstEv;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, BurstEv>, node: PdesNode, ev: BurstEv) {
                if let BurstEv::Go(rounds) = ev {
                    for n in 0..self.nodes {
                        if ctx.map().shard_of(n) != ctx.shard() {
                            ctx.send(n, SimDuration::from_nanos(10), BurstEv::Sink);
                        }
                    }
                    if rounds > 0 {
                        ctx.send(node, SimDuration::from_nanos(10), BurstEv::Go(rounds - 1));
                    }
                }
            }
        }
        let run = |jobs: usize| {
            let cfg = PdesConfig {
                shards: 3,
                lookahead: SimDuration::from_nanos(10),
                channel_capacity: 3, // deliberately undersized
                event_capacity: 64,
            };
            let mut pdes = Pdes::new(cfg, (0..3).map(|_| Burst { nodes: 12 }).collect());
            pdes.seed(0, SimTime(0), BurstEv::Go(5));
            pdes.seed(1, SimTime(0), BurstEv::Go(2));
            pdes.seed(5, SimTime(10), BurstEv::Go(3));
            let r = pdes.run(jobs);
            let per_shard: Vec<(usize, u64)> = pdes
                .shard_stats()
                .iter()
                .map(|s| (s.mailbox_high_water, s.mailbox_overflows))
                .collect();
            (r, per_shard)
        };
        let (r1, shards1) = run(1);
        assert!(r1.epochs > 2, "the burst must span several epochs");
        assert!(r1.channel_high_water > 3);
        assert!(r1.channel_overflows > 0);
        for jobs in [2, 3] {
            let (r, shards) = run(jobs);
            assert_eq!(r.epochs, r1.epochs);
            assert_eq!(r.channel_high_water, r1.channel_high_water, "jobs={jobs}");
            assert_eq!(r.channel_overflows, r1.channel_overflows, "jobs={jobs}");
            assert_eq!(shards, shards1, "jobs={jobs} per-shard mailbox stats");
        }
    }

    #[test]
    fn epoch_hook_sees_the_same_boundaries_on_every_executor() {
        // Several tokens hop across shards; every executed event bumps a
        // shared counter, so a hook that fired while any window was still
        // open would record a count that differs between executors.
        struct Tokens {
            nodes: u32,
            executed: Arc<AtomicU64>,
        }
        impl ShardLogic for Tokens {
            type Event = u32;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, u32>, node: PdesNode, remaining: u32) {
                self.executed.fetch_add(1, Ordering::Relaxed);
                if remaining > 0 {
                    let next = (node * 3 + 1) % self.nodes;
                    let delay = SimDuration::from_nanos(50 + (node as u64 % 7) * 5);
                    ctx.send(next, delay, remaining - 1);
                }
            }
        }
        type Boundary = (u64, u64, u64, u64);
        let run = |jobs: usize| -> Vec<Boundary> {
            let executed = Arc::new(AtomicU64::new(0));
            let seen: Arc<Mutex<Vec<Boundary>>> = Arc::default();
            let cfg = PdesConfig {
                shards: 5,
                lookahead: SimDuration::from_nanos(50),
                channel_capacity: 16,
                event_capacity: 64,
            };
            let logics = (0..5)
                .map(|_| Tokens {
                    nodes: 23,
                    executed: executed.clone(),
                })
                .collect();
            let mut pdes = Pdes::new(cfg, logics);
            let (count, log) = (executed.clone(), seen.clone());
            pdes.set_epoch_hook(Arc::new(move |obs: &EpochObservation| {
                // A slow hook: any worker still inside a window would get
                // to run events before the count below is read.
                std::thread::sleep(std::time::Duration::from_micros(10));
                log.lock().push((
                    obs.epoch,
                    obs.lbts.as_nanos(),
                    obs.horizon.as_nanos(),
                    count.load(Ordering::Relaxed),
                ));
            }));
            for (i, node) in [0u32, 4, 9, 17].into_iter().enumerate() {
                pdes.seed(node, SimTime(i as u64 * 13), 120);
            }
            if jobs == 0 {
                pdes.run_reference();
            } else {
                pdes.run(jobs);
            }
            let log = seen.lock().clone();
            log
        };
        let reference = run(0);
        assert!(reference.len() > 10, "expected many epochs");
        assert_eq!(
            reference.last().unwrap().3,
            4 * 121,
            "every event before the last hook"
        );
        for jobs in [1, 2, 4] {
            assert_eq!(run(jobs), reference, "jobs={jobs} moved an epoch boundary");
        }
    }
}
