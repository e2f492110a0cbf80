//! The discrete-event scheduler.
//!
//! A [`Scheduler`] is a cheap, cloneable handle to one [`Pdes`] engine whose
//! shards run type-erased closures. Executing an event may schedule further
//! events through a clone of the same handle. The constructor picks the
//! engine's shape; every method has one body for both:
//!
//! - [`Scheduler::new`] / [`with_capacity`](Scheduler::with_capacity)
//!   build the **sequential** scheduler: one shard and a 1 ns lookahead,
//!   so each barrier epoch is exactly one timestamp. Node affinity
//!   ([`at_node`](Scheduler::at_node)) is a census only.
//! - [`Scheduler::sharded`] builds one shard per simulated node, and node
//!   affinity routes each event to its node's shard.
//!
//! Determinism: events execute in ascending `(time, shard, seq)` order
//! (see [`crate::pdes::ShardKey`]). On one shard two events scheduled for
//! the same instant therefore execute in the order they were scheduled, so
//! a fixed seed yields a bit-identical simulation.
//!
//! # Hot-path layout
//!
//! Each shard queues events in a slab of slots plus an index min-heap of
//! small `Copy` entries, so the steady state allocates nothing per event.
//! Small closures (up to [`INLINE_EVENT_BYTES`] bytes, the common case for
//! simulation callbacks) are stored *inline* in the slot — no `Box` per
//! event; larger ones fall back to a heap box transparently. The
//! pending-event count is derived from the scheduled/executed counters, so
//! [`events_pending`](Scheduler::events_pending) never takes a lock.

use std::cell::Cell;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::pdes::{
    EpochObservation, Pdes, PdesConfig, PdesNode, PdesReport, PdesShardStat, ShardCtx, ShardLogic,
};
use crate::time::{SimDuration, SimTime};

/// Closures up to this many bytes are stored inline in the event slab
/// (no per-event allocation). Chosen to fit the runtime's completion and
/// timer callbacks, which capture a handful of `Arc`s and integers.
pub const INLINE_EVENT_BYTES: usize = 48;

const INLINE_WORDS: usize = INLINE_EVENT_BYTES / size_of::<usize>();
type EventBuf = [usize; INLINE_WORDS];

/// Type-erased one-shot closure with inline small-object storage.
struct RawEvent {
    data: MaybeUninit<EventBuf>,
    call: unsafe fn(*mut EventBuf),
    drop_fn: unsafe fn(*mut EventBuf),
}

// Safety: only `Send` closures are stored (enforced by `RawEvent::new`'s
// bound); the erased buffer carries no shared references of its own.
unsafe impl Send for RawEvent {}

impl RawEvent {
    fn new<F: FnOnce() + Send + 'static>(f: F) -> Self {
        unsafe fn call_inline<F: FnOnce()>(p: *mut EventBuf) {
            (std::ptr::read(p.cast::<F>()))()
        }
        unsafe fn drop_inline<F>(p: *mut EventBuf) {
            std::ptr::drop_in_place(p.cast::<F>())
        }
        unsafe fn call_boxed<F: FnOnce()>(p: *mut EventBuf) {
            (std::ptr::read(p.cast::<Box<F>>()))()
        }
        unsafe fn drop_boxed<F>(p: *mut EventBuf) {
            drop(std::ptr::read(p.cast::<Box<F>>()))
        }

        let mut data = MaybeUninit::<EventBuf>::uninit();
        if size_of::<F>() <= size_of::<EventBuf>() && align_of::<F>() <= align_of::<EventBuf>() {
            unsafe { data.as_mut_ptr().cast::<F>().write(f) };
            RawEvent {
                data,
                call: call_inline::<F>,
                drop_fn: drop_inline::<F>,
            }
        } else {
            unsafe { data.as_mut_ptr().cast::<Box<F>>().write(Box::new(f)) };
            RawEvent {
                data,
                call: call_boxed::<F>,
                drop_fn: drop_boxed::<F>,
            }
        }
    }

    /// Execute the closure, consuming the event.
    fn run(self) {
        let mut me = ManuallyDrop::new(self);
        // Safety: ManuallyDrop guarantees drop_fn will not also run; `call`
        // takes ownership of the closure bytes.
        unsafe { (me.call)(me.data.as_mut_ptr()) }
    }
}

impl Drop for RawEvent {
    fn drop(&mut self) {
        // Only reached when an event is discarded unexecuted (queue
        // teardown); `run` suppresses this via ManuallyDrop.
        unsafe { (self.drop_fn)(self.data.as_mut_ptr()) }
    }
}

/// Per-node counts of node-affine events (see [`Scheduler::at_node`]).
/// Allocated once by [`Scheduler::enable_node_affinity`]; the last slot
/// collects events whose node id exceeds the configured range.
struct AffinityCounts {
    per_node: Box<[AtomicU64]>,
}

// ---------------------------------------------------------------------------
// Closure shards
// ---------------------------------------------------------------------------
//
// The engine's `ShardLogic` is a thin adapter (`ClosureShard`) that runs the
// stored `RawEvent`. While a shard executes an event, its `ShardCtx` is
// published in a thread-local so that `Scheduler::at`/`at_node`/`now` calls
// made from inside the closure re-enter the owning shard: same-shard
// schedules go on the private local lane; cross-shard schedules (only
// possible with more than one shard) go through the mailbox merge lane and
// must respect the engine lookahead (the LogGP wire latency `L`).

/// Identity of the shard context currently executing an event on this
/// thread. `rt` disambiguates between coexisting schedulers.
#[derive(Clone, Copy)]
struct ActiveShard {
    rt: u64,
    ctx: *mut (),
    node: PdesNode,
}

impl ActiveShard {
    /// Lend the published `ShardCtx` to `f`. The `&mut` lent to
    /// `ClosureShard::handle` is suspended while the closure runs, so the
    /// reborrow is unique for the closure's extent.
    fn with_ctx<R>(self, f: impl FnOnce(&mut ShardCtx<'_, RawEvent>) -> R) -> R {
        // Safety: published by ClosureShard::handle on this thread for the
        // dynamic extent of the currently executing event; no other path can
        // reach the context while the closure runs. The 'static cast never
        // escapes this scope.
        f(unsafe { &mut *(self.ctx as *mut ShardCtx<'static, RawEvent>) })
    }
}

thread_local! {
    static ACTIVE_SHARD: Cell<Option<ActiveShard>> = const { Cell::new(None) };
}

/// Publishes a `ShardCtx` for the dynamic extent of one event, restoring
/// the previous value on drop (events never nest, but an event may drive a
/// *different* scheduler whose events re-check `rt`).
struct ActiveShardGuard {
    prev: Option<ActiveShard>,
}

impl ActiveShardGuard {
    fn enter(rt: u64, ctx: &mut ShardCtx<'_, RawEvent>, node: PdesNode) -> Self {
        let active = ActiveShard {
            rt,
            ctx: ctx as *mut ShardCtx<'_, RawEvent> as *mut (),
            node,
        };
        ActiveShardGuard {
            prev: ACTIVE_SHARD.with(|c| c.replace(Some(active))),
        }
    }
}

impl Drop for ActiveShardGuard {
    fn drop(&mut self) {
        ACTIVE_SHARD.with(|c| c.set(self.prev));
    }
}

/// Per-shard logic of every scheduler: runs the stored closure with the
/// shard context published in thread-local storage so the closure's
/// `Scheduler` calls route back into this shard.
struct ClosureShard {
    rt: u64,
}

impl ShardLogic for ClosureShard {
    type Event = RawEvent;

    fn handle(&mut self, ctx: &mut ShardCtx<'_, RawEvent>, node: PdesNode, ev: RawEvent) {
        let _guard = ActiveShardGuard::enter(self.rt, ctx, node);
        ev.run();
    }
}

/// Engine state behind the scheduler's lock: the pdes instance plus the
/// report of its most recent run.
struct EngineBox {
    pdes: Pdes<ClosureShard>,
    last_report: Option<PdesReport>,
}

/// Source of `Inner::rt` tokens.
static NEXT_RT: AtomicU64 = AtomicU64::new(1);

/// Sample hook installed by [`Scheduler::set_sample_hook`]: called with the
/// current simulation time in nanoseconds at each epoch boundary of the run
/// loop. The callee decides whether a sample is due, so the hook must be
/// cheap when idle.
pub type SampleHook = Arc<dyn Fn(u64) + Send + Sync>;

struct Inner {
    now: AtomicU64,
    scheduled: AtomicU64,
    executed: AtomicU64,
    /// Node-affinity diagnostics, populated lazily by
    /// [`Scheduler::enable_node_affinity`]. Disabled costs one pointer load
    /// per `at_node` call.
    affinity: OnceLock<AffinityCounts>,
    /// Unique runtime token matching `ActiveShard::rt`.
    rt: u64,
    /// Set by the `sharded*` constructors: node affinity routes execution
    /// to one shard per node.
    sharded: bool,
    /// Engine lookahead — the model's minimum cross-node latency.
    lookahead: SimDuration,
    /// Worker threads for `run` (ignored by the reference executor).
    jobs: usize,
    /// Use the sequential reference executor (global `(time, shard, seq)`
    /// scan) instead of the barrier-epoch engine.
    reference: bool,
    engine: Mutex<EngineBox>,
}

/// Handle to the discrete-event simulation. Cheap to clone; all clones share
/// the same virtual clock and event queue.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<Inner>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    /// Create an empty simulation at t = 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty simulation with storage preallocated for `events`
    /// concurrent pending events: the one-shard engine with a 1 ns
    /// lookahead, so each epoch executes exactly one timestamp.
    pub fn with_capacity(events: usize) -> Self {
        let cfg = PdesConfig {
            shards: 1,
            lookahead: SimDuration::from_nanos(1),
            // One shard never sends a cross-shard message.
            channel_capacity: 0,
            event_capacity: events,
        };
        Self::with_engine(cfg, false, 1, false)
    }

    /// Create a **sharded** scheduler for `nodes` simulated nodes: events
    /// execute on the conservative-sync PDES engine ([`crate::pdes`]) with
    /// one shard per node and `jobs` worker threads per [`run`](Self::run)
    /// call. `lookahead` is the model's minimum cross-node latency (the
    /// LogGP wire `L`): cross-node events closer than that panic at the
    /// scheduling site.
    ///
    /// The shard count is tied to `nodes`, not `jobs`, so the deterministic
    /// `(time, shard, seq)` total order — and therefore every digest — is
    /// identical at any job count.
    pub fn sharded(nodes: u32, lookahead: SimDuration, jobs: usize) -> Self {
        Self::sharded_with(nodes, lookahead, jobs, false)
    }

    /// Like [`sharded`](Self::sharded) but executing on the sequential
    /// reference executor (the global `(time, shard, seq)` merge) — the
    /// oracle the parallel engine is byte-compared against.
    pub fn sharded_reference(nodes: u32, lookahead: SimDuration) -> Self {
        Self::sharded_with(nodes, lookahead, 1, true)
    }

    fn sharded_with(nodes: u32, lookahead: SimDuration, jobs: usize, reference: bool) -> Self {
        let cfg = PdesConfig {
            shards: nodes.max(1),
            lookahead,
            ..PdesConfig::default()
        };
        Self::with_engine(cfg, true, jobs, reference)
    }

    fn with_engine(cfg: PdesConfig, sharded: bool, jobs: usize, reference: bool) -> Self {
        let rt = NEXT_RT.fetch_add(1, AtomicOrdering::Relaxed);
        let logics = (0..cfg.shards).map(|_| ClosureShard { rt }).collect();
        Scheduler {
            inner: Arc::new(Inner {
                now: AtomicU64::new(0),
                scheduled: AtomicU64::new(0),
                executed: AtomicU64::new(0),
                affinity: OnceLock::new(),
                rt,
                sharded,
                lookahead: cfg.lookahead,
                jobs: jobs.max(1),
                reference,
                engine: Mutex::new(EngineBox {
                    pdes: Pdes::new(cfg, logics),
                    last_report: None,
                }),
            }),
        }
    }

    /// True when node affinity routes execution: this scheduler was built
    /// by [`sharded`](Self::sharded) or
    /// [`sharded_reference`](Self::sharded_reference).
    #[inline]
    pub fn is_sharded(&self) -> bool {
        self.inner.sharded
    }

    /// Engine lookahead of a sharded scheduler (`None` when sequential).
    /// Two events separated by at least this much virtual time are
    /// happens-before ordered across shards even under parallel execution,
    /// so state written by the earlier one is visible to the later.
    pub fn sharded_lookahead(&self) -> Option<SimDuration> {
        self.inner.sharded.then_some(self.inner.lookahead)
    }

    /// Engine report of the most recent [`run`](Self::run) — cumulative
    /// event/cross-message counts, epochs, channel high-water. `None`
    /// before the first run.
    pub fn pdes_report(&self) -> Option<PdesReport> {
        self.inner.engine.lock().last_report
    }

    /// Install the time-series sample hook. It fires at each epoch boundary
    /// with the epoch's LBTS, a quiescent instant: every event before it has
    /// run and none after it has. On the sequential scheduler an epoch is
    /// one timestamp, so the hook fires once per distinct timestamp, after
    /// every event at that timestamp (same-instant follow-ups included). On
    /// a sharded scheduler the boundaries depend only on the event
    /// population and the lookahead, so frame sequences are byte-identical
    /// at any worker count. One hook per scheduler; a later call replaces
    /// it.
    pub fn set_sample_hook(&self, hook: SampleHook) {
        self.inner
            .engine
            .lock()
            .pdes
            .set_epoch_hook(Arc::new(move |obs: &EpochObservation| {
                hook(obs.lbts.as_nanos());
            }));
    }

    /// Per-shard execution stats (events handled, cross-shard sends,
    /// mailbox high-water), one entry per shard.
    pub fn pdes_shard_stats(&self) -> Vec<PdesShardStat> {
        self.inner.engine.lock().pdes.shard_stats()
    }

    /// Cumulative wall-clock nanoseconds worker threads spent waiting at
    /// epoch barriers across all runs. Zero unless a sharded run used more
    /// than one worker thread.
    pub fn pdes_barrier_wait_ns(&self) -> u64 {
        self.inner.engine.lock().pdes.barrier_wait_ns()
    }

    /// The shard executing one of *this* scheduler's events on the calling
    /// thread, if any.
    #[inline]
    fn active(&self) -> Option<ActiveShard> {
        ACTIVE_SHARD
            .with(|c| c.get())
            .filter(|a| a.rt == self.inner.rt)
    }

    /// Route `ev` into the engine. From inside an event it goes through the
    /// executing shard (`node: None` keeps it on the current node); from
    /// outside it seeds the engine directly (the engine is idle, so there is
    /// no lookahead constraint and seed order is the call order).
    fn schedule(&self, node: Option<PdesNode>, t: SimTime, ev: RawEvent) {
        self.inner.scheduled.fetch_add(1, AtomicOrdering::Relaxed);
        match self.active() {
            Some(active) => {
                active.with_ctx(|ctx| ctx.send_at(node.unwrap_or(active.node), t, ev));
            }
            None => {
                let at = t.max(SimTime(self.inner.now.load(AtomicOrdering::Acquire)));
                self.inner
                    .engine
                    .lock()
                    .pdes
                    .seed(node.unwrap_or(0), at, ev);
            }
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        match self.active() {
            Some(active) => active.with_ctx(|ctx| ctx.now()),
            None => SimTime(self.inner.now.load(AtomicOrdering::Acquire)),
        }
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.inner.executed.load(AtomicOrdering::Relaxed)
    }

    /// Number of events currently pending. Lock-free: derived from the
    /// scheduled/executed counters, so hot loops can poll it without
    /// touching the engine lock. Exact whenever no [`run`](Self::run) is in
    /// progress; during a run, events count as executed only once it
    /// returns.
    #[inline]
    pub fn events_pending(&self) -> usize {
        let scheduled = self.inner.scheduled.load(AtomicOrdering::Acquire);
        let executed = self.inner.executed.load(AtomicOrdering::Acquire);
        scheduled.saturating_sub(executed) as usize
    }

    /// Schedule `f` to run at absolute time `t`. Scheduling in the past is a
    /// logic error; the event is clamped to "now" so the simulation still
    /// makes progress, which keeps real-time-adjacent code robust. Two
    /// events at the same instant on the same shard execute in scheduling
    /// order.
    ///
    /// On a sharded scheduler an unaffined event stays on the node of the
    /// event that scheduled it (main-thread schedules land on node 0).
    pub fn at(&self, t: SimTime, f: impl FnOnce() + Send + 'static) {
        self.schedule(None, t, RawEvent::new(f));
    }

    /// Schedule `f` at `t` with **node affinity**: the event logically
    /// belongs to simulated node `node` (a wire delivery arriving there, a
    /// completion surfacing on its CQ). On the sequential scheduler every
    /// node maps to the one shard, so the execution order is unchanged —
    /// affinity feeds the per-node event census
    /// ([`node_event_counts`](Self::node_event_counts)) that sizes and
    /// balances sharded PDES runs. On a sharded scheduler affinity **is the
    /// routing**: the event executes on `node`'s shard, and a cross-node
    /// schedule closer than the lookahead panics.
    pub fn at_node(&self, node: u32, t: SimTime, f: impl FnOnce() + Send + 'static) {
        if let Some(a) = self.inner.affinity.get() {
            let idx = (node as usize).min(a.per_node.len() - 1);
            a.per_node[idx].fetch_add(1, AtomicOrdering::Relaxed);
        }
        self.schedule(Some(node), t, RawEvent::new(f));
    }

    /// Turn on per-node affinity counting for node ids `0..nodes` (one
    /// overflow slot collects ids beyond the range). Idempotent; the first
    /// call wins. Counting is off by default so `at_node` costs the same as
    /// `at` in production runs.
    pub fn enable_node_affinity(&self, nodes: u32) {
        self.inner.affinity.get_or_init(|| AffinityCounts {
            per_node: (0..=nodes.max(1)).map(|_| AtomicU64::new(0)).collect(),
        });
    }

    /// Per-node counts of node-affine events scheduled so far (empty when
    /// affinity tracking was never enabled). Index `nodes` — the final
    /// slot — counts out-of-range ids.
    pub fn node_event_counts(&self) -> Vec<u64> {
        match self.inner.affinity.get() {
            Some(a) => a
                .per_node
                .iter()
                .map(|c| c.load(AtomicOrdering::Relaxed))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Schedule `f` to run `d` after the current virtual time.
    pub fn after(&self, d: SimDuration, f: impl FnOnce() + Send + 'static) {
        self.at(self.now() + d, f);
    }

    /// Run until the event queue is empty, then park the clock at the last
    /// executed event. Returns the number of events executed by this call.
    /// Executes barrier epochs on the configured worker threads (or the
    /// sequential reference scan) until every shard drains.
    ///
    /// # Panics
    ///
    /// When called from inside one of this scheduler's own events.
    pub fn run(&self) -> u64 {
        assert!(self.active().is_none(), "Scheduler::run is not reentrant");
        let mut eng = self.inner.engine.lock();
        let report = if self.inner.reference {
            eng.pdes.run_reference()
        } else {
            eng.pdes.run(self.inner.jobs)
        };
        // The report is cumulative, and `executed` is only stored here,
        // under the engine lock.
        let ran = report.events
            - self
                .inner
                .executed
                .swap(report.events, AtomicOrdering::Relaxed);
        eng.last_report = Some(report);
        self.inner
            .now
            .fetch_max(report.makespan.as_nanos(), AtomicOrdering::AcqRel);
        ran
    }

    /// High-water mark of the event slab (diagnostics): how many slots have
    /// ever been live at once on any shard, as of the most recent run.
    /// Steady-state workloads should see this plateau while
    /// `events_executed` keeps climbing.
    pub fn slab_high_water(&self) -> usize {
        self.inner
            .engine
            .lock()
            .last_report
            .map_or(0, |r| r.slab_high_water)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_in_time_order() {
        let sim = Scheduler::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (t, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let log = log.clone();
            sim.at(SimTime(t), move || log.lock().push(tag));
        }
        sim.run();
        assert_eq!(*log.lock(), vec!['a', 'b', 'c']);
        assert_eq!(sim.now(), SimTime(30));
    }

    #[test]
    fn ties_execute_in_scheduling_order() {
        let sim = Scheduler::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..100 {
            let log = log.clone();
            sim.at(SimTime(42), move || log.lock().push(i));
        }
        sim.run();
        assert_eq!(*log.lock(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn batches_larger_than_max_batch_stay_ordered() {
        // One instant's events outnumber any fixed-size drain batch (the
        // old sequential queue popped at most 128 per lock acquisition).
        let sim = Scheduler::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let n = 128 * 3 + 17;
        for i in 0..n {
            let log = log.clone();
            sim.at(SimTime(7), move || log.lock().push(i));
        }
        sim.run();
        assert_eq!(*log.lock(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let sim = Scheduler::new();
        let count = Arc::new(AtomicUsize::new(0));
        fn chain(sim: Scheduler, count: Arc<AtomicUsize>, remaining: usize) {
            if remaining == 0 {
                return;
            }
            let s2 = sim.clone();
            sim.after(SimDuration(5), move || {
                count.fetch_add(1, AtomicOrdering::Relaxed);
                chain(s2.clone(), count.clone(), remaining - 1);
            });
        }
        chain(sim.clone(), count.clone(), 10);
        sim.run();
        assert_eq!(count.load(AtomicOrdering::Relaxed), 10);
        assert_eq!(sim.now(), SimTime(50));
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let sim = Scheduler::new();
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = fired.clone();
        let s2 = sim.clone();
        sim.at(SimTime(100), move || {
            let f3 = f2.clone();
            // "Past" event: should fire at t=100, not break the heap.
            s2.at(SimTime(1), move || {
                f3.fetch_add(1, AtomicOrdering::Relaxed);
            });
        });
        sim.run();
        assert_eq!(fired.load(AtomicOrdering::Relaxed), 1);
        assert_eq!(sim.now(), SimTime(100));
    }

    #[test]
    fn counters() {
        let sim = Scheduler::new();
        sim.at(SimTime(1), || {});
        sim.at(SimTime(2), || {});
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(sim.events_executed(), 2);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn slab_slots_are_reused_in_steady_state() {
        let sim = Scheduler::new();
        // Chain 1000 events, at most 2 pending at a time.
        fn chain(sim: Scheduler, remaining: u32) {
            if remaining == 0 {
                return;
            }
            let s2 = sim.clone();
            sim.after(SimDuration(1), move || chain(s2.clone(), remaining - 1));
        }
        chain(sim.clone(), 1_000);
        sim.run();
        assert_eq!(sim.events_executed(), 1_000);
        assert!(
            sim.slab_high_water() <= 2,
            "slab grew to {} slots for a 1-deep chain",
            sim.slab_high_water()
        );
    }

    #[test]
    fn large_closures_fall_back_to_boxing() {
        let sim = Scheduler::new();
        let big = [7u8; 512]; // larger than INLINE_EVENT_BYTES
        let sum = Arc::new(AtomicUsize::new(0));
        let s2 = sum.clone();
        sim.at(SimTime(1), move || {
            s2.store(
                big.iter().map(|&b| b as usize).sum(),
                AtomicOrdering::Relaxed,
            );
        });
        sim.run();
        assert_eq!(sum.load(AtomicOrdering::Relaxed), 7 * 512);
    }

    #[test]
    fn unexecuted_events_are_dropped_cleanly() {
        // An Arc captured by a never-run event must still be released when
        // the scheduler is dropped (drop_fn path).
        let sentinel = Arc::new(());
        let sim = Scheduler::new();
        let s2 = sentinel.clone();
        sim.at(SimTime(1), move || {
            let _keep = s2;
        });
        drop(sim);
        assert_eq!(Arc::strong_count(&sentinel), 1);
    }

    #[test]
    fn node_affinity_census() {
        let sim = Scheduler::new();
        sim.enable_node_affinity(2);
        sim.at_node(0, SimTime(1), || {});
        sim.at_node(1, SimTime(2), || {});
        sim.at_node(1, SimTime(3), || {});
        sim.at_node(99, SimTime(4), || {}); // out of range -> overflow slot
        sim.run();
        assert_eq!(sim.node_event_counts(), vec![1, 2, 1]);
        // Disabled tracking reports nothing.
        let quiet = Scheduler::new();
        quiet.at_node(0, SimTime(1), || {});
        quiet.run();
        assert!(quiet.node_event_counts().is_empty());
    }

    /// A causal cross-node hop chain run on every executor flavour must
    /// visit nodes in the same order at the same virtual times.
    fn hop_chain(sched: &Scheduler, lookahead: SimDuration, hops: u32) -> Vec<(u32, u64)> {
        let log = Arc::new(Mutex::new(Vec::new()));
        fn hop(
            sched: Scheduler,
            log: Arc<Mutex<Vec<(u32, u64)>>>,
            lookahead: SimDuration,
            node: u32,
            remaining: u32,
        ) {
            let t = sched.now() + lookahead;
            let s2 = sched.clone();
            sched.at_node(node, t, move || {
                log.lock().push((node, s2.now().as_nanos()));
                if remaining > 0 {
                    hop(
                        s2.clone(),
                        log.clone(),
                        lookahead,
                        (node + 1) % 4,
                        remaining - 1,
                    );
                }
            });
        }
        hop(sched.clone(), log.clone(), lookahead, 0, hops);
        sched.run();
        let out = log.lock().clone();
        out
    }

    #[test]
    fn sharded_matches_reference_and_jobs() {
        let la = SimDuration(10);
        let want = hop_chain(&Scheduler::sharded_reference(4, la), la, 40);
        assert_eq!(want.len(), 41);
        for jobs in [1, 2, 4] {
            let got = hop_chain(&Scheduler::sharded(4, la, jobs), la, 40);
            assert_eq!(got, want, "jobs={jobs} diverged from reference");
        }
        // The sequential scheduler agrees too: same virtual timing model.
        assert_eq!(hop_chain(&Scheduler::new(), la, 40), want);
    }

    #[test]
    fn sharded_unaffined_events_stay_on_scheduling_node() {
        let sim = Scheduler::sharded(3, SimDuration(5), 2);
        sim.enable_node_affinity(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l1, s2) = (log.clone(), sim.clone());
        // Main-thread `at` seeds node 0; the inner `after` must stay local
        // to node 1 without tripping the cross-shard lookahead assert.
        sim.at_node(1, SimTime(100), move || {
            let l2 = l1.clone();
            let s3 = s2.clone();
            s2.after(SimDuration(1), move || {
                l2.lock().push(s3.now());
            });
        });
        sim.run();
        assert_eq!(*log.lock(), vec![SimTime(101)]);
        assert_eq!(sim.now(), SimTime(101));
        assert_eq!(sim.events_executed(), 2);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn sharded_run_is_repeatable_across_seeding_rounds() {
        let sim = Scheduler::sharded(2, SimDuration(5), 2);
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        sim.at_node(0, SimTime(1), move || {
            c2.fetch_add(1, AtomicOrdering::Relaxed);
        });
        assert_eq!(sim.run(), 1);
        let c3 = count.clone();
        sim.at_node(1, SimTime(50), move || {
            c3.fetch_add(1, AtomicOrdering::Relaxed);
        });
        assert_eq!(sim.run(), 1);
        assert_eq!(count.load(AtomicOrdering::Relaxed), 2);
        assert_eq!(sim.events_executed(), 2);
        assert!(sim.pdes_report().is_some());
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn sharded_cross_node_event_inside_lookahead_panics() {
        let sim = Scheduler::sharded(2, SimDuration(100), 1);
        let s2 = sim.clone();
        sim.at_node(0, SimTime(10), move || {
            // Node 1 lives on another shard; 1 ns ahead < lookahead.
            s2.at_node(1, s2.now() + SimDuration(1), || {});
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "not reentrant")]
    fn reentrant_run_from_event_panics() {
        // An event invoking run() on its own scheduler is a logic error on
        // every scheduler: the engine is mid-epoch.
        let sim = Scheduler::new();
        let s2 = sim.clone();
        sim.at(SimTime(1), move || {
            s2.at(SimTime(2), || {});
            s2.run();
        });
        sim.run();
    }

    #[test]
    fn sequential_sample_hook_sees_batch_times() {
        let sim = Scheduler::new();
        let ticks = Arc::new(Mutex::new(Vec::new()));
        let t2 = ticks.clone();
        sim.set_sample_hook(Arc::new(move |t| t2.lock().push(t)));
        // A same-time follow-up belongs to the same instant's epoch.
        let s2 = sim.clone();
        sim.at(SimTime(10), move || s2.at(SimTime(10), || {}));
        for t in [10u64, 20, 30] {
            sim.at(SimTime(t), || {});
        }
        sim.run();
        // One call per distinct timestamp, after all of its events.
        assert_eq!(*ticks.lock(), vec![10, 20, 30]);
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn sharded_sample_hook_ticks_are_jobs_invariant() {
        let la = SimDuration(10);
        let ticks_for = |jobs: usize| {
            let sim = Scheduler::sharded(4, la, jobs);
            let ticks = Arc::new(Mutex::new(Vec::new()));
            let t2 = ticks.clone();
            sim.set_sample_hook(Arc::new(move |t| t2.lock().push(t)));
            hop_chain(&sim, la, 40);
            let out = ticks.lock().clone();
            out
        };
        let want = ticks_for(1);
        assert!(!want.is_empty(), "epoch hook never fired");
        for jobs in [2, 4] {
            assert_eq!(ticks_for(jobs), want, "jobs={jobs} tick sequence diverged");
        }
    }

    #[test]
    fn sharded_shard_stats_cover_every_shard() {
        let la = SimDuration(10);
        let sim = Scheduler::sharded(4, la, 2);
        hop_chain(&sim, la, 40);
        let stats = sim.pdes_shard_stats();
        assert_eq!(stats.len(), 4);
        let total: u64 = stats.iter().map(|s| s.events).sum();
        assert_eq!(total, 41);
        let ratio = crate::pdes::imbalance_ratio(&stats);
        assert!(ratio >= 1.0, "imbalance ratio {ratio} below 1.0");
        // The sequential scheduler is the one-shard case of the same
        // engine, and one shard never waits on a barrier.
        let seq = Scheduler::new();
        hop_chain(&seq, la, 40);
        let stats = seq.pdes_shard_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].events, 41);
        assert_eq!(seq.pdes_barrier_wait_ns(), 0);
    }
}
