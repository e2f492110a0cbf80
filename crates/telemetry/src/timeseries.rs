//! Windowed time-series plane: periodic **delta frames** over the counter
//! ledger and the stage histograms, captured into a fixed-capacity ring.
//!
//! A [`Sampler`] owns a [`SampleSource`] closure that freezes the whole
//! observable state of the stack (a [`Snapshot`], the stage-histogram
//! snapshots, and optional transport gauges) and, every `interval_ns` of
//! *driver* time, emits a [`Frame`]: the saturating difference between the
//! current observation and the previous one. The end-of-run snapshot that
//! earlier PRs export is exactly the sum of all frames — this module only
//! adds the time axis.
//!
//! Who drives the clock depends on the executor:
//!
//! - **Simulated runs** tick the sampler with *virtual* time at the PDES
//!   engine's epoch boundaries: once per distinct timestamp on the one-shard
//!   sequential scheduler, at the epoch barriers on a sharded one (where no
//!   events are in flight and the ledger is in a state every executor
//!   passes through). Frames from a sharded run are
//!   therefore deterministic and byte-identical across `--jobs` counts,
//!   like every other observable.
//! - **Real-time runs** (the ShmFabric) tick it with wall time from the
//!   fabric's own progress thread, Ibdxnet-style: no extra instrumentation
//!   thread, the transport samples itself between servicing rings.
//!
//! The hot path is lock-free: [`Sampler::tick`] is a single relaxed atomic
//! load and compare until a window boundary is crossed; only the actual
//! capture (a few times per run) takes the ring lock.
//!
//! Determinism projection: when [`SamplerConfig::deterministic`] is set the
//! frame zeroes `arena.pool_hits` / `arena.pool_misses` /
//! `arena.live_high_water`, the same interleaving-dependent fields
//! [`Snapshot::ledger_digest`] excludes, so sharded frames compare equal to
//! sequential ones.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hist::HistSnapshot;
use crate::snapshot::Snapshot;

/// One observation of everything the sampler watches: the frozen counter
/// ledger, the stage-histogram snapshots, and optional transport gauges
/// (e.g. ShmFabric ring occupancy) as `(name, value)` pairs.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Complete counter ledger at observation time.
    pub snapshot: Snapshot,
    /// Per-stage residency histograms at observation time.
    pub stages: Vec<(&'static str, HistSnapshot)>,
    /// Transport-specific monotone gauges, e.g. progress-loop iterations.
    pub gauges: Vec<(&'static str, u64)>,
}

/// Closure that freezes a [`Sample`]; installed once per [`Sampler`].
pub type SampleSource = Arc<dyn Fn() -> Sample + Send + Sync>;

/// Sampler policy: window length, ring depth, and whether frames are
/// projected onto the deterministic (executor-invariant) counter subset.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Window length in driver time (virtual ns on simulated runs, wall ns
    /// on real-time runs). Must be non-zero.
    pub interval_ns: u64,
    /// Maximum frames retained; the oldest frame is evicted beyond this.
    pub capacity: usize,
    /// Zero the interleaving-dependent arena fields in every frame (set on
    /// simulated runs so frames are byte-identical across executors).
    pub deterministic: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            interval_ns: 1_000_000,
            capacity: 128,
            deterministic: false,
        }
    }
}

/// Every transport gauge name a frame can carry: the ShmFabric's
/// progress-loop and ring gauges, in `ShmFabric::sample_gauges` order. The
/// decoder accepts no other name.
pub const SHM_GAUGE_NAMES: [&str; 6] = [
    "progress_iterations",
    "progress_wakeups",
    "ring_occupancy_high_water",
    "ring_full_stalls",
    "rnr_deferrals",
    "stale_acks",
];

/// One transport gauge inside a frame: the cumulative value at the window
/// end and its increase over the window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameGauge {
    /// Gauge name (e.g. `"progress_iterations"`).
    pub name: &'static str,
    /// Cumulative value at the end of the window.
    pub total: u64,
    /// Saturating increase over the window.
    pub delta: u64,
}

/// One window of the time series: the saturating per-counter increase since
/// the previous frame, plus the per-stage histogram deltas.
///
/// Monotone counters in `deltas` hold window increments; the live gauges
/// (`QpSnapshot::outstanding`, `recv_queue_depth`, `state`, and
/// `ArenaSnapshot::live_high_water`) hold the value *at the window end*,
/// since they may decrease. Stage-histogram `max` is the cumulative exact
/// maximum (a window maximum cannot be recovered from bucket differences).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Frame {
    /// Frame number since the sampler was created (not reset by eviction).
    pub seq: u64,
    /// Driver time at the end of the window.
    pub t_ns: u64,
    /// Window length: `t_ns` minus the previous frame's `t_ns`.
    pub span_ns: u64,
    /// Counter-ledger deltas (gauges carried as current values).
    pub deltas: Snapshot,
    /// Stage-histogram deltas (`max` cumulative, buckets windowed).
    pub stages: Vec<(&'static str, HistSnapshot)>,
    /// Transport gauge values and their window deltas.
    pub gauges: Vec<FrameGauge>,
}

/// Apply `f(slot, value)` across two index-aligned ledger field lists.
fn zip_fields(slots: &mut [(&str, &mut u64)], vals: &[(&str, u64)], f: fn(u64, u64) -> u64) {
    for ((_, slot), (_, v)) in slots.iter_mut().zip(vals) {
        **slot = f(**slot, *v);
    }
}

/// `cur - prev` over the whole ledger, saturating per counter. QPs are
/// matched by `(node, qp_num)` and CQs by `cq_id`; a row with no
/// predecessor (a QP created inside the window) contributes its full
/// values. Rows keep `cur`'s order, so frame sequences from identical runs
/// render identically. The live gauges (QP `state`, `outstanding`,
/// `recv_queue_depth` and `arena.live_high_water`) are carried as the
/// current value, not subtracted.
pub fn snapshot_delta(prev: &Snapshot, cur: &Snapshot) -> Snapshot {
    let sub = u64::saturating_sub;
    let mut d = cur.clone();
    for q in &mut d.qps {
        let before = prev
            .qps
            .iter()
            .find(|p| p.node == q.node && p.qp_num == q.qp_num);
        if let Some(p) = before {
            // The first two QP fields are the live gauges.
            zip_fields(
                &mut q.counter_fields_mut()[2..],
                &p.counter_fields()[2..],
                sub,
            );
        }
    }
    for c in &mut d.cqs {
        if let Some(p) = prev.cqs.iter().find(|p| p.cq_id == c.cq_id) {
            for (v, p) in c.pushed_by_status.iter_mut().zip(p.pushed_by_status) {
                *v = v.saturating_sub(p);
            }
            zip_fields(&mut c.counter_fields_mut(), &p.counter_fields(), sub);
        }
    }
    zip_fields(&mut d.wire.fields_mut(), &prev.wire.fields(), sub);
    zip_fields(&mut d.runtime.fields_mut(), &prev.runtime.fields(), sub);
    // The last arena field is the live high-water gauge.
    zip_fields(
        &mut d.arena.fields_mut()[..4],
        &prev.arena.fields()[..4],
        sub,
    );
    d
}

/// Add a delta frame's counters back onto a cumulative snapshot — the
/// inverse of [`snapshot_delta`]. Gauges (`state`, `outstanding`,
/// `recv_queue_depth`, `live_high_water`) are overwritten with the frame's
/// values. Rows not yet present in `acc` are appended, preserving
/// first-seen order. Summing every frame of an un-evicted ring onto
/// `Snapshot::default()` reproduces the final cumulative snapshot.
pub fn snapshot_accum(acc: &mut Snapshot, delta: &Snapshot) {
    let add = |a: u64, d: u64| a + d;
    for q in &delta.qps {
        match acc
            .qps
            .iter_mut()
            .find(|a| a.node == q.node && a.qp_num == q.qp_num)
        {
            Some(a) => {
                a.state = q.state;
                a.outstanding = q.outstanding;
                a.recv_queue_depth = q.recv_queue_depth;
                zip_fields(
                    &mut a.counter_fields_mut()[2..],
                    &q.counter_fields()[2..],
                    add,
                );
            }
            None => acc.qps.push(q.clone()),
        }
    }
    for c in &delta.cqs {
        match acc.cqs.iter_mut().find(|a| a.cq_id == c.cq_id) {
            Some(a) => {
                for (s, d) in a.pushed_by_status.iter_mut().zip(c.pushed_by_status) {
                    *s += d;
                }
                zip_fields(&mut a.counter_fields_mut(), &c.counter_fields(), add);
            }
            None => acc.cqs.push(c.clone()),
        }
    }
    zip_fields(&mut acc.wire.fields_mut(), &delta.wire.fields(), add);
    zip_fields(&mut acc.runtime.fields_mut(), &delta.runtime.fields(), add);
    zip_fields(
        &mut acc.arena.fields_mut()[..4],
        &delta.arena.fields()[..4],
        add,
    );
    acc.arena.live_high_water = delta.arena.live_high_water;
}

/// `cur - prev` over one stage histogram: windowed `count`/`sum`, buckets
/// subtracted pairwise by lower bound (empty results dropped), and `max`
/// carried as the cumulative exact maximum.
pub fn hist_delta(prev: &HistSnapshot, cur: &HistSnapshot) -> HistSnapshot {
    let mut buckets = Vec::new();
    for b in &cur.buckets {
        let before = prev
            .buckets
            .iter()
            .find(|p| p.lo == b.lo)
            .map(|p| p.count)
            .unwrap_or(0);
        let d = b.count.saturating_sub(before);
        if d > 0 {
            buckets.push(crate::hist::HistBucket { count: d, ..*b });
        }
    }
    HistSnapshot {
        count: cur.count.saturating_sub(prev.count),
        sum: cur.sum.saturating_sub(prev.sum),
        max: cur.max,
        buckets,
    }
}

/// Apply [`hist_delta`] across two stage lists, matching by stage name.
pub fn stages_delta(
    prev: &[(&'static str, HistSnapshot)],
    cur: &[(&'static str, HistSnapshot)],
) -> Vec<(&'static str, HistSnapshot)> {
    let empty = HistSnapshot::default();
    cur.iter()
        .map(|(name, h)| {
            let before = prev
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, p)| p)
                .unwrap_or(&empty);
            (*name, hist_delta(before, h))
        })
        .collect()
}

struct Ring {
    prev: Option<Sample>,
    prev_t: u64,
    frames: VecDeque<Frame>,
    seq: u64,
}

/// The windowed sampler: tick it with driver time and it captures a
/// [`Frame`] whenever a window boundary is crossed. See the module docs for
/// who drives it and the determinism contract.
pub struct Sampler {
    cfg: SamplerConfig,
    source: SampleSource,
    next_due: AtomicU64,
    captured: AtomicU64,
    evicted: AtomicU64,
    inner: Mutex<Ring>,
}

impl Sampler {
    /// Build a sampler over `source`. Panics if the interval or capacity is
    /// zero.
    pub fn new(cfg: SamplerConfig, source: SampleSource) -> Arc<Sampler> {
        assert!(cfg.interval_ns > 0, "sampler interval must be non-zero");
        assert!(cfg.capacity > 0, "sampler capacity must be non-zero");
        Arc::new(Sampler {
            cfg,
            source,
            next_due: AtomicU64::new(cfg.interval_ns),
            captured: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            inner: Mutex::new(Ring {
                prev: None,
                prev_t: 0,
                frames: VecDeque::new(),
                seq: 0,
            }),
        })
    }

    /// The policy in force.
    pub fn config(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// Advance the sampler clock to `t_ns`; captures a frame iff a window
    /// boundary has been crossed. Hot path below the boundary is one
    /// relaxed load — safe to call per event batch or progress-loop
    /// iteration.
    pub fn tick(&self, t_ns: u64) {
        if t_ns < self.next_due.load(Ordering::Relaxed) {
            return;
        }
        let mut ring = self.inner.lock();
        // Re-checked under the lock so racing tickers emit one frame.
        if t_ns < self.next_due.load(Ordering::Relaxed) {
            return;
        }
        self.advance_due(t_ns);
        self.emit(&mut ring, t_ns);
    }

    /// Capture a frame right now regardless of window position (e.g. one
    /// final frame at quiescence). Advances the window clock when `t_ns`
    /// has passed it.
    pub fn capture(&self, t_ns: u64) {
        let mut ring = self.inner.lock();
        if t_ns >= self.next_due.load(Ordering::Relaxed) {
            self.advance_due(t_ns);
        }
        self.emit(&mut ring, t_ns);
    }

    fn advance_due(&self, t_ns: u64) {
        let iv = self.cfg.interval_ns;
        let next = (t_ns / iv).saturating_add(1).saturating_mul(iv);
        self.next_due.store(next, Ordering::Relaxed);
    }

    fn emit(&self, ring: &mut Ring, t_ns: u64) {
        let cur = (self.source)();
        let (mut deltas, stages, gauges) = match &ring.prev {
            Some(p) => (
                snapshot_delta(&p.snapshot, &cur.snapshot),
                stages_delta(&p.stages, &cur.stages),
                cur.gauges
                    .iter()
                    .map(|(name, v)| {
                        let before = p
                            .gauges
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, b)| *b)
                            .unwrap_or(0);
                        FrameGauge {
                            name,
                            total: *v,
                            delta: v.saturating_sub(before),
                        }
                    })
                    .collect(),
            ),
            None => (
                snapshot_delta(&Snapshot::default(), &cur.snapshot),
                stages_delta(&[], &cur.stages),
                cur.gauges
                    .iter()
                    .map(|(name, v)| FrameGauge {
                        name,
                        total: *v,
                        delta: *v,
                    })
                    .collect(),
            ),
        };
        if self.cfg.deterministic {
            // The same projection ledger_digest applies: these depend on the
            // wall-clock interleaving of pool accesses across shards.
            deltas.arena.pool_hits = 0;
            deltas.arena.pool_misses = 0;
            deltas.arena.live_high_water = 0;
        }
        let frame = Frame {
            seq: ring.seq,
            t_ns,
            span_ns: t_ns.saturating_sub(ring.prev_t),
            deltas,
            stages,
            gauges,
        };
        ring.seq += 1;
        if ring.frames.len() == self.cfg.capacity {
            ring.frames.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.frames.push_back(frame);
        ring.prev = Some(cur);
        ring.prev_t = t_ns;
        self.captured.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy of the retained frames, oldest first.
    pub fn frames(&self) -> Vec<Frame> {
        self.inner.lock().frames.iter().cloned().collect()
    }

    /// The most recent frame, if any.
    pub fn latest(&self) -> Option<Frame> {
        self.inner.lock().frames.back().cloned()
    }

    /// Total frames captured (including any since evicted).
    pub fn frames_captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Frames evicted from the ring to make room.
    pub fn frames_evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{ArenaSnapshot, WireSnapshot};

    fn snap(delivered: u64, gets: u64) -> Snapshot {
        Snapshot {
            wire: WireSnapshot {
                delivered,
                bytes_delivered: delivered * 100,
                ..WireSnapshot::default()
            },
            arena: ArenaSnapshot {
                pool_gets: gets,
                pool_hits: gets / 2,
                pool_misses: gets - gets / 2,
                pool_returns: gets,
                live_high_water: 7,
            },
            ..Snapshot::default()
        }
    }

    fn counting_source() -> (Arc<AtomicU64>, SampleSource) {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = n.clone();
        let source: SampleSource = Arc::new(move || {
            let k = n2.fetch_add(1, Ordering::Relaxed) + 1;
            Sample {
                snapshot: snap(k * 10, k),
                stages: Vec::new(),
                gauges: vec![("iters", k * 3)],
            }
        });
        (n, source)
    }

    #[test]
    fn tick_fires_once_per_window() {
        let (calls, source) = counting_source();
        let s = Sampler::new(
            SamplerConfig {
                interval_ns: 100,
                capacity: 8,
                deterministic: false,
            },
            source,
        );
        for t in [1u64, 50, 99] {
            s.tick(t);
        }
        assert_eq!(s.frames_captured(), 0, "below the first boundary");
        s.tick(100);
        s.tick(101); // same window: must not fire again
        assert_eq!(s.frames_captured(), 1);
        s.tick(250); // skipped a whole window: one frame, due moves to 300
        assert_eq!(s.frames_captured(), 2);
        s.tick(299);
        assert_eq!(s.frames_captured(), 2);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        let frames = s.frames();
        assert_eq!(frames[0].t_ns, 100);
        assert_eq!(frames[1].t_ns, 250);
        assert_eq!(frames[1].span_ns, 150);
        // First frame holds full values, second the delta.
        assert_eq!(frames[0].deltas.wire.delivered, 10);
        assert_eq!(frames[1].deltas.wire.delivered, 10);
        assert_eq!(
            frames[1].gauges[0],
            FrameGauge {
                name: "iters",
                total: 6,
                delta: 3
            }
        );
    }

    #[test]
    fn ring_evicts_oldest() {
        let (_, source) = counting_source();
        let s = Sampler::new(
            SamplerConfig {
                interval_ns: 10,
                capacity: 3,
                deterministic: false,
            },
            source,
        );
        for k in 1..=5u64 {
            s.tick(k * 10);
        }
        assert_eq!(s.frames_captured(), 5);
        assert_eq!(s.frames_evicted(), 2);
        let frames = s.frames();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].seq, 2);
        assert_eq!(frames[2].seq, 4);
    }

    #[test]
    fn frames_sum_to_final_snapshot() {
        let (_, source) = counting_source();
        let s = Sampler::new(
            SamplerConfig {
                interval_ns: 10,
                capacity: 64,
                deterministic: false,
            },
            source,
        );
        for k in 1..=6u64 {
            s.tick(k * 10);
        }
        let mut acc = Snapshot::default();
        for f in s.frames() {
            snapshot_accum(&mut acc, &f.deltas);
        }
        assert_eq!(acc, snap(60, 6));
    }

    #[test]
    fn deterministic_mode_scrubs_arena_noise() {
        let (_, source) = counting_source();
        let s = Sampler::new(
            SamplerConfig {
                interval_ns: 10,
                capacity: 8,
                deterministic: true,
            },
            source,
        );
        s.tick(10);
        let f = s.latest().unwrap();
        assert_eq!(f.deltas.arena.pool_hits, 0);
        assert_eq!(f.deltas.arena.pool_misses, 0);
        assert_eq!(f.deltas.arena.live_high_water, 0);
        assert_eq!(f.deltas.arena.pool_gets, 1, "commutative totals survive");
    }

    #[test]
    fn hist_delta_windows_buckets_and_carries_max() {
        use crate::hist::LogHistogram;
        let h = LogHistogram::new();
        h.record(100);
        h.record(5_000);
        let before = h.snapshot();
        h.record(100);
        h.record(90_000);
        let after = h.snapshot();
        let d = hist_delta(&before, &after);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 100 + 90_000);
        assert_eq!(d.max, 90_000);
        let total: u64 = d.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 2, "only the new samples appear in the window");
    }

    #[test]
    fn capture_forces_a_frame_mid_window() {
        let (_, source) = counting_source();
        let s = Sampler::new(SamplerConfig::default(), source);
        s.capture(42);
        assert_eq!(s.frames_captured(), 1);
        assert_eq!(s.latest().unwrap().t_ns, 42);
    }
}
