//! Partitioned send/receive request state and the aggregation policies.
//!
//! This is the paper's §IV-A data path:
//!
//! - `pready` executes an atomic add-and-fetch on per-transport-partition
//!   arrival counters; the arrival that completes a transport partition
//!   posts the `IBV_WR_RDMA_WRITE_WITH_IMM` work request;
//! - the immediate value encodes `(starting user partition, contiguous run
//!   length)` as two packed u16s;
//! - receive completions decode the immediate and set per-partition arrival
//!   flags (`Release` on the writer, `Acquire` in `parrived`);
//! - the timer-based aggregator (§IV-D) arms a δ-timer at the first arrival
//!   of a group, flushes the arrived subset as maximal contiguous runs on
//!   expiry, and lets post-flush arrivals send their own runs.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use partix_sim::{SimDuration, SimTime};
use partix_verbs::{
    imm, MemoryRegion, Opcode, PostOptions, QpState, QueuePair, SendWr, Sge, VerbsError, WcStatus,
    WorkCompletion,
};

use crate::config::AggregatorKind;
use crate::error::{PartixError, Result};
use crate::plan::TransportPlan;
use crate::proc::ProcInner;

/// Group phase for the timer aggregator.
const PHASE_COLLECTING: u8 = 0;
const PHASE_SENT_ALL: u8 = 1;
const PHASE_FLUSHED: u8 = 2;

/// Per-transport-partition state.
pub(crate) struct GroupState {
    /// User partitions covered.
    pub range: Range<u32>,
    /// Arrivals so far this round.
    pub arrived: AtomicU32,
    /// Timer-aggregator phase.
    pub phase: AtomicU8,
    /// Serialises flush-path scanning.
    pub lock: Mutex<()>,
    /// Flow tracing: the group's first `pready` stamp this round (0 = none
    /// yet). A counting policy posts the group whole, so this is where its
    /// aggregation hold starts.
    pub first_ready_ns: AtomicU64,
}

/// A WR that hit the hardware outstanding cap and waits for a free slot.
/// Also the retained image of every in-flight WR, so QP recovery can
/// re-post a failed transfer byte-identically.
pub(crate) struct PendingPost {
    pub qp_idx: u32,
    pub wr: SendWr,
    pub opts: PostOptions,
    /// Flow-trace timestamp of the spill into the software-pending queue
    /// (0 when tracing is off or the WR is untraced); the progress drain
    /// turns it into a `cap_wait` sample on re-post.
    pub queued_ns: u64,
}

/// Wire resources of a matched send request.
pub(crate) struct SendChannel {
    pub plan: TransportPlan,
    pub qps: Vec<Arc<QueuePair>>,
    pub remote_addr: u64,
    pub remote_rkey: u32,
    pub groups: Vec<GroupState>,
    pub pending: Mutex<VecDeque<PendingPost>>,
    /// Image of every WR handed to the wire and not yet retired, keyed by
    /// WR id. Consulted by the recovery path to re-post a failed WR after
    /// cycling its QP back to RTS.
    pub inflight: Mutex<HashMap<u64, PendingPost>>,
    /// Live delta for the timer aggregator (ns); seeded from the plan and
    /// rewritten each round when adaptive tuning is on.
    pub delta_ns: AtomicU64,
    /// Freelist of retired `SendWr` shells. The `sg_list` vectors keep their
    /// capacity across reuse, so steady-state posting builds WRs and their
    /// in-flight images without heap allocation.
    pub wr_pool: Mutex<Vec<SendWr>>,
    /// Reusable assembly buffer for multi-run flush batches (capacity
    /// retained between flushes).
    pub batch_scratch: Mutex<Vec<SendWr>>,
}

/// Upper bound on pooled WR shells per channel; beyond this, retired shells
/// are simply dropped (the pool only needs to cover the outstanding window
/// plus the software-pending spill).
const WR_POOL_CAP: usize = 64;

impl SendChannel {
    /// Current timer delta, if this channel aggregates with a timer.
    pub(crate) fn current_delta(&self) -> Option<SimDuration> {
        self.plan.timer_delta?;
        Some(SimDuration::from_nanos(
            self.delta_ns.load(Ordering::Acquire),
        ))
    }

    /// Pop a WR shell off the freelist (or mint one on a cold pool).
    pub(crate) fn take_wr(&self) -> SendWr {
        self.wr_pool.lock().pop().unwrap_or_default()
    }

    /// Return a retired WR shell to the freelist, keeping its `sg_list`
    /// capacity. Leaf lock: safe to call while holding any channel lock.
    pub(crate) fn recycle_wr(&self, mut wr: SendWr) {
        wr.sg_list.clear();
        let mut pool = self.wr_pool.lock();
        if pool.len() < WR_POOL_CAP {
            pool.push(wr);
        }
    }

    /// Copy `src` into a pooled shell — the retained in-flight image — by
    /// field assignment into recycled storage instead of `Clone`.
    fn image_of(&self, src: &SendWr) -> SendWr {
        let mut img = self.take_wr();
        img.wr_id = src.wr_id;
        img.opcode = src.opcode;
        img.sg_list.clear();
        img.sg_list.extend_from_slice(&src.sg_list);
        img.remote_addr = src.remote_addr;
        img.rkey = src.rkey;
        img.imm = src.imm;
        img.inline_data = src.inline_data;
        img.flow = src.flow;
        img
    }
}

/// Shared state of a partitioned send request.
pub(crate) struct SendShared {
    pub id: u64,
    pub proc: Arc<ProcInner>,
    pub partitions: u32,
    pub part_bytes: usize,
    pub mr: MemoryRegion,
    pub dest: u32,
    pub tag: u32,
    pub channel: OnceLock<Arc<SendChannel>>,
    pub ready: AtomicBool,
    pub ready_cbs: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
    pub active: AtomicBool,
    pub round: AtomicU64,
    pub arrived: Box<[AtomicU8]>,
    pub sent: Box<[AtomicU8]>,
    pub pready_count: AtomicU32,
    pub sent_count: AtomicU32,
    pub wr_posted: AtomicU32,
    pub wr_completed: AtomicU32,
    pub wr_posted_total: AtomicU64,
    pub completed_rounds: AtomicU64,
    /// QP recovery cycles spent this round (bounded by
    /// `reliability.max_recoveries`).
    pub recoveries_round: AtomicU64,
    /// QP recovery cycles across the request's lifetime (diagnostics).
    pub recoveries_total: AtomicU64,
    pub complete_cbs: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
    pub error: OnceLock<&'static str>,
    /// Per-round pready timestamps (populated only under adaptive delta).
    pub arrival_log: Mutex<Vec<u64>>,
    /// Per-partition pready timestamps for causal flow tracing (stamped only
    /// under a timer policy while a flow recorder is attached; feeds the
    /// `agg_hold_ns` histogram).
    pub pready_ns: Box<[AtomicU64]>,
}

impl SendShared {
    pub(crate) fn channel(&self) -> Result<&Arc<SendChannel>> {
        if !self.ready.load(Ordering::Acquire) {
            return Err(PartixError::ChannelNotReady);
        }
        self.channel.get().ok_or(PartixError::ChannelNotReady)
    }

    /// Mark the channel ready (flag only; see [`Self::fire_ready`]).
    pub(crate) fn set_ready(&self) {
        self.ready.store(true, Ordering::Release);
    }

    /// Fire deferred readiness callbacks. Both ends of a channel are
    /// flagged ready before either end's callbacks run, so a callback can
    /// start both requests.
    pub(crate) fn fire_ready(&self) {
        debug_assert!(self.ready.load(Ordering::Acquire));
        let cbs = std::mem::take(&mut *self.ready_cbs.lock());
        for cb in cbs {
            cb();
        }
    }

    /// Begin a round.
    pub(crate) fn start(self: &Arc<Self>) -> Result<()> {
        let ch = self.channel()?.clone();
        if self.active.swap(true, Ordering::AcqRel) {
            return Err(PartixError::AlreadyActive);
        }
        for f in self.arrived.iter() {
            f.store(0, Ordering::Relaxed);
        }
        for f in self.sent.iter() {
            f.store(0, Ordering::Relaxed);
        }
        for g in &ch.groups {
            g.arrived.store(0, Ordering::Relaxed);
            g.phase.store(PHASE_COLLECTING, Ordering::Relaxed);
            g.first_ready_ns.store(0, Ordering::Relaxed);
        }
        self.pready_count.store(0, Ordering::Relaxed);
        self.sent_count.store(0, Ordering::Relaxed);
        self.wr_posted.store(0, Ordering::Relaxed);
        self.wr_completed.store(0, Ordering::Release);
        self.recoveries_round.store(0, Ordering::Relaxed);
        self.arrival_log.lock().clear();
        if ch.plan.timer_delta.is_some() && self.proc.tel.flows.enabled() {
            for t in self.pready_ns.iter() {
                t.store(0, Ordering::Relaxed);
            }
        }
        let round = self.round.fetch_add(1, Ordering::AcqRel) + 1;
        self.proc
            .emit(|s, t| s.on_send_start(self.proc.rank, self.id, round, t));
        Ok(())
    }

    /// Mark user partition `i` ready for transfer.
    pub(crate) fn pready(self: &Arc<Self>, i: u32) -> Result<()> {
        if !self.active.load(Ordering::Acquire) {
            return Err(PartixError::NotActive);
        }
        if i >= self.partitions {
            return Err(PartixError::PartitionOutOfRange {
                index: i,
                partitions: self.partitions,
            });
        }
        if self.arrived[i as usize].swap(1, Ordering::AcqRel) == 1 {
            return Err(PartixError::DoublePready { index: i });
        }
        self.proc
            .emit(|s, t| s.on_pready(self.proc.rank, self.id, i, t));
        self.proc.tel.runtime.preadys.inc();
        self.pready_count.fetch_add(1, Ordering::AcqRel);
        if self.proc.config.adaptive_delta {
            self.arrival_log
                .lock()
                .push(self.proc.time.now().as_nanos());
        }
        let ch = self.channel()?.clone();
        let g = ch.plan.group_of(i);
        match ch.current_delta() {
            None => self.counting_pready(&ch, g),
            Some(delta) => self.timer_pready(&ch, g, i, delta),
        }
        // This pready may have posted nothing (a concurrent flush already
        // covered the partition) while every WR ack has already been
        // retired; re-evaluate completion so the round cannot be left
        // complete-but-undetected.
        self.maybe_complete();
        Ok(())
    }

    /// Non-timer policies: the arrival completing the group posts it whole.
    fn counting_pready(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32) {
        let grp = &ch.groups[g as usize];
        // Flow tracing needs one clock read per group, not per partition:
        // the group's earliest pready is the oldest member of its WR.
        let flows = &self.proc.tel.flows;
        if flows.enabled() && grp.first_ready_ns.load(Ordering::Relaxed) == 0 {
            let _ = grp.first_ready_ns.compare_exchange(
                0,
                flows.now(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        let n = grp.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if n == ch.plan.group_size {
            self.post_range(ch, g, ch.plan.range_of(g));
        }
    }

    /// Timer policy (paper §IV-D).
    fn timer_pready(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32, i: u32, delta: SimDuration) {
        let grp = &ch.groups[g as usize];
        let len = ch.plan.group_size;
        // A flush may post any run of the group, so flow tracing stamps
        // every partition.
        if self.proc.tel.flows.enabled() {
            self.pready_ns[i as usize].store(self.proc.tel.flows.now(), Ordering::Relaxed);
        }
        let n = grp.arrived.fetch_add(1, Ordering::AcqRel) + 1;

        if n == len {
            // Last arrival: if the delta timer has not flushed yet, the last
            // thread aggregates and sends the whole group (the delta_a case
            // of the paper's Fig. 5).
            if grp
                .phase
                .compare_exchange(
                    PHASE_COLLECTING,
                    PHASE_SENT_ALL,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                self.post_range(ch, g, ch.plan.range_of(g));
                return;
            }
            // Already flushed: fall through and send our own run.
        } else if n == 1 {
            // First arrival arms the timer (it "sleeps" for at most delta).
            let weak = Arc::downgrade(self);
            let ch2 = ch.clone();
            let round = self.round.load(Ordering::Acquire);
            self.proc.time.schedule_on(
                self.proc.rank,
                delta,
                Box::new(move || {
                    if let Some(s) = weak.upgrade() {
                        s.flush_group(&ch2, g, round);
                    }
                }),
            );
        }

        if grp.phase.load(Ordering::Acquire) == PHASE_FLUSHED {
            // Post-flush arrival: send the maximal contiguous run of
            // arrived-but-unsent partitions containing `i` (the delta_b case:
            // the laggard sends its own partition).
            self.post_runs(ch, g, Some(i));
        }
    }

    /// Delta-timer expiry: flush the arrived subset of group `g` as maximal
    /// contiguous runs.
    fn flush_group(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32, armed_round: u64) {
        if !self.active.load(Ordering::Acquire) || self.round.load(Ordering::Acquire) != armed_round
        {
            return; // stale timer from a finished round
        }
        let grp = &ch.groups[g as usize];
        if grp
            .phase
            .compare_exchange(
                PHASE_COLLECTING,
                PHASE_FLUSHED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            return; // the whole group was already sent
        }
        self.proc.tel.runtime.timer_fires.inc();
        self.post_runs(ch, g, None);
    }

    /// Under the group lock, post maximal contiguous runs of arrived &&
    /// unsent partitions. With `containing = Some(i)`, only the run holding
    /// `i` is posted (post-flush arrivals); with `None`, all runs are (the
    /// flush itself).
    fn post_runs(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32, containing: Option<u32>) {
        let grp = &ch.groups[g as usize];
        let _guard = grp.lock.lock();
        let range = grp.range.clone();
        let eligible = |p: u32| -> bool {
            self.arrived[p as usize].load(Ordering::Acquire) == 1
                && self.sent[p as usize].load(Ordering::Acquire) == 0
        };
        let mut runs: Vec<Range<u32>> = Vec::new();
        let mut cursor = range.start;
        while cursor < range.end {
            if !eligible(cursor) {
                cursor += 1;
                continue;
            }
            let lo = cursor;
            while cursor < range.end && eligible(cursor) {
                cursor += 1;
            }
            runs.push(lo..cursor);
        }
        runs.retain(|run| containing.is_none_or(|i| run.start <= i && i < run.end));
        // A flush that produced several runs claims send-queue slots once
        // for the whole batch. Only on non-persistent plans: their post
        // options are payload-independent, so one computation covers every
        // WR in the batch.
        if runs.len() > 1 && ch.plan.kind != AggregatorKind::Persistent {
            self.post_range_batch(ch, g, &runs);
        } else {
            for run in runs {
                self.post_range(ch, g, run);
            }
        }
    }

    /// Per-run posting bookkeeping (sent flags, counters, events) and WR
    /// assembly into a pooled shell. Shared by the single and batched paths.
    fn build_range_wr(self: &Arc<Self>, ch: &Arc<SendChannel>, range: &Range<u32>) -> SendWr {
        let lo = range.start;
        let len = range.end - range.start;
        debug_assert!(len >= 1);
        for p in range.clone() {
            let was = self.sent[p as usize].swap(1, Ordering::AcqRel);
            debug_assert_eq!(was, 0, "partition {p} posted twice");
        }
        self.sent_count.fetch_add(len, Ordering::AcqRel);
        self.wr_posted.fetch_add(1, Ordering::AcqRel);
        self.wr_posted_total.fetch_add(1, Ordering::Relaxed);
        self.proc.tel.runtime.aggregated_wrs.inc();
        self.proc.tel.runtime.partitions_posted.add(len as u64);
        self.proc
            .emit(|s, t| s.on_wr_posted(self.proc.rank, self.id, lo, len, t));

        let bytes = len as usize * self.part_bytes;
        let byte_lo = lo as usize * self.part_bytes;
        let wr_id = self.proc.next_wr_id();
        self.proc.pending_sends.lock().insert(wr_id, self.clone());
        let mut wr = ch.take_wr();
        wr.wr_id = wr_id;
        wr.opcode = Opcode::RdmaWriteWithImm;
        wr.sg_list.clear();
        wr.sg_list.push(Sge {
            addr: self.mr.addr_at(byte_lo),
            length: bytes as u32,
            lkey: self.mr.lkey(),
        });
        wr.remote_addr = ch.remote_addr + byte_lo as u64;
        wr.rkey = ch.remote_rkey;
        wr.imm = Some(imm::encode(lo as u16, len as u16));
        // The paper's module does not use inlining (§IV-A).
        wr.inline_data = false;
        // Causal tracing: mint a flow identifier (0 when tracing is off) and
        // record the Posted span. Aggregation hold is measured from the
        // earliest pready of the run — the time the first-ready partition
        // spent waiting for the aggregation decision. A counting policy's
        // run is its whole group, whose first stamp is that pready.
        let flows = &self.proc.tel.flows;
        wr.flow = flows.next_flow_id();
        if wr.flow != 0 {
            let now = flows.now();
            let g = ch.plan.group_of(lo);
            let first_ready = if ch.plan.timer_delta.is_some() {
                range
                    .clone()
                    .map(|p| self.pready_ns[p as usize].load(Ordering::Relaxed))
                    .filter(|&t| t != 0)
                    .min()
            } else {
                Some(ch.groups[g as usize].first_ready_ns.load(Ordering::Relaxed))
                    .filter(|&t| t != 0)
            }
            .unwrap_or(now);
            let hold = now.saturating_sub(first_ready);
            let qp = ch.plan.qp_of(g);
            flows.event_at(
                wr.flow,
                partix_verbs::FlowStage::Posted,
                now,
                qp,
                self.id as u32,
                hold,
            );
            flows.stage_ns(|s| &s.agg_hold, hold);
        }
        wr
    }

    /// Post every run of a multi-run flush through one `post_send_batch`
    /// call: WR-cap slots are claimed once, and a partial grant spills the
    /// unaccepted tail to the software-pending queue exactly as a
    /// `SendQueueFull` would per-WR.
    fn post_range_batch(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32, runs: &[Range<u32>]) {
        let mut wrs = std::mem::take(&mut *ch.batch_scratch.lock());
        wrs.clear();
        for run in runs {
            wrs.push(self.build_range_wr(ch, run));
        }
        // Non-persistent post options ignore payload size (see
        // `post_options`), so the batch shares one computation.
        let opts = self.post_options(0);
        let qp_idx = ch.plan.qp_of(g);
        // Retain every image before the first post: an instant fabric can
        // dispatch an error completion synchronously, and recovery needs the
        // in-flight image of whichever WR failed.
        {
            let mut inflight = ch.inflight.lock();
            for wr in &wrs {
                inflight.insert(
                    wr.wr_id,
                    PendingPost {
                        qp_idx,
                        wr: ch.image_of(wr),
                        opts,
                        queued_ns: 0,
                    },
                );
            }
        }
        let granted = match ch.qps[qp_idx as usize].post_send_batch(&wrs, opts) {
            Ok(n) => n,
            Err(VerbsError::InvalidQpState { .. })
                if self.proc.config.reliability.max_recoveries > 0
                    && self.error.get().is_none() =>
            {
                // QP mid-recovery: park the whole batch for the progress
                // drain (same contract as the per-WR path in `submit`).
                let mut pending = ch.pending.lock();
                for wr in wrs.drain(..) {
                    pending.push_back(PendingPost {
                        qp_idx,
                        wr,
                        opts,
                        queued_ns: 0,
                    });
                }
                drop(pending);
                *ch.batch_scratch.lock() = wrs;
                return;
            }
            Err(VerbsError::InvalidQpState {
                actual: QpState::Error,
                ..
            }) => {
                // Recovery disabled: no completions will come. Retire the
                // whole batch and poison.
                let retired = wrs.len() as u32;
                {
                    let mut sends = self.proc.pending_sends.lock();
                    let mut inflight = ch.inflight.lock();
                    for wr in &wrs {
                        sends.remove(&wr.wr_id);
                        if let Some(img) = inflight.remove(&wr.wr_id) {
                            ch.recycle_wr(img.wr);
                        }
                    }
                }
                for wr in wrs.drain(..) {
                    ch.recycle_wr(wr);
                }
                *ch.batch_scratch.lock() = wrs;
                self.wr_completed.fetch_add(retired, Ordering::AcqRel);
                self.poison(ch, "queue pair in error state");
                return;
            }
            Err(e) => panic!("unexpected verbs failure on partitioned batch post: {e}"),
        };
        // The leading `granted` WRs are on the wire; the tail hit the
        // outstanding cap and waits for free slots.
        if granted < wrs.len() {
            let flows = &self.proc.tel.flows;
            let queued_ns = flows.now();
            let mut pending = ch.pending.lock();
            for wr in wrs.drain(granted..) {
                self.proc.tel.runtime.pending_spills.inc();
                flows.event_at(
                    wr.flow,
                    partix_verbs::FlowStage::CapQueued,
                    queued_ns,
                    qp_idx,
                    self.id as u32,
                    0,
                );
                pending.push_back(PendingPost {
                    qp_idx,
                    wr,
                    opts,
                    queued_ns,
                });
            }
        }
        for wr in wrs.drain(..) {
            ch.recycle_wr(wr);
        }
        *ch.batch_scratch.lock() = wrs;
    }

    /// Post one RDMA-write-with-immediate covering user partitions `range`.
    fn post_range(self: &Arc<Self>, ch: &Arc<SendChannel>, g: u32, range: Range<u32>) {
        let bytes = (range.end - range.start) as usize * self.part_bytes;
        let wr = self.build_range_wr(ch, &range);
        let opts = self.post_options(bytes);
        let qp_idx = ch.plan.qp_of(g);
        self.submit(ch, qp_idx, wr, opts);
    }

    /// Hand a WR to the QP, spilling to the channel's software pending queue
    /// when the hardware outstanding cap is hit (drained from progress).
    pub(crate) fn submit(
        self: &Arc<Self>,
        ch: &SendChannel,
        qp_idx: u32,
        wr: SendWr,
        opts: PostOptions,
    ) {
        // Retain the WR image while it is in flight so a failed completion
        // can re-post it after QP recovery. The image is a pooled shell, not
        // a fresh clone.
        ch.inflight.lock().insert(
            wr.wr_id,
            PendingPost {
                qp_idx,
                wr: ch.image_of(&wr),
                opts,
                queued_ns: 0,
            },
        );
        // Single-WR batch post: borrows the WR, so a successful post recycles
        // the shell instead of surrendering it. `Ok(0)` is the queue-full
        // case.
        match ch.qps[qp_idx as usize].post_send_batch(std::slice::from_ref(&wr), opts) {
            Ok(1..) => ch.recycle_wr(wr),
            Ok(_) => {
                self.proc.tel.runtime.pending_spills.inc();
                let flows = &self.proc.tel.flows;
                let queued_ns = flows.now();
                flows.event_at(
                    wr.flow,
                    partix_verbs::FlowStage::CapQueued,
                    queued_ns,
                    qp_idx,
                    self.id as u32,
                    0,
                );
                ch.pending.lock().push_back(PendingPost {
                    qp_idx,
                    wr,
                    opts,
                    queued_ns,
                });
            }
            Err(VerbsError::InvalidQpState { .. })
                if self.proc.config.reliability.max_recoveries > 0
                    && self.error.get().is_none() =>
            {
                // The QP is in the error state (or mid-recovery cycle) under
                // an earlier failed WR. With recovery enabled, park the post:
                // the failing WR's completion handler will cycle the QP back
                // to RTS, and the progress engine's drain will re-post this
                // one — or, if recovery exhausts, poisoning will retire it.
                ch.pending.lock().push_back(PendingPost {
                    qp_idx,
                    wr,
                    opts,
                    queued_ns: 0,
                });
            }
            Err(VerbsError::InvalidQpState {
                actual: QpState::Error,
                ..
            }) => {
                // Recovery disabled: no completion will ever come for this
                // post. Poison the request and account the WR as retired so
                // the round terminates.
                self.proc.pending_sends.lock().remove(&wr.wr_id);
                if let Some(img) = ch.inflight.lock().remove(&wr.wr_id) {
                    ch.recycle_wr(img.wr);
                }
                ch.recycle_wr(wr);
                self.wr_completed.fetch_add(1, Ordering::AcqRel);
                self.poison(ch, "queue pair in error state");
            }
            Err(e) => panic!("unexpected verbs failure on partitioned post: {e}"),
        }
    }

    /// Software-path cost model for this policy (only in simulated mode).
    fn post_options(&self, bytes: usize) -> PostOptions {
        if !self.proc.sim_mode {
            return PostOptions::default();
        }
        let now = self.proc.time.now();
        let cfg = &self.proc.config;
        let plan_kind = self
            .channel
            .get()
            .map(|c| c.plan.kind)
            .unwrap_or(cfg.aggregator);
        match plan_kind {
            AggregatorKind::Persistent => {
                // The Open MPI + UCX path: per-message protocol CPU work
                // serialised by the UCX worker lock; oversubscribed posting
                // threads (one per partition in the paper's benchmarks)
                // convoy on the lock.
                let cost = cfg.ucx.cost(bytes, cfg.fabric.loggp.l);
                let convoy = cfg.ucx.convoy_factor(self.partitions);
                let hold = SimDuration::from_nanos_f64(cost.locked_cpu_ns as f64 * convoy);
                let (_start, end) = self.proc.ucx_lock.reserve(now, hold);
                PostOptions {
                    earliest: Some(end),
                    extra_wire_latency: SimDuration::from_nanos(cost.extra_latency_ns),
                    small_lane: cost.small_lane,
                }
            }
            _ => PostOptions {
                // Our direct-verbs module: a short lock-free post path, but
                // no inline/BlueFlame fast lane (paper §IV-A).
                earliest: Some(now + SimDuration::from_nanos(cfg.wr_post_cost_ns)),
                extra_wire_latency: SimDuration::ZERO,
                small_lane: false,
            },
        }
    }

    /// A send-side work completion arrived.
    pub(crate) fn on_wr_complete(self: &Arc<Self>, wc: WorkCompletion) {
        if wc.status != WcStatus::Success {
            // The wire layer already exhausted its own retries to produce
            // this completion; the runtime's last line of defence is QP
            // recovery (cycle the QP back to RTS and re-post the WR).
            if self.try_recover(&wc) {
                return;
            }
            let msg = match wc.status {
                WcStatus::RemoteAccessError => "remote access error",
                WcStatus::RetryExceeded => "transport retries exhausted",
                WcStatus::RnrRetryExceeded => "receiver not ready",
                WcStatus::LocalLengthError => "payload exceeded receive space",
                WcStatus::Success => unreachable!(),
            };
            if let Some(ch) = self.channel.get() {
                let ch = ch.clone();
                let img = ch.inflight.lock().remove(&wc.wr_id);
                if let Some(img) = img {
                    ch.recycle_wr(img.wr);
                }
                self.poison(&ch, msg);
            } else {
                let _ = self.error.set(msg);
            }
        } else if let Some(ch) = self.channel.get() {
            let img = ch.inflight.lock().remove(&wc.wr_id);
            if let Some(img) = img {
                ch.recycle_wr(img.wr);
            }
        }
        self.wr_completed.fetch_add(1, Ordering::AcqRel);
        self.maybe_complete();
    }

    /// Attempt QP recovery for a failed WR: consume one unit of the round's
    /// recovery budget, cycle the errored QP Error → Reset → Init → RTR →
    /// RTS, and re-post the WR under a fresh id. Returns `false` when the
    /// budget is exhausted, recovery is disabled, or the WR cannot be
    /// re-posted — the caller then poisons the request.
    ///
    /// The failed WR is *not* counted as retired here: its re-post inherits
    /// the original's `wr_posted` slot, so `wr_posted`/`wr_completed` stay
    /// balanced and the round completes only once the retried transfer
    /// really finishes.
    fn try_recover(self: &Arc<Self>, wc: &WorkCompletion) -> bool {
        let rel = &self.proc.config.reliability;
        if rel.max_recoveries == 0 || self.error.get().is_some() {
            return false;
        }
        let Some(ch) = self.channel.get().cloned() else {
            return false;
        };
        let Some(post) = ch.inflight.lock().remove(&wc.wr_id) else {
            return false;
        };
        if self.recoveries_round.fetch_add(1, Ordering::AcqRel) >= rel.max_recoveries {
            // Budget exhausted. Leave the counter saturated; the failure
            // surfaces through the normal poison path.
            return false;
        }
        self.recoveries_total.fetch_add(1, Ordering::Relaxed);
        self.proc.tel.runtime.recoveries.inc();
        let qp = &ch.qps[post.qp_idx as usize];
        if qp.state() == QpState::Error && !recover_qp(qp) {
            return false;
        }
        // Re-post byte-identically under a fresh WR id (the old id's
        // completion was just consumed). In-flight WRs the error flushed to
        // software pending are re-posted by the progress engine's drain once
        // the QP is back at RTS.
        let mut wr = post.wr;
        wr.wr_id = self.proc.next_wr_id();
        self.proc
            .pending_sends
            .lock()
            .insert(wr.wr_id, self.clone());
        self.submit(&ch, post.qp_idx, wr, post.opts);
        true
    }

    /// Record a fatal error and retire every software-pending WR of the
    /// channel: no completion will ever come for them, and the round must
    /// still terminate (`wr_completed` catches up to `wr_posted`).
    pub(crate) fn poison(self: &Arc<Self>, ch: &SendChannel, msg: &'static str) {
        let _ = self.error.set(msg);
        let stranded: Vec<PendingPost> = ch.pending.lock().drain(..).collect();
        let retired = stranded.len() as u32;
        if retired > 0 {
            let mut sends = self.proc.pending_sends.lock();
            let mut inflight = ch.inflight.lock();
            for p in &stranded {
                sends.remove(&p.wr.wr_id);
                if let Some(img) = inflight.remove(&p.wr.wr_id) {
                    ch.recycle_wr(img.wr);
                }
            }
            drop(inflight);
            drop(sends);
            for p in stranded {
                ch.recycle_wr(p.wr);
            }
            self.wr_completed.fetch_add(retired, Ordering::AcqRel);
        }
    }

    /// Complete the round once every partition was marked ready, every byte
    /// was posted, and every WR was acknowledged.
    pub(crate) fn maybe_complete(self: &Arc<Self>) {
        if !self.active.load(Ordering::Acquire) {
            return;
        }
        if self.pready_count.load(Ordering::Acquire) != self.partitions
            || self.sent_count.load(Ordering::Acquire) != self.partitions
        {
            return;
        }
        let posted = self.wr_posted.load(Ordering::Acquire);
        if self.wr_completed.load(Ordering::Acquire) != posted {
            return;
        }
        if self
            .active
            .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            if self.proc.config.adaptive_delta {
                self.adapt_delta();
            }
            let round = self.round.load(Ordering::Acquire);
            self.completed_rounds.fetch_add(1, Ordering::AcqRel);
            self.proc
                .emit(|s, t| s.on_send_complete(self.proc.rank, self.id, round, t));
            let cbs = std::mem::take(&mut *self.complete_cbs.lock());
            for cb in cbs {
                cb();
            }
        }
    }

    /// Online delta tuning (the paper's future work): set the next round's
    /// delta to `margin * (last non-laggard arrival - first arrival)` —
    /// exactly the paper's Fig. 12 minimum-delta estimator, applied per
    /// round.
    fn adapt_delta(&self) {
        let Some(ch) = self.channel.get() else { return };
        if ch.plan.timer_delta.is_none() {
            return;
        }
        let mut log = self.arrival_log.lock();
        if log.len() < 3 {
            return;
        }
        log.sort_unstable();
        // Drop the laggard (max), take the remaining spread.
        let spread = log[log.len() - 2].saturating_sub(log[0]);
        drop(log);
        let margin = self.proc.config.adaptive_delta_margin.max(1.0);
        let new_delta = ((spread as f64 * margin) as u64).max(1_000);
        ch.delta_ns.store(new_delta, Ordering::Release);
    }
}

/// Cycle an errored QP back to RTS: Error → Reset → Init → RTR → RTS, the
/// full `ibv_modify_qp` recovery sequence. Transfers already on the wire
/// are unaffected (their completions still arrive and release their send
/// slots); WRs stranded by the error state sit in the channel's
/// software-pending queue until the progress drain re-posts them. Returns
/// `false` if any transition is rejected.
fn recover_qp(qp: &Arc<QueuePair>) -> bool {
    let Some(peer) = qp.peer() else {
        return false;
    };
    let ok = qp.modify(QpState::Reset).is_ok()
        && qp.modify(QpState::Init).is_ok()
        && qp.modify_to_rtr(peer).is_ok()
        && qp.modify_to_rts().is_ok();
    if ok {
        qp.counters().recoveries.inc();
    }
    ok
}

/// Wire resources of a matched receive request.
pub(crate) struct RecvChannel {
    pub plan: TransportPlan,
    pub qps: Vec<Arc<QueuePair>>,
}

/// Shared state of a partitioned receive request.
pub(crate) struct RecvShared {
    pub id: u64,
    pub proc: Arc<ProcInner>,
    pub partitions: u32,
    pub part_bytes: usize,
    pub mr: MemoryRegion,
    pub src: u32,
    pub tag: u32,
    pub channel: OnceLock<Arc<RecvChannel>>,
    pub ready: AtomicBool,
    pub ready_cbs: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
    pub active: AtomicBool,
    pub round: AtomicU64,
    pub arrived: Box<[AtomicU8]>,
    pub arrived_count: AtomicU32,
    pub completed_rounds: AtomicU64,
    pub complete_cbs: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
    /// Arrivals observed between rounds (sender ran ahead); applied at the
    /// next `start`. Each entry carries `(lo, count, flow)` so the causal
    /// chain survives the buffering.
    pub early: Mutex<Vec<(u16, u16, u64)>>,
}

impl RecvShared {
    pub(crate) fn channel(&self) -> Result<&Arc<RecvChannel>> {
        if !self.ready.load(Ordering::Acquire) {
            return Err(PartixError::ChannelNotReady);
        }
        self.channel.get().ok_or(PartixError::ChannelNotReady)
    }

    /// Mark the channel ready (flag only).
    pub(crate) fn set_ready(&self) {
        self.ready.store(true, Ordering::Release);
    }

    /// Fire deferred readiness callbacks (after both ends are flagged).
    pub(crate) fn fire_ready(&self) {
        debug_assert!(self.ready.load(Ordering::Acquire));
        let cbs = std::mem::take(&mut *self.ready_cbs.lock());
        for cb in cbs {
            cb();
        }
    }

    /// Begin a round: reset flags, replenish receive WRs (paper: "In
    /// MPI_Start we also post our receive WRs"), and apply any early
    /// arrivals.
    pub(crate) fn start(self: &Arc<Self>) -> Result<()> {
        let ch = self.channel()?.clone();
        if self.active.swap(true, Ordering::AcqRel) {
            return Err(PartixError::AlreadyActive);
        }
        for f in self.arrived.iter() {
            f.store(0, Ordering::Relaxed);
        }
        self.arrived_count.store(0, Ordering::Release);
        let round = self.round.fetch_add(1, Ordering::AcqRel) + 1;

        // Top the per-QP receive queues up to the worst-case incoming WR
        // count (the timer aggregator can split a group into single-partition
        // writes).
        for (q, qp) in ch.qps.iter().enumerate() {
            let needed = ch.plan.max_incoming_wrs(q as u32) as usize;
            let depth = qp.recv_queue_depth();
            for _ in depth..needed {
                let wr_id = self.proc.next_wr_id();
                self.proc.pending_recvs.lock().insert(wr_id, self.clone());
                qp.post_recv(partix_verbs::RecvWr::bare(wr_id))?;
            }
        }

        self.proc
            .emit(|s, t| s.on_recv_start(self.proc.rank, self.id, round, t));

        let early = std::mem::take(&mut *self.early.lock());
        for (lo, cnt, flow) in early {
            self.apply_arrival(lo, cnt, flow);
        }
        Ok(())
    }

    /// An incoming write-with-immediate completion. In simulated mode the
    /// receive software path (completion dispatch + flag bookkeeping) is
    /// charged on a per-process serial resource — the single-threaded
    /// progress engine — before the arrival becomes visible; the persistent
    /// baseline pays the much larger Open MPI + UCX receive cost per
    /// message, which is the receive-side half of the paper's aggregation
    /// argument.
    pub(crate) fn on_incoming(self: &Arc<Self>, wc: WorkCompletion) {
        debug_assert_eq!(wc.status, WcStatus::Success, "recv completion error");
        let (lo, cnt) = imm::decode(wc.imm.expect("write-with-imm carries an immediate"));
        let flow = wc.flow;
        if !self.proc.sim_mode {
            self.record_arrival(lo, cnt, flow);
            return;
        }
        let cfg = &self.proc.config;
        let cost = match self.channel.get().map(|c| c.plan.kind) {
            Some(AggregatorKind::Persistent) => cfg.ucx.recv_cost_ns(wc.byte_len as usize),
            _ => cfg.wr_recv_cost_ns,
        };
        let now = self.proc.time.now();
        let (_s, end) = self
            .proc
            .recv_path
            .reserve(now, SimDuration::from_nanos(cost));
        let delay = end.saturating_since(now);
        if delay == SimDuration::ZERO {
            self.record_arrival(lo, cnt, flow);
        } else {
            let me = self.clone();
            self.proc.time.schedule_on(
                self.proc.rank,
                delay,
                Box::new(move || {
                    me.record_arrival(lo, cnt, flow);
                }),
            );
        }
    }

    /// Apply an arrival after the software path, buffering it if the round
    /// has not started yet.
    fn record_arrival(self: &Arc<Self>, lo: u16, cnt: u16, flow: u64) {
        if !self.active.load(Ordering::Acquire) {
            self.early.lock().push((lo, cnt, flow));
            return;
        }
        self.apply_arrival(lo, cnt, flow);
    }

    fn apply_arrival(self: &Arc<Self>, lo: u16, cnt: u16, flow: u64) {
        debug_assert!(cnt >= 1);
        // Terminal span of the causal chain: the arrival flags are visible
        // to `parrived` from here on.
        self.proc.tel.flows.event(
            flow,
            partix_verbs::FlowStage::Arrived,
            0,
            self.id as u32,
            cnt as u64,
        );
        for p in lo as u32..lo as u32 + cnt as u32 {
            let was = self.arrived[p as usize].swap(1, Ordering::AcqRel);
            debug_assert_eq!(was, 0, "partition {p} delivered twice");
            self.proc
                .emit(|s, t| s.on_partition_arrived(self.proc.rank, self.id, p, t));
        }
        let total = self.arrived_count.fetch_add(cnt as u32, Ordering::AcqRel) + cnt as u32;
        if total == self.partitions
            && self
                .active
                .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            let round = self.round.load(Ordering::Acquire);
            self.completed_rounds.fetch_add(1, Ordering::AcqRel);
            self.proc
                .emit(|s, t| s.on_recv_complete(self.proc.rank, self.id, round, t));
            let cbs = std::mem::take(&mut *self.complete_cbs.lock());
            for cb in cbs {
                cb();
            }
        }
    }

    /// Has partition `i` arrived this round? (`MPI_Parrived`.)
    pub(crate) fn parrived(&self, i: u32) -> Result<bool> {
        if i >= self.partitions {
            return Err(PartixError::PartitionOutOfRange {
                index: i,
                partitions: self.partitions,
            });
        }
        if self.arrived[i as usize].load(Ordering::Acquire) == 1 {
            return Ok(true);
        }
        // Not yet: drive the progress engine (try-lock; §IV-A) and re-check.
        self.proc.try_progress();
        Ok(self.arrived[i as usize].load(Ordering::Acquire) == 1)
    }
}

/// Record a timestamp pair for diagnostics (placeholder for richer
/// per-round stats).
#[allow(dead_code)]
pub(crate) struct RoundStamp {
    pub start: SimTime,
    pub complete: SimTime,
}
