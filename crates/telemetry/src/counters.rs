//! Relaxed-atomic counters and the registry that owns the shared ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::flow::FlowRecorder;
use crate::snapshot::{ArenaSnapshot, CqSnapshot, RuntimeSnapshot, WireSnapshot};

/// Number of distinct completion statuses a CQ can classify.
///
/// Mirrors the verbs `WcStatus` enum: Success, RemoteAccessError,
/// RetryExceeded, RnrRetryExceeded, LocalLengthError — in that order.
pub const STATUS_SLOTS: usize = 5;

/// A single monotonic event counter.
///
/// All operations use `Relaxed` ordering: counters are a ledger reconciled
/// at quiescence, never a synchronisation primitive. `inc`/`add` compile to
/// a single `lock xadd` with no fence — cheap enough to leave on
/// unconditionally in the hot path.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raise the counter to `v` if it is below it (a high-water gauge).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }
}

/// Number of MTU-sized segments a payload of `bytes` occupies on the wire.
///
/// Zero-byte transfers (a bare immediate) still consume one header-only
/// segment. This is the single source of truth shared by the simulated
/// fabric's serialization model and the MTU-conservation property tests.
#[inline]
pub fn segments_for(bytes: u64, mtu: usize) -> u64 {
    (bytes as usize).div_ceil(mtu.max(1)).max(1) as u64
}

/// Per-queue-pair ledger. One instance per QP, owned by the QP itself.
#[derive(Debug, Default)]
pub struct QpCounters {
    /// Send WRs accepted by `post_send` (a claimed send slot each).
    pub send_posted: Counter,
    /// Receive WRs accepted by `post_recv`.
    pub recv_posted: Counter,
    /// Receive WRs consumed by an arriving message.
    pub recv_consumed: Counter,
    /// Send WRs completed with `WcStatus::Success`.
    pub completed_success: Counter,
    /// Send WRs completed with any error status.
    pub completed_error: Counter,
    /// Payload bytes across all accepted send WRs.
    pub bytes_posted: Counter,
    /// Payload bytes across successfully completed send WRs.
    pub bytes_completed: Counter,
    /// Times this QP was recovered from the Error state (drain + reconnect).
    pub recoveries: Counter,
    /// Send-slot releases that found the outstanding count already at zero.
    /// Always zero unless the cap accounting is broken; checked by
    /// [`crate::invariants::check`].
    pub slot_underflows: Counter,
}

/// Per-completion-queue ledger. One instance per CQ, owned by the CQ.
#[derive(Debug, Default)]
pub struct CqCounters {
    /// CQEs pushed, bucketed by `WcStatus` discriminant.
    pub pushed_by_status: [Counter; STATUS_SLOTS],
    /// CQEs handed back to the application by `poll`.
    pub polled: Counter,
    /// CQEs for receive-side opcodes (Recv / RecvRdmaWithImm).
    pub recv_pushed: Counter,
    /// Bytes reported by receive-side CQEs.
    pub recv_bytes: Counter,
}

impl CqCounters {
    /// Total CQEs pushed across all statuses.
    pub fn pushed_total(&self) -> u64 {
        self.pushed_by_status.iter().map(Counter::get).sum()
    }
}

/// Wire-level ledger shared by every fabric decorator in a network.
///
/// Sites are chosen so the conservation laws in [`crate::invariants`] hold
/// exactly: each physical event increments exactly one counter here.
#[derive(Debug, Default)]
pub struct WireCounters {
    /// Transfers handed to the innermost (delivering) fabric. Retransmits
    /// and duplicates count again; dropped and fault-injected ones never
    /// arrive here.
    pub inner_submissions: Counter,
    /// Lossy-wire retransmissions scheduled after a drop.
    pub retransmits: Counter,
    /// Transfers the lossy wire dropped (original attempts and retries).
    pub dropped: Counter,
    /// Ghost duplicates the lossy wire injected alongside an original.
    pub duplicates_injected: Counter,
    /// Transfers the lossy wire delayed beyond the base latency.
    pub delayed: Counter,
    /// Transfers whose retry budget ran out (surfaced as `RetryExceeded`).
    pub exhausted: Counter,
    /// Completions the faulty fabric failed without attempting delivery.
    pub injected_faults: Counter,
    /// RNR re-arms: delivery attempts repeated because the receiver had no
    /// receive WR posted yet.
    pub rnr_requeues: Counter,
    /// MTU segments serialized by the simulated fabric.
    pub mtu_segments: Counter,
    /// Calls into the delivery engine (including RNR repeats).
    pub delivery_attempts: Counter,
    /// Attempts that landed payload bytes in the target region.
    pub delivered: Counter,
    /// Subset of `delivered` carried by ghost duplicates.
    pub delivered_ghost: Counter,
    /// Attempts suppressed by the PSN filter (payload already applied).
    pub duplicates_suppressed: Counter,
    /// Attempts that failed remote key/address validation (or could not
    /// resolve the destination).
    pub remote_errors: Counter,
    /// Attempts that found no receive WR posted (single RNR event; the
    /// requeue that may follow is counted separately).
    pub receiver_not_ready: Counter,
    /// Attempts whose payload exceeded the receive WR's scatter space.
    pub length_errors: Counter,
    /// Payload bytes landed in target memory regions.
    pub bytes_delivered: Counter,
    /// Receive-side CQEs generated by deliveries.
    pub recv_cqes: Counter,
}

/// Runtime-level ledger for the MPI Partitioned aggregation layer.
#[derive(Debug, Default)]
pub struct RuntimeCounters {
    /// `pready` calls accepted across all send requests.
    pub preadys: Counter,
    /// δ-timer expirations that flushed a partition group.
    pub timer_fires: Counter,
    /// Aggregated work requests posted (one WR may carry many partitions).
    pub aggregated_wrs: Counter,
    /// Partitions carried by those WRs.
    pub partitions_posted: Counter,
    /// WRs spilled to the pending queue because the send queue was full.
    pub pending_spills: Counter,
    /// Pending WRs successfully re-posted by the progress engine.
    pub pending_reposts: Counter,
    /// Request-level recovery cycles (QP drain + byte-identical re-post).
    pub recoveries: Counter,
    /// Transport plans resolved from a tuning-table hit.
    pub table_decisions: Counter,
    /// Transport plans that fell back from the table to the model.
    pub table_fallback_decisions: Counter,
    /// Transport plans computed directly from the LogGP model.
    pub model_decisions: Counter,
    /// Transport plans with a fixed (non-adaptive) mapping.
    pub fixed_decisions: Counter,
}

/// Payload-arena ledger: the data plane's buffer-recycling pool.
///
/// The arena hands out pooled payload buffers (inline snapshots,
/// retransmission slots); these counters reconcile the pool's books. The
/// conservation laws are checked by [`crate::invariants::check`]:
/// `pool_gets == pool_hits + pool_misses` and `pool_returns <= pool_gets`.
#[derive(Debug, Default)]
pub struct ArenaCounters {
    /// Buffers requested from the arena.
    pub pool_gets: Counter,
    /// Requests satisfied by recycling a previously returned buffer.
    pub pool_hits: Counter,
    /// Requests that had to allocate a fresh buffer (cold pool, oversized
    /// payload, or a full size class).
    pub pool_misses: Counter,
    /// Buffers handed back to the pool when their last reference dropped.
    pub pool_returns: Counter,
    /// High-water mark of concurrently live (handed-out, not yet returned)
    /// buffers.
    pub live_high_water: Counter,
}

/// The shared half of a network's telemetry: wire + runtime counters and
/// the list of registered CQ ledgers.
///
/// Per-QP counters are *not* listed here — they live on the QPs themselves
/// and are walked by the network when building a snapshot, so that live
/// state (outstanding slots, queue depth, QP state) can be read alongside.
#[derive(Debug, Default)]
pub struct Registry {
    /// Fabric/wire-level counters.
    pub wire: WireCounters,
    /// Aggregation-runtime counters.
    pub runtime: RuntimeCounters,
    /// Payload-arena counters.
    pub arena: ArenaCounters,
    /// Causal flow tracing: flow-ID minting, stage events, and per-stage
    /// latency histograms. Inert (one relaxed load per site) until armed.
    pub flows: FlowRecorder,
    cqs: Mutex<Vec<(u32, Arc<CqCounters>)>>,
}

impl Registry {
    /// A fresh registry with all counters zeroed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a CQ's counter block so snapshots can enumerate it.
    pub fn register_cq(&self, cq_id: u32, counters: Arc<CqCounters>) {
        self.cqs.lock().push((cq_id, counters));
    }

    /// Snapshot every registered CQ.
    pub fn cq_snapshots(&self) -> Vec<CqSnapshot> {
        self.cqs
            .lock()
            .iter()
            .map(|(id, c)| CqSnapshot {
                cq_id: *id,
                pushed_by_status: c.pushed_by_status.each_ref().map(Counter::get),
                pushed_total: c.pushed_total(),
                polled: c.polled.get(),
                recv_pushed: c.recv_pushed.get(),
                recv_bytes: c.recv_bytes.get(),
            })
            .collect()
    }

    /// Snapshot the wire ledger.
    pub fn wire_snapshot(&self) -> WireSnapshot {
        let w = &self.wire;
        WireSnapshot {
            inner_submissions: w.inner_submissions.get(),
            retransmits: w.retransmits.get(),
            dropped: w.dropped.get(),
            duplicates_injected: w.duplicates_injected.get(),
            delayed: w.delayed.get(),
            exhausted: w.exhausted.get(),
            injected_faults: w.injected_faults.get(),
            rnr_requeues: w.rnr_requeues.get(),
            mtu_segments: w.mtu_segments.get(),
            delivery_attempts: w.delivery_attempts.get(),
            delivered: w.delivered.get(),
            delivered_ghost: w.delivered_ghost.get(),
            duplicates_suppressed: w.duplicates_suppressed.get(),
            remote_errors: w.remote_errors.get(),
            receiver_not_ready: w.receiver_not_ready.get(),
            length_errors: w.length_errors.get(),
            bytes_delivered: w.bytes_delivered.get(),
            recv_cqes: w.recv_cqes.get(),
        }
    }

    /// Snapshot the runtime ledger.
    pub fn runtime_snapshot(&self) -> RuntimeSnapshot {
        let r = &self.runtime;
        RuntimeSnapshot {
            preadys: r.preadys.get(),
            timer_fires: r.timer_fires.get(),
            aggregated_wrs: r.aggregated_wrs.get(),
            partitions_posted: r.partitions_posted.get(),
            pending_spills: r.pending_spills.get(),
            pending_reposts: r.pending_reposts.get(),
            recoveries: r.recoveries.get(),
            table_decisions: r.table_decisions.get(),
            table_fallback_decisions: r.table_fallback_decisions.get(),
            model_decisions: r.model_decisions.get(),
            fixed_decisions: r.fixed_decisions.get(),
        }
    }

    /// Snapshot the payload-arena ledger.
    pub fn arena_snapshot(&self) -> ArenaSnapshot {
        let a = &self.arena;
        ArenaSnapshot {
            pool_gets: a.pool_gets.get(),
            pool_hits: a.pool_hits.get(),
            pool_misses: a.pool_misses.get(),
            pool_returns: a.pool_returns.get(),
            live_high_water: a.live_high_water.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn segments_cover_edges() {
        assert_eq!(segments_for(0, 4096), 1, "bare immediates cost a header");
        assert_eq!(segments_for(1, 4096), 1);
        assert_eq!(segments_for(4096, 4096), 1);
        assert_eq!(segments_for(4097, 4096), 2);
        assert_eq!(segments_for(10, 1), 10);
        assert_eq!(segments_for(10, 0), 10, "mtu 0 clamps to 1");
    }

    #[test]
    fn registry_snapshots_registered_cqs() {
        let reg = Registry::new();
        let cq = Arc::new(CqCounters::default());
        cq.pushed_by_status[0].add(3);
        cq.pushed_by_status[2].inc();
        cq.polled.add(4);
        reg.register_cq(7, cq.clone());
        let snaps = reg.cq_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].cq_id, 7);
        assert_eq!(snaps[0].pushed_total, 4);
        assert_eq!(snaps[0].pushed_by_status[2], 1);
        assert_eq!(snaps[0].polled, 4);
    }
}
