//! Point-in-time copies of every ledger, suitable for invariant checking
//! and JSON export.

use crate::counters::STATUS_SLOTS;
use crate::digest::Fnv1a;

/// Every QP state name a snapshot can carry, indexed by the verbs
/// `QpState` discriminant (Reset, Init, RTR, RTS, Error). `QpState::name`
/// reads it and the decoder accepts nothing else.
pub const QP_STATE_NAMES: [&str; 5] = ["RESET", "INIT", "RTR", "RTS", "ERROR"];

/// Frozen view of one queue pair's ledger plus its live state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QpSnapshot {
    /// Node that owns the QP.
    pub node: u32,
    /// QP number.
    pub qp_num: u32,
    /// QP state name at snapshot time, one of [`QP_STATE_NAMES`].
    pub state: &'static str,
    /// Send WRs currently posted but not yet completed (live slot count).
    pub outstanding: u64,
    /// Receive WRs currently posted but not yet consumed.
    pub recv_queue_depth: u64,
    /// Send WRs accepted by `post_send`.
    pub send_posted: u64,
    /// Receive WRs accepted by `post_recv`.
    pub recv_posted: u64,
    /// Receive WRs consumed by arriving messages.
    pub recv_consumed: u64,
    /// Send WRs completed successfully.
    pub completed_success: u64,
    /// Send WRs completed with an error status.
    pub completed_error: u64,
    /// Payload bytes across accepted send WRs.
    pub bytes_posted: u64,
    /// Payload bytes across successful completions.
    pub bytes_completed: u64,
    /// Error-state recoveries performed on this QP.
    pub recoveries: u64,
    /// Send-slot releases that hit an already-zero outstanding count.
    pub slot_underflows: u64,
}

/// Frozen view of one completion queue's ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CqSnapshot {
    /// CQ identifier.
    pub cq_id: u32,
    /// CQEs pushed, bucketed by `WcStatus` discriminant.
    pub pushed_by_status: [u64; STATUS_SLOTS],
    /// Total CQEs pushed.
    pub pushed_total: u64,
    /// CQEs polled out by the application.
    pub polled: u64,
    /// Receive-side CQEs pushed.
    pub recv_pushed: u64,
    /// Bytes reported by receive-side CQEs.
    pub recv_bytes: u64,
}

/// Frozen view of the wire ledger. Field meanings match
/// [`crate::WireCounters`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct WireSnapshot {
    pub inner_submissions: u64,
    pub retransmits: u64,
    pub dropped: u64,
    pub duplicates_injected: u64,
    pub delayed: u64,
    pub exhausted: u64,
    pub injected_faults: u64,
    pub rnr_requeues: u64,
    pub mtu_segments: u64,
    pub delivery_attempts: u64,
    pub delivered: u64,
    pub delivered_ghost: u64,
    pub duplicates_suppressed: u64,
    pub remote_errors: u64,
    pub receiver_not_ready: u64,
    pub length_errors: u64,
    pub bytes_delivered: u64,
    pub recv_cqes: u64,
}

/// Frozen view of the runtime ledger. Field meanings match
/// [`crate::RuntimeCounters`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct RuntimeSnapshot {
    pub preadys: u64,
    pub timer_fires: u64,
    pub aggregated_wrs: u64,
    pub partitions_posted: u64,
    pub pending_spills: u64,
    pub pending_reposts: u64,
    pub recoveries: u64,
    pub table_decisions: u64,
    pub table_fallback_decisions: u64,
    pub model_decisions: u64,
    pub fixed_decisions: u64,
}

/// Frozen view of the payload-arena ledger. Field meanings match
/// [`crate::ArenaCounters`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct ArenaSnapshot {
    pub pool_gets: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_returns: u64,
    pub live_high_water: u64,
}

/// Generate a ledger row's by-name field list (`$get`, in export order)
/// and its mutable twin (`$set`). The JSON writer, the decoder, the
/// exposition and the ledger digest all walk these lists, so a field
/// added here is exported, read back and digested everywhere at once.
macro_rules! field_list {
    ($ty:ty, $get:ident, $set:ident, $n:literal, [$($f:ident),+ $(,)?]) => {
        impl $ty {
            /// The counters as `(name, value)` pairs in export order.
            pub fn $get(&self) -> [(&'static str, u64); $n] {
                [$((stringify!($f), self.$f)),+]
            }

            /// The same list with each counter's slot, for decoding and
            /// field-wise arithmetic.
            pub(crate) fn $set(&mut self) -> [(&'static str, &mut u64); $n] {
                [$((stringify!($f), &mut self.$f)),+]
            }
        }
    };
}

// QP rows list the live gauges first, then the monotone counters.
field_list! { QpSnapshot, counter_fields, counter_fields_mut, 11, [
    outstanding, recv_queue_depth, send_posted, recv_posted, recv_consumed,
    completed_success, completed_error, bytes_posted, bytes_completed, recoveries,
    slot_underflows,
] }
// CQ rows: the per-status breakdown is rendered separately.
field_list! { CqSnapshot, counter_fields, counter_fields_mut, 4, [
    pushed_total, polled, recv_pushed, recv_bytes,
] }
field_list! { WireSnapshot, fields, fields_mut, 18, [
    inner_submissions, retransmits, dropped, duplicates_injected, delayed, exhausted,
    injected_faults, rnr_requeues, mtu_segments, delivery_attempts, delivered,
    delivered_ghost, duplicates_suppressed, remote_errors, receiver_not_ready,
    length_errors, bytes_delivered, recv_cqes,
] }
field_list! { RuntimeSnapshot, fields, fields_mut, 11, [
    preadys, timer_fires, aggregated_wrs, partitions_posted, pending_spills,
    pending_reposts, recoveries, table_decisions, table_fallback_decisions,
    model_decisions, fixed_decisions,
] }
field_list! { ArenaSnapshot, fields, fields_mut, 5, [
    pool_gets, pool_hits, pool_misses, pool_returns, live_high_water,
] }

/// A complete, self-consistent copy of every ledger in one network.
///
/// Built by `NetworkState::telemetry_snapshot()` (verbs side), which walks
/// the live QPs so `outstanding`/`recv_queue_depth`/`state` reflect the same
/// instant as the counters. All invariant checking and export operates on
/// this frozen form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// One entry per live queue pair.
    pub qps: Vec<QpSnapshot>,
    /// One entry per completion queue.
    pub cqs: Vec<CqSnapshot>,
    /// Wire-level ledger.
    pub wire: WireSnapshot,
    /// Aggregation-runtime ledger.
    pub runtime: RuntimeSnapshot,
    /// Payload-arena ledger.
    pub arena: ArenaSnapshot,
}

impl Snapshot {
    /// Sum of send WRs posted across all QPs.
    pub fn total_send_posted(&self) -> u64 {
        self.qps.iter().map(|q| q.send_posted).sum()
    }

    /// Sum of successful send completions across all QPs.
    pub fn total_completed_success(&self) -> u64 {
        self.qps.iter().map(|q| q.completed_success).sum()
    }

    /// Sum of errored send completions across all QPs.
    pub fn total_completed_error(&self) -> u64 {
        self.qps.iter().map(|q| q.completed_error).sum()
    }

    /// Sum of live outstanding send slots across all QPs.
    pub fn total_outstanding(&self) -> u64 {
        self.qps.iter().map(|q| q.outstanding).sum()
    }

    /// Sum of payload bytes in successful completions across all QPs.
    pub fn total_bytes_completed(&self) -> u64 {
        self.qps.iter().map(|q| q.bytes_completed).sum()
    }

    /// Canonical FNV-1a digest over every counter in the ledger.
    ///
    /// QPs are folded in `(node, qp_num)` order and CQs in `cq_id` order, so
    /// the digest is independent of registration order. Two runs with equal
    /// digests performed the same aggregate work on every QP, CQ, the wire,
    /// the runtime and the arena — the comparison the sharded-executor
    /// determinism suites use as their "telemetry ledger equality" check.
    pub fn ledger_digest(&self) -> u64 {
        let mut h = Fnv1a::new();

        let mut qps: Vec<&QpSnapshot> = self.qps.iter().collect();
        qps.sort_by_key(|q| (q.node, q.qp_num));
        h.u64(qps.len() as u64);
        for q in qps {
            h.u64(q.node as u64).u64(q.qp_num as u64);
            for b in q.state.as_bytes() {
                h.u64(*b as u64);
            }
            for (_, v) in q.counter_fields() {
                h.u64(v);
            }
        }

        let mut cqs: Vec<&CqSnapshot> = self.cqs.iter().collect();
        cqs.sort_by_key(|c| c.cq_id);
        h.u64(cqs.len() as u64);
        for c in cqs {
            h.u64(c.cq_id as u64);
            for v in c.pushed_by_status {
                h.u64(v);
            }
            for (_, v) in c.counter_fields() {
                h.u64(v);
            }
        }

        for (_, v) in self.wire.fields().into_iter().chain(self.runtime.fields()) {
            h.u64(v);
        }

        // Arena: only the commutative totals. Hit/miss splits and the live
        // high-water mark depend on the wall-clock interleaving of pool
        // accesses when events execute on parallel shards, so they are
        // excluded — they may legitimately differ between executors that
        // perform identical virtual-time work.
        h.u64(self.arena.pool_gets).u64(self.arena.pool_returns);
        h.finish()
    }
}
