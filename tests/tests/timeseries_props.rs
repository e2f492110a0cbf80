//! Property tests over the time-series delta plane:
//!
//! - `snapshot_delta` / `snapshot_accum` round-trip: for arbitrary ledgers
//!   and arbitrary increments, the delta frame recovers the increment
//!   exactly (every counter non-negative, nothing wraps);
//! - reversed arguments saturate to zero instead of underflowing;
//! - a `Sampler` fed an arbitrary monotone snapshot sequence emits frames
//!   whose sum reproduces the final cumulative snapshot;
//! - a chaos full-stack run produces a frame sequence byte-identical across
//!   the sequential reference and the sharded executor at `--jobs 1/4`;
//! - the telemetry codec is the exact inverse of the writers: frame
//!   sequences, flight records, telemetry documents and the flows, stages
//!   and frames of trace documents decode to the values encoded (counters
//!   over the whole `u64` range) and re-encode to the same bytes;
//! - the decoder never panics on foreign bytes: random byte strings, and
//!   single-byte mutations and truncations of encoded documents, decode to
//!   `Err` or a value.
//!
//! The vendored proptest is deterministic (seeded from the test name, no
//! shrinking), so a green run is reproducible.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use partix_core::telemetry::{
    decode_frames, flightrec_json, frames_json, invariants, snapshot_accum, snapshot_delta,
    telemetry_json, trace_json, ArenaSnapshot, CqSnapshot, FlowEvent, FlowStage, Frame, FrameGauge,
    LogHistogram, QpSnapshot, RuntimeSnapshot, Sample, SampleSource, Sampler, SamplerConfig,
    Snapshot, SpanEvent, TelemetryDoc, TraceDoc, WireSnapshot, SHM_GAUGE_NAMES, STAGE_HIST_NAMES,
    STATUS_SLOTS,
};
use partix_sim::SimDuration;
use partix_workloads::fullstack::{run_fullstack_instrumented, Executor, FullStackConfig};
use proptest::prelude::*;

/// Build a full ledger snapshot (two QPs, two CQs, every scalar counter)
/// from a flat word pool. The pool cycles, so any non-empty vector works.
fn build_snapshot(vals: &[u64]) -> Snapshot {
    let mut it = vals.iter().copied().cycle();
    let mut n = move || it.next().expect("non-empty pool");
    let qp = |node: u32, qp_num: u32, n: &mut dyn FnMut() -> u64| QpSnapshot {
        node,
        qp_num,
        state: "RTS",
        outstanding: n(),
        recv_queue_depth: n(),
        send_posted: n(),
        recv_posted: n(),
        recv_consumed: n(),
        completed_success: n(),
        completed_error: n(),
        bytes_posted: n(),
        bytes_completed: n(),
        recoveries: n(),
        slot_underflows: n(),
    };
    let cq = |cq_id: u32, n: &mut dyn FnMut() -> u64| {
        let mut pushed_by_status = [0u64; STATUS_SLOTS];
        for s in pushed_by_status.iter_mut() {
            *s = n();
        }
        CqSnapshot {
            cq_id,
            pushed_by_status,
            pushed_total: n(),
            polled: n(),
            recv_pushed: n(),
            recv_bytes: n(),
        }
    };
    Snapshot {
        qps: vec![qp(0, 100, &mut n), qp(1, 101, &mut n)],
        cqs: vec![cq(7, &mut n), cq(8, &mut n)],
        wire: WireSnapshot {
            inner_submissions: n(),
            retransmits: n(),
            dropped: n(),
            duplicates_injected: n(),
            delayed: n(),
            exhausted: n(),
            injected_faults: n(),
            rnr_requeues: n(),
            mtu_segments: n(),
            delivery_attempts: n(),
            delivered: n(),
            delivered_ghost: n(),
            duplicates_suppressed: n(),
            remote_errors: n(),
            receiver_not_ready: n(),
            length_errors: n(),
            bytes_delivered: n(),
            recv_cqes: n(),
        },
        runtime: RuntimeSnapshot {
            preadys: n(),
            timer_fires: n(),
            aggregated_wrs: n(),
            partitions_posted: n(),
            pending_spills: n(),
            pending_reposts: n(),
            recoveries: n(),
            table_decisions: n(),
            table_fallback_decisions: n(),
            model_decisions: n(),
            fixed_decisions: n(),
        },
        arena: ArenaSnapshot {
            pool_gets: n(),
            pool_hits: n(),
            pool_misses: n(),
            pool_returns: n(),
            live_high_water: n(),
        },
    }
}

/// Build a frame from a word pool: a full ledger via [`build_snapshot`],
/// one stage window and a prefix of the ShmFabric gauges, all drawn from
/// the pool.
fn build_frame(seq: u64, vals: &[u64]) -> Frame {
    let h = LogHistogram::new();
    for v in vals.iter().take(6) {
        h.record(*v);
    }
    let stage = STAGE_HIST_NAMES[seq as usize % STAGE_HIST_NAMES.len()];
    let gauges = SHM_GAUGE_NAMES.iter().zip(vals.iter().rev());
    Frame {
        seq,
        t_ns: vals[0],
        span_ns: vals[vals.len() - 1],
        deltas: build_snapshot(vals),
        stages: vec![(stage, h.snapshot())],
        gauges: gauges
            .take(vals.len() % (SHM_GAUGE_NAMES.len() + 1))
            .map(|(name, v)| FrameGauge {
                name,
                total: *v,
                delta: v / 2,
            })
            .collect(),
    }
}

fn build_frames(pools: &[Vec<u64>]) -> Vec<Frame> {
    (0u64..)
        .zip(pools)
        .map(|(i, p)| build_frame(i, p))
        .collect()
}

fn build_flows(rows: &[(u64, usize, u64, u32, u32, u64)]) -> Vec<FlowEvent> {
    rows.iter()
        .map(|&(flow, stage, ts_ns, qp, chan, aux)| FlowEvent {
            flow,
            stage: FlowStage::ALL[stage % FlowStage::ALL.len()],
            ts_ns,
            qp,
            chan,
            aux,
        })
        .collect()
}

/// Strings over the characters the writer must escape, plus non-ASCII.
fn text() -> impl Strategy<Value = String> {
    let chars = vec![
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '✓',
    ];
    prop::collection::vec(prop::sample::select(chars), 0..12).prop_map(String::from_iter)
}

fn flow_rows() -> impl Strategy<Value = Vec<(u64, usize, u64, u32, u32, u64)>> {
    let row = (
        any::<u64>(),
        0usize..10,
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
    );
    prop::collection::vec(row, 0..8)
}

fn pools() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(any::<u64>(), 4..40), 0..5)
}

/// Every decoder over `bytes`: each may fail, none may panic.
fn decode_all(bytes: &[u8]) {
    let _ = TraceDoc::decode(bytes);
    let _ = TelemetryDoc::decode(bytes);
    let _ = decode_frames(bytes);
}

/// Assert every monotone counter of `d` is zero (gauges excluded — they are
/// carried, not subtracted).
fn assert_monotone_zero(d: &Snapshot) {
    for (name, v) in d.wire.fields() {
        assert_eq!(v, 0, "wire.{name} should have saturated to zero");
    }
    for (name, v) in d.runtime.fields() {
        assert_eq!(v, 0, "runtime.{name} should have saturated to zero");
    }
    assert_eq!(d.arena.pool_gets, 0);
    assert_eq!(d.arena.pool_hits, 0);
    assert_eq!(d.arena.pool_misses, 0);
    assert_eq!(d.arena.pool_returns, 0);
    for q in &d.qps {
        assert_eq!(q.send_posted, 0);
        assert_eq!(q.recv_posted, 0);
        assert_eq!(q.recv_consumed, 0);
        assert_eq!(q.completed_success, 0);
        assert_eq!(q.completed_error, 0);
        assert_eq!(q.bytes_posted, 0);
        assert_eq!(q.bytes_completed, 0);
        assert_eq!(q.recoveries, 0);
        assert_eq!(q.slot_underflows, 0);
    }
    for c in &d.cqs {
        assert!(c.pushed_by_status.iter().all(|&s| s == 0));
        assert_eq!(c.pushed_total, 0);
        assert_eq!(c.polled, 0);
        assert_eq!(c.recv_pushed, 0);
        assert_eq!(c.recv_bytes, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Delta/accum round-trip: with `cur = prev + inc` (same QP/CQ rows),
    /// `snapshot_delta(prev, cur)` recovers `inc` exactly — every counter
    /// is the true non-negative increment, and the live gauges carry the
    /// window-end values. Bounded below 2^40 so the accumulation itself
    /// cannot overflow.
    #[test]
    fn delta_recovers_the_increment_exactly(
        base in prop::collection::vec(0u64..1 << 40, 8..64),
        inc in prop::collection::vec(0u64..1 << 40, 8..64),
    ) {
        let prev = build_snapshot(&base);
        let inc = build_snapshot(&inc);
        let mut cur = prev.clone();
        snapshot_accum(&mut cur, &inc);
        prop_assert_eq!(snapshot_delta(&prev, &cur), inc);
    }

    /// Saturating subtraction: reversing the arguments (a "shrinking"
    /// ledger, which a real run never produces) must clamp every monotone
    /// counter to zero rather than wrapping around.
    #[test]
    fn reversed_delta_saturates_to_zero(
        base in prop::collection::vec(0u64..1 << 40, 8..64),
        inc in prop::collection::vec(1u64..1 << 40, 8..64),
    ) {
        let prev = build_snapshot(&base);
        let mut cur = prev.clone();
        snapshot_accum(&mut cur, &build_snapshot(&inc));
        assert_monotone_zero(&snapshot_delta(&cur, &prev));
    }

    /// Frame-sum law: feeding a sampler an arbitrary monotone snapshot
    /// sequence, the sum of every emitted frame reproduces the final
    /// cumulative snapshot — the end-of-run export is exactly the integral
    /// of the time series.
    #[test]
    fn frames_sum_to_the_final_cumulative_snapshot(
        increments in prop::collection::vec(
            prop::collection::vec(0u64..1 << 32, 4..24),
            1..12,
        ),
    ) {
        let mut cumulative = Vec::with_capacity(increments.len());
        let mut acc = Snapshot::default();
        for inc in &increments {
            snapshot_accum(&mut acc, &build_snapshot(inc));
            cumulative.push(acc.clone());
        }
        let last = cumulative.last().expect("at least one increment").clone();
        let observations = Arc::new(cumulative);
        let cursor = Arc::new(AtomicUsize::new(0));
        let source: SampleSource = {
            let observations = observations.clone();
            Arc::new(move || Sample {
                snapshot: observations[cursor.fetch_add(1, Ordering::Relaxed)].clone(),
                stages: Vec::new(),
                gauges: Vec::new(),
            })
        };
        let sampler = Sampler::new(
            SamplerConfig {
                interval_ns: 10,
                capacity: observations.len(),
                deterministic: false,
            },
            source,
        );
        for k in 1..=observations.len() as u64 {
            sampler.tick(k * 10);
        }
        prop_assert_eq!(sampler.frames_captured(), observations.len() as u64);
        let mut summed = Snapshot::default();
        for frame in sampler.frames() {
            snapshot_accum(&mut summed, &frame.deltas);
        }
        prop_assert_eq!(summed, last);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Frame sequences: `decode(encode(x)) == x` over the whole `u64`
    /// range, and re-encoding reproduces the bytes.
    #[test]
    fn frame_sequences_round_trip_exactly(pools in pools()) {
        let frames = build_frames(&pools);
        let text = frames_json(&frames);
        let back = decode_frames(text.as_bytes()).expect("own output decodes");
        prop_assert_eq!(&back, &frames);
        prop_assert_eq!(frames_json(&back), text);
    }

    /// Flight records: tag, reason, frame ring and flow tail round-trip.
    #[test]
    fn flight_records_round_trip_exactly(
        tag in text(),
        reason in text(),
        pools in pools(),
        rows in flow_rows(),
    ) {
        let (frames, flows) = (build_frames(&pools), build_flows(&rows));
        let text = flightrec_json(&tag, &reason, &frames, &flows);
        let doc = TraceDoc::decode(text.as_bytes()).expect("own output decodes");
        prop_assert_eq!(&doc.workload, &tag);
        prop_assert_eq!(doc.reason.as_deref(), Some(reason.as_str()));
        prop_assert_eq!(&doc.frames, &frames);
        prop_assert_eq!(&doc.flows, &flows);
        prop_assert_eq!(flightrec_json(&doc.workload, &reason, &doc.frames, &doc.flows), text);
    }

    /// Telemetry documents: the ledger (over the whole `u64` range) and the
    /// violation list round-trip, including the real `invariants::check`
    /// report of an arbitrary, usually dirty, ledger (bounded below 2^40,
    /// where the laws' sums cannot overflow).
    #[test]
    fn telemetry_documents_round_trip_exactly(
        pool in prop::collection::vec(any::<u64>(), 4..64),
        violations in prop::collection::vec(text(), 0..3),
        checked in prop::collection::vec(0u64..1 << 40, 4..64),
    ) {
        let report = invariants::check(&build_snapshot(&checked));
        for (snap, violations) in [
            (build_snapshot(&pool), violations),
            (build_snapshot(&checked), report.violations.iter().map(ToString::to_string).collect()),
        ] {
            let text = telemetry_json(&snap, &violations);
            let doc = TelemetryDoc::decode(text.as_bytes()).expect("own output decodes");
            prop_assert_eq!(&doc.snapshot, &snap);
            prop_assert_eq!(&doc.violations, &violations);
            prop_assert_eq!(telemetry_json(&doc.snapshot, &doc.violations), text);
        }
    }

    /// Trace documents: span events are checked and skipped, and the
    /// flows, stage histograms and frames round-trip.
    #[test]
    fn trace_documents_round_trip_flows_stages_and_frames(
        workload in text(),
        spans in prop::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..4),
        rows in flow_rows(),
        stage_vals in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..12), 6..7),
        pools in pools(),
    ) {
        let spans: Vec<SpanEvent> = spans
            .iter()
            .map(|&(tid, ts_ns, dur_ns)| SpanEvent {
                name: "span \"x\"".into(),
                cat: "round",
                pid: 0,
                tid,
                ts_ns,
                dur_ns,
            })
            .collect();
        let stages: Vec<_> = STAGE_HIST_NAMES
            .iter()
            .zip(&stage_vals)
            .map(|(name, vals)| {
                let h = LogHistogram::new();
                vals.iter().for_each(|v| h.record(*v));
                (*name, h.snapshot())
            })
            .collect();
        let (flows, frames) = (build_flows(&rows), build_frames(&pools));
        let text = trace_json(&workload, &spans, &flows, &stages, &frames);
        let doc = TraceDoc::decode(text.as_bytes()).expect("own output decodes");
        prop_assert_eq!(&doc.workload, &workload);
        prop_assert_eq!(doc.reason, None);
        prop_assert_eq!(&doc.flows, &flows);
        prop_assert_eq!(&doc.stages, &stages);
        prop_assert_eq!(&doc.frames, &frames);
        let again = trace_json(&doc.workload, &[], &doc.flows, &doc.stages, &doc.frames);
        prop_assert_eq!(again, trace_json(&workload, &[], &flows, &stages, &frames));
    }

    /// Random byte strings, raw and over the JSON alphabet, never panic a
    /// decoder.
    #[test]
    fn random_bytes_never_panic_the_decoder(
        raw in prop::collection::vec(any::<u8>(), 0..256),
        jsonish in prop::collection::vec(
            prop::sample::select(b"{}[]\",: 0123456789-.eEtrufalsn\\".to_vec()),
            0..256,
        ),
    ) {
        decode_all(&raw);
        decode_all(&jsonish);
    }

    /// Every single-byte mutation and truncation of an encoded flight
    /// record, trace and telemetry document decodes to `Err` or a value
    /// without panicking; a truncation before the closing brace is `Err`.
    #[test]
    fn mutated_and_truncated_documents_never_panic(
        pools in pools(),
        rows in flow_rows(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 16..17),
    ) {
        let (frames, flows) = (build_frames(&pools), build_flows(&rows));
        let snap = frames.first().map_or_else(Snapshot::default, |f| f.deltas.clone());
        for doc in [
            flightrec_json("tag", "reason", &frames, &flows),
            trace_json("w", &[], &flows, &[], &frames),
            telemetry_json(&snap, &["violation"]),
        ] {
            let bytes = doc.as_bytes();
            for &(at, byte) in &edits {
                let at = at % bytes.len();
                let mut mutated = bytes.to_vec();
                mutated[at] = byte;
                decode_all(&mutated);
                decode_all(&bytes[..at]);
                if at < doc.trim_end().len() - 1 {
                    prop_assert!(TraceDoc::decode(&bytes[..at]).is_err());
                    prop_assert!(TelemetryDoc::decode(&bytes[..at]).is_err());
                }
            }
        }
    }
}

/// Acceptance criterion: a chaos full-stack run on the sharded executor at
/// `--jobs 1` and `--jobs 4` emits a frame sequence **byte-identical** to
/// the sequential reference — the time axis is as deterministic as the
/// end-of-run digests.
#[test]
fn chaos_fullstack_frames_are_jobs_invariant() {
    let cfg = FullStackConfig::chaos(6, 0.15, 42);
    let sampling = Some((SimDuration::from_micros(100), 512));
    let run = |executor: Executor| {
        let label = executor.label();
        let (report, world, _sched) = run_fullstack_instrumented(&cfg, executor, None, sampling);
        assert!(report.invariants_clean, "{label}: dirty telemetry ledger");
        let sampler = world.sampler().expect("sampling enabled");
        frames_json(&sampler.frames())
    };
    let reference = run(Executor::Reference);
    assert!(
        !reference.is_empty(),
        "reference run captured no frames — sampling interval too coarse"
    );
    for jobs in [1usize, 4] {
        let got = run(Executor::Sharded(jobs));
        for (i, (want, have)) in reference.lines().zip(got.lines()).enumerate() {
            assert_eq!(
                want, have,
                "jobs={jobs}: frame {i} diverged from the reference"
            );
        }
        assert_eq!(
            got.lines().count(),
            reference.lines().count(),
            "jobs={jobs}: frame count diverged from the reference"
        );
    }
}
