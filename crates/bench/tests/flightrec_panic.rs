//! Injected-panic flight-recorder system test (its own test binary: the
//! recorder's panic hook is process-global, so this must not share a
//! process with suites that panic on purpose).
//!
//! Runs a real chaos full-stack workload with sampling and flow tracing
//! enabled, arms a [`FlightRecorder`] over the live sampler, then kills a
//! worker thread with an injected panic — the hook must leave behind a
//! `flightrec_<tag>.json` that the telemetry codec decodes end to end
//! into the sampler's own frames: monotone sequence numbers, a flow-log
//! tail, a usable `trace timeline` rendering, and a `--expo` exposition of
//! the last frame byte-identical to the live encoder's.

use std::path::PathBuf;
use std::sync::Arc;

use partix_bench::tracefile::timeline;
use partix_core::telemetry::{frame_exposition, FlightRecorder, FlowLog, TraceDoc};
use partix_core::SimDuration;
use partix_workloads::fullstack::{run_fullstack_instrumented, Executor, FullStackConfig};

fn temp_dir() -> PathBuf {
    std::env::temp_dir().join(format!("partix-flightrec-sys-{}", std::process::id()))
}

#[test]
fn injected_panic_leaves_a_parseable_flight_record() {
    // A chaos run on the sharded executor, sampled finely enough for the
    // ring to hold several windows of real traffic.
    let cfg = FullStackConfig::chaos(4, 0.2, 7);
    let flow_log = FlowLog::new();
    let (report, world, _sched) = run_fullstack_instrumented(
        &cfg,
        Executor::Sharded(2),
        Some(flow_log.clone()),
        Some((SimDuration::from_micros(100), 64)),
    );
    assert!(report.invariants_clean, "chaos run left a dirty ledger");
    let sampler = world.sampler().expect("sampling enabled");
    assert!(sampler.frames_captured() > 0, "run captured no frames");

    let dir = temp_dir();
    let rec = Arc::new(
        FlightRecorder::new("sys_panic", &dir, sampler.clone()).with_flow_log(flow_log, 128),
    );
    rec.arm();

    // Kill a worker mid-flight; the armed hook must dump before unwinding
    // reaches the joiner.
    let worker = std::thread::spawn(|| panic!("injected failure: simulated mid-flight crash"));
    assert!(worker.join().is_err(), "worker must die");

    let path = rec.path();
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no dump at {}: {e}", path.display()));
    assert!(
        raw.contains("injected failure: simulated mid-flight crash"),
        "dump must record the panic message as its reason"
    );

    // Well-formedness is defined by the consumer: the same decoder behind
    // `trace timeline` must accept the dump wholesale.
    let tf = TraceDoc::decode(raw.as_bytes()).expect("flight record decodes");
    assert_eq!(
        tf.workload, "sys_panic",
        "meta.tag flows through as the workload"
    );
    assert_eq!(
        tf.frames.len() as u64,
        sampler.frames_captured() - sampler.frames_evicted(),
        "every retained frame lands in the dump"
    );
    for pair in tf.frames.windows(2) {
        assert_eq!(
            pair[1].seq,
            pair[0].seq + 1,
            "frame sequence must be gapless"
        );
        assert!(pair[1].t_ns >= pair[0].t_ns, "frame times must be monotone");
    }
    assert_eq!(tf.frames, sampler.frames(), "the dump decodes to the ring");
    let delivered: u64 = tf.frames.iter().map(|f| f.deltas.wire.delivered).sum();
    assert!(delivered > 0, "frames must carry the run's wire activity");
    assert!(!tf.flows.is_empty(), "flow-log tail must be present");

    let rendered = timeline(&tf).expect("timeline renders from a flight record");
    assert!(rendered.contains("sys_panic"));
    // `trace timeline --expo` exposes the last decoded frame: it must be
    // the live encoder's output for the sampler's latest frame, byte for
    // byte.
    let expo = frame_exposition(tf.frames.last().expect("frames present"));
    assert_eq!(expo, frame_exposition(&sampler.latest().unwrap()));
    assert!(expo.contains("partix_window_seq"));

    std::fs::remove_dir_all(&dir).ok();
}
