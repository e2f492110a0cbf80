//! The analyses behind the `trace` binary, over decoded trace and
//! flight-record artifacts.
//!
//! `trace_<tag>.json` and `flightrec_<tag>.json` are read by the telemetry
//! codec ([`TraceDoc::decode`]) into the real flow, histogram and frame
//! types; this module only renders them: the per-stage percentile table
//! and stall report (per-flow critical paths reassembled via
//! `partix_profiler`), run-to-run percentile diffs, and the per-window
//! timeline.

use std::fmt::Write as _;

use partix_profiler::{top_stalls, FlowChain};
use partix_verbs::telemetry::{Frame, TraceDoc};

/// Reads one window delta out of a frame.
type Pick = fn(&Frame) -> u64;

/// The delta series tabulated (and sparklined) by [`timeline`]: a short
/// label and the window delta it reads.
const TIMELINE_COLS: [(&str, Pick); 5] = [
    ("delivered", |f| f.deltas.wire.delivered),
    ("bytes", |f| f.deltas.wire.bytes_delivered),
    ("retrans", |f| f.deltas.wire.retransmits),
    ("preadys", |f| f.deltas.runtime.preadys),
    ("agg_wrs", |f| f.deltas.runtime.aggregated_wrs),
];

/// Render the per-window timeline: one row per frame with the key ledger
/// deltas and the `wire_ns` window percentiles, then a rate-of-change
/// sparkline per tabulated series. Returns `None` when the trace carries
/// no frames (unsampled run).
pub fn timeline(tf: &TraceDoc) -> Option<String> {
    if tf.frames.is_empty() {
        return None;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# trace timeline — workload: {}, {} windows",
        tf.workload,
        tf.frames.len()
    );
    let _ = write!(out, "{:>4} {:>12} {:>10}", "seq", "t_us", "span_us");
    for (label, _) in TIMELINE_COLS {
        let _ = write!(out, " {label:>10}");
    }
    let _ = writeln!(out, " {:>9} {:>9}", "wire_p50", "wire_p99");
    for f in &tf.frames {
        let _ = write!(
            out,
            "{:>4} {:>12.1} {:>10.1}",
            f.seq,
            f.t_ns as f64 / 1e3,
            f.span_ns as f64 / 1e3
        );
        for (_, pick) in TIMELINE_COLS {
            let _ = write!(out, " {:>10}", pick(f));
        }
        match f.stages.iter().find(|(n, _)| *n == "wire_ns") {
            Some((_, h)) if h.count > 0 => {
                let _ = writeln!(out, " {:>9} {:>9}", h.quantile(0.50), h.quantile(0.99));
            }
            _ => {
                let _ = writeln!(out, " {:>9} {:>9}", "-", "-");
            }
        }
    }
    let _ = writeln!(out, "\n## per-window rates");
    for (label, pick) in TIMELINE_COLS {
        let series: Vec<u64> = tf.frames.iter().map(pick).collect();
        let peak = series.iter().copied().max().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>10} |{}| peak {}/window",
            label,
            partix_profiler::sparkline(&series),
            peak
        );
    }
    Some(out)
}

/// Render the per-stage percentile table and the top-`k` stall report.
pub fn report(tf: &TraceDoc, k: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# trace report — workload: {}", tf.workload);
    let chains = partix_profiler::assemble_chains(&tf.flows);
    let arrived = chains.iter().filter(|c| c.arrived()).count();
    let _ = writeln!(
        out,
        "{} flows ({} arrived), {} events\n",
        chains.len(),
        arrived,
        tf.flows.len()
    );
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "stage", "count", "p50_ns", "p95_ns", "p99_ns", "max_ns", "mean_ns"
    );
    for (name, h) in &tf.stages {
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12.1}",
            name,
            h.count,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max,
            h.mean(),
        );
    }
    type StallPick = fn(&FlowChain) -> u64;
    let classes: [(&str, StallPick); 4] = [
        ("wr_cap_wait", |c| c.stalls().1),
        ("rnr_wait", |c| c.stalls().2),
        ("retransmit_wait", |c| c.stalls().3),
        ("delta_timer_hold", |c| c.stalls().0),
    ];
    for (title, pick) in classes {
        let top = top_stalls(&chains, k, pick);
        if top.is_empty() {
            continue;
        }
        let _ = writeln!(out, "\n## top {} flows by {}", top.len(), title);
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>6} {:>6}",
            "flow", "wait_ns", "qp", "chan"
        );
        for s in top {
            let _ = writeln!(
                out,
                "{:<10} {:>12} {:>6} {:>6}",
                s.flow, s.wait_ns, s.qp, s.chan
            );
        }
    }
    out
}

/// One per-stage percentile regression found by [`diff`].
pub struct Regression {
    /// Stage histogram name.
    pub stage: &'static str,
    /// Which percentile regressed ("p50", "p95", "p99").
    pub quantile: &'static str,
    /// Baseline value in ns.
    pub before: u64,
    /// Candidate value in ns.
    pub after: u64,
}

/// Compare two traces stage by stage; a regression is a candidate
/// percentile more than `threshold` (fractional, e.g. 0.10) above the
/// baseline's. Returns the rendered table and the regressions found.
pub fn diff(base: &TraceDoc, cand: &TraceDoc, threshold: f64) -> (String, Vec<Regression>) {
    let mut out = String::new();
    let mut regressions = Vec::new();
    let _ = writeln!(
        out,
        "# trace diff — baseline: {}, candidate: {} (threshold {:.0}%)",
        base.workload,
        cand.workload,
        threshold * 100.0
    );
    let _ = writeln!(
        out,
        "{:<16} {:>4} {:>12} {:>12} {:>9}",
        "stage", "q", "base_ns", "cand_ns", "delta"
    );
    for &(name, ref b) in &base.stages {
        let Some((_, c)) = cand.stages.iter().find(|(n, _)| *n == name) else {
            let _ = writeln!(out, "{name:<16} missing from candidate");
            continue;
        };
        if b.count == 0 || c.count == 0 {
            continue;
        }
        for (qname, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let bv = b.quantile(q);
            let cv = c.quantile(q);
            let delta = if bv == 0 {
                if cv == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                cv as f64 / bv as f64 - 1.0
            };
            let regressed = delta > threshold;
            let _ = writeln!(
                out,
                "{:<16} {:>4} {:>12} {:>12} {:>+8.1}%{}",
                name,
                qname,
                bv,
                cv,
                delta * 100.0,
                if regressed { "  REGRESSED" } else { "" }
            );
            if regressed {
                regressions.push(Regression {
                    stage: name,
                    quantile: qname,
                    before: bv,
                    after: cv,
                });
            }
        }
    }
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_verbs::telemetry::{
        frame_exposition, trace_json, FlowEvent, FlowStage, FrameGauge, HistSnapshot, LogHistogram,
        Snapshot,
    };

    fn hist(vals: &[u64]) -> HistSnapshot {
        let h = LogHistogram::new();
        for &v in vals {
            h.record(v);
        }
        h.snapshot()
    }

    /// Encode a trace the way traced runs write it, then decode it.
    fn doc(wire_vals: &[u64], frames: &[Frame]) -> TraceDoc {
        let ev = |stage, ts_ns, qp, chan, aux| FlowEvent {
            flow: 1,
            stage,
            ts_ns,
            qp,
            chan,
            aux,
        };
        let flows = [
            ev(FlowStage::Posted, 100, 2, 7, 40),
            ev(FlowStage::WireSubmit, 150, 2, 0, 0),
            ev(FlowStage::RecvCqe, 300, 2, 0, 5),
            ev(FlowStage::Arrived, 400, 0, 7, 1),
        ];
        let stages = [("wire_ns", hist(wire_vals))];
        TraceDoc::decode(trace_json("unit", &[], &flows, &stages, frames).as_bytes()).unwrap()
    }

    #[test]
    fn trace_file_parses_flows_and_stages() {
        let tf = doc(&[100, 200, 300], &[]);
        assert_eq!(tf.workload, "unit");
        assert_eq!(tf.flows.len(), 4);
        assert_eq!(tf.flows[0].stage, FlowStage::Posted);
        let chains = partix_profiler::assemble_chains(&tf.flows);
        assert!(chains.iter().all(|c| c.violations().is_empty()));
        let (_, h) = &tf.stages[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 600);
        assert!(h.quantile(0.5) >= 200);
        let text = report(&tf, 3);
        assert!(text.contains("wire_ns"));
        assert!(text.contains("delta_timer_hold"));
    }

    #[test]
    fn trace_file_parses_frames_and_renders_the_timeline() {
        let frame = |seq: u64, delivered: u64, stages| {
            let mut deltas = Snapshot::default();
            deltas.wire.delivered = delivered;
            deltas.runtime.aggregated_wrs = 2 * (seq + 1);
            Frame {
                seq,
                t_ns: 1000 * (seq + 1),
                span_ns: 1000,
                deltas,
                stages,
                gauges: vec![FrameGauge {
                    name: "ring_full_stalls",
                    total: 7,
                    delta: 3,
                }],
            }
        };
        let frames = [
            frame(0, 4, vec![("wire_ns", hist(&[300, 300]))]),
            frame(1, 12, Vec::new()),
        ];
        let tf = doc(&[100], &frames);
        assert_eq!(tf.frames, frames);

        let text = timeline(&tf).expect("frames present");
        assert!(text.contains("workload: unit, 2 windows"));
        assert!(text.contains("wire_p99"));
        // Window 1 delivered three times window 0: the sparkline peaks there.
        let rates = text.lines().find(|l| l.contains("delivered |")).unwrap();
        assert!(rates.contains('█'), "peak window must render full: {rates}");
        assert!(rates.contains("peak 12/window"));
        // Unsampled traces yield no timeline.
        let plain = doc(&[100], &[]);
        assert!(plain.frames.is_empty());
        assert!(timeline(&plain).is_none());
    }

    #[test]
    fn latest_frame_exposition_mirrors_the_live_encoder() {
        let frame = |seq: u64, stages, gauges| {
            let mut deltas = Snapshot::default();
            deltas.wire.delivered = 4 * (seq + 2);
            deltas.runtime.preadys = 8;
            Frame {
                seq,
                t_ns: 1000 * (seq + 1),
                span_ns: 1000,
                deltas,
                stages,
                gauges,
            }
        };
        let frames = [
            frame(0, Vec::new(), Vec::new()),
            frame(
                1,
                vec![("wire_ns", hist(&[300]))],
                vec![FrameGauge {
                    name: "ring_full_stalls",
                    total: 7,
                    delta: 3,
                }],
            ),
        ];
        // The `--expo` output of a decoded trace is byte for byte what the
        // live encoder renders for the same latest window.
        let tf = doc(&[100], &frames);
        let expo = frame_exposition(tf.frames.last().expect("frames present"));
        assert_eq!(expo, frame_exposition(&frames[1]));
        assert!(expo.contains("partix_window_seq 1"));
        assert!(expo.contains("partix_window_wire_delivered 12"));
        assert!(expo.contains("partix_window_runtime_preadys 8"));
        assert!(expo.contains("partix_gauge_ring_full_stalls 7"));
        assert!(expo.contains("partix_gauge_ring_full_stalls_delta 3"));
        assert!(expo.contains("# TYPE partix_stage_wire_ns histogram"));
        // Unsampled traces have no latest frame to expose.
        assert!(doc(&[100], &[]).frames.last().is_none());
    }

    #[test]
    fn diff_flags_injected_regression() {
        let base = doc(&[100; 50], &[]);
        let cand = doc(
            &[100; 49]
                .iter()
                .copied()
                .chain([100_000])
                .collect::<Vec<_>>(),
            &[],
        );
        let (_, same) = diff(&base, &base, 0.10);
        assert!(same.is_empty());
        let (text, regs) = diff(&base, &cand, 0.10);
        assert!(!regs.is_empty(), "p99 blow-up must be flagged:\n{text}");
        assert!(regs.iter().any(|r| r.quantile == "p99"));
    }
}
