//! Prometheus-style text exposition of the stage histograms.
//!
//! The output follows the classic text format: for each histogram a
//! `# TYPE` line, cumulative `_bucket{le="..."}` series (non-empty buckets
//! plus the mandatory `+Inf`), `_sum`, and `_count`. Bucket boundaries are
//! the log-bucket upper bounds, so `le` values are exact integers.

use std::fmt::Write as _;

use crate::hist::HistSnapshot;
use crate::timeseries::Frame;

/// Metric-name prefix for every exposed histogram.
const PREFIX: &str = "partix_stage_";

/// Render named stage-histogram snapshots in Prometheus text format.
pub fn exposition(stages: &[(&str, HistSnapshot)]) -> String {
    let mut s = String::with_capacity(1024);
    for (name, snap) in stages {
        let metric = format!("{PREFIX}{name}");
        let _ = writeln!(s, "# TYPE {metric} histogram");
        let mut cum = 0u64;
        for b in &snap.buckets {
            cum += b.count;
            let _ = writeln!(s, "{metric}_bucket{{le=\"{}\"}} {cum}", b.hi);
        }
        let _ = writeln!(s, "{metric}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(s, "{metric}_sum {}", snap.sum);
        let _ = writeln!(s, "{metric}_count {}", snap.count);
    }
    s
}

/// Render the latest sampler [`Frame`] in Prometheus text format: window
/// metadata and per-window ledger deltas as `partix_window_*` gauges,
/// transport gauges as `partix_gauge_*`, and the frame's stage-histogram
/// windows via [`exposition`]. This is what a scrape of a live ShmFabric
/// run serves.
pub fn frame_exposition(frame: &Frame) -> String {
    let mut s = String::with_capacity(2048);
    let mut gauge = |name: &str, v: u64| {
        let _ = writeln!(s, "# TYPE {name} gauge");
        let _ = writeln!(s, "{name} {v}");
    };
    gauge("partix_window_seq", frame.seq);
    gauge("partix_window_t_ns", frame.t_ns);
    gauge("partix_window_span_ns", frame.span_ns);
    for (f, v) in frame.deltas.wire.fields() {
        gauge(&format!("partix_window_wire_{f}"), v);
    }
    for (f, v) in frame.deltas.runtime.fields() {
        gauge(&format!("partix_window_runtime_{f}"), v);
    }
    for (f, v) in frame.deltas.arena.fields() {
        gauge(&format!("partix_window_arena_{f}"), v);
    }
    for g in &frame.gauges {
        gauge(&format!("partix_gauge_{}", g.name), g.total);
        gauge(&format!("partix_gauge_{}_delta", g.name), g.delta);
    }
    s.push_str(&exposition(&frame.stages));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;

    #[test]
    fn exposition_is_cumulative_and_complete() {
        let h = LogHistogram::new();
        for v in [1u64, 1, 9, 100] {
            h.record(v);
        }
        let text = exposition(&[("wire_ns", h.snapshot())]);
        assert!(text.contains("# TYPE partix_stage_wire_ns histogram"));
        assert!(text.contains("partix_stage_wire_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("partix_stage_wire_ns_count 4"));
        assert!(text.contains("partix_stage_wire_ns_sum 111"));
        // First bucket (value 1, bounds [1,2)) carries two samples.
        assert!(text.contains("partix_stage_wire_ns_bucket{le=\"2\"} 2"));
    }

    #[test]
    fn frame_exposition_carries_window_and_gauges() {
        use crate::snapshot::Snapshot;
        use crate::timeseries::{Frame, FrameGauge};
        let h = LogHistogram::new();
        h.record(5);
        let mut deltas = Snapshot::default();
        deltas.wire.delivered = 9;
        let f = Frame {
            seq: 3,
            t_ns: 500,
            span_ns: 100,
            deltas,
            stages: vec![("wire_ns", h.snapshot())],
            gauges: vec![FrameGauge {
                name: "progress_iterations",
                total: 40,
                delta: 4,
            }],
        };
        let text = frame_exposition(&f);
        assert!(text.contains("partix_window_seq 3"));
        assert!(text.contains("partix_window_wire_delivered 9"));
        assert!(text.contains("partix_gauge_progress_iterations 40"));
        assert!(text.contains("partix_gauge_progress_iterations_delta 4"));
        assert!(text.contains("# TYPE partix_stage_wire_ns histogram"));
    }
}
