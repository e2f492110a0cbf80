//! Hand-written JSON writers for the export artifacts:
//! `telemetry_<tag>.json` (ledger + invariant verdict), `trace_<tag>.json`
//! (chrome-trace events plus flow events, stage histograms and frames for
//! the `trace` analyzer; `chrome://tracing` and Perfetto ignore the extra
//! top-level keys) and `flightrec_<tag>.json` (the flight-recorder dump).
//!
//! The workspace has no serde; like the bench result writers, these build
//! the strings directly. All keys are static and all values are integers
//! or escaped strings, so the output is always valid JSON. Every document
//! reads back through the decoder in `codec.rs`, the exact inverse of
//! these writers.

use std::fmt::{Display, Write as _};
use std::fs;
use std::io;
use std::path::Path;

use crate::flow::{FlowEvent, FlowStage};
use crate::hist::HistSnapshot;
use crate::invariants::Report;
use crate::snapshot::Snapshot;
use crate::timeseries::Frame;
use crate::trace::SpanEvent;

/// Escape a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a snapshot plus its invariant report as a JSON document and
/// write it to `path`, creating parent directories as needed.
pub fn write_telemetry_json(path: &Path, snap: &Snapshot, report: &Report) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, telemetry_json(snap, &report.violations))
}

/// Render the telemetry artifact: the ledger through the same field-list
/// encoder frames use, then the invariant verdict and each violation's
/// text.
pub fn telemetry_json<V: Display>(snap: &Snapshot, violations: &[V]) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\"format\": 1,\n");
    push_snapshot(&mut s, snap);
    let _ = write!(
        s,
        ",\n\"invariants\": {{\"clean\": {}, \"violations\": [",
        violations.is_empty()
    );
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\"", escape(&v.to_string()));
    }
    s.push_str("]}}\n");
    s
}

/// Nanoseconds → microseconds with three decimal places, no float noise.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Append `"k": v` pairs, comma-separated, without surrounding braces.
fn push_pairs(s: &mut String, pairs: &[(&'static str, u64)]) {
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{k}\": {v}");
    }
}

/// Append the `{"stage": {count, sum, max, buckets}}` map the `trace`
/// analyzer reads, shared by the trace artifact and frame rendering.
fn push_stage_map(s: &mut String, stages: &[(&str, HistSnapshot)], pad: &str) {
    s.push('{');
    for (i, (name, snap)) in stages.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n{pad}\"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
            escape(name),
            snap.count,
            snap.sum,
            snap.max,
        );
        for (j, b) in snap.buckets.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "[{}, {}, {}]", b.lo, b.hi, b.count);
        }
        s.push_str("]}");
    }
    if !stages.is_empty() {
        s.push('\n');
        s.push_str(&pad[..pad.len().saturating_sub(2)]);
    }
    s.push('}');
}

/// Append a ledger's `"qps", "cqs", "wire", "runtime", "arena"` members,
/// without surrounding braces: the shared body of frames and the telemetry
/// artifact.
fn push_snapshot(s: &mut String, snap: &Snapshot) {
    s.push_str("\"qps\": [");
    for (i, q) in snap.qps.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"node\": {}, \"qp_num\": {}, \"state\": \"{}\", ",
            q.node,
            q.qp_num,
            escape(q.state)
        );
        push_pairs(s, &q.counter_fields());
        s.push('}');
    }
    s.push_str("], \"cqs\": [");
    for (i, c) in snap.cqs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"cq_id\": {}, \"pushed\": [", c.cq_id);
        for (j, v) in c.pushed_by_status.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{v}");
        }
        s.push_str("], ");
        push_pairs(s, &c.counter_fields());
        s.push('}');
    }
    s.push_str("], \"wire\": {");
    push_pairs(s, &snap.wire.fields());
    s.push_str("}, \"runtime\": {");
    push_pairs(s, &snap.runtime.fields());
    s.push_str("}, \"arena\": {");
    push_pairs(s, &snap.arena.fields());
    s.push('}');
}

/// Append one [`Frame`] as a compact JSON object (ledger deltas, stage
/// windows, gauges) with the same key names as the telemetry artifact.
fn push_frame_obj(s: &mut String, f: &Frame) {
    let _ = write!(
        s,
        "{{\"seq\": {}, \"t_ns\": {}, \"span_ns\": {}, ",
        f.seq, f.t_ns, f.span_ns
    );
    push_snapshot(s, &f.deltas);
    s.push_str(", \"stages\": ");
    push_stage_map(s, &f.stages, "    ");
    s.push_str(", \"gauges\": {");
    for (i, g) in f.gauges.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"total\": {}, \"delta\": {}}}",
            escape(g.name),
            g.total,
            g.delta
        );
    }
    s.push_str("}}");
}

/// Render a frame sequence as a JSON array, one frame per line. This is
/// the canonical rendering the determinism suites byte-compare, and the
/// value of the `frames` key in trace and flight-recorder artifacts.
pub fn frames_json(frames: &[Frame]) -> String {
    let mut s = String::with_capacity(64 + frames.len() * 512);
    s.push('[');
    for (i, f) in frames.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n  ");
        push_frame_obj(&mut s, f);
    }
    s.push_str("\n]");
    s
}

/// Append one flow event as the `[flow, "stage", ts, qp, chan, aux]` tuple
/// the `trace` analyzer reads.
fn push_flow_tuple(s: &mut String, e: &FlowEvent) {
    let _ = write!(
        s,
        "[{}, \"{}\", {}, {}, {}, {}]",
        e.flow,
        e.stage.name(),
        e.ts_ns,
        e.qp,
        e.chan,
        e.aux,
    );
}

/// Render the flight-recorder dump: run metadata, the retained frame ring,
/// and the tail of the flow log.
pub fn flightrec_json(tag: &str, reason: &str, frames: &[Frame], flows: &[FlowEvent]) -> String {
    let mut s = String::with_capacity(256 + frames.len() * 512 + flows.len() * 48);
    let _ = write!(
        s,
        "{{\"meta\": {{\"tag\": \"{}\", \"reason\": \"{}\", \"format\": 1, \
         \"frames\": {}, \"flow_tail\": {}}},\n\"frames\": ",
        escape(tag),
        escape(reason),
        frames.len(),
        flows.len(),
    );
    s.push_str(&frames_json(frames));
    s.push_str(",\n\"flows\": [");
    for (i, e) in flows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n  ");
        push_flow_tuple(&mut s, e);
    }
    s.push_str("\n]}\n");
    s
}

/// Write the full trace artifact for one run at `path`: chrome-trace span
/// events plus, when flow tracing was armed, flow arrows ("s"/"f" pairs
/// linking each flow's post to its arrival), the raw flow-event list, and
/// the per-stage latency histograms; when the run was sampled, the frame
/// ring under a `frames` key and per-window chrome counter tracks (`ph:
/// "C"`) so Perfetto plots delivery and aggregation rates over the span
/// timeline. Chrome-trace viewers render the `traceEvents` array and
/// ignore the extra keys; the `trace` analyzer reads `flows`, `stages` and
/// `frames`.
pub fn write_trace_json(
    path: &Path,
    workload: &str,
    spans: &[SpanEvent],
    flows: &[FlowEvent],
    stages: &[(&str, HistSnapshot)],
    frames: &[Frame],
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, trace_json(workload, spans, flows, stages, frames))
}

/// Render the trace artifact [`write_trace_json`] writes.
pub fn trace_json(
    workload: &str,
    spans: &[SpanEvent],
    flows: &[FlowEvent],
    stages: &[(&str, HistSnapshot)],
    frames: &[Frame],
) -> String {
    let mut s = String::with_capacity(256 + spans.len() * 128 + flows.len() * 48);
    let _ = write!(
        s,
        "{{\"meta\": {{\"workload\": \"{}\", \"format\": 1}},\n\"traceEvents\": [",
        escape(workload)
    );
    let mut first = true;
    for e in spans {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(
            s,
            "\n  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": {}, \"tid\": {}, \
             \"ts\": {}, \"dur\": {}}}",
            escape(&e.name),
            escape(e.cat),
            e.pid,
            e.tid,
            micros(e.ts_ns),
            micros(e.dur_ns),
        );
    }
    // Flow arrows: one "s" at the post, one "f" at the arrival, keyed by
    // the flow id so viewers draw the causal arrow across lanes.
    for e in flows {
        let ph = match e.stage {
            FlowStage::Posted => "s",
            FlowStage::Arrived => "f",
            _ => continue,
        };
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(
            s,
            "\n  {{\"name\": \"flow\", \"cat\": \"flow\", \"ph\": \"{}\", {}\"id\": {}, \
             \"pid\": {}, \"tid\": {}, \"ts\": {}}}",
            ph,
            if ph == "f" { "\"bp\": \"e\", " } else { "" },
            e.flow,
            if ph == "s" { 0 } else { 1 },
            e.qp,
            micros(e.ts_ns),
        );
    }
    // Counter tracks: one sample per frame, so viewers plot the windowed
    // delivery/aggregation rates alongside the span timeline.
    for f in frames {
        if !first {
            s.push(',');
        }
        first = false;
        let w = &f.deltas.wire;
        let _ = write!(
            s,
            "\n  {{\"name\": \"wire_rate\", \"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"ts\": {}, \
             \"args\": {{\"delivered\": {}, \"retransmits\": {}, \"bytes_delivered\": {}}}}},\
             \n  {{\"name\": \"runtime_rate\", \"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"ts\": {}, \
             \"args\": {{\"preadys\": {}, \"aggregated_wrs\": {}}}}}",
            micros(f.t_ns),
            w.delivered,
            w.retransmits,
            w.bytes_delivered,
            micros(f.t_ns),
            f.deltas.runtime.preadys,
            f.deltas.runtime.aggregated_wrs,
        );
    }
    s.push_str("\n],\n\"flows\": [");
    for (i, e) in flows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n  ");
        push_flow_tuple(&mut s, e);
    }
    s.push_str("\n],\n\"stages\": ");
    push_stage_map(&mut s, stages, "  ");
    if !frames.is_empty() {
        s.push_str(",\n\"frames\": ");
        s.push_str(&frames_json(frames));
    }
    s.push_str(",\n\"displayTimeUnit\": \"ns\"}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants;
    use crate::snapshot::Snapshot;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn micros_preserves_sub_us() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1500), "1.500");
        assert_eq!(micros(999), "0.999");
    }

    #[test]
    fn telemetry_json_is_balanced() {
        let snap = Snapshot::default();
        let report = invariants::check(&snap);
        let text = telemetry_json(&snap, &report.violations);
        // Structural sanity without a JSON parser: balanced delimiters and
        // the expected top-level keys.
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "unbalanced braces in:\n{text}"
        );
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        for key in [
            "\"qps\"",
            "\"cqs\"",
            "\"wire\"",
            "\"runtime\"",
            "\"arena\"",
            "\"invariants\"",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        assert!(text.contains("\"clean\": true"));
    }

    #[test]
    fn trace_json_carries_flows_and_stages() {
        use crate::flow::{FlowEvent, FlowStage};
        use crate::hist::LogHistogram;
        let flows = vec![
            FlowEvent {
                flow: 3,
                stage: FlowStage::Posted,
                ts_ns: 100,
                qp: 9,
                chan: 1,
                aux: 0,
            },
            FlowEvent {
                flow: 3,
                stage: FlowStage::Arrived,
                ts_ns: 900,
                qp: 9,
                chan: 1,
                aux: 4,
            },
        ];
        let h = LogHistogram::new();
        h.record(800);
        let stages = vec![("wire_ns", h.snapshot())];
        let text = trace_json("unit", &[], &flows, &stages, &[]);
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        assert!(text.contains("\"workload\": \"unit\""));
        assert!(text.contains("[3, \"posted\", 100, 9, 1, 0]"));
        assert!(text.contains("\"ph\": \"s\""));
        assert!(text.contains("\"ph\": \"f\""));
        assert!(text.contains("\"wire_ns\": {\"count\": 1"));
    }

    #[test]
    fn trace_json_with_frames_is_balanced_and_has_counters() {
        use crate::timeseries::{Frame, FrameGauge};
        let mut deltas = Snapshot::default();
        deltas.wire.delivered = 12;
        deltas.runtime.preadys = 3;
        let frames = vec![Frame {
            seq: 0,
            t_ns: 2_000,
            span_ns: 2_000,
            deltas,
            stages: Vec::new(),
            gauges: vec![FrameGauge {
                name: "iters",
                total: 5,
                delta: 5,
            }],
        }];
        let text = trace_json("unit", &[], &[], &[], &frames);
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "unbalanced braces in:\n{text}"
        );
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        assert!(text.contains("\"frames\": ["));
        assert!(text.contains("\"ph\": \"C\""));
        assert!(text.contains("\"delivered\": 12"));
        assert!(text.contains("\"iters\": {\"total\": 5, \"delta\": 5}"));
    }

    #[test]
    fn flightrec_json_is_balanced() {
        use crate::flow::{FlowEvent, FlowStage};
        let flows = vec![FlowEvent {
            flow: 1,
            stage: FlowStage::Posted,
            ts_ns: 10,
            qp: 2,
            chan: 0,
            aux: 0,
        }];
        let text = flightrec_json("unit \"tag\"", "panic: boom", &[], &flows);
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "unbalanced braces in:\n{text}"
        );
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        assert!(text.contains("\"reason\": \"panic: boom\""));
        assert!(text.contains("[1, \"posted\", 10, 2, 0, 0]"));
    }
}
