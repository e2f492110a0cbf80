//! The one reader for every telemetry artifact: the exact inverse of the
//! writers in `json.rs`.
//!
//! [`TraceDoc::decode`] reads `trace_<tag>.json` and
//! `flightrec_<tag>.json`, [`TelemetryDoc::decode`] reads
//! `telemetry_<tag>.json`, and [`decode_frames`] reads a bare
//! [`frames_json`](crate::frames_json) array, each into the real
//! [`Frame`], [`Snapshot`], [`HistSnapshot`] and [`FlowEvent`] values.
//! Decoding an encoded value gives it back, and re-encoding a decoded
//! document reproduces its bytes.
//!
//! The reader is safe on foreign bytes. It streams over the input with no
//! intermediate tree, bounds nesting at [`MAX_DEPTH`], reads integers as
//! exact `u64` (no `f64` round trip), and rejects negative, fractional or
//! out-of-range numbers, unknown keys and malformed syntax with a
//! [`DecodeError`] carrying the byte offset. Names the types hold as
//! `&'static str` decode by lookup in the fixed lists the writers draw
//! from ([`STAGE_HIST_NAMES`], [`QP_STATE_NAMES`], [`SHM_GAUGE_NAMES`],
//! the [`FlowStage`] names), so a name outside them is an error. Members a
//! document omits keep their default (zero or empty). Chrome-trace span
//! events are checked for syntax and skipped: no analysis reads them.

use std::fmt;

use crate::counters::STATUS_SLOTS;
use crate::flow::{FlowEvent, FlowStage, STAGE_HIST_NAMES};
use crate::hist::{HistBucket, HistSnapshot};
use crate::snapshot::{CqSnapshot, QpSnapshot, Snapshot, QP_STATE_NAMES};
use crate::timeseries::{Frame, FrameGauge, SHM_GAUGE_NAMES};

/// Deepest array/object nesting the reader accepts. The writers nest at
/// most six levels; the bound keeps hostile input from exhausting the
/// stack.
const MAX_DEPTH: usize = 64;

/// Why a document failed to decode, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the input at which decoding stopped.
    pub offset: usize,
    /// What was wrong there.
    pub msg: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for DecodeError {}

type Result<T> = std::result::Result<T, DecodeError>;

/// A decoded trace or flight-record artifact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceDoc {
    /// The run's name: `meta.workload` of a trace, `meta.tag` of a flight
    /// record.
    pub workload: String,
    /// Why a flight record was dumped; `None` for a trace.
    pub reason: Option<String>,
    /// Raw causal flow events (a flight record's flow-log tail).
    pub flows: Vec<FlowEvent>,
    /// Per-stage residency histograms (traces only).
    pub stages: Vec<(&'static str, HistSnapshot)>,
    /// Windowed time-series frames (empty when the run was unsampled).
    pub frames: Vec<Frame>,
}

impl TraceDoc {
    /// Decode a `trace_<tag>.json` or `flightrec_<tag>.json` document.
    pub fn decode(src: &[u8]) -> Result<TraceDoc> {
        let mut doc = TraceDoc::default();
        document(src, |r| {
            r.object(|r, key| {
                match key {
                    "meta" => r.object(|r, key| {
                        match key {
                            "workload" | "tag" => doc.workload = r.string()?,
                            "reason" => doc.reason = Some(r.string()?),
                            "format" => r.format()?,
                            // Flight-record counts, derived from the arrays.
                            "frames" | "flow_tail" => {
                                r.u64()?;
                            }
                            _ => return Err(r.unknown(key)),
                        }
                        Ok(())
                    })?,
                    "traceEvents" | "displayTimeUnit" => r.skip()?,
                    "flows" => doc.flows = r.list(flow_event)?,
                    "stages" => doc.stages = stage_map(r)?,
                    "frames" => doc.frames = r.list(frame)?,
                    _ => return Err(r.unknown(key)),
                }
                Ok(())
            })
        })?;
        Ok(doc)
    }
}

/// A decoded `telemetry_<tag>.json`: the ledger and its invariant verdict.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryDoc {
    /// The counter ledger frozen at quiescence.
    pub snapshot: Snapshot,
    /// Each violated conservation law's text; empty when the ledger was
    /// clean.
    pub violations: Vec<String>,
}

impl TelemetryDoc {
    /// Decode a `telemetry_<tag>.json` document. Its `clean` flag must
    /// agree with the violation list.
    pub fn decode(src: &[u8]) -> Result<TelemetryDoc> {
        let mut doc = TelemetryDoc::default();
        let mut clean = None;
        document(src, |r| {
            r.object(|r, key| match key {
                "format" => r.format(),
                "invariants" => r.object(|r, key| {
                    match key {
                        "clean" => clean = Some(r.bool()?),
                        "violations" => doc.violations = r.list(Reader::string)?,
                        _ => return Err(r.unknown(key)),
                    }
                    Ok(())
                }),
                _ => snapshot_member(r, key, &mut doc.snapshot),
            })
        })?;
        if clean != Some(doc.violations.is_empty()) {
            return Err(DecodeError {
                offset: src.len(),
                msg: "\"clean\" disagrees with the violation list".into(),
            });
        }
        Ok(doc)
    }
}

/// Decode a [`frames_json`](crate::frames_json) array.
pub fn decode_frames(src: &[u8]) -> Result<Vec<Frame>> {
    document(src, |r| r.list(frame))
}

/// Run `read` over the whole of `src`; only whitespace may follow.
fn document<T>(src: &[u8], read: impl FnOnce(&mut Reader<'_>) -> Result<T>) -> Result<T> {
    let mut r = Reader {
        b: src,
        pos: 0,
        depth: 0,
    };
    let v = read(&mut r)?;
    match r.peek() {
        None => Ok(v),
        Some(_) => Err(r.err("trailing bytes")),
    }
}

/// A cursor over the input. Every read skips leading whitespace.
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Reader<'_> {
    fn err(&self, msg: impl Into<String>) -> DecodeError {
        DecodeError {
            offset: self.pos,
            msg: msg.into(),
        }
    }

    fn unknown(&self, key: &str) -> DecodeError {
        self.err(format!("unknown key {key:?}"))
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.b.get(self.pos) {
            self.pos += 1;
        }
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        match self.eat(c) {
            true => Ok(()),
            false => Err(self.err(format!("expected '{}'", c as char))),
        }
    }

    /// Comma-separated items between `open` and `close`, one `item` call
    /// each: the depth-bounded core of arrays and objects.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<()>,
    ) -> Result<()> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        if !self.eat(close) {
            loop {
                item(self)?;
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self, item: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.seq(b'[', b']', item)
    }

    /// An object; `member` reads the value of each key it is handed.
    fn object(&mut self, mut member: impl FnMut(&mut Self, &str) -> Result<()>) -> Result<()> {
        self.seq(b'{', b'}', |r| {
            let key = r.string()?;
            r.expect(b':')?;
            member(r, &key)
        })
    }

    /// An array of values read by `item`.
    fn list<T>(&mut self, item: fn(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut out = Vec::new();
        self.array(|r| item(r).map(|v| out.push(v)))?;
        Ok(out)
    }

    /// An array of exactly `n` items; `item` reads the one at each index.
    fn tuple(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self, usize) -> Result<()>,
    ) -> Result<()> {
        let mut i = 0;
        self.array(|r| {
            if i == n {
                return Err(r.err(format!("more than {n} items")));
            }
            i += 1;
            item(r, i - 1)
        })?;
        match i == n {
            true => Ok(()),
            false => Err(self.err(format!("{i} items, want {n}"))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.b.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            match c {
                b'"' => break,
                b'\\' => {
                    self.pos += 1;
                    let ch = match self.b.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        // Surrogate escapes are rejected: the writers
                        // emit `\u` only for control characters.
                        Some(b'u') => {
                            let ch = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            ch
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                0..=0x1f => return Err(self.err("control character in string")),
                _ => out.push(c),
            }
            self.pos += 1;
        }
        self.pos += 1;
        String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"))
    }

    /// An unsigned integer, exactly: no sign, fraction, exponent or
    /// leading zero, and no value beyond `u64::MAX`.
    fn u64(&mut self) -> Result<u64> {
        self.peek();
        let start = self.pos;
        let mut v = 0u64;
        while let Some(&d @ b'0'..=b'9') = self.b.get(self.pos) {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| self.err("integer out of range"))?;
            self.pos += 1;
        }
        let digits = &self.b[start..self.pos];
        if digits.is_empty() {
            return Err(self.err("expected an unsigned integer"));
        }
        if matches!(self.b.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("expected an integer, found a fraction"));
        }
        if digits.len() > 1 && digits[0] == b'0' {
            return Err(self.err("leading zero"));
        }
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| self.err(format!("{v} is out of range for u32")))
    }

    fn bool(&mut self) -> Result<bool> {
        self.peek();
        for (word, v) in [("true", true), ("false", false)] {
            if self.b[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(v);
            }
        }
        Err(self.err("expected true or false"))
    }

    /// The `format` stamp; version 1 is the only one written.
    fn format(&mut self) -> Result<()> {
        match self.u64()? {
            1 => Ok(()),
            v => Err(self.err(format!("unsupported format {v}"))),
        }
    }

    /// `name` as the `&'static str` entry of `list` it equals.
    fn lookup(&self, name: &str, list: &[&'static str]) -> Result<&'static str> {
        list.iter()
            .find(|n| **n == name)
            .copied()
            .ok_or_else(|| self.err(format!("unknown name {name:?}")))
    }

    /// Any JSON value, checked for syntax and discarded.
    fn skip(&mut self) -> Result<()> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'[') => self.array(Self::skip),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't' | b'f') => self.bool().map(|_| ()),
            Some(b'n') if self.b[self.pos..].starts_with(b"null") => {
                self.pos += 4;
                Ok(())
            }
            _ => self.number(),
        }
    }

    /// Any JSON number (the span events' fractional microseconds).
    fn number(&mut self) -> Result<()> {
        let s = &self.b[self.pos..];
        let digits = |i: &mut usize| {
            let from = *i;
            while s.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
            *i > from
        };
        let mut i = usize::from(s.first() == Some(&b'-'));
        let mut ok = digits(&mut i);
        if s.get(i) == Some(&b'.') {
            i += 1;
            ok &= digits(&mut i);
        }
        if matches!(s.get(i), Some(b'e' | b'E')) {
            i += 1;
            i += usize::from(matches!(s.get(i), Some(b'+' | b'-')));
            ok &= digits(&mut i);
        }
        if !ok {
            return Err(self.err("expected a value"));
        }
        self.pos += i;
        Ok(())
    }
}

/// Set the counter named `key` in a ledger row's field list.
fn field(r: &mut Reader<'_>, key: &str, fields: &mut [(&str, &mut u64)]) -> Result<()> {
    match fields.iter_mut().find(|(name, _)| *name == key) {
        Some((_, slot)) => {
            **slot = r.u64()?;
            Ok(())
        }
        None => Err(r.unknown(key)),
    }
}

/// One of a ledger's `qps`/`cqs`/`wire`/`runtime`/`arena` members.
fn snapshot_member(r: &mut Reader<'_>, key: &str, snap: &mut Snapshot) -> Result<()> {
    match key {
        "qps" => snap.qps = r.list(qp)?,
        "cqs" => snap.cqs = r.list(cq)?,
        "wire" => r.object(|r, k| field(r, k, &mut snap.wire.fields_mut()))?,
        "runtime" => r.object(|r, k| field(r, k, &mut snap.runtime.fields_mut()))?,
        "arena" => r.object(|r, k| field(r, k, &mut snap.arena.fields_mut()))?,
        _ => return Err(r.unknown(key)),
    }
    Ok(())
}

fn qp(r: &mut Reader<'_>) -> Result<QpSnapshot> {
    let mut q = QpSnapshot::default();
    r.object(|r, key| {
        match key {
            "node" => q.node = r.u32()?,
            "qp_num" => q.qp_num = r.u32()?,
            "state" => q.state = r.string().and_then(|s| r.lookup(&s, &QP_STATE_NAMES))?,
            _ => field(r, key, &mut q.counter_fields_mut())?,
        }
        Ok(())
    })?;
    Ok(q)
}

fn cq(r: &mut Reader<'_>) -> Result<CqSnapshot> {
    let mut c = CqSnapshot::default();
    r.object(|r, key| {
        match key {
            "cq_id" => c.cq_id = r.u32()?,
            "pushed" => r.tuple(STATUS_SLOTS, |r, i| {
                c.pushed_by_status[i] = r.u64()?;
                Ok(())
            })?,
            _ => field(r, key, &mut c.counter_fields_mut())?,
        }
        Ok(())
    })?;
    Ok(c)
}

/// A `{"stage": {count, sum, max, buckets}}` histogram map.
fn stage_map(r: &mut Reader<'_>) -> Result<Vec<(&'static str, HistSnapshot)>> {
    let mut stages = Vec::new();
    r.object(|r, name| {
        let name = r.lookup(name, &STAGE_HIST_NAMES)?;
        let mut h = HistSnapshot::default();
        r.object(|r, key| {
            match key {
                "count" => h.count = r.u64()?,
                "sum" => h.sum = r.u64()?,
                "max" => h.max = r.u64()?,
                "buckets" => h.buckets = r.list(bucket)?,
                _ => return Err(r.unknown(key)),
            }
            Ok(())
        })?;
        stages.push((name, h));
        Ok(())
    })?;
    Ok(stages)
}

/// A `[lo, hi, count]` histogram bucket.
fn bucket(r: &mut Reader<'_>) -> Result<HistBucket> {
    let mut v = [0u64; 3];
    r.tuple(3, |r, i| {
        v[i] = r.u64()?;
        Ok(())
    })?;
    Ok(HistBucket {
        lo: v[0],
        hi: v[1],
        count: v[2],
    })
}

/// A `[flow, "stage", ts, qp, chan, aux]` flow-event tuple.
fn flow_event(r: &mut Reader<'_>) -> Result<FlowEvent> {
    let mut e = FlowEvent {
        flow: 0,
        stage: FlowStage::Posted,
        ts_ns: 0,
        qp: 0,
        chan: 0,
        aux: 0,
    };
    r.tuple(6, |r, i| {
        match i {
            0 => e.flow = r.u64()?,
            1 => {
                let name = r.string()?;
                e.stage = FlowStage::from_name(&name)
                    .ok_or_else(|| r.err(format!("unknown flow stage {name:?}")))?;
            }
            2 => e.ts_ns = r.u64()?,
            3 => e.qp = r.u32()?,
            4 => e.chan = r.u32()?,
            _ => e.aux = r.u64()?,
        }
        Ok(())
    })?;
    Ok(e)
}

fn frame(r: &mut Reader<'_>) -> Result<Frame> {
    let mut f = Frame::default();
    r.object(|r, key| {
        match key {
            "seq" => f.seq = r.u64()?,
            "t_ns" => f.t_ns = r.u64()?,
            "span_ns" => f.span_ns = r.u64()?,
            "stages" => f.stages = stage_map(r)?,
            "gauges" => r.object(|r, name| {
                let mut g = FrameGauge {
                    name: r.lookup(name, &SHM_GAUGE_NAMES)?,
                    total: 0,
                    delta: 0,
                };
                r.object(|r, key| {
                    match key {
                        "total" => g.total = r.u64()?,
                        "delta" => g.delta = r.u64()?,
                        _ => return Err(r.unknown(key)),
                    }
                    Ok(())
                })?;
                f.gauges.push(g);
                Ok(())
            })?,
            _ => snapshot_member(r, key, &mut f.deltas)?,
        }
        Ok(())
    })?;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;
    use crate::json::{flightrec_json, frames_json, telemetry_json, trace_json};

    fn flow(flow: u64, stage: FlowStage, ts_ns: u64) -> FlowEvent {
        FlowEvent {
            flow,
            stage,
            ts_ns,
            qp: 9,
            chan: 1,
            aux: 4,
        }
    }

    fn sample_frame(counter: u64) -> Frame {
        let h = LogHistogram::new();
        h.record(300);
        h.record(9_000);
        let mut deltas = Snapshot::default();
        deltas.qps.push(QpSnapshot {
            node: 1,
            qp_num: 7,
            state: "RTS",
            send_posted: counter,
            ..QpSnapshot::default()
        });
        deltas.cqs.push(CqSnapshot {
            cq_id: 3,
            pushed_by_status: [counter, 0, 1, 0, 2],
            ..CqSnapshot::default()
        });
        deltas.wire.delivered = counter;
        deltas.runtime.preadys = 5;
        deltas.arena.live_high_water = 2;
        Frame {
            seq: 4,
            t_ns: 2_000,
            span_ns: 1_000,
            deltas,
            stages: vec![("wire_ns", h.snapshot())],
            gauges: vec![FrameGauge {
                name: "ring_full_stalls",
                total: counter,
                delta: 3,
            }],
        }
    }

    fn decode_str(src: &str) -> Result<TraceDoc> {
        TraceDoc::decode(src.as_bytes())
    }

    #[test]
    fn trace_flight_record_and_telemetry_documents_round_trip() {
        let frames = vec![sample_frame(11), sample_frame(12)];
        let flows = vec![
            flow(3, FlowStage::Posted, 100),
            flow(3, FlowStage::Arrived, 900),
        ];
        let h = LogHistogram::new();
        h.record(800);
        let stages = vec![
            ("wire_ns", h.snapshot()),
            ("cq_lag_ns", HistSnapshot::default()),
        ];
        let trace = trace_json("unit \"q\"", &[], &flows, &stages, &frames);
        let doc = TraceDoc::decode(trace.as_bytes()).unwrap();
        assert_eq!(doc.workload, "unit \"q\"");
        assert_eq!(doc.reason, None);
        assert_eq!(
            (doc.flows.as_slice(), doc.stages.as_slice()),
            (&flows[..], &stages[..])
        );
        assert_eq!(doc.frames, frames);
        assert_eq!(
            trace_json(&doc.workload, &[], &doc.flows, &doc.stages, &doc.frames),
            trace
        );

        let rec = flightrec_json("tag", "panic: boom\nline 2", &frames, &flows);
        let doc = TraceDoc::decode(rec.as_bytes()).unwrap();
        assert_eq!(doc.reason.as_deref(), Some("panic: boom\nline 2"));
        assert_eq!(
            flightrec_json("tag", "panic: boom\nline 2", &doc.frames, &doc.flows),
            rec
        );

        assert_eq!(
            decode_frames(frames_json(&frames).as_bytes()).unwrap(),
            frames
        );

        let text = telemetry_json(&frames[0].deltas, &["law \"x\" broken"]);
        let doc = TelemetryDoc::decode(text.as_bytes()).unwrap();
        assert_eq!(doc.snapshot, frames[0].deltas);
        assert_eq!(doc.violations, ["law \"x\" broken"]);
        assert_eq!(telemetry_json(&doc.snapshot, &doc.violations), text);
    }

    /// Counters above 2^53 (where an `f64` loses integers) decode exactly.
    #[test]
    fn counters_beyond_f64_precision_round_trip_exactly() {
        for big in [(1u64 << 53) + 1, u64::MAX] {
            let frames = vec![sample_frame(big)];
            let text = frames_json(&frames);
            assert!(text.contains(&big.to_string()));
            let back = decode_frames(text.as_bytes()).unwrap();
            assert_eq!(back[0].deltas.wire.delivered, big);
            assert_eq!(back[0].deltas.qps[0].send_posted, big);
            assert_eq!(back, frames);
            let doc = TelemetryDoc::decode(telemetry_json(&back[0].deltas, &[""; 0]).as_bytes());
            assert_eq!(doc.unwrap().snapshot.wire.delivered, big);
        }
        let overflow = frames_json(&[sample_frame(u64::MAX)])
            .replace(&u64::MAX.to_string(), "18446744073709551616");
        let err = decode_frames(overflow.as_bytes()).unwrap_err();
        assert!(err.msg.contains("out of range"), "{err}");
    }

    /// Ids wider than their `u32` fields and non-integer counters are
    /// errors, not silent truncations.
    #[test]
    fn out_of_range_and_non_integer_fields_are_errors() {
        let wrap = |row: &str| format!("{{\"flows\": [{row}]}}");
        let wide = 1u64 << 32 | 5;
        for row in [
            format!("[1, \"posted\", 10, {wide}, 0, 0]"),
            format!("[1, \"posted\", 10, 2, {wide}, 0]"),
            "[1, \"posted\", 10, 2, 0, 1.9]".to_string(),
            "[1, \"posted\", 10, 2, 0, 2e3]".to_string(),
            "[1, \"posted\", -10, 2, 0, 0]".to_string(),
            "[1, \"posted\", 010, 2, 0, 0]".to_string(),
            "[1, \"posted\", 10, 2, 0]".to_string(),
            "[1, \"posted\", 10, 2, 0, 0, 0]".to_string(),
            "[1, \"bogus\", 10, 2, 0, 0]".to_string(),
        ] {
            let doc = wrap(&row);
            let err = decode_str(&doc).unwrap_err();
            assert!(err.offset > 0 && err.offset <= doc.len(), "{row}: {err}");
            assert!(err.to_string().contains("at byte"));
        }
        assert_eq!(
            decode_str(&wrap("[1, \"posted\", 10, 4294967295, 0, 0]"))
                .unwrap()
                .flows[0]
                .qp,
            u32::MAX
        );
        let frame = frames_json(&[sample_frame(1)]);
        for (from, to) in [
            ("\"delivered\": 1", "\"delivered\": 1.9"),
            ("\"qp_num\": 7", "\"qp_num\": 4294967301"),
            ("\"cq_id\": 3", "\"cq_id\": -3"),
        ] {
            let bad = frame.replacen(from, to, 1);
            assert_ne!(bad, frame);
            assert!(
                decode_frames(bad.as_bytes()).is_err(),
                "{to} must not decode"
            );
        }
    }

    /// A million nested brackets return an error instead of overflowing
    /// the stack.
    #[test]
    fn million_deep_nesting_is_an_error_not_a_crash() {
        let deep = "[".repeat(1_000_000);
        let err = decode_frames(deep.as_bytes()).unwrap_err();
        assert!(err.offset <= MAX_DEPTH + 1, "{err}");
        let inside = format!("{{\"traceEvents\": {deep}");
        let err = decode_str(&inside).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        let objects = format!("{{\"traceEvents\": {}", "{\"a\": ".repeat(1_000_000));
        assert!(decode_str(&objects).is_err());
        // Depth inside the limit is fine.
        let ok = format!(
            "{{\"traceEvents\": {}1{}}}",
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        decode_str(&ok).unwrap();
    }

    /// The general JSON cases the reader must get right: escapes, nested
    /// values of every kind (skipped), trailing bytes and truncation.
    #[test]
    fn reader_handles_escapes_nesting_and_rejects_bad_input() {
        let doc = decode_str(
            r#"{"meta": {"workload": "x\ny\t\"q\"\\\/\u0041\u00e9", "format": 1},
                "traceEvents": [1, 2.5, -3, 1e-3, "s", true, false, null,
                                {"c": {"d": [[], {}]}, "args": {"e": null}}],
                "flows": [], "displayTimeUnit": "ns"}"#,
        )
        .unwrap();
        assert_eq!(doc.workload, "x\ny\t\"q\"\\/Aé");
        assert!(doc.flows.is_empty() && doc.frames.is_empty());
        for bad in [
            "",
            "{\"unterminated\": ",
            "{\"meta\": {\"workload\": \"abc",
            "{\"flows\": []} trailing",
            "{\"flows\": [],}",
            "{\"flows\" []}",
            "{\"traceEvents\": [1.]}",
            "{\"traceEvents\": [-]}",
            "{\"traceEvents\": [nul]}",
            "{\"meta\": {\"workload\": \"\\x\"}}",
            "{\"meta\": {\"workload\": \"\\ud800\"}}",
            "{\"meta\": {\"workload\": \"a\u{1}b\"}}",
            "{\"meta\": {\"format\": 2}}",
            "{\"surprise\": 1}",
            "[]",
        ] {
            assert!(decode_str(bad).is_err(), "{bad:?} must not decode");
        }
        assert!(TraceDoc::decode(b"{\"meta\": {\"workload\": \"\xff\"}}").is_err());
    }

    /// `&'static str` names decode only from the writers' fixed lists.
    #[test]
    fn names_outside_the_writer_lists_are_errors() {
        let frame = frames_json(&[sample_frame(1)]);
        for (from, to) in [
            ("\"RTS\"", "\"Bogus\""),
            ("\"wire_ns\"", "\"made_up_ns\""),
            ("\"ring_full_stalls\"", "\"iters\""),
            ("\"delivered\"", "\"delivered_twice\""),
        ] {
            let bad = frame.replacen(from, to, 1);
            let err = decode_frames(bad.as_bytes()).unwrap_err();
            assert!(err.msg.contains("unknown"), "{to}: {err}");
        }
        let dirty = "{\"invariants\": {\"clean\": true, \"violations\": [\"x\"]}}";
        assert!(TelemetryDoc::decode(dirty.as_bytes()).is_err());
    }
}
