//! # partix-telemetry
//!
//! First-class observability for the `partix` stack: relaxed-atomic counters
//! threaded through the verbs layer (per-QP, per-CQ, wire-level), the MPI
//! Partitioned runtime (per-strategy aggregation activity), and the
//! discrete-event simulator (span events for chrome-trace export) — plus an
//! [`invariants`] module that reconciles the whole ledger after a run.
//!
//! Design rules:
//!
//! - **Zero allocation on the hot path.** Every counter is a pre-registered
//!   relaxed [`AtomicU64`](std::sync::atomic::AtomicU64); incrementing never
//!   takes a lock or allocates. Span recording allocates only when a
//!   [`SpanLog`] has been explicitly attached (tracing off = a single atomic
//!   load).
//! - **Counters are a ledger, not a log.** Every event is counted at exactly
//!   one site, and the sites are chosen so conservation laws hold *by
//!   construction*: `invariants::check` failing means an instrumentation or
//!   accounting bug, not noise.
//! - **No serde; one codec.** The artifacts (`telemetry_<tag>.json`,
//!   `trace_<tag>.json`, `flightrec_<tag>.json`) are written by hand-built
//!   JSON writers ([`write_telemetry_json`], [`write_trace_json`],
//!   [`flightrec_json`]) and read back by their exact inverse in the same
//!   crate ([`TraceDoc::decode`], [`TelemetryDoc::decode`],
//!   [`decode_frames`]) into the real [`Frame`], [`Snapshot`],
//!   [`HistSnapshot`] and [`FlowEvent`] values. The reader bounds nesting,
//!   reads integers exactly and turns any malformed input into a
//!   [`DecodeError`], never a panic.

#![warn(missing_docs)]

mod codec;
mod counters;
pub mod digest;
mod expo;
mod flightrec;
mod flow;
mod hist;
mod json;
mod snapshot;
mod timeseries;
mod trace;

pub mod invariants;

pub use codec::{decode_frames, DecodeError, TelemetryDoc, TraceDoc};
pub use counters::{
    segments_for, ArenaCounters, Counter, CqCounters, QpCounters, Registry, RuntimeCounters,
    WireCounters, STATUS_SLOTS,
};
pub use expo::{exposition, frame_exposition};
pub use flightrec::FlightRecorder;
pub use flow::{
    ClockHook, FlowEvent, FlowLog, FlowRecorder, FlowStage, StageHistograms, STAGE_HIST_NAMES,
};
pub use hist::{HistBucket, HistSnapshot, LogHistogram};
pub use json::{
    flightrec_json, frames_json, telemetry_json, trace_json, write_telemetry_json, write_trace_json,
};
pub use snapshot::{
    ArenaSnapshot, CqSnapshot, QpSnapshot, RuntimeSnapshot, Snapshot, WireSnapshot, QP_STATE_NAMES,
};
pub use timeseries::{
    hist_delta, snapshot_accum, snapshot_delta, stages_delta, Frame, FrameGauge, Sample,
    SampleSource, Sampler, SamplerConfig, SHM_GAUGE_NAMES,
};
pub use trace::{SpanEvent, SpanLog};
