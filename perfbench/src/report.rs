//! Metric tables, summary statistics and the result lines.
//!
//! The two tables below are the benchmark's schema and must list the same
//! names and units, in the same order, as `BENCHMARK.json`. Every workload
//! reports every metric of the table its mode prints; a per-layer metric a
//! workload does not exercise reads 0.

use std::fmt::Write as _;

/// End-to-end metrics (printed with `--trace 0`): name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("round_us_p50", "us"),
    ("payload_gb_per_s", "GB/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (printed with `--trace 1`): name, unit.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("sim.events", "count"),
    ("sim.run_ns_per_event", "ns"),
    ("sim.driver_ns_per_event", "ns"),
    ("sim.self_ns_per_event", "ns"),
    ("sim.queue_high_water", "count"),
    ("pdes.barrier_wait_frac", "ratio"),
    ("pdes.imbalance_ratio", "ratio"),
    ("pdes.events_per_epoch", "count"),
    ("pdes.cross_messages", "count"),
    ("pdes.mailbox_high_water", "count"),
    ("core.pready_ns_p50", "ns"),
    ("core.pready_count", "count"),
    ("core.pready_busy_s", "s"),
    ("core.start_ns_p50", "ns"),
    ("core.start_count", "count"),
    ("core.start_busy_s", "s"),
    ("core.wait_ns_p50", "ns"),
    ("core.partitions_per_wr", "ratio"),
    ("core.wrs_per_round", "ratio"),
    ("core.timer_fires", "count"),
    ("verbs.wr_posted", "count"),
    ("verbs.cqe_polled", "count"),
    ("verbs.attempts_per_delivery", "ratio"),
    ("verbs.retransmits", "count"),
    ("verbs.duplicates_suppressed", "count"),
    ("verbs.arena_hit_ratio", "ratio"),
    ("verbs.arena_live_high_water", "count"),
    ("shm.iterations_per_record", "ratio"),
    ("shm.wakeups_per_round", "ratio"),
    ("shm.acks_per_data_record", "ratio"),
    ("shm.ring_full_stalls", "count"),
    ("shm.ring_high_water", "bytes"),
    ("shm.progress_cpu_s_per_s", "s/s"),
    ("proc.cpu_s_per_s", "s/s"),
    ("shm.memcpy_gb_per_s", "GB/s"),
    ("shm.memcpy_buf_bytes", "bytes"),
    ("host.llc_bytes", "bytes"),
    ("shm.roofline_frac", "ratio"),
    ("shm.round_us_p99", "us"),
    ("shm.round_samples", "count"),
    ("telemetry.trace_overhead_frac", "ratio"),
    ("telemetry.sample_frames", "count"),
    ("stage_sim.agg_hold_ns_p50", "ns"),
    ("stage_sim.agg_hold_ns_p99", "ns"),
    ("stage_sim.wire_ns_p50", "ns"),
    ("stage_sim.wire_ns_p99", "ns"),
    ("stage_sim.cq_lag_ns_p50", "ns"),
    ("stage_sim.cq_lag_ns_p99", "ns"),
    ("stage_sim.retrans_wait_ns_p50", "ns"),
    ("stage_sim.retrans_wait_ns_p99", "ns"),
    ("stage_wall.agg_hold_ns_p50", "ns"),
    ("stage_wall.agg_hold_ns_p99", "ns"),
    ("stage_wall.wire_ns_p50", "ns"),
    ("stage_wall.wire_ns_p99", "ns"),
    ("stage_wall.cq_lag_ns_p50", "ns"),
    ("stage_wall.cq_lag_ns_p99", "ns"),
    ("stage_wall.retrans_wait_ns_p50", "ns"),
    ("stage_wall.retrans_wait_ns_p99", "ns"),
    ("self_frac.build", "ratio"),
    ("self_frac.scheduler", "ratio"),
    ("self_frac.driver", "ratio"),
    ("self_frac.core", "ratio"),
    ("self_frac.telemetry", "ratio"),
    ("self_frac.verify", "ratio"),
];

/// Measured values keyed by metric name, each with its sample count.
#[derive(Default)]
pub struct Values {
    entries: Vec<(&'static str, f64, usize)>,
}

impl Values {
    /// Record `value` (summarising `samples` observations) under `name`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.entries.retain(|(n, _, _)| *n != name);
        self.entries.push((name, value, samples));
    }

    fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.entries
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, s)| (v, s))
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Checked operations (simulations, ring repetitions or rounds).
    pub attempted: u64,
    /// Operations that errored or failed their check.
    pub failed: u64,
    /// Measured metrics; the table the mode prints selects which appear.
    pub values: Values,
    /// Free-form facts recorded beside the metrics (digests, sizes).
    pub notes: Vec<(&'static str, String)>,
    /// One line per failed check, for the log.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Count one checked operation, failing it with `err` when present.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    /// Record a note.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` at `q` in `[0, 1]` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// A JSON number; non-finite values (never expected) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Quote `s` as a JSON string.
fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Stamp carried on the record line.
pub struct Stamp<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub rev: &'a str,
    pub host_cpus: usize,
}

/// Print the human-readable table, the `record` line and the result line
/// (last). Returns whether every check passed.
pub fn emit(stamp: &Stamp, outcome: &Outcome) -> bool {
    let table: &[(&str, &str)] = if stamp.trace { &PER_LAYER } else { &END_TO_END };
    for e in &outcome.errors {
        println!("FAILED: {e}");
    }
    let mut metrics = String::new();
    let mut samples = String::new();
    for (i, &(name, unit)) in table.iter().enumerate() {
        let (value, n) = outcome.values.get(name).unwrap_or((0.0, 0));
        println!("{name:<34} {value:>16.4} {unit:<6} (n={n})");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            string(name),
            num(value),
            string(unit)
        );
        let _ = write!(samples, "{sep}{}: {n}", string(name));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let failed_frac = if outcome.attempted == 0 {
        1.0
    } else {
        outcome.failed as f64 / outcome.attempted as f64
    };
    println!(
        "ops_failed_frac {} ({} of {})",
        num(failed_frac),
        outcome.failed,
        outcome.attempted
    );
    let mut notes = String::new();
    for (i, (k, v)) in outcome.notes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(notes, "{sep}{}: {}", string(k), string(v));
    }
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"rev\": {}, \"host_cpus\": {}, \"attempted\": {}, \"failed\": {}, \
         \"ops_failed_frac\": {}, \"samples\": {{{samples}}}, \"notes\": {{{notes}}}, \
         \"metrics\": {{{metrics}}}}}}}",
        string(stamp.workload),
        stamp.seed,
        stamp.seconds,
        u8::from(stamp.trace),
        string(stamp.rev),
        stamp.host_cpus,
        outcome.attempted,
        outcome.failed,
        num(failed_frac),
    );
    // A run that checked nothing counts as one failed operation.
    let (attempted, failed) = if outcome.attempted == 0 {
        (1, 1)
    } else {
        (outcome.attempted, outcome.failed)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
