//! Per-layer metrics read from the counters and histograms the program's
//! public API already exposes, plus the span aggregates of [`crate::trace`].

use partix_core::telemetry::{HistSnapshot, LogHistogram, StageHistograms};
use partix_core::Snapshot;

use crate::report::Values;
use crate::trace::{self, Kind};

/// Verbs and aggregation-runtime counters summed over one or more worlds.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub wr_posted: u64,
    pub cqe_polled: u64,
    pub delivery_attempts: u64,
    pub delivered: u64,
    pub retransmits: u64,
    pub duplicates_suppressed: u64,
    pub pool_gets: u64,
    pub pool_hits: u64,
    pub arena_live_high_water: u64,
    pub partitions_posted: u64,
    pub aggregated_wrs: u64,
    pub timer_fires: u64,
}

impl Counters {
    /// Fold one world's telemetry snapshot in.
    pub fn add(&mut self, s: &Snapshot) {
        self.wr_posted += s.total_send_posted();
        self.cqe_polled += s.cqs.iter().map(|c| c.polled).sum::<u64>();
        self.delivery_attempts += s.wire.delivery_attempts;
        self.delivered += s.wire.delivered;
        self.retransmits += s.wire.retransmits;
        self.duplicates_suppressed += s.wire.duplicates_suppressed;
        self.pool_gets += s.arena.pool_gets;
        self.pool_hits += s.arena.pool_hits;
        self.arena_live_high_water = self.arena_live_high_water.max(s.arena.live_high_water);
        self.partitions_posted += s.runtime.partitions_posted;
        self.aggregated_wrs += s.runtime.aggregated_wrs;
        self.timer_fires += s.runtime.timer_fires;
    }

    /// The difference `self - earlier` for monotone counters (high-water
    /// marks are kept as they are).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            wr_posted: self.wr_posted - earlier.wr_posted,
            cqe_polled: self.cqe_polled - earlier.cqe_polled,
            delivery_attempts: self.delivery_attempts - earlier.delivery_attempts,
            delivered: self.delivered - earlier.delivered,
            retransmits: self.retransmits - earlier.retransmits,
            duplicates_suppressed: self.duplicates_suppressed - earlier.duplicates_suppressed,
            pool_gets: self.pool_gets - earlier.pool_gets,
            pool_hits: self.pool_hits - earlier.pool_hits,
            arena_live_high_water: self.arena_live_high_water,
            partitions_posted: self.partitions_posted - earlier.partitions_posted,
            aggregated_wrs: self.aggregated_wrs - earlier.aggregated_wrs,
            timer_fires: self.timer_fires - earlier.timer_fires,
        }
    }

    /// Set the `core.*` and `verbs.*` counter metrics. The counters cover
    /// `reps` repetitions of `rounds_per_rep` channel rounds (one
    /// partitioned send and its receive completing); counts are reported
    /// per repetition.
    pub fn report(&self, v: &mut Values, reps: u64, rounds_per_rep: u64) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let n = reps as usize;
        let per_rep = |x: u64| ratio(x, reps);
        v.set(
            "core.partitions_per_wr",
            ratio(self.partitions_posted, self.aggregated_wrs),
            n,
        );
        v.set(
            "core.wrs_per_round",
            ratio(self.wr_posted, reps * rounds_per_rep),
            n,
        );
        v.set("core.timer_fires", per_rep(self.timer_fires), n);
        v.set("verbs.wr_posted", per_rep(self.wr_posted), n);
        v.set("verbs.cqe_polled", per_rep(self.cqe_polled), n);
        v.set(
            "verbs.attempts_per_delivery",
            ratio(self.delivery_attempts, self.delivered),
            n,
        );
        v.set("verbs.retransmits", per_rep(self.retransmits), n);
        v.set(
            "verbs.duplicates_suppressed",
            per_rep(self.duplicates_suppressed),
            n,
        );
        v.set(
            "verbs.arena_hit_ratio",
            ratio(self.pool_hits, self.pool_gets),
            n,
        );
        v.set(
            "verbs.arena_live_high_water",
            self.arena_live_high_water as f64,
            1,
        );
    }
}

/// The four flow stages the benchmark reports, merged over several worlds.
pub struct Stages {
    agg_hold: LogHistogram,
    wire: LogHistogram,
    cq_lag: LogHistogram,
    retrans_wait: LogHistogram,
}

impl Stages {
    pub fn new() -> Self {
        Stages {
            agg_hold: LogHistogram::new(),
            wire: LogHistogram::new(),
            cq_lag: LogHistogram::new(),
            retrans_wait: LogHistogram::new(),
        }
    }

    /// Fold one world's stage histograms in.
    pub fn add(&self, h: &StageHistograms) {
        self.agg_hold.merge(&h.agg_hold);
        self.wire.merge(&h.wire);
        self.cq_lag.merge(&h.cq_lag);
        self.retrans_wait.merge(&h.retrans_wait);
    }

    /// Set `stage_sim.*` (`wall == false`) or `stage_wall.*` p50/p99.
    pub fn report(&self, v: &mut Values, wall: bool) {
        let names: [(&LogHistogram, [&'static str; 2], [&'static str; 2]); 4] = [
            (
                &self.agg_hold,
                ["stage_sim.agg_hold_ns_p50", "stage_sim.agg_hold_ns_p99"],
                ["stage_wall.agg_hold_ns_p50", "stage_wall.agg_hold_ns_p99"],
            ),
            (
                &self.wire,
                ["stage_sim.wire_ns_p50", "stage_sim.wire_ns_p99"],
                ["stage_wall.wire_ns_p50", "stage_wall.wire_ns_p99"],
            ),
            (
                &self.cq_lag,
                ["stage_sim.cq_lag_ns_p50", "stage_sim.cq_lag_ns_p99"],
                ["stage_wall.cq_lag_ns_p50", "stage_wall.cq_lag_ns_p99"],
            ),
            (
                &self.retrans_wait,
                [
                    "stage_sim.retrans_wait_ns_p50",
                    "stage_sim.retrans_wait_ns_p99",
                ],
                [
                    "stage_wall.retrans_wait_ns_p50",
                    "stage_wall.retrans_wait_ns_p99",
                ],
            ),
        ];
        for (hist, sim, wall_names) in names {
            let snap = hist.snapshot();
            let [p50, p99] = if wall { wall_names } else { sim };
            v.set(p50, snap.quantile(0.5) as f64, snap.count as usize);
            v.set(p99, snap.quantile(0.99) as f64, snap.count as usize);
        }
    }
}

fn p50(h: &HistSnapshot) -> f64 {
    h.quantile(0.5) as f64
}

/// Set the span-derived metrics: `core.*` call counts and busy time per
/// repetition over `reps` traced repetitions, `sim.*` costs per event over
/// the `events` those repetitions executed, and each kind's self time as a
/// share of `traced_wall_ns`. Self time is per thread: with two PDES worker
/// threads the scheduler's share is the waiting calling thread's, and
/// `sim.self_ns_per_event` is wall time less both workers' driver time.
pub fn report_spans(v: &mut Values, reps: usize, events: u64, traced_wall_ns: u64) {
    let per_rep = |x: f64| x / reps.max(1) as f64;
    let pready = trace::summary(Kind::Pready);
    v.set(
        "core.pready_ns_p50",
        p50(&pready.durations),
        pready.durations.count as usize,
    );
    v.set(
        "core.pready_count",
        per_rep(pready.durations.count as f64),
        reps,
    );
    v.set(
        "core.pready_busy_s",
        per_rep(pready.durations.sum as f64) / 1e9,
        reps,
    );
    let start = trace::summary(Kind::Start);
    v.set(
        "core.start_ns_p50",
        p50(&start.durations),
        start.durations.count as usize,
    );
    v.set(
        "core.start_count",
        per_rep(start.durations.count as f64),
        reps,
    );
    v.set(
        "core.start_busy_s",
        per_rep(start.durations.sum as f64) / 1e9,
        reps,
    );
    let wait = trace::summary(Kind::Wait);
    v.set(
        "core.wait_ns_p50",
        p50(&wait.durations),
        wait.durations.count as usize,
    );

    if events > 0 {
        let run = trace::summary(Kind::Run).durations.sum as f64;
        let driver = trace::summary(Kind::Driver).durations.sum as f64;
        let n = events as f64;
        let samples = reps;
        v.set("sim.run_ns_per_event", run / n, samples);
        v.set("sim.driver_ns_per_event", driver / n, samples);
        v.set(
            "sim.self_ns_per_event",
            (run - driver).max(0.0) / n,
            samples,
        );
    }

    let wall = traced_wall_ns.max(1) as f64;
    let frac = |k: Kind| trace::summary(k).self_ns as f64 / wall;
    v.set("self_frac.build", frac(Kind::Build), reps);
    v.set("self_frac.scheduler", frac(Kind::Run), reps);
    v.set("self_frac.driver", frac(Kind::Driver), reps);
    v.set(
        "self_frac.core",
        frac(Kind::Start) + frac(Kind::Pready) + frac(Kind::Wait),
        reps,
    );
    v.set("self_frac.telemetry", frac(Kind::Telemetry), reps);
    v.set("self_frac.verify", frac(Kind::Verify), reps);
}
