//! The full verbs stack — aggregation runtime, fabric, optional lossy wire
//! — on the sharded PDES engine: a figure-representative ring sweep and the
//! chaos fault-sweep at `--jobs N`, hard-gated on byte equality with the
//! sequential reference executor. Writes `BENCH_fullstack.json` into the
//! out dir.
//!
//! ```text
//! fullstack_pdes [--ranks N] [--jobs LIST] [--smoke] [--out DIR] [--seed S]
//!                [--flightrec]
//! ```
//!
//! Every scenario runs once on the reference executor and once per `--jobs`
//! value on the epoch-parallel engine. Any divergence — completion-record
//! digest, telemetry ledger digest, event count, virtual makespan,
//! per-stage histogram totals, or the byte-for-byte windowed time-series
//! frame stream — exits non-zero: the parallel engine has no license to
//! change the simulation, only to finish it sooner.
//!
//! `--flightrec` additionally re-runs the chaos scenario with flow tracing
//! attached and writes a flight-recorder dump
//! (`<out>/flightrec_fullstack_chaos.json`: last frames + flow-log tail)
//! whether or not anything went wrong, so CI always has the crash-forensics
//! artifact to upload.
//!
//! On hosts with at least 4 CPUs (and outside `--smoke`), the figure sweep
//! additionally gates on a >=1.5x events/sec speedup at `--jobs 4` over
//! `--jobs 1`; single-core containers skip the gate (recorded in the JSON
//! as `host_cpus` so readers can judge the axis honestly).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use partix_core::telemetry::{frames_json, FlightRecorder, FlowLog};
use partix_core::SimDuration;
use partix_verbs::conformance::fnv1a;
use partix_workloads::fullstack::{
    run_fullstack_instrumented, Executor, FullStackConfig, FullStackReport,
};

/// Sampling window every scenario runs with: fine enough that even the
/// smoke ring captures several frames, coarse enough to stay negligible.
const SAMPLING: (SimDuration, usize) = (SimDuration::from_micros(100), 512);

struct StageRow {
    name: &'static str,
    count: u64,
    sum: u64,
    p50: u64,
    p99: u64,
    mean: f64,
}

struct RunRow {
    executor: String,
    wall_ms: f64,
    events_per_sec: f64,
}

struct ScenarioResult {
    scenario: String,
    digest: u64,
    ledger_digest: u64,
    frames: u64,
    frames_digest: u64,
    events: u64,
    makespan_ns: u64,
    drops: u64,
    retransmits: u64,
    stages: Vec<StageRow>,
    runs: Vec<RunRow>,
}

/// The facts two executors must agree on byte-for-byte. Stage histogram
/// (count, sum) pairs ride along: the residency multisets are virtual-time
/// facts, so a parallel run may not change them either. So is the windowed
/// time-series: frames capture at epoch barriers in virtual time, hence the
/// digest of the canonical frames rendering is part of the key.
fn comparison_key(report: &FullStackReport, stages: &[StageRow], frames_digest: u64) -> Vec<u64> {
    let mut k = vec![
        report.digest,
        report.ledger_digest,
        report.events,
        report.makespan.as_nanos(),
        report.drops,
        report.retransmits,
        report.duplicates,
        frames_digest,
    ];
    for s in stages {
        k.push(s.count);
        k.push(s.sum);
    }
    k
}

struct RunOutcome {
    report: FullStackReport,
    stages: Vec<StageRow>,
    wall: f64,
    frames: u64,
    frames_digest: u64,
}

fn run_once(cfg: &FullStackConfig, executor: Executor) -> RunOutcome {
    let flow_log = FlowLog::new();
    let t0 = Instant::now();
    let (report, world, _sched) =
        run_fullstack_instrumented(cfg, executor, Some(flow_log), Some(SAMPLING));
    let wall = t0.elapsed().as_secs_f64();
    if !report.invariants_clean {
        eprintln!(
            "INVARIANT VIOLATION: {} on {} left a dirty telemetry ledger",
            executor.label(),
            cfg.ranks
        );
        std::process::exit(1);
    }
    let stages = world
        .telemetry()
        .flows
        .stages
        .snapshot()
        .into_iter()
        .map(|(name, h)| StageRow {
            name,
            count: h.count,
            sum: h.sum,
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
            mean: h.mean(),
        })
        .collect();
    let frames = world.sampler().expect("sampling enabled").frames();
    let rendered = frames_json(&frames);
    RunOutcome {
        report,
        stages,
        wall,
        frames: frames.len() as u64,
        frames_digest: fnv1a(rendered.as_bytes()),
    }
}

fn bench_scenario(
    scenario: String,
    cfg: &FullStackConfig,
    jobs_list: &[usize],
) -> (ScenarioResult, Vec<(usize, f64)>) {
    let reference = run_once(cfg, Executor::Reference);
    let ref_key = comparison_key(
        &reference.report,
        &reference.stages,
        reference.frames_digest,
    );
    let mut runs = vec![RunRow {
        executor: "reference".into(),
        wall_ms: reference.wall * 1e3,
        events_per_sec: reference.report.events as f64 / reference.wall.max(1e-9),
    }];
    let mut walls = Vec::new();
    for &jobs in jobs_list {
        let run = run_once(cfg, Executor::Sharded(jobs));
        let key = comparison_key(&run.report, &run.stages, run.frames_digest);
        if key != ref_key {
            eprintln!(
                "DETERMINISM VIOLATION: {scenario}: jobs={jobs} diverged from the \
                 reference executor\n  got  {key:?}\n  want {ref_key:?}"
            );
            std::process::exit(1);
        }
        walls.push((jobs, run.wall));
        runs.push(RunRow {
            executor: format!("jobs={jobs}"),
            wall_ms: run.wall * 1e3,
            events_per_sec: run.report.events as f64 / run.wall.max(1e-9),
        });
    }
    println!(
        "{scenario}: {} events, makespan {:.3} ms (virtual), digest {:016x}, \
         ledger {:016x}, drops {}, retransmits {}, {} frames ({:016x})",
        reference.report.events,
        reference.report.makespan.as_nanos() as f64 / 1e6,
        reference.report.digest,
        reference.report.ledger_digest,
        reference.report.drops,
        reference.report.retransmits,
        reference.frames,
        reference.frames_digest,
    );
    for r in &runs {
        println!(
            "  {:<10} {:>9.2} ms wall {:>12.0} events/sec",
            r.executor, r.wall_ms, r.events_per_sec
        );
    }
    let result = ScenarioResult {
        scenario,
        digest: reference.report.digest,
        ledger_digest: reference.report.ledger_digest,
        frames: reference.frames,
        frames_digest: reference.frames_digest,
        events: reference.report.events,
        makespan_ns: reference.report.makespan.as_nanos(),
        drops: reference.report.drops,
        retransmits: reference.report.retransmits,
        stages: reference.stages,
        runs,
    };
    (result, walls)
}

fn render_json(
    smoke: bool,
    host_cpus: usize,
    ranks: u32,
    seed: u64,
    scenarios: &[ScenarioResult],
    speedup_jobs4: Option<f64>,
) -> String {
    let mut f = String::new();
    let w = &mut f;
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "  \"bench\": \"fullstack_pdes\",");
    let _ = writeln!(w, "  \"smoke\": {smoke},");
    let _ = writeln!(w, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(w, "  \"ranks\": {ranks},");
    let _ = writeln!(w, "  \"seed\": {seed},");
    match speedup_jobs4 {
        Some(s) => {
            let _ = writeln!(w, "  \"speedup_jobs4_vs_jobs1\": {s:.3},");
        }
        None => {
            let _ = writeln!(w, "  \"speedup_jobs4_vs_jobs1\": null,");
        }
    }
    let _ = writeln!(w, "  \"scenarios\": [");
    for (i, s) in scenarios.iter().enumerate() {
        let _ = writeln!(w, "    {{");
        let _ = writeln!(w, "      \"scenario\": \"{}\",", s.scenario);
        let _ = writeln!(w, "      \"digest\": \"{:016x}\",", s.digest);
        let _ = writeln!(w, "      \"ledger_digest\": \"{:016x}\",", s.ledger_digest);
        let _ = writeln!(w, "      \"frames\": {},", s.frames);
        let _ = writeln!(w, "      \"frames_digest\": \"{:016x}\",", s.frames_digest);
        let _ = writeln!(w, "      \"events\": {},", s.events);
        let _ = writeln!(w, "      \"makespan_ns\": {},", s.makespan_ns);
        let _ = writeln!(w, "      \"drops\": {},", s.drops);
        let _ = writeln!(w, "      \"retransmits\": {},", s.retransmits);
        let _ = writeln!(w, "      \"stage_hists\": [");
        for (j, h) in s.stages.iter().enumerate() {
            let sep = if j + 1 == s.stages.len() { "" } else { "," };
            let _ = writeln!(
                w,
                "        {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \
                 \"p50\": {}, \"p99\": {}, \"mean\": {:.1}}}{sep}",
                h.name, h.count, h.sum, h.p50, h.p99, h.mean,
            );
        }
        let _ = writeln!(w, "      ],");
        let _ = writeln!(w, "      \"runs\": [");
        for (j, r) in s.runs.iter().enumerate() {
            let sep = if j + 1 == s.runs.len() { "" } else { "," };
            let _ = writeln!(
                w,
                "        {{\"executor\": \"{}\", \"wall_ms\": {:.3}, \
                 \"events_per_sec\": {:.0}}}{sep}",
                r.executor, r.wall_ms, r.events_per_sec,
            );
        }
        let _ = writeln!(w, "      ]");
        let sep = if i + 1 == scenarios.len() { "" } else { "," };
        let _ = writeln!(w, "    }}{sep}");
    }
    let _ = writeln!(w, "  ]");
    let _ = writeln!(w, "}}");
    f
}

fn main() {
    let mut ranks: u32 = 12;
    let mut jobs_list: Vec<usize> = vec![1, 2, 4, 8];
    let mut smoke = false;
    let mut flightrec = false;
    let mut seed: u64 = 20_250_808;
    let mut out = PathBuf::from("results");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--flightrec" => flightrec = true,
            "--ranks" => {
                let Some(n) = it.next().and_then(|v| v.parse::<u32>().ok()) else {
                    eprintln!("error: --ranks requires a positive integer argument");
                    std::process::exit(2);
                };
                ranks = n.max(2);
            }
            "--seed" => {
                let Some(n) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("error: --seed requires an integer argument");
                    std::process::exit(2);
                };
                seed = n;
            }
            "--jobs" | "-j" => {
                let parsed = it.next().map(|v| {
                    v.split(',')
                        .map(|p| p.trim().parse::<usize>())
                        .collect::<Result<Vec<_>, _>>()
                });
                let Some(Ok(list)) = parsed else {
                    eprintln!("error: --jobs requires a comma-separated list, e.g. 1,2,4,8");
                    std::process::exit(2);
                };
                jobs_list = list;
            }
            "--out" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --out requires a directory argument");
                    std::process::exit(2);
                };
                out = PathBuf::from(dir);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        ranks = ranks.min(6);
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "fullstack on sharded PDES: {ranks} ranks (= shards), jobs {jobs_list:?}, \
         host_cpus {host_cpus}{}",
        if smoke { ", smoke" } else { "" }
    );

    // The figure sweep: the ring at three representative partition sizes
    // (one in smoke mode), clean wire.
    let part_sizes: &[usize] = if smoke {
        &[4 << 10]
    } else {
        &[1 << 10, 4 << 10, 16 << 10]
    };
    let mut scenarios = Vec::new();
    let mut figure_walls: Vec<(usize, f64)> = Vec::new();
    for &part_bytes in part_sizes {
        let mut cfg = FullStackConfig::figure(ranks, seed);
        cfg.part_bytes = part_bytes;
        if !smoke {
            cfg.iters = 10;
        }
        let (result, walls) =
            bench_scenario(format!("figure part_bytes={part_bytes}"), &cfg, &jobs_list);
        scenarios.push(result);
        for (jobs, wall) in walls {
            match figure_walls.iter_mut().find(|(j, _)| *j == jobs) {
                Some((_, acc)) => *acc += wall,
                None => figure_walls.push((jobs, wall)),
            }
        }
    }

    // The chaos fault-sweep: the same ring through a 10%-loss wire.
    let mut chaos = FullStackConfig::chaos(ranks, 0.10, seed);
    if !smoke {
        chaos.iters = 10;
    }
    let (result, _) = bench_scenario("chaos drop_p=0.10".into(), &chaos, &jobs_list);
    scenarios.push(result);

    // Speedup gate: only meaningful on a multi-core host with both ends of
    // the axis present, and only at full (non-smoke) problem size.
    let wall_of = |j: usize| {
        figure_walls
            .iter()
            .find(|(jj, _)| *jj == j)
            .map(|&(_, w)| w)
    };
    let speedup_jobs4 = match (wall_of(1), wall_of(4)) {
        (Some(w1), Some(w4)) => Some(w1 / w4.max(1e-9)),
        _ => None,
    };
    if let Some(speedup) = speedup_jobs4 {
        println!("\nfigure sweep speedup jobs=4 vs jobs=1: {speedup:.2}x");
        if !smoke && host_cpus >= 4 && speedup < 1.5 {
            eprintln!(
                "SPEEDUP GATE FAILED: jobs=4 achieved {speedup:.2}x over jobs=1 \
                 (want >=1.5x on this {host_cpus}-cpu host)"
            );
            std::process::exit(1);
        }
    }

    let json = render_json(smoke, host_cpus, ranks, seed, &scenarios, speedup_jobs4);
    let path = partix_bench::artifacts::write_artifact(&out, "BENCH_fullstack.json", &json)
        .expect("write results");
    println!("\nwrote {}", path.display());

    // Forensics pass: re-run the chaos ring with flow tracing, arm a flight
    // recorder against mid-run panics, and dump unconditionally at the end
    // so CI always has the artifact.
    if flightrec {
        let flow_log = FlowLog::new();
        let jobs = jobs_list.iter().copied().max().unwrap_or(1);
        let (report, world, _sched) = run_fullstack_instrumented(
            &chaos,
            Executor::Sharded(jobs),
            Some(flow_log.clone()),
            Some(SAMPLING),
        );
        let sampler = world.sampler().expect("sampling enabled");
        let rec = Arc::new(
            FlightRecorder::new("fullstack_chaos", &out, sampler).with_flow_log(flow_log, 256),
        );
        rec.arm();
        let reason = if report.invariants_clean {
            "manual: --flightrec".to_string()
        } else {
            "invariant violation: dirty telemetry ledger".to_string()
        };
        match rec.dump(&reason) {
            Ok(Some(path)) => println!("wrote {}", path.display()),
            Ok(None) => {}
            Err(e) => {
                eprintln!("error: flight-recorder dump failed: {e}");
                std::process::exit(1);
            }
        }
        if !report.invariants_clean {
            std::process::exit(1);
        }
    }
}
