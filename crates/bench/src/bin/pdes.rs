//! Weak-scaling benchmark of the sharded conservative-sync PDES engine.
//! Writes `results/BENCH_pdes.json`.
//!
//! ```text
//! pdes [--ranks N] [--jobs LIST] [--shards N] [--pattern fanin|sweep|both]
//!      [--smoke] [--out DIR]
//! ```
//!
//! Runs each pattern once on the sequential reference executor (the global
//! `(time, shard, seq)` merge) and once per `--jobs` value on the
//! epoch-parallel engine, timing each run and **hard-gating on byte
//! equality** of the deterministic outcome (digest, event count,
//! cross-shard message count, makespan): any divergence exits non-zero.
//! `--smoke` is the CI size (10k ranks); the default exercises the paper's
//! 100k-rank scale target.
//!
//! Thread speedup is bounded by physical cores — `host_cpus` is recorded in
//! the JSON so readers can judge the `--jobs` axis honestly (on a 1-CPU
//! container the parallel engine can only tie the inline epoch loop).

use std::path::PathBuf;
use std::time::Instant;

use partix_sim::pdes::{imbalance_ratio, PdesShardStat};
use partix_workloads::pdes::{grid_dims, run_fanin, run_sweep, PdesOutcome, PdesWorkloadConfig};

struct RunRow {
    executor: String,
    wall_ms: f64,
    events_per_sec: f64,
    speedup_vs_reference: f64,
    epochs: u64,
    barrier_wait_ms: f64,
}

struct PatternResult {
    pattern: &'static str,
    nodes: u32,
    events: u64,
    cross_messages: u64,
    makespan_ns: u64,
    digest: u64,
    imbalance_ratio: f64,
    shards: Vec<PdesShardStat>,
    runs: Vec<RunRow>,
}

fn time_run(f: impl FnOnce() -> PdesOutcome) -> (PdesOutcome, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn bench_pattern(
    pattern: &'static str,
    cfg: &PdesWorkloadConfig,
    jobs_list: &[usize],
    run: impl Fn(&PdesWorkloadConfig, Option<usize>) -> PdesOutcome,
) -> Result<PatternResult, String> {
    let (reference, ref_wall) = time_run(|| run(cfg, None));
    let (events, cross, makespan_ns) = reference.report.deterministic_parts();
    let mut runs = vec![RunRow {
        executor: "reference".into(),
        wall_ms: ref_wall * 1e3,
        events_per_sec: events as f64 / ref_wall.max(1e-9),
        speedup_vs_reference: 1.0,
        epochs: 0,
        barrier_wait_ms: 0.0,
    }];
    for &jobs in jobs_list {
        let (out, wall) = time_run(|| run(cfg, Some(jobs)));
        if out.deterministic_parts() != reference.deterministic_parts() {
            return Err(format!(
                "{pattern}: jobs={jobs} diverged from the reference executor \
                 (got {:?}, want {:?})",
                out.deterministic_parts(),
                reference.deterministic_parts()
            ));
        }
        runs.push(RunRow {
            executor: format!("jobs={jobs}"),
            wall_ms: wall * 1e3,
            events_per_sec: events as f64 / wall.max(1e-9),
            speedup_vs_reference: ref_wall / wall.max(1e-9),
            epochs: out.report.epochs,
            barrier_wait_ms: out.barrier_wait_ns as f64 / 1e6,
        });
    }
    Ok(PatternResult {
        pattern,
        nodes: reference.nodes,
        events,
        cross_messages: cross,
        makespan_ns,
        digest: reference.digest,
        imbalance_ratio: imbalance_ratio(&reference.shard_stats),
        shards: reference.shard_stats,
        runs,
    })
}

fn render_json(cfg: &PdesWorkloadConfig, host_cpus: usize, patterns: &[PatternResult]) -> String {
    let mut f = String::new();
    render_into(&mut f, cfg, host_cpus, patterns).expect("format results");
    f
}

fn render_into(
    f: &mut String,
    cfg: &PdesWorkloadConfig,
    host_cpus: usize,
    patterns: &[PatternResult],
) -> std::fmt::Result {
    use std::fmt::Write;
    writeln!(f, "{{")?;
    writeln!(f, "  \"ranks\": {},", cfg.ranks)?;
    writeln!(f, "  \"shards\": {},", cfg.shards)?;
    writeln!(f, "  \"fanout\": {},", cfg.fanout)?;
    writeln!(f, "  \"sweeps\": {},", cfg.sweeps)?;
    writeln!(f, "  \"msg_bytes\": {},", cfg.msg_bytes)?;
    writeln!(f, "  \"seed\": {},", cfg.seed)?;
    writeln!(f, "  \"lookahead_ns\": {},", cfg.lookahead().as_nanos())?;
    writeln!(f, "  \"host_cpus\": {host_cpus},")?;
    writeln!(f, "  \"patterns\": [")?;
    for (i, p) in patterns.iter().enumerate() {
        writeln!(f, "    {{")?;
        writeln!(f, "      \"pattern\": \"{}\",", p.pattern)?;
        writeln!(f, "      \"nodes\": {},", p.nodes)?;
        writeln!(f, "      \"events\": {},", p.events)?;
        writeln!(f, "      \"cross_messages\": {},", p.cross_messages)?;
        writeln!(f, "      \"makespan_ns\": {},", p.makespan_ns)?;
        writeln!(f, "      \"digest\": \"{:016x}\",", p.digest)?;
        writeln!(f, "      \"imbalance_ratio\": {:.3},", p.imbalance_ratio)?;
        writeln!(f, "      \"shards\": [")?;
        for (j, s) in p.shards.iter().enumerate() {
            let sep = if j + 1 == p.shards.len() { "" } else { "," };
            writeln!(
                f,
                "        {{\"shard\": {}, \"events\": {}, \"sent_cross\": {}, \
                 \"mailbox_high_water\": {}, \"mailbox_overflows\": {}, \
                 \"slab_high_water\": {}}}{sep}",
                s.shard,
                s.events,
                s.sent_cross,
                s.mailbox_high_water,
                s.mailbox_overflows,
                s.slab_high_water,
            )?;
        }
        writeln!(f, "      ],")?;
        writeln!(f, "      \"runs\": [")?;
        for (j, r) in p.runs.iter().enumerate() {
            let sep = if j + 1 == p.runs.len() { "" } else { "," };
            writeln!(
                f,
                "        {{\"executor\": \"{}\", \"wall_ms\": {:.3}, \
                 \"events_per_sec\": {:.0}, \"speedup_vs_reference\": {:.3}, \
                 \"epochs\": {}, \"barrier_wait_ms\": {:.3}}}{sep}",
                r.executor,
                r.wall_ms,
                r.events_per_sec,
                r.speedup_vs_reference,
                r.epochs,
                r.barrier_wait_ms,
            )?;
        }
        writeln!(f, "      ]")?;
        let sep = if i + 1 == patterns.len() { "" } else { "," };
        writeln!(f, "    }}{sep}")?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn main() {
    let mut ranks: u32 = 100_000;
    let mut shards: u32 = 16;
    let mut jobs_list: Vec<usize> = vec![1, 2, 4];
    let mut pattern = String::from("both");
    let mut out = PathBuf::from("results");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => ranks = 10_000,
            "--ranks" => {
                let Some(n) = it.next().and_then(|v| v.parse::<u32>().ok()) else {
                    eprintln!("error: --ranks requires a positive integer argument");
                    std::process::exit(2);
                };
                ranks = n.max(1);
            }
            "--shards" => {
                let Some(n) = it.next().and_then(|v| v.parse::<u32>().ok()) else {
                    eprintln!("error: --shards requires a positive integer argument");
                    std::process::exit(2);
                };
                shards = n.max(1);
            }
            "--jobs" | "-j" => {
                let parsed = it.next().map(|v| {
                    v.split(',')
                        .map(|p| p.trim().parse::<usize>())
                        .collect::<Result<Vec<_>, _>>()
                });
                let Some(Ok(list)) = parsed else {
                    eprintln!("error: --jobs requires a comma-separated list, e.g. 1,2,4");
                    std::process::exit(2);
                };
                jobs_list = list;
            }
            "--pattern" => {
                let Some(p) = it.next() else {
                    eprintln!("error: --pattern requires fanin|sweep|both");
                    std::process::exit(2);
                };
                pattern = p;
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

    let cfg = PdesWorkloadConfig::new(ranks);
    let mut cfg = cfg;
    cfg.shards = shards;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (px, py) = grid_dims(ranks);
    println!(
        "pdes weak-scaling: {ranks} ranks, {shards} shards, sweep grid {px}x{py}, \
         lookahead {} ns, host_cpus {host_cpus}",
        cfg.lookahead().as_nanos()
    );

    let mut patterns: Vec<PatternResult> = Vec::new();
    let selected: Vec<&'static str> = match pattern.as_str() {
        "fanin" => vec!["fanin"],
        "sweep" => vec!["sweep"],
        "both" => vec!["fanin", "sweep"],
        other => {
            eprintln!("unknown --pattern {other} (want fanin|sweep|both)");
            std::process::exit(2);
        }
    };
    for name in selected {
        let result = match name {
            "fanin" => bench_pattern("fanin", &cfg, &jobs_list, run_fanin),
            _ => bench_pattern("sweep", &cfg, &jobs_list, run_sweep),
        };
        match result {
            Ok(p) => {
                println!(
                    "\n{}: {} nodes, {} events, {} cross-shard msgs, makespan {:.3} ms \
                     (virtual), shard imbalance {:.2}x",
                    p.pattern,
                    p.nodes,
                    p.events,
                    p.cross_messages,
                    p.makespan_ns as f64 / 1e6,
                    p.imbalance_ratio,
                );
                println!(
                    "  {:<12} {:>10} {:>14} {:>9} {:>8} {:>12}",
                    "executor", "wall_ms", "events/sec", "speedup", "epochs", "barrier_ms"
                );
                for r in &p.runs {
                    println!(
                        "  {:<12} {:>10.2} {:>14.0} {:>9.2} {:>8} {:>12.2}",
                        r.executor,
                        r.wall_ms,
                        r.events_per_sec,
                        r.speedup_vs_reference,
                        r.epochs,
                        r.barrier_wait_ms,
                    );
                }
                patterns.push(p);
            }
            Err(e) => {
                eprintln!("DETERMINISM VIOLATION: {e}");
                std::process::exit(1);
            }
        }
    }

    let json = render_json(&cfg, host_cpus, &patterns);
    let path = partix_bench::artifacts::write_artifact(&out, "BENCH_pdes.json", &json)
        .expect("write results");
    println!("\nwrote {}", path.display());
}
