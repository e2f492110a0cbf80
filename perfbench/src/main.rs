//! The repository benchmark: one workload per invocation.
//!
//! ```text
//! partix-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  [--rev REV] [--spans DIR]
//! ```
//!
//! Workloads (inputs are generated from `--seed`; the program only receives
//! the generated configurations):
//!
//! - `sweep3d_1024`: Fig. 14b Sweep3D cell on the sequential scheduler.
//! - `ring_chaos`: lossy full-stack ring on the sharded PDES engine, `jobs=1`.
//! - `ring_chaos_jobs2`: the same ring on the threaded executor, `jobs=2`.
//! - `shm_live`: wall-clock rounds over `ShmFabric` loopback.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it alternates untraced and traced repetitions and reports the per-layer
//! metrics, writing the retained spans to `DIR/spans_<workload>_<seed>.jsonl`.
//! The last stdout line is the JSON result; the line before it is the full
//! record (stamp, sample counts, notes) that `run.py compare` reads. The exit
//! status is non-zero when any check failed.

mod layers;
mod report;
mod ring;
mod shm;
mod sweep;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub rev: String,
    pub spans: PathBuf,
}

/// Repetitions for a run of `seconds` at `per_second` (at least 2): the
/// work is fixed by the run length, not by how fast it goes.
pub fn reps_for(seconds: u64, per_second: f64) -> usize {
    ((seconds as f64 * per_second).round() as usize).max(2)
}

const WORKLOADS: [&str; 4] = ["sweep3d_1024", "ring_chaos", "ring_chaos_jobs2", "shm_live"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        rev: "unknown".into(),
        spans: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            // Any 64-bit integer; negative seeds wrap to their two's complement.
            "--seed" => {
                args.seed = value
                    .parse::<u64>()
                    .or_else(|_| value.parse::<i64>().map(|s| s as u64))
                    .map_err(|_| bad("expected an integer"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| bad("expected 1..=600"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--rev" => args.rev = value,
            "--spans" => args.spans = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sweep3d_1024" => sweep::run(&args),
        "ring_chaos" => ring::run(&args, 1),
        "ring_chaos_jobs2" => ring::run(&args, 2),
        _ => shm::run(&args),
    };
    if args.trace {
        let path = args
            .spans
            .join(format!("spans_{}_{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path) {
            Ok(n) => println!("wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let stamp = report::Stamp {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        rev: &args.rev,
        host_cpus: sys::host_cpus(),
    };
    if report::emit(&stamp, &outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
