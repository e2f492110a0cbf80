//! `sweep3d_1024`: the paper's Fig. 14b cell on the sequential `Scheduler`.
//!
//! 8×8 ranks × 16 threads (1024 simulated cores), 32 KiB messages, 1 ms
//! compute with 4% single-thread-delay noise. One repetition runs the
//! persistent, PLogGP and timer-PLogGP aggregators back to back, each in a
//! fresh world with `copy_data` off. The wavefront driver below mirrors
//! `partix_workloads::sweep` but lives here so each call into the program can
//! be wrapped in a span. Batch work: no arrival process, one host thread.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use partix_core::telemetry::FlowLog;
use partix_core::{
    AggregatorKind, PartixConfig, PrecvRequest, PsendRequest, Scheduler, SimDuration, SimTime,
    World,
};
use partix_workloads::{NoiseModel, ThreadTiming};

use crate::layers::{self, Counters, Stages};
use crate::report::{self, Outcome};
use crate::trace::{self, span, Kind};
use crate::Args;

const ROWS: u32 = 8;
const COLS: u32 = 8;
const THREADS: u32 = 16;
const MESSAGE_BYTES: usize = 32 << 10;
const WARMUP: usize = 3;
const ITERS: usize = 10;
const NOISE_FRAC: f64 = 0.04;
/// Sample window of the traced run's `World::enable_sampling`.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(1);
/// Repetitions per second of `--seconds` (one takes ~150 ms on a 2-CPU host).
const REPS_PER_S: f64 = 6.0;
/// Traced repetitions at most: each keeps its flow log until the run ends.
const TRACED_CAP: usize = 8;

const KINDS: [AggregatorKind; 3] = [
    AggregatorKind::Persistent,
    AggregatorKind::PLogGp,
    AggregatorKind::TimerPLogGp,
];

struct Node {
    id: u32,
    inputs: Vec<PrecvRequest>,
    outputs: Vec<PsendRequest>,
    deps: AtomicU32,
}

struct Driver {
    world: World,
    sched: Scheduler,
    seed: u64,
    nodes: Vec<Arc<Node>>,
    requests_per_iter: u32,
    iter_idx: AtomicUsize,
    remaining: AtomicU32,
    iter_start: Mutex<(SimTime, Instant)>,
    /// Simulated time of every iteration, warm-up included (ns).
    sim_ns: Mutex<Vec<u64>>,
    /// Host time of every iteration (ns).
    wall_ns: Mutex<Vec<u64>>,
    timing: ThreadTiming,
}

impl Driver {
    fn start_iteration(self: &Arc<Self>) {
        *self.iter_start.lock().expect("iteration clock") = (self.world.now(), Instant::now());
        self.remaining
            .store(self.requests_per_iter, Ordering::Release);
        // Every receive starts before every send so data never outruns a
        // receive queue.
        for node in &self.nodes {
            node.deps.store(node.inputs.len() as u32, Ordering::Release);
            for r in &node.inputs {
                span(Kind::Start, || r.start()).expect("recv start");
            }
        }
        for node in &self.nodes {
            for s in &node.outputs {
                span(Kind::Start, || s.start()).expect("send start");
            }
        }
        for node in &self.nodes {
            for r in &node.inputs {
                let (me, n) = (self.clone(), node.clone());
                r.on_complete(move || {
                    span(Kind::Driver, || {
                        if n.deps.fetch_sub(1, Ordering::AcqRel) == 1 {
                            me.begin_compute(&n);
                        }
                        me.request_done();
                    })
                });
            }
            for s in &node.outputs {
                let me = self.clone();
                s.on_complete(move || span(Kind::Driver, || me.request_done()));
            }
        }
        for node in &self.nodes {
            if node.inputs.is_empty() {
                self.begin_compute(node);
            }
        }
    }

    fn begin_compute(self: &Arc<Self>, node: &Arc<Node>) {
        if node.outputs.is_empty() {
            return; // the sink's compute is off the communication path
        }
        let iter = self.iter_idx.load(Ordering::Acquire) as u64;
        let round_key = iter * self.nodes.len() as u64 + node.id as u64;
        let arrivals = self.timing.arrivals(THREADS, self.seed, round_key);
        let t0 = self.world.now();
        for (t, a) in arrivals.into_iter().enumerate() {
            let outputs = node.outputs.clone();
            self.sched.at_node(node.id, t0 + a, move || {
                span(Kind::Driver, || {
                    for out in &outputs {
                        span(Kind::Pready, || out.pready(t as u32)).expect("pready");
                    }
                })
            });
        }
    }

    fn request_done(self: &Arc<Self>) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let (sim0, wall0) = *self.iter_start.lock().expect("iteration clock");
        self.sim_ns
            .lock()
            .expect("iteration log")
            .push(self.world.now().saturating_since(sim0).as_nanos());
        self.wall_ns
            .lock()
            .expect("iteration log")
            .push(wall0.elapsed().as_nanos() as u64);
        let idx = self.iter_idx.fetch_add(1, Ordering::AcqRel);
        if idx + 1 < WARMUP + ITERS {
            let me = self.clone();
            let at = self.sched.now() + SimDuration::from_micros(5);
            self.sched
                .at_node(0, at, move || span(Kind::Driver, || me.start_iteration()));
        }
    }
}

/// One aggregator's simulation: set-up, run, and what it measured.
struct Sim {
    setup: Duration,
    events: u64,
    queue_high_water: usize,
    sim_ns: Vec<u64>,
    wall_ns: Vec<u64>,
    world: World,
}

impl Sim {
    /// Mean communication time of the measured iterations: total minus the
    /// wavefront's compute critical path (the sink's compute is off-path).
    fn mean_comm_ns(&self) -> f64 {
        let measured = &self.sim_ns[WARMUP.min(self.sim_ns.len())..];
        let mean = measured.iter().sum::<u64>() as f64 / measured.len().max(1) as f64;
        let compute_path = (ROWS + COLS - 2) as f64 * 1e6;
        (mean - compute_path).max(0.0)
    }
}

fn run_sim(kind: AggregatorKind, seed: u64, traced: bool) -> Sim {
    let t0 = Instant::now();
    let ranks = ROWS * COLS;
    let (world, sched, nodes) = span(Kind::Build, || {
        let mut cfg = PartixConfig::with_aggregator(kind);
        cfg.fabric.copy_data = false;
        let (world, sched) = World::sim(ranks, cfg);
        if traced {
            world.enable_flow_tracing(FlowLog::new());
            world.enable_sampling(SAMPLE_INTERVAL, 1 << 16);
        }
        let part = MESSAGE_BYTES / THREADS as usize;
        let mut inputs: Vec<Vec<PrecvRequest>> = (0..ranks).map(|_| Vec::new()).collect();
        let mut outputs: Vec<Vec<PsendRequest>> = (0..ranks).map(|_| Vec::new()).collect();
        for r in 0..ROWS {
            for c in 0..COLS {
                let src = r * COLS + c;
                // East edges carry tag 1, south edges tag 2.
                for (dr, dc, tag) in [(0, 1, 1), (1, 0, 2)] {
                    let (nr, nc) = (r + dr, c + dc);
                    if nr >= ROWS || nc >= COLS {
                        continue;
                    }
                    let dst = nr * COLS + nc;
                    let (ps, pd) = (world.proc(src), world.proc(dst));
                    let sbuf = ps.alloc_buffer_virtual(MESSAGE_BYTES).expect("send buffer");
                    let rbuf = pd.alloc_buffer_virtual(MESSAGE_BYTES).expect("recv buffer");
                    outputs[src as usize].push(
                        ps.psend_init(&sbuf, THREADS, part, dst, tag)
                            .expect("psend_init"),
                    );
                    inputs[dst as usize].push(
                        pd.precv_init(&rbuf, THREADS, part, src, tag)
                            .expect("precv_init"),
                    );
                }
            }
        }
        let nodes: Vec<Arc<Node>> = (0..ranks)
            .map(|id| {
                Arc::new(Node {
                    id,
                    inputs: std::mem::take(&mut inputs[id as usize]),
                    outputs: std::mem::take(&mut outputs[id as usize]),
                    deps: AtomicU32::new(0),
                })
            })
            .collect();
        (world, sched, nodes)
    });
    // Bring-up: run the channel set-up events until every request is ready.
    span(Kind::Build, || sched.run());
    let all_ready = nodes
        .iter()
        .all(|n| n.inputs.iter().all(|r| r.is_ready()) && n.outputs.iter().all(|s| s.is_ready()));
    assert!(all_ready, "sweep channels did not come up");
    let setup = t0.elapsed();

    let requests_per_iter = nodes
        .iter()
        .map(|n| (n.inputs.len() + n.outputs.len()) as u32)
        .sum();
    let driver = Arc::new(Driver {
        world: world.clone(),
        sched: sched.clone(),
        seed,
        nodes,
        requests_per_iter,
        iter_idx: AtomicUsize::new(0),
        remaining: AtomicU32::new(0),
        iter_start: Mutex::new((SimTime::ZERO, Instant::now())),
        sim_ns: Mutex::new(Vec::new()),
        wall_ns: Mutex::new(Vec::new()),
        timing: ThreadTiming {
            compute: SimDuration::from_millis(1),
            noise: NoiseModel::SingleThreadDelay { frac: NOISE_FRAC },
            jitter_per_thread_ns: 100,
            compute_jitter_frac: 3e-4,
            cores_per_node: 40,
        },
    });
    let events0 = sched.events_executed();
    span(Kind::Run, || {
        driver.start_iteration();
        sched.run()
    });
    let events = sched.events_executed() - events0;
    let sim_ns = std::mem::take(&mut *driver.sim_ns.lock().expect("iteration log"));
    let wall_ns = std::mem::take(&mut *driver.wall_ns.lock().expect("iteration log"));
    Sim {
        setup,
        events,
        queue_high_water: sched.slab_high_water(),
        sim_ns,
        wall_ns,
        world,
    }
}

/// FNV-1a over the simulated iteration times of one repetition.
fn digest(sims: &[Sim]) -> u64 {
    let mut bytes = Vec::new();
    for s in sims {
        for &t in &s.sim_ns {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
    }
    partix_verbs::conformance::fnv1a(&bytes)
}

/// Check one repetition; returns the digest and an error when it failed.
fn check(sims: &[Sim], want_digest: Option<u64>) -> (u64, Option<String>) {
    let d = digest(sims);
    for (kind, s) in KINDS.iter().zip(sims) {
        if s.sim_ns.len() != WARMUP + ITERS {
            return (
                d,
                Some(format!(
                    "{kind:?}: {} of {} iterations",
                    s.sim_ns.len(),
                    WARMUP + ITERS
                )),
            );
        }
    }
    if let Some(w) = want_digest {
        if w != d {
            return (
                d,
                Some(format!(
                    "digest {d:016x} differs from first repetition {w:016x}"
                )),
            );
        }
    }
    // The `figures check` verdict for Fig. 14b: PLogGP beats persistent by
    // more than 1.2x and the timer variant is no worse than PLogGP (2%).
    let comm: Vec<f64> = sims.iter().map(Sim::mean_comm_ns).collect();
    let (sp_plg, sp_tmr) = (comm[0] / comm[1], comm[0] / comm[2]);
    if !(sp_plg > 1.2 && sp_tmr >= sp_plg * 0.98) {
        return (
            d,
            Some(format!(
                "paper ordering violated: PLogGP {sp_plg:.3}x, timer {sp_tmr:.3}x"
            )),
        );
    }
    (d, None)
}

fn repetition(seed: u64, traced: bool) -> Vec<Sim> {
    KINDS.iter().map(|&k| run_sim(k, seed, traced)).collect()
}

/// Channels of the grid: east edges plus south edges.
fn edges() -> usize {
    (ROWS * (COLS - 1) + COLS * (ROWS - 1)) as usize
}

/// Payload bytes one simulation models (never copied: `copy_data` is off).
fn modelled_bytes() -> u64 {
    (edges() * MESSAGE_BYTES * (WARMUP + ITERS)) as u64
}

/// Host time and events of one aggregator over the untraced repetitions.
#[derive(Default)]
struct Host {
    iter_us: Vec<f64>,
    events: u64,
    sims: u64,
}

/// Run the workload: a fixed number of repetitions, about `args.seconds`
/// long on a 2-CPU host. With `--trace 1` every second repetition, up to
/// `TRACED_CAP` of them, is traced.
///
/// Throughput is robust to host hiccups: each aggregator's simulation time
/// is taken as its iteration count times its median iteration time.
pub fn run(args: &Args) -> Outcome {
    let seed = partix_sim::split_seed(args.seed, "perfbench-sweep3d", 0);
    let mut out = Outcome::default();
    let mut want = None;
    let mut setups = Vec::new();
    let mut host: [Host; 3] = Default::default();
    let (mut traced_wall, mut untraced_wall) = (Vec::new(), Vec::new());
    let (mut traced_events, mut high_water) = (0u64, 0usize);
    let mut counters = Counters::default();
    let stages = Stages::new();
    let mut frames = 0usize;
    let mut comm = [0.0f64; 3];
    for i in 0..crate::reps_for(args.seconds, REPS_PER_S) {
        let traced = args.trace && i % 2 == 1 && traced_wall.len() < TRACED_CAP;
        trace::set_enabled(traced);
        let t = Instant::now();
        let result = std::panic::catch_unwind(|| repetition(seed, traced));
        let wall = t.elapsed().as_secs_f64();
        let Ok(sims) = result else {
            trace::set_enabled(false);
            trace::reset_thread();
            out.check(Some(format!("repetition {i} panicked")));
            continue;
        };
        let (d, err) = span(Kind::Verify, || check(&sims, want));
        want.get_or_insert(d);
        out.check(err);
        for (c, s) in comm.iter_mut().zip(&sims) {
            *c = s.mean_comm_ns();
        }
        if traced {
            for s in &sims {
                traced_events += s.events;
                high_water = high_water.max(s.queue_high_water);
                counters.add(&span(Kind::Telemetry, || s.world.telemetry_snapshot()));
                stages.add(&s.world.telemetry().flows.stages);
                frames += s.world.sampler().map_or(0, |x| x.frames().len());
            }
            trace::set_enabled(false);
            traced_wall.push(wall);
            continue;
        }
        untraced_wall.push(wall);
        for (h, s) in host.iter_mut().zip(&sims) {
            setups.push(s.setup.as_secs_f64());
            h.iter_us.extend(s.wall_ns.iter().map(|&n| n as f64 / 1e3));
            h.events += s.events;
            h.sims += 1;
        }
    }
    out.note("digest", format!("{:016x}", want.unwrap_or(0)));
    out.note(
        "comm_ns",
        format!(
            "persistent {:.0} ploggp {:.0} timer {:.0}",
            comm[0], comm[1], comm[2]
        ),
    );
    out.note("loop", "batch, 1 thread");
    out.note("payload", "modelled bytes, copy_data off");
    let iters = (WARMUP + ITERS) as f64;
    let sim_s: f64 = host
        .iter()
        .map(|h| report::median(&h.iter_us) * iters / 1e6)
        .sum();
    let events: f64 = host
        .iter()
        .map(|h| h.events as f64 / h.sims.max(1) as f64)
        .sum();
    let all_us: Vec<f64> = host
        .iter()
        .flat_map(|h| h.iter_us.iter().copied())
        .collect();
    let v = &mut out.values;
    v.set("setup_s", report::median(&setups), setups.len());
    v.set("events_per_s", events / sim_s, all_us.len());
    v.set("round_us_p50", report::median(&all_us), all_us.len());
    v.set(
        "payload_gb_per_s",
        (modelled_bytes() * KINDS.len() as u64) as f64 / sim_s / 1e9,
        all_us.len(),
    );
    v.set("peak_rss_mb", crate::sys::peak_rss_mib().unwrap_or(0.0), 1);
    let reps = traced_wall.len();
    if reps > 0 {
        v.set("sim.events", traced_events as f64 / reps as f64, reps);
        v.set("sim.queue_high_water", high_water as f64, 1);
        counters.report(
            v,
            reps as u64,
            (KINDS.len() * (WARMUP + ITERS) * edges()) as u64,
        );
        stages.report(v, false);
        v.set("telemetry.sample_frames", frames as f64 / reps as f64, reps);
        v.set(
            "telemetry.trace_overhead_frac",
            report::median(&traced_wall) / report::median(&untraced_wall) - 1.0,
            reps.min(untraced_wall.len()),
        );
        let traced_ns = (traced_wall.iter().sum::<f64>() * 1e9) as u64;
        layers::report_spans(v, reps, traced_events, traced_ns);
    }
    out
}
