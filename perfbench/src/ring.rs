//! `ring_chaos` / `ring_chaos_jobs2`: the full verbs stack on the sharded
//! PDES engine over a lossy wire.
//!
//! A `FullStackConfig::chaos` ring of 8 ranks with 5% seeded wire drops:
//! rank `r` sends 16 × 4 KiB partitions to `r + 1` and receives from `r - 1`
//! every iteration. Unlike the stock chaos ring, `copy_data` is on, so
//! payload bytes really move and are checked. A run builds `SETUPS` worlds on
//! `World::sim_sharded` at the workload's job count, timing each until every
//! channel is up, then runs repetitions of `ITERS` iterations on the last one.
//! Batch work: `jobs=1` executes the inline epoch loop on one thread; `jobs=2`
//! the barrier executor on two worker threads while the calling thread waits.
//! The first repetition must produce the same completion and ledger digests
//! as the other executor, and every repetition must deliver every byte with
//! all conservation laws clean.
//!
//! The driver follows the determinism rules of `partix_workloads::fullstack`:
//! callbacks touch only their own rank, round chaining runs on rank 0 through
//! notes sent one lookahead ahead, and send buffers are frozen after set-up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use partix_core::telemetry::FlowLog;
use partix_core::{
    MemoryRegion, PrecvRequest, PsendRequest, Scheduler, SimDuration, SimTime, World,
};
use partix_workloads::FullStackConfig;

use crate::layers::{self, Counters, Stages};
use crate::report::{self, Outcome};
use crate::trace::{self, span, Kind};
use crate::Args;

const RANKS: u32 = 8;
const DROP_P: f64 = 0.05;
/// Iterations per repetition.
const ITERS: usize = 1600;
/// Worlds built to time set-up; the last one is measured.
const SETUPS: usize = 15;
/// Sample window of the traced run's `World::enable_sampling`.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(1);
/// Repetitions per second of `--seconds` at `jobs=1` and `jobs=2`, so one
/// run takes about `--seconds` on a 2-CPU host.
const REPS_PER_S: f64 = 5.0;
const REPS_PER_S_THREADED: f64 = 0.6;

/// Deterministic payload byte `i` of rank `r`'s send buffer.
fn payload_byte(seed: u64, r: u32, i: usize) -> u8 {
    ((i as u64).wrapping_mul(0x9E37) ^ seed ^ ((r as u64) << 3)) as u8
}

struct Link {
    send: PsendRequest,
    recv: PrecvRequest,
    rbuf: MemoryRegion,
}

/// One completion: `(iteration, side, virtual ns)`, side 0 = send.
type Record = (u64, u8, u64);

struct Coord {
    sched: Scheduler,
    cfg: FullStackConfig,
    lookahead: SimDuration,
    links: Vec<Link>,
    /// Per-rank completion logs; each touched only by its own shard.
    samples: Vec<Mutex<Vec<Record>>>,
    side_pending: AtomicU32,
    iter: AtomicUsize,
    iters_done: AtomicU64,
    /// Host time of each iteration (ns), stamped on rank 0.
    wall_ns: Mutex<(Instant, Vec<u64>)>,
}

impl Coord {
    /// Start the next iteration: per-rank start events one lookahead out.
    fn start_iter(self: &Arc<Self>) {
        let iter = self.iter.load(Ordering::Acquire) as u64;
        let t0 = self.sched.now() + self.lookahead;
        self.side_pending.store(2 * RANKS, Ordering::Release);
        for r in 0..RANKS {
            let me = self.clone();
            self.sched.at_node(r, t0, move || {
                span(Kind::Driver, || me.rank_start(r, iter, t0))
            });
        }
    }

    /// Per-rank iteration start, executing on rank `r`'s shard.
    fn rank_start(self: &Arc<Self>, r: u32, iter: u64, t0: SimTime) {
        let link = &self.links[r as usize];
        span(Kind::Start, || link.recv.start()).expect("recv start");
        span(Kind::Start, || link.send.start()).expect("send start");
        let me = self.clone();
        link.send
            .on_complete(move || span(Kind::Driver, || me.side_done(r, 0, iter)));
        let me = self.clone();
        link.recv
            .on_complete(move || span(Kind::Driver, || me.side_done(r, 1, iter)));
        // Deterministic per-(rank, partition, iteration) arrival stagger.
        let spread = self.cfg.spread.as_nanos();
        for p in 0..self.cfg.partitions {
            let mix = partix_sim::split_seed(
                self.cfg.seed,
                "perfbench-ring-pready",
                (iter << 40) ^ ((r as u64) << 20) ^ p as u64,
            );
            let off = mix % (spread + 1);
            let send = link.send.clone();
            self.sched
                .at_node(r, t0 + SimDuration::from_nanos(off), move || {
                    span(Kind::Driver, || {
                        span(Kind::Pready, || send.pready(p)).expect("pready")
                    })
                });
        }
    }

    /// One side of rank `r` finished `iter`; runs on rank `r`'s shard.
    fn side_done(self: &Arc<Self>, r: u32, side: u8, iter: u64) {
        let now = self.sched.now();
        self.samples[r as usize]
            .lock()
            .expect("completion log")
            .push((iter, side, now.as_nanos()));
        let me = self.clone();
        self.sched.at_node(0, now + self.lookahead, move || {
            span(Kind::Driver, || me.side_note())
        });
    }

    /// One completion note on rank 0; the last of an iteration chains on.
    fn side_note(self: &Arc<Self>) {
        if self.side_pending.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        {
            let mut w = self.wall_ns.lock().expect("iteration clock");
            let ns = w.0.elapsed().as_nanos() as u64;
            w.1.push(ns);
            w.0 = Instant::now();
        }
        self.iters_done.fetch_add(1, Ordering::AcqRel);
        let next = self.iter.fetch_add(1, Ordering::AcqRel) + 1;
        if next < self.cfg.iters {
            self.start_iter();
        }
    }
}

/// A world with every channel up, ready for repetitions.
struct Ring {
    world: World,
    sched: Scheduler,
    coord: Arc<Coord>,
}

/// What one repetition measured.
struct Rep {
    run: Duration,
    events: u64,
    digest: u64,
    ledger_digest: u64,
    wall_ns: Vec<u64>,
    error: Option<String>,
}

fn config(seed: u64) -> FullStackConfig {
    let mut cfg = FullStackConfig::chaos(RANKS, DROP_P, seed);
    cfg.iters = ITERS;
    cfg.partix.fabric.copy_data = true;
    cfg
}

impl Ring {
    /// Build the world and bring every channel up; returns the set-up time.
    fn setup(cfg: &FullStackConfig, jobs: usize) -> (Ring, Duration) {
        let t0 = Instant::now();
        let total = cfg.partitions as usize * cfg.part_bytes;
        let ready = Arc::new(AtomicU32::new(0));
        let (world, sched, links) = span(Kind::Build, || {
            let (world, sched) = World::sim_sharded(RANKS, cfg.partix.clone(), jobs);
            let mut links = Vec::with_capacity(RANKS as usize);
            for r in 0..RANKS {
                let proc = world.proc(r);
                let sbuf = proc.alloc_buffer(total).expect("send buffer");
                let bytes: Vec<u8> = (0..total).map(|i| payload_byte(cfg.seed, r, i)).collect();
                sbuf.write(0, &bytes).expect("fill send buffer");
                let rbuf = proc.alloc_buffer(total).expect("recv buffer");
                let (dst, src) = ((r + 1) % RANKS, (r + RANKS - 1) % RANKS);
                let send = proc
                    .psend_init(&sbuf, cfg.partitions, cfg.part_bytes, dst, 7)
                    .expect("psend_init");
                let recv = proc
                    .precv_init(&rbuf, cfg.partitions, cfg.part_bytes, src, 7)
                    .expect("precv_init");
                // Counting is commutative, so shard order cannot matter.
                let note = |ready: Arc<AtomicU32>| {
                    move || {
                        ready.fetch_add(1, Ordering::AcqRel);
                    }
                };
                send.on_ready(note(ready.clone()));
                recv.on_ready(note(ready.clone()));
                links.push(Link { send, recv, rbuf });
            }
            sched.run();
            (world, sched, links)
        });
        let up = ready.load(Ordering::Acquire);
        assert_eq!(up, 2 * RANKS, "{up} of {} channel ends ready", 2 * RANKS);
        let setup = t0.elapsed();
        let coord = Arc::new(Coord {
            sched: sched.clone(),
            cfg: cfg.clone(),
            lookahead: sched.sharded_lookahead().expect("sharded scheduler"),
            links,
            samples: (0..RANKS).map(|_| Mutex::new(Vec::new())).collect(),
            side_pending: AtomicU32::new(0),
            iter: AtomicUsize::new(0),
            iters_done: AtomicU64::new(0),
            wall_ns: Mutex::new((Instant::now(), Vec::new())),
        });
        (
            Ring {
                world,
                sched,
                coord,
            },
            setup,
        )
    }

    /// Run one repetition of `ITERS` iterations and check it.
    fn rep(&self) -> Rep {
        let c = &self.coord;
        let total = c.cfg.partitions as usize * c.cfg.part_bytes;
        for link in &c.links {
            link.rbuf.fill(0, total, 0).expect("clear recv buffer");
        }
        for log in &c.samples {
            log.lock().expect("completion log").clear();
        }
        c.iter.store(0, Ordering::Release);
        c.iters_done.store(0, Ordering::Release);
        let t = Instant::now();
        c.wall_ns.lock().expect("iteration clock").0 = t;
        let events = span(Kind::Run, || {
            c.start_iter();
            self.sched.run()
        });
        let run = t.elapsed();

        let mut error = None;
        let (digest, ledger_digest) = span(Kind::Verify, || {
            let done = c.iters_done.load(Ordering::Acquire);
            if done != ITERS as u64 {
                error.get_or_insert(format!("{done} of {ITERS} iterations completed"));
            }
            for (r, link) in c.links.iter().enumerate() {
                let src = (r as u32 + RANKS - 1) % RANKS;
                let got = link.rbuf.read_vec(0, total).expect("read recv buffer");
                if (0..total).any(|i| got[i] != payload_byte(c.cfg.seed, src, i)) {
                    error.get_or_insert(format!("rank {r} received wrong payload bytes"));
                }
            }
            let mut bytes = Vec::new();
            for (rank, log) in c.samples.iter().enumerate() {
                let log = log.lock().expect("completion log");
                bytes.extend_from_slice(&(rank as u64).to_le_bytes());
                bytes.extend_from_slice(&(log.len() as u64).to_le_bytes());
                for &(iter, side, at) in log.iter() {
                    bytes.extend_from_slice(&iter.to_le_bytes());
                    bytes.push(side);
                    bytes.extend_from_slice(&at.to_le_bytes());
                }
            }
            let (snapshot, report) = span(Kind::Telemetry, || {
                (
                    self.world.telemetry_snapshot(),
                    self.world.check_invariants(),
                )
            });
            if !report.is_clean() {
                error.get_or_insert(format!(
                    "{} conservation laws violated",
                    report.violations.len()
                ));
            }
            (
                partix_verbs::conformance::fnv1a(&bytes),
                snapshot.ledger_digest(),
            )
        });
        let wall_ns = std::mem::take(&mut c.wall_ns.lock().expect("iteration clock").1);
        Rep {
            run,
            events,
            digest,
            ledger_digest,
            wall_ns,
            error,
        }
    }
}

/// Cumulative PDES engine counters: barrier wait (ns), cross-shard messages.
fn engine(s: &Scheduler) -> (u64, u64) {
    let cross = s.pdes_report().map_or(0, |r| r.cross_messages);
    (s.pdes_barrier_wait_ns(), cross)
}

/// Run the workload at `jobs` worker threads: a fixed number of
/// repetitions, about `args.seconds` long on a 2-CPU host. With `--trace 1`
/// the second half of the repetitions is traced.
pub fn run(args: &Args, jobs: usize) -> Outcome {
    let cfg = config(partix_sim::split_seed(args.seed, "perfbench-ring", 0));
    let total = cfg.partitions as usize * cfg.part_bytes;
    let mut out = Outcome::default();
    let caught = |out: &mut Outcome, what: &str| {
        trace::set_enabled(false);
        trace::reset_thread();
        out.check(Some(format!("{what} panicked")));
    };
    // The other executor runs one untimed repetition: the reference digests.
    let other = if jobs == 1 { 2 } else { 1 };
    let want = match catch_unwind(|| Ring::setup(&cfg, other).0.rep()) {
        Ok(r) => {
            out.check(r.error.map(|e| format!("jobs={other}: {e}")));
            Some((r.digest, r.ledger_digest))
        }
        Err(_) => {
            caught(&mut out, &format!("jobs={other} repetition"));
            None
        }
    };
    let mut setups = Vec::new();
    let mut ring = None;
    for _ in 0..SETUPS {
        match catch_unwind(|| Ring::setup(&cfg, jobs)) {
            Ok((r, d)) => {
                setups.push(d.as_secs_f64());
                ring = Some(r);
            }
            Err(_) => caught(&mut out, "set-up"),
        }
    }
    let Some(ring) = ring else {
        return out;
    };

    let per_s = if jobs == 1 {
        REPS_PER_S
    } else {
        REPS_PER_S_THREADED
    };
    let reps = crate::reps_for(args.seconds, per_s);
    let untraced = if args.trace { reps / 2 } else { reps };
    let (mut iter_us, mut untraced_events) = (Vec::new(), 0u64);
    let (mut traced_wall, mut untraced_wall) = (Vec::new(), Vec::new());
    let (mut traced_events, mut traced_run_ns, mut traced_epochs) = (0u64, 0u64, 0u64);
    let mut before = None;
    for i in 0..reps {
        if i == untraced {
            ring.world.enable_flow_tracing(FlowLog::new());
            ring.world.enable_sampling(SAMPLE_INTERVAL, 1 << 16);
            let mut c = Counters::default();
            c.add(&ring.world.telemetry_snapshot());
            before = Some((c, engine(&ring.sched)));
            trace::set_enabled(true);
        }
        let t = Instant::now();
        let r = match catch_unwind(AssertUnwindSafe(|| ring.rep())) {
            Ok(r) => r,
            Err(_) => {
                // The world is in an unknown state: stop here.
                caught(&mut out, &format!("repetition {i}"));
                break;
            }
        };
        let wall = t.elapsed().as_secs_f64();
        let mut err = r.error;
        if let (0, Some(w)) = (i, want) {
            if (r.digest, r.ledger_digest) != w {
                err.get_or_insert(format!(
                    "digests {:016x}/{:016x} differ from jobs={other} {:016x}/{:016x}",
                    r.digest, r.ledger_digest, w.0, w.1
                ));
            }
        }
        out.check(err);
        if i >= untraced {
            traced_wall.push(wall);
            traced_events += r.events;
            traced_run_ns += r.run.as_nanos() as u64;
            // The engine reports the epochs of its most recent run only.
            traced_epochs += ring.sched.pdes_report().map_or(0, |p| p.epochs);
            continue;
        }
        untraced_wall.push(wall);
        untraced_events += r.events;
        iter_us.extend(r.wall_ns.iter().map(|&n| n as f64 / 1e3));
    }
    trace::set_enabled(false);

    if let Some((d, l)) = want {
        out.note("digest", format!("{d:016x}"));
        out.note("ledger_digest", format!("{l:016x}"));
    }
    out.note("loop", format!("batch, {jobs} worker thread(s)"));
    out.note("payload", "copied and verified, copy_data on");
    let v = &mut out.values;
    v.set("setup_s", report::median(&setups), setups.len());
    // Throughput at the median iteration time, robust to host hiccups.
    let iter_s = report::median(&iter_us) / 1e6;
    let events_per_iter = untraced_events as f64 / iter_us.len().max(1) as f64;
    v.set("events_per_s", events_per_iter / iter_s, iter_us.len());
    v.set("round_us_p50", iter_s * 1e6, iter_us.len());
    v.set(
        "payload_gb_per_s",
        (RANKS as usize * total) as f64 / iter_s / 1e9,
        iter_us.len(),
    );
    v.set("peak_rss_mb", crate::sys::peak_rss_mib().unwrap_or(0.0), 1);

    let n = traced_wall.len();
    let Some((c0, e0)) = before.filter(|_| n > 0) else {
        return out;
    };
    let per_rep = |x: u64| x as f64 / n as f64;
    let e1 = engine(&ring.sched);
    let mut c1 = Counters::default();
    c1.add(&ring.world.telemetry_snapshot());
    v.set("sim.events", per_rep(traced_events), n);
    v.set(
        "sim.queue_high_water",
        ring.sched.slab_high_water() as f64,
        1,
    );
    v.set(
        "pdes.barrier_wait_frac",
        (e1.0 - e0.0) as f64 / (traced_run_ns as f64 * jobs as f64),
        n,
    );
    v.set(
        "pdes.imbalance_ratio",
        partix_sim::pdes::imbalance_ratio(&ring.sched.pdes_shard_stats()),
        1,
    );
    v.set(
        "pdes.events_per_epoch",
        traced_events as f64 / traced_epochs.max(1) as f64,
        n,
    );
    v.set("pdes.cross_messages", per_rep(e1.1 - e0.1), n);
    let mailbox = ring.sched.pdes_report().map_or(0, |p| p.channel_high_water);
    v.set("pdes.mailbox_high_water", mailbox as f64, 1);
    c1.since(&c0)
        .report(v, n as u64, (ITERS * RANKS as usize) as u64);
    let stages = Stages::new();
    stages.add(&ring.world.telemetry().flows.stages);
    stages.report(v, false);
    let frames = ring.world.sampler().map_or(0, |s| s.frames().len());
    v.set("telemetry.sample_frames", per_rep(frames as u64), n);
    v.set(
        "telemetry.trace_overhead_frac",
        report::median(&traced_wall) / report::median(&untraced_wall) - 1.0,
        n.min(untraced_wall.len()),
    );
    let traced_ns = (traced_wall.iter().sum::<f64>() * 1e9) as u64;
    layers::report_spans(v, n, traced_events, traced_ns);
    out
}
