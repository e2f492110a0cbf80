//! `shm_live`: wall-clock partitioned rounds over `ShmFabric` loopback.
//!
//! `World::with_fabric(2, PLogGp, ShmFabric::loopback())` with two channels
//! from rank 0 to rank 1. A closed loop with one client thread: each round
//! is `start` on both sides, 16 `pready`s from the client thread, then a
//! wait on both sides; the next round starts only after both complete.
//! Phase A moves 16 × 64 B partitions (latency-bound), phase B 16 × 64 KiB
//! (bandwidth-bound); blocks of the two alternate so both see the same host
//! conditions. Before each round the client writes a round-unique stamp into
//! every partition of the send buffer, and after it every byte received is
//! compared with what was sent. Besides the client thread, the fabric runs
//! one progress thread.
//!
//! The aggregator is PLogGP, not timer-PLogGP: on a wall-clock world the
//! δ-timer spawns a sleeper thread per transport group and round (more
//! threads than the host has CPUs), and rounds under it can stall with one
//! partition posted twice and never complete.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use partix_core::telemetry::FlowLog;
use partix_core::{
    AggregatorKind, MemoryRegion, PartixConfig, PrecvRequest, PsendRequest, SimDuration, World,
};
use partix_verbs::ShmFabric;

use crate::layers::{self, Counters, Stages};
use crate::report::{self, Outcome};
use crate::sys;
use crate::trace::{self, span, Kind};
use crate::Args;

const PARTS: u32 = 16;
const SMALL: usize = 64;
const LARGE: usize = 64 << 10;
/// Worlds built to time set-up; the last one is measured.
const SETUPS: usize = 15;
/// Rounds per phase-A and phase-B block.
const BLOCK_A: usize = 800;
const BLOCK_B: usize = 16;
/// Block pairs per second of `--seconds` (one takes ~45 ms on a 2-CPU host).
const PAIRS_PER_S: f64 = 21.0;
/// A round still incomplete after this long has failed.
const ROUND_DEADLINE: Duration = Duration::from_secs(10);
/// Progress-thread name as `/proc` shows it (15 bytes).
const PROGRESS_THREAD: &str = "partix-shm-prog";
/// Sample window of the traced pass's wall-clock sampler.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(1);

/// One channel from rank 0 to rank 1 with a mirror of its send buffer.
struct Channel {
    part_bytes: usize,
    send: PsendRequest,
    recv: PrecvRequest,
    sbuf: MemoryRegion,
    rbuf: MemoryRegion,
    /// What the send buffer holds; the receive buffer must match it.
    expect: Vec<u8>,
    got: Vec<u8>,
}

impl Channel {
    fn open(world: &World, part_bytes: usize, seed: u64) -> Channel {
        let (p0, p1) = (world.proc(0), world.proc(1));
        let len = PARTS as usize * part_bytes;
        let sbuf = p0.alloc_buffer(len).expect("send buffer");
        let rbuf = p1.alloc_buffer(len).expect("recv buffer");
        let tag = part_bytes as u32;
        let send = p0
            .psend_init(&sbuf, PARTS, part_bytes, 1, tag)
            .expect("psend_init");
        let recv = p1
            .precv_init(&rbuf, PARTS, part_bytes, 0, tag)
            .expect("precv_init");
        let expect = (0..len)
            .map(|i| {
                (partix_sim::split_seed(seed, "shm-payload", (i / 8) as u64) >> (i % 8 * 8)) as u8
            })
            .collect();
        Channel {
            part_bytes,
            send,
            recv,
            sbuf,
            rbuf,
            expect,
            got: vec![0; len],
        }
    }

    fn ready(&self) -> bool {
        self.send.is_ready() && self.recv.is_ready()
    }

    /// Stamp round `round` into every partition and publish the buffer.
    fn prepare(&mut self, seed: u64, round: u64) {
        for p in 0..PARTS as usize {
            let stamp = partix_sim::split_seed(seed, "shm-round", round << 8 | p as u64);
            let at = p * self.part_bytes;
            self.expect[at..at + 8].copy_from_slice(&stamp.to_le_bytes());
        }
        self.sbuf.write(0, &self.expect).expect("write send buffer");
    }

    /// One timed round. Returns its wall time or the error that ended it.
    fn round(&self) -> Result<Duration, String> {
        let t = Instant::now();
        span(Kind::Start, || self.recv.start()).map_err(|e| format!("recv start: {e}"))?;
        span(Kind::Start, || self.send.start()).map_err(|e| format!("send start: {e}"))?;
        for i in 0..PARTS {
            span(Kind::Pready, || self.send.pready(i)).map_err(|e| format!("pready: {e}"))?;
        }
        span(Kind::Wait, || self.wait_both(t + ROUND_DEADLINE))?;
        Ok(t.elapsed())
    }

    /// `MPI_Wait` on both sides, built from `test` so that a round that
    /// never completes fails at `deadline` instead of hanging the run.
    fn wait_both(&self, deadline: Instant) -> Result<(), String> {
        loop {
            if let Some(e) = self.send.error() {
                return Err(format!("send failed: {e}"));
            }
            if self.send.test() && self.recv.test() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "{} B round incomplete after {ROUND_DEADLINE:?}: {} of {PARTS} partitions arrived",
                    self.part_bytes,
                    self.recv.arrived_count()
                ));
            }
            std::thread::yield_now();
        }
    }

    /// Compare every received byte with what was sent.
    fn verify(&mut self) -> Option<String> {
        span(Kind::Verify, || {
            self.rbuf.read(0, &mut self.got).expect("read recv buffer");
            let bad = self
                .got
                .iter()
                .zip(&self.expect)
                .position(|(a, b)| a != b)?;
            Some(format!(
                "{} B partitions: byte {bad} differs",
                self.part_bytes
            ))
        })
    }
}

struct Live {
    world: World,
    fabric: Arc<ShmFabric>,
    small: Channel,
    large: Channel,
}

/// Build a world and bring both channels up; returns it with the set-up time.
fn setup(seed: u64) -> (Live, Duration) {
    let t = Instant::now();
    let live = span(Kind::Build, || {
        let fabric = ShmFabric::loopback();
        let world = World::with_fabric(
            2,
            PartixConfig::with_aggregator(AggregatorKind::PLogGp),
            fabric.clone(),
        );
        let small = Channel::open(&world, SMALL, seed);
        let large = Channel::open(&world, LARGE, seed);
        let (p0, p1) = (world.proc(0), world.proc(1));
        while !(small.ready() && large.ready()) {
            assert!(t.elapsed() < ROUND_DEADLINE, "shm channels did not come up");
            p0.progress();
            p1.progress();
            std::thread::yield_now();
        }
        Live {
            world,
            fabric,
            small,
            large,
        }
    });
    (live, t.elapsed())
}

/// Sustained `memcpy` bandwidth (GB/s) at `bytes`, median of 7 trials.
fn memcpy_gb_per_s(bytes: usize) -> f64 {
    let src = vec![0x5Au8; bytes];
    let mut dst = vec![0u8; bytes];
    let mut trials = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        let mut copied = 0usize;
        while t.elapsed() < Duration::from_millis(15) {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            copied += bytes;
        }
        trials.push(copied as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    report::median(&trials)
}

/// Fabric progress-engine counters.
#[derive(Clone, Copy, Default)]
struct Fab {
    iterations: u64,
    wakeups: u64,
    data: u64,
    acks: u64,
    stalls: u64,
}

fn fab(f: &ShmFabric) -> Fab {
    Fab {
        iterations: f.progress_iterations(),
        wakeups: f.progress_wakeups(),
        data: f.data_records(),
        acks: f.ack_records(),
        stalls: f.ring_full_stalls(),
    }
}

/// Round samples of one pass.
#[derive(Default)]
struct Pass {
    small_us: Vec<f64>,
    large_us: Vec<f64>,
    /// Per phase-A block: partitions delivered per second.
    small_rates: Vec<f64>,
    rounds: u64,
}

impl Pass {
    /// Phase-B payload bandwidth at the median round time.
    fn gb_per_s(&self) -> f64 {
        let us = report::median(&self.large_us);
        if us > 0.0 {
            (PARTS as usize * LARGE) as f64 / us / 1e3
        } else {
            0.0
        }
    }
}

/// Run `pairs` phase-A blocks, each followed by a phase-B block.
fn pass(live: &mut Live, seed: u64, round: &mut u64, pairs: usize, out: &mut Outcome) -> Pass {
    let mut p = Pass::default();
    let Live { small, large, .. } = live;
    for _ in 0..pairs {
        for (ch, block) in [(&mut *small, BLOCK_A), (&mut *large, BLOCK_B)] {
            let mut busy = 0.0;
            for _ in 0..block {
                *round += 1;
                ch.prepare(seed, *round);
                match ch.round() {
                    Ok(d) => {
                        let us = d.as_secs_f64() * 1e6;
                        busy += us;
                        if ch.part_bytes == SMALL {
                            p.small_us.push(us);
                        } else {
                            p.large_us.push(us);
                        }
                        out.check(ch.verify());
                    }
                    Err(e) => {
                        out.check(Some(e));
                        return p;
                    }
                }
                p.rounds += 1;
            }
            if ch.part_bytes == SMALL {
                p.small_rates
                    .push((block * PARTS as usize) as f64 / (busy / 1e6));
            }
        }
    }
    p
}

/// Run the workload for `args.seconds`.
pub fn run(args: &Args) -> Outcome {
    let seed = partix_sim::split_seed(args.seed, "perfbench-shm", 0);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            retire(old);
        }
        let (l, d) = setup(seed);
        setups.push(d.as_secs_f64());
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    let memcpy = memcpy_gb_per_s(PARTS as usize * LARGE);
    let llc = sys::llc_bytes().unwrap_or(0);
    let mut round = 0u64;
    let pairs = crate::reps_for(args.seconds, PAIRS_PER_S);
    let untraced = if args.trace { pairs / 2 } else { pairs };
    let base = pass(&mut live, seed, &mut round, untraced, &mut out);

    let p99 = report::quantile(&base.small_us, 0.99);
    let gbps = base.gb_per_s();
    out.note(
        "round_us_p99",
        format!("{p99:.1} (n={})", base.small_us.len()),
    );
    out.note(
        "memcpy_gb_per_s",
        format!("{memcpy:.3} at {} B, LLC {llc} B", PARTS as usize * LARGE),
    );
    out.note("loop", "closed, 1 client thread + 1 progress thread");
    out.note("payload", "copied and verified every round");
    let v = &mut out.values;
    v.set("setup_s", report::median(&setups), setups.len());
    v.set(
        "events_per_s",
        report::median(&base.small_rates),
        base.small_rates.len(),
    );
    v.set(
        "round_us_p50",
        report::median(&base.small_us),
        base.small_us.len(),
    );
    v.set("payload_gb_per_s", gbps, base.large_us.len());
    v.set("peak_rss_mb", sys::peak_rss_mib().unwrap_or(0.0), 1);

    if args.trace {
        let traced = pairs - untraced;
        trace_pass(
            &mut live, seed, &mut round, traced, &base, memcpy, llc, &mut out,
        );
    }
    retire(live);
    out
}

/// The traced half: spans on, flow tracing and a wall-clock sampler attached.
#[allow(clippy::too_many_arguments)]
fn trace_pass(
    live: &mut Live,
    seed: u64,
    round: &mut u64,
    pairs: usize,
    base: &Pass,
    memcpy: f64,
    llc: u64,
    out: &mut Outcome,
) {
    live.world.enable_flow_tracing(FlowLog::new());
    live.fabric
        .attach_sampler(live.world.enable_sampling(SAMPLE_INTERVAL, 1 << 12));
    let mut c0 = Counters::default();
    c0.add(&live.world.telemetry_snapshot());
    let f0 = fab(&live.fabric);
    let cpu0 = (sys::process_cpu_s(), sys::threads_cpu_s(PROGRESS_THREAD));
    let t0 = Instant::now();
    trace::set_enabled(true);
    let traced = pass(live, seed, round, pairs, out);
    trace::set_enabled(false);
    let wall = t0.elapsed();
    let cpu1 = (sys::process_cpu_s(), sys::threads_cpu_s(PROGRESS_THREAD));
    let f1 = fab(&live.fabric);
    let mut c1 = Counters::default();
    c1.add(&live.world.telemetry_snapshot());

    let v = &mut out.values;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let records = (f1.data - f0.data) + (f1.acks - f0.acks);
    v.set(
        "shm.iterations_per_record",
        ratio(f1.iterations - f0.iterations, records),
        1,
    );
    v.set(
        "shm.wakeups_per_round",
        ratio(f1.wakeups - f0.wakeups, traced.rounds),
        1,
    );
    v.set(
        "shm.acks_per_data_record",
        ratio(f1.acks - f0.acks, f1.data - f0.data),
        1,
    );
    v.set("shm.ring_full_stalls", (f1.stalls - f0.stalls) as f64, 1);
    v.set(
        "shm.ring_high_water",
        live.fabric.ring_occupancy_high_water() as f64,
        1,
    );
    let per_s = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) => (b - a) / wall.as_secs_f64(),
        _ => 0.0,
    };
    v.set("proc.cpu_s_per_s", per_s(cpu0.0, cpu1.0), 1);
    v.set("shm.progress_cpu_s_per_s", per_s(cpu0.1, cpu1.1), 1);
    v.set("shm.memcpy_gb_per_s", memcpy, 7);
    v.set("shm.memcpy_buf_bytes", (PARTS as usize * LARGE) as f64, 1);
    v.set("host.llc_bytes", llc as f64, 1);
    let gbps = base.gb_per_s();
    v.set(
        "shm.roofline_frac",
        if memcpy > 0.0 { gbps / memcpy } else { 0.0 },
        1,
    );
    v.set(
        "shm.round_us_p99",
        report::quantile(&base.small_us, 0.99),
        base.small_us.len(),
    );
    v.set("shm.round_samples", base.small_us.len() as f64, 1);
    c1.since(&c0).report(v, traced.rounds, 1);
    let stages = Stages::new();
    stages.add(&live.world.telemetry().flows.stages);
    stages.report(v, true);
    v.set(
        "telemetry.sample_frames",
        live.world.sampler().map_or(0, |s| s.frames().len()) as f64,
        1,
    );
    v.set(
        "telemetry.trace_overhead_frac",
        report::median(&traced.small_us) / report::median(&base.small_us) - 1.0,
        traced.small_us.len().min(base.small_us.len()),
    );
    layers::report_spans(v, traced.rounds as usize, 0, wall.as_nanos() as u64);
}

/// Tear a world down and stop its progress thread.
fn retire(live: Live) {
    let Live {
        world,
        fabric,
        small,
        large,
    } = live;
    drop((small, large, world));
    fabric.shutdown();
}
