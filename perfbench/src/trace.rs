//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public API; nothing
//! inside the program is instrumented. While recording is off, [`span`] costs
//! one relaxed load. While it is on, every span updates a per-kind duration
//! histogram and self-time total, and the first [`MAX_RAW`] spans are kept
//! with name, start, end and parent for [`write_jsonl`] at exit.
//!
//! A span's parent is the innermost open span on the same thread; a span
//! opened with no enclosing span on its thread (a PDES worker executing an
//! event) is parented to the open `sched.run` span, if any. Self time is a
//! span's duration minus the durations of its children on the same thread.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use partix_core::telemetry::{HistSnapshot, LogHistogram};

/// Raw spans retained for the exit dump; aggregates cover every span.
pub const MAX_RAW: usize = 200_000;

/// What a span wraps: one public call (or benchmark-owned callback).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `World` construction plus `Proc::psend_init`/`precv_init` and buffers.
    Build,
    /// `Scheduler::run`.
    Run,
    /// A benchmark-owned callback executed by the scheduler.
    Driver,
    /// `PsendRequest::start` / `PrecvRequest::start`.
    Start,
    /// `PsendRequest::pready`.
    Pready,
    /// `PsendRequest::wait` / `PrecvRequest::wait`.
    Wait,
    /// `World::telemetry_snapshot` / `World::check_invariants`.
    Telemetry,
    /// The benchmark's own output check (payload bytes, digests).
    Verify,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 8] = [
        Kind::Build,
        Kind::Run,
        Kind::Driver,
        Kind::Start,
        Kind::Pready,
        Kind::Wait,
        Kind::Telemetry,
        Kind::Verify,
    ];

    /// Span name in the dump.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Build => "core.world_build",
            Kind::Run => "sched.run",
            Kind::Driver => "bench.driver",
            Kind::Start => "core.start",
            Kind::Pready => "core.pready",
            Kind::Wait => "core.wait",
            Kind::Telemetry => "telemetry.snapshot",
            Kind::Verify => "bench.verify",
        }
    }
}

struct KindStats {
    durations: LogHistogram,
    self_ns: AtomicU64,
}

struct Global {
    epoch: Instant,
    stats: Vec<KindStats>,
    raw: Mutex<Vec<Raw>>,
}

#[derive(Clone, Copy)]
struct Raw {
    id: u64,
    parent: u64,
    kind: Kind,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    id: u64,
    child_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Spans that asked for a raw slot; only the first `MAX_RAW` get one.
static RAW_CLAIMED: AtomicUsize = AtomicUsize::new(0);
/// Id of the open `sched.run` span (0 = none): the parent of spans opened
/// on threads with nothing open.
static RUN_ROOT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn global() -> &'static Global {
    static G: OnceLock<Global> = OnceLock::new();
    G.get_or_init(|| Global {
        epoch: Instant::now(),
        stats: Kind::ALL
            .iter()
            .map(|_| KindStats {
                durations: LogHistogram::new(),
                self_ns: AtomicU64::new(0),
            })
            .collect(),
        raw: Mutex::new(Vec::new()),
    })
}

/// Turn recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    global();
    ENABLED.store(on, Ordering::Release);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drop this thread's open spans (after a caught panic unwound past them).
pub fn reset_thread() {
    STACK.with(|s| s.borrow_mut().clear());
}

/// Run `f` inside a span of `kind`.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let g = global();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = g.epoch.elapsed().as_nanos() as u64;
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .map_or_else(|| RUN_ROOT.load(Ordering::Relaxed), |o| o.id);
        s.push(Open { id, child_ns: 0 });
        parent
    });
    if kind == Kind::Run {
        RUN_ROOT.store(id, Ordering::Relaxed);
    }
    let out = f();
    let end_ns = g.epoch.elapsed().as_nanos() as u64;
    if kind == Kind::Run {
        RUN_ROOT.store(0, Ordering::Relaxed);
    }
    let dur = end_ns.saturating_sub(start_ns);
    let child_ns = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let open = s.pop().map_or(0, |o| o.child_ns);
        if let Some(up) = s.last_mut() {
            up.child_ns += dur;
        }
        open
    });
    let st = &g.stats[kind as usize];
    st.durations.record(dur);
    st.self_ns
        .fetch_add(dur.saturating_sub(child_ns), Ordering::Relaxed);
    if RAW_CLAIMED.fetch_add(1, Ordering::Relaxed) < MAX_RAW {
        g.raw.lock().expect("span buffer lock poisoned").push(Raw {
            id,
            parent,
            kind,
            tid: TID.with(|t| *t),
            start_ns,
            end_ns,
        });
    }
    out
}

/// Per-kind totals since start: duration histogram and summed self time.
pub struct KindSummary {
    /// Durations of every span of this kind, in ns.
    pub durations: HistSnapshot,
    /// Summed self time, in ns.
    pub self_ns: u64,
}

/// Snapshot the aggregates of one kind.
pub fn summary(kind: Kind) -> KindSummary {
    let st = &global().stats[kind as usize];
    KindSummary {
        durations: st.durations.snapshot(),
        self_ns: st.self_ns.load(Ordering::Relaxed),
    }
}

/// Write the retained spans as JSON lines (`id`, `parent`, `name`, `tid`,
/// `start_ns`, `end_ns`; times from process start). Returns how many.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<usize> {
    let raw = global().raw.lock().expect("span buffer lock poisoned");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in raw.iter() {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tid\":{},\"start_ns\":{},\"end_ns\":{}}}",
            r.id,
            r.parent,
            r.kind.name(),
            r.tid,
            r.start_ns,
            r.end_ns
        )?;
    }
    w.flush()?;
    Ok(raw.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        let before = summary(Kind::Verify).self_ns;
        span(Kind::Verify, || {
            span(Kind::Telemetry, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            })
        });
        set_enabled(false);
        let verify_self = summary(Kind::Verify).self_ns - before;
        let child = summary(Kind::Telemetry).durations.sum;
        assert!(child >= 20_000_000);
        assert!(verify_self < 10_000_000, "self {verify_self} ns");
    }
}
