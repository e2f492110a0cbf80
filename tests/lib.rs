//! Shared helpers for the cross-crate system tests (the tests themselves
//! live in `tests/tests/`).

use partix_core::{MemoryRegion, PartixConfig, PrecvRequest, Proc, PsendRequest, World};

/// A matched send/receive pair over two ranks of a fresh instant world.
pub struct InstantPair {
    /// The world (kept alive for the requests).
    pub world: World,
    /// Sender process.
    pub p0: Proc,
    /// Receiver process.
    pub p1: Proc,
    /// Send request.
    pub send: PsendRequest,
    /// Receive request.
    pub recv: PrecvRequest,
    /// Sender buffer.
    pub sbuf: MemoryRegion,
    /// Receiver buffer.
    pub rbuf: MemoryRegion,
}

/// Build an instant-fabric pair with the given configuration and shape.
pub fn instant_pair(cfg: PartixConfig, partitions: u32, part_bytes: usize) -> InstantPair {
    let world = World::instant(2, cfg);
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let total = partitions as usize * part_bytes;
    let sbuf = p0.alloc_buffer(total).expect("send buffer");
    let rbuf = p1.alloc_buffer(total).expect("recv buffer");
    let send = p0
        .psend_init(&sbuf, partitions, part_bytes, 1, 0)
        .expect("psend_init");
    let recv = p1
        .precv_init(&rbuf, partitions, part_bytes, 0, 0)
        .expect("precv_init");
    InstantPair {
        world,
        p0,
        p1,
        send,
        recv,
        sbuf,
        rbuf,
    }
}

/// Deterministic pattern byte for (round, partition).
pub fn pattern(round: u64, partition: u32) -> u8 {
    (round as u8).wrapping_mul(31) ^ (partition as u8).wrapping_mul(7) ^ 0x5A
}

pub mod alloc {
    //! The one counting allocator behind the allocation gates
    //! (`alloc_regression`, `pdes_alloc`, `shm_alloc`).
    //!
    //! [`CountingAlloc`] wraps `System` and, while a [`measure`] window is
    //! open, counts every allocation (and, separately, those of at least
    //! [`LARGE`] bytes) on **every** thread of the process: progress threads
    //! and engine workers are part of the path under test, so the counters
    //! are global, not thread-local. Each gate binary installs it with
    //!
    //! ```text
    //! #[global_allocator]
    //! static ALLOCATOR: CountingAlloc = CountingAlloc;
    //! ```
    //!
    //! and is declared `harness = false`, handing its checks to [`run`]: with
    //! no libtest harness there is no second thread that could allocate while
    //! a window is open.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::hint::black_box;
    use std::panic;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// Allocations of at least this many bytes are also counted as large
    /// (payload-sized buffers, not per-WR bookkeeping).
    pub const LARGE: usize = 4096;

    static COUNTING: AtomicBool = AtomicBool::new(false);
    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Counting wrapper around the system allocator: one relaxed load per
    /// allocation while no window is open.
    pub struct CountingAlloc;

    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if size >= LARGE {
                LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    /// Allocations counted in one [`measure`] window.
    #[derive(Clone, Copy, Debug)]
    pub struct Allocs {
        /// Every allocation and reallocation.
        pub all: u64,
        /// Those of at least [`LARGE`] bytes.
        pub large: u64,
    }

    fn window<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
        ALLOCS.store(0, Ordering::Relaxed);
        LARGE_ALLOCS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::SeqCst);
        let out = f();
        COUNTING.store(false, Ordering::SeqCst);
        let allocs = Allocs {
            all: ALLOCS.load(Ordering::Relaxed),
            large: LARGE_ALLOCS.load(Ordering::Relaxed),
        };
        (out, allocs)
    }

    /// Run `f` with the counters zeroed and counting on, and return its
    /// result with the allocations made meanwhile by any thread.
    ///
    /// Panics first if [`CountingAlloc`] is not this binary's global
    /// allocator, so a gate that forgot to install it fails instead of
    /// reading zero.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
        let (probe, seen) = window(|| black_box(Vec::<u8>::with_capacity(LARGE)));
        drop(probe);
        assert!(
            seen.all >= 1 && seen.large >= 1,
            "CountingAlloc is not this binary's #[global_allocator]: an allocation gate \
             would read zero whatever the code under test does"
        );
        window(f)
    }

    /// The `main` of a `harness = false` gate binary: run every check in
    /// order on this thread, report each as libtest does (`test <name> ...
    /// ok`, then a `test result:` line), and exit non-zero if any check
    /// panicked. Arguments are ignored except `--list`, which prints the
    /// names in libtest's format instead (test runners such as cargo-nextest
    /// discover a binary's tests that way).
    pub fn run(checks: &[(&str, fn())]) {
        if std::env::args().any(|a| a == "--list") {
            for (name, _) in checks {
                println!("{name}: test");
            }
            return;
        }
        println!("\nrunning {} tests", checks.len());
        let start = std::time::Instant::now();
        let mut failed = 0;
        for (name, check) in checks {
            let ok = panic::catch_unwind(*check).is_ok();
            println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
            failed += usize::from(!ok);
        }
        println!(
            "\ntest result: {}. {} passed; {failed} failed; 0 ignored; 0 measured; \
             0 filtered out; finished in {:.2}s\n",
            if failed == 0 { "ok" } else { "FAILED" },
            checks.len() - failed,
            start.elapsed().as_secs_f64(),
        );
        if failed > 0 {
            std::process::exit(101);
        }
    }
}
