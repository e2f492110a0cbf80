//! Order-preserving parallel fan-out across worker threads.
//!
//! [`par_map`] is the one primitive the experiment harnesses and the
//! sharded PDES engine share: a parallel map over owned items, fanned out
//! across scoped worker threads pulling from a shared atomic work index (so
//! uneven item costs still balance), with output order matching input
//! order. Callers that hand it independent, separately seeded simulations
//! get byte-identical results at any job count; the PDES engine hands it
//! one shard group per worker and synchronises epochs internally with the
//! crate's spin-then-park epoch barrier (see [`crate::pdes`]).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

/// Default worker count: the machine's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `jobs` worker threads, preserving input
/// order in the output. `jobs <= 1` (or a single item) degenerates to a
/// plain serial map with no threads spawned. Workers claim items through a
/// shared counter, so long and short cells interleave instead of being
/// dealt out in fixed blocks. A panic in `f` propagates to the caller.
///
/// Exactly `min(jobs, items.len())` workers are spawned. A caller whose
/// items rendezvous with each other (e.g. through an epoch barrier) may
/// therefore rely on every item being claimed by a distinct live worker
/// **only** when `items.len() <= jobs` — the PDES epoch loop passes
/// exactly one shard group per worker for this reason.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Hand each item to exactly one worker via take(), and collect results
    // back into per-index slots so output order matches input order.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|s| {
        let (f, work, results, next) = (&f, &work, &results, &next);
        for _ in 0..jobs {
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i].lock().take().expect("item claimed once");
                *results[i].lock() = Some(f(item));
            });
        }
    });

    results
        .into_iter()
        .map(|m| m.into_inner().expect("worker filled slot"))
        .collect()
}

/// Busy-poll rounds a waiter spends before it starts yielding. Kept short:
/// an epoch carries a few microseconds of work, and a longer spin only burns
/// the CPU a descheduled peer needs when threads outnumber cores.
const SPIN_ROUNDS: u32 = 128;

/// `yield_now` rounds after the spin, before the waiter parks.
const YIELD_ROUNDS: u32 = 64;

/// A reusable barrier for a fixed set of threads, built for short epochs.
///
/// A waiter busy-polls the generation word for a bounded budget, then
/// yields, then parks on a condvar — the poll-then-park back-off of a
/// dedicated progress thread. The **last arriver** of each generation runs
/// a caller-supplied closure before it releases the others, so the closure
/// runs exactly once per generation, while every other party is stopped
/// inside `wait`, and every released party observes its writes (as well as
/// everything each party wrote before arriving).
pub(crate) struct EpochBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// Waiters past the spin and yield budgets, blocked on `released`.
    parked: AtomicUsize,
    lock: Mutex<()>,
    released: Condvar,
}

impl EpochBarrier {
    /// A barrier for exactly `parties` threads.
    pub(crate) fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        EpochBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            released: Condvar::new(),
        }
    }

    /// Block until all parties have arrived. The last arriver runs `last`
    /// before releasing the others.
    pub(crate) fn wait(&self, last: impl FnOnce()) {
        // Read the generation before arriving: it cannot advance until this
        // thread's arrival is counted.
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Reset before publishing the new generation, so a released
            // party re-arriving at once counts from zero.
            self.arrived.store(0, Ordering::Relaxed);
            last();
            // SeqCst pairs this store and the `parked` load below with a
            // parker's `parked` increment and generation re-check: either
            // the parker sees the new generation or this thread sees it
            // counted, and notifies.
            self.generation.store(gen + 1, Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) > 0 {
                // A parker holds the lock from its `parked` increment until
                // it sleeps, so taking it here closes the lost-wakeup gap.
                drop(self.lock.lock());
                self.released.notify_all();
            }
            return;
        }
        let released = || self.generation.load(Ordering::Acquire) != gen;
        for _ in 0..SPIN_ROUNDS {
            if released() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELD_ROUNDS {
            if released() {
                return;
            }
            std::thread::yield_now();
        }
        let mut guard = self.lock.lock();
        self.parked.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == gen {
            self.released.wait(&mut guard);
        }
        self.parked.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map(4, (0..100).collect(), |i: i32| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let f = |x: u64| x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        let serial = par_map(1, items.clone(), f);
        let parallel = par_map(8, items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(8, empty, |x: u8| x).is_empty());
        assert_eq!(par_map(8, vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn more_jobs_than_items() {
        assert_eq!(par_map(64, vec![1, 2, 3], |x: i32| -x), vec![-1, -2, -3]);
    }

    // `std::thread::scope` re-raises worker panics with its own payload.
    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        par_map(2, vec![1, 2, 3], |x: i32| {
            if x == 2 {
                panic!("cell failed");
            }
            x
        });
    }

    /// Runs `threads` parties through `generations` barrier generations.
    /// Each party publishes its generation before arriving; the last
    /// arriver checks every party's publication, then bumps the closure
    /// counter; every released party checks it sees exactly that bump, so
    /// a second run of the closure in one generation shows too.
    /// Mismatches are counted rather than asserted in place, so a failure
    /// reports instead of stranding the other parties at the barrier.
    fn drive_barrier(threads: usize, generations: u64) {
        let barrier = EpochBarrier::new(threads);
        let arrivals: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        let closure_runs = AtomicU64::new(0);
        let unseen_arrivals = AtomicU64::new(0);
        let unseen_closures = AtomicU64::new(0);
        std::thread::scope(|s| {
            for me in 0..threads {
                let (barrier, arrivals) = (&barrier, &arrivals);
                let closure_runs = &closure_runs;
                let (unseen_arrivals, unseen_closures) = (&unseen_arrivals, &unseen_closures);
                s.spawn(move || {
                    for g in 1..=generations {
                        // Relaxed on purpose: only the barrier orders these.
                        arrivals[me].store(g, Ordering::Relaxed);
                        barrier.wait(|| {
                            let stale = arrivals
                                .iter()
                                .filter(|a| a.load(Ordering::Relaxed) != g)
                                .count();
                            unseen_arrivals.fetch_add(stale as u64, Ordering::Relaxed);
                            closure_runs.fetch_add(1, Ordering::Relaxed);
                        });
                        if closure_runs.load(Ordering::Relaxed) != g {
                            unseen_closures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            unseen_arrivals.load(Ordering::Relaxed),
            0,
            "arrival not visible to closure"
        );
        assert_eq!(
            unseen_closures.load(Ordering::Relaxed),
            0,
            "closure write not visible"
        );
        assert_eq!(
            closure_runs.load(Ordering::Relaxed),
            generations,
            "one closure per generation"
        );
    }

    #[test]
    fn epoch_barrier_runs_last_arriver_closure_once_per_generation() {
        // The last count puts more parties than cores, forcing the yield
        // and park paths.
        let oversubscribed = (default_jobs() + 1).min(8);
        for threads in [2, 3, 4, oversubscribed] {
            drive_barrier(threads, 10_000);
        }
    }
}
