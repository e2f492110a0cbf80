//! Property-based tests of the simulation substrate's core guarantees.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use partix_sim::{Scheduler, SerialResource, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Events execute in non-decreasing time order regardless of the order
    /// they were scheduled in, and the clock never runs backwards.
    #[test]
    fn scheduler_executes_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let sim = Scheduler::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for &t in &times {
            let log = log.clone();
            let s2 = sim.clone();
            sim.at(SimTime(t), move || log.lock().push(s2.now().as_nanos()));
        }
        let executed = sim.run();
        prop_assert_eq!(executed as usize, times.len());
        let seen = log.lock().clone();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(seen, sorted);
    }

    /// Chained events (each scheduling the next) preserve causality: a
    /// child never executes before its parent.
    #[test]
    fn scheduler_children_after_parents(delays in prop::collection::vec(0u64..1_000, 1..50)) {
        let sim = Scheduler::new();
        let violations = Arc::new(AtomicU64::new(0));
        fn chain(
            sim: Scheduler,
            delays: Arc<Vec<u64>>,
            idx: usize,
            violations: Arc<AtomicU64>,
        ) {
            if idx >= delays.len() {
                return;
            }
            let scheduled_at = sim.now();
            let s2 = sim.clone();
            sim.after(SimDuration(delays[idx]), move || {
                if s2.now() < scheduled_at {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                chain(s2.clone(), delays, idx + 1, violations);
            });
        }
        chain(sim.clone(), Arc::new(delays.clone()), 0, violations.clone());
        sim.run();
        prop_assert_eq!(violations.load(Ordering::Relaxed), 0);
        prop_assert_eq!(sim.now().as_nanos(), delays.iter().sum::<u64>());
    }

    /// The slab-backed queue pops in exact `(time, seq)` order under
    /// arbitrary interleavings of push and pop. The ops are replayed from
    /// inside running events — each pop op hands control back to the
    /// scheduler, whose next event resumes the replay — so slab slots
    /// recycle mid-run, and this also checks that slot reuse never reorders
    /// or loses an event. Each scheduled closure logs its own sequence
    /// number; a reference heap of `(clamped_time, seq)` pairs predicts the
    /// exact ordering.
    #[test]
    fn slab_heap_pops_in_time_seq_order(
        ops in prop::collection::vec(prop::option::of(0u64..1_000), 1..300)
    ) {
        let sim = Scheduler::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let replay = Arc::new(Mutex::new(Replay {
            ops: ops.into_iter(),
            model: BinaryHeap::new(),
            expected: Vec::new(),
            next_seq: 0,
        }));
        resume(&sim, &replay, &log);
        sim.run();
        let mut replay = replay.lock();
        prop_assert_eq!(replay.ops.len(), 0, "replay stopped early");
        // The events left after the last pop op drain in model order too.
        while let Some(Reverse((_, seq))) = replay.model.pop() {
            replay.expected.push(seq);
        }
        prop_assert_eq!(log.lock().clone(), replay.expected.clone());
        prop_assert_eq!(sim.events_pending(), 0);
    }

    /// Serial resources never overlap reservations and never shrink
    /// durations: granted intervals are disjoint, FIFO, and each has the
    /// requested length.
    #[test]
    fn serial_resource_grants_disjoint_fifo_intervals(
        requests in prop::collection::vec((0u64..10_000, 1u64..500), 1..100)
    ) {
        let r = SerialResource::new();
        let mut prev_end = 0u64;
        let mut arrival = 0u64;
        for &(gap, dur) in &requests {
            arrival += gap;
            let (start, end) = r.reserve(SimTime(arrival), SimDuration(dur));
            prop_assert!(start.as_nanos() >= arrival, "started before arrival");
            prop_assert!(start.as_nanos() >= prev_end, "overlapped previous grant");
            prop_assert_eq!(end.as_nanos() - start.as_nanos(), dur);
            prev_end = end.as_nanos();
        }
        prop_assert_eq!(r.reservations(), requests.len() as u64);
        prop_assert_eq!(
            r.busy_total().as_nanos(),
            requests.iter().map(|(_, d)| d).sum::<u64>()
        );
    }

    /// The resource's utilisation never exceeds 100%: total busy time fits
    /// within [first start, last end].
    #[test]
    fn serial_resource_utilisation_bounded(
        requests in prop::collection::vec((0u64..1_000, 1u64..100), 2..50)
    ) {
        let r = SerialResource::new();
        let mut first_start = None;
        let mut last_end = 0;
        let mut arrival = 0u64;
        for &(gap, dur) in &requests {
            arrival += gap;
            let (s, e) = r.reserve(SimTime(arrival), SimDuration(dur));
            first_start.get_or_insert(s.as_nanos());
            last_end = e.as_nanos();
        }
        let span = last_end - first_start.unwrap();
        prop_assert!(r.busy_total().as_nanos() <= span);
    }
}

/// Shared state of `slab_heap_pops_in_time_seq_order`: the remaining ops and
/// the reference heap that predicts the pop order.
struct Replay {
    ops: std::vec::IntoIter<Option<u64>>,
    model: BinaryHeap<Reverse<(u64, u64)>>,
    expected: Vec<u64>,
    next_seq: u64,
}

/// Apply ops until a pop op the queue can serve: `Some(t)` schedules an
/// event at `t`, `None` pops the model's earliest entry and returns, so the
/// scheduler executes that same event next and it resumes the replay. A pop
/// on an empty model is a no-op, as on an empty queue.
fn resume(sim: &Scheduler, replay: &Arc<Mutex<Replay>>, log: &Arc<Mutex<Vec<u64>>>) {
    loop {
        let mut st = replay.lock();
        match st.ops.next() {
            None => return,
            Some(Some(t)) => {
                // Mirror the scheduler's clamp-to-now rule for events
                // scheduled in the past.
                let clamped = t.max(sim.now().as_nanos());
                let seq = st.next_seq;
                st.next_seq += 1;
                st.model.push(Reverse((clamped, seq)));
                drop(st);
                let (sim2, replay2, log2) = (sim.clone(), replay.clone(), log.clone());
                sim.at(SimTime(t), move || {
                    log2.lock().push(seq);
                    resume(&sim2, &replay2, &log2);
                });
            }
            Some(None) => {
                if let Some(Reverse((_, seq))) = st.model.pop() {
                    st.expected.push(seq);
                    return;
                }
            }
        }
    }
}
