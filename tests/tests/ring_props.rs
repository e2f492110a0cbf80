//! Property tests over the shared-memory SPSC byte ring
//! (`partix_verbs::shm::SpscRing`):
//!
//! - arbitrary capacities and record mixes stream FIFO with bytes intact,
//!   including records that straddle the physical wrap point (monotone
//!   cursors mean the data offset wraps while the cursors never do);
//! - the full/empty boundary is exact: a push is rejected iff the free
//!   span is smaller than the record, with no sacrificial slot, and the
//!   published-byte ledger (`len()`) reconciles after every operation;
//! - a real producer thread and consumer thread agree on the stream for
//!   arbitrary payload mixes, ending in the close-drain handshake;
//! - the in-place API (`try_push_with` / `try_pop_with`) carries exactly
//!   the stream the copying API (`try_push` / `try_pop`) does, on both the
//!   heap and the file segment backings.
//!
//! The vendored proptest is deterministic (seeded from the test name), so
//! a green run is reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use partix_verbs::shm::{FileSegment, HeapSegment, Popped, Segment, SpscRing, RECORD_HEADER};
use proptest::prelude::*;

fn ring(cap: usize) -> SpscRing {
    SpscRing::new(Arc::new(HeapSegment::new(cap)))
}

/// Byte `j` of the deterministic payload of record `i`.
fn payload_byte(i: usize, j: usize) -> u8 {
    (i.wrapping_mul(37).wrapping_add(j.wrapping_mul(11)) & 0xff) as u8
}

/// Deterministic payload for record `i` of length `len`.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| payload_byte(i, j)).collect()
}

/// Builds a fresh segment of the given data capacity.
type MakeSegment = fn(usize) -> Arc<dyn Segment>;

/// A fresh file segment of `cap` data bytes under a name no other case or
/// test uses; the file is unlinked at once (the open handle keeps it).
#[cfg(unix)]
fn file_segment(cap: usize) -> Arc<dyn Segment> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "partix_ring_props_{}_{}.ring",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let seg = FileSegment::create(&path, cap as u64).expect("create file segment");
    std::fs::remove_file(&path).expect("unlink file segment");
    Arc::new(seg)
}

/// Push records of `lens` through `r` — with the in-place API when
/// `in_place`, else the copying one — popping with the same API whenever
/// the ring is full, then close and drain. Returns the popped stream.
fn stream(r: &SpscRing, lens: &[usize], in_place: bool) -> Vec<(u8, Vec<u8>)> {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let mut pop = |out: &mut Vec<(u8, Vec<u8>)>| {
        let popped = if in_place {
            r.try_pop_with(&mut scratch, |kind, bytes| (kind, bytes.to_vec()))
        } else {
            match r.try_pop(&mut scratch) {
                Popped::Record(kind) => Popped::Record((kind, scratch.clone())),
                Popped::Empty => Popped::Empty,
                Popped::Closed => Popped::Closed,
            }
        };
        match popped {
            Popped::Record(rec) => {
                out.push(rec);
                true
            }
            _ => false,
        }
    };
    for (i, &len) in lens.iter().enumerate() {
        let kind = (i % 251) as u8;
        let bytes = payload(i, len);
        loop {
            let pushed = if in_place {
                r.try_push_with(kind, len, |at, piece| {
                    for (j, b) in piece.iter_mut().enumerate() {
                        *b = payload_byte(i, at + j);
                    }
                })
            } else {
                r.try_push(kind, &bytes)
            };
            if pushed {
                break;
            }
            assert!(pop(&mut out), "a full ring must hold a record to pop");
        }
    }
    r.close();
    while pop(&mut out) {}
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any capacity, any record mix: the consumer sees exactly the
    /// producer's sequence. Single-threaded, draining inline whenever the
    /// ring rejects a push, so the cursors sweep through many physical
    /// offsets and records straddle the wrap at arbitrary split points.
    #[test]
    fn stream_is_fifo_at_any_capacity(
        cap in 24usize..=1024,
        lens in prop::collection::vec(0usize..=192, 1..120),
    ) {
        let r = ring(cap);
        let max_payload = r.max_payload() as usize;
        let mut buf = Vec::new();
        let mut next = 0usize; // next record index expected out
        for (i, &len) in lens.iter().enumerate() {
            let len = len.min(max_payload);
            let bytes = payload(i, len);
            while !r.try_push((i % 251) as u8, &bytes) {
                // Full: the consumer must be able to free space.
                match r.try_pop(&mut buf) {
                    Popped::Record(kind) => {
                        prop_assert_eq!(kind, (next % 251) as u8);
                        let want = payload(next, lens[next].min(max_payload));
                        prop_assert_eq!(&buf, &want, "record {} corrupted", next);
                        next += 1;
                    }
                    other => prop_assert!(false, "full ring popped {:?}", other),
                }
            }
        }
        r.close();
        loop {
            match r.try_pop(&mut buf) {
                Popped::Record(kind) => {
                    prop_assert_eq!(kind, (next % 251) as u8);
                    let want = payload(next, lens[next].min(max_payload));
                    prop_assert_eq!(&buf, &want, "record {} corrupted", next);
                    next += 1;
                }
                Popped::Closed => break,
                Popped::Empty => prop_assert!(false, "closed ring reported Empty"),
            }
        }
        prop_assert_eq!(next, lens.len(), "records lost");
        prop_assert!(r.is_empty());
    }

    /// Advance the cursors to an arbitrary physical offset with a warm-up
    /// sequence (push+pop on an otherwise empty ring moves both cursors by
    /// the record footprint), then round-trip a near-capacity record from
    /// there: wherever the cursor landed, header and payload splits across
    /// the wrap boundary must be invisible to the consumer.
    #[test]
    fn wrap_straddling_record_round_trips(
        cap in 32usize..=256,
        warmup in prop::collection::vec(0usize..=100, 0..24),
        len in 0usize..=248,
    ) {
        let r = ring(cap);
        let max_payload = r.max_payload() as usize;
        let mut buf = Vec::new();
        for (i, &w) in warmup.iter().enumerate() {
            let bytes = payload(i, w.min(max_payload));
            prop_assert!(r.try_push(0, &bytes), "warm-up push on empty ring");
            prop_assert_eq!(r.try_pop(&mut buf), Popped::Record(0));
            prop_assert_eq!(&buf, &bytes);
        }
        // The record under test: long payloads straddle the boundary for
        // most cursor positions; short ones exercise split headers.
        let bytes = payload(99, len.min(max_payload));
        prop_assert!(r.try_push(7, &bytes));
        prop_assert_eq!(r.try_pop(&mut buf), Popped::Record(7));
        prop_assert_eq!(&buf, &bytes);
        prop_assert!(r.is_empty());
    }

    /// The full/empty boundary is exact: pushes are accepted while the
    /// record fits in `capacity - len()` and rejected otherwise; popping
    /// one record frees exactly its footprint.
    #[test]
    fn full_empty_boundary_is_exact(
        cap in 24usize..=512,
        record_len in 0usize..=64,
    ) {
        let r = ring(cap);
        let record_len = record_len.min(r.max_payload() as usize);
        let footprint = RECORD_HEADER as usize + record_len;
        let bytes = payload(3, record_len);
        let mut pushed = 0usize;
        // Fill to the brim; the ledger tracks every accepted record.
        while r.try_push(1, &bytes) {
            pushed += 1;
            prop_assert_eq!(r.len(), (pushed * footprint) as u64);
            prop_assert!(pushed * footprint <= cap, "ring overcommitted");
        }
        prop_assert_eq!(pushed, cap / footprint, "acceptance must match exact fit");
        // No sacrificial slot: the reject happened only because the free
        // span is genuinely smaller than one footprint.
        prop_assert!(cap - pushed * footprint < footprint);
        let mut buf = Vec::new();
        prop_assert_eq!(r.try_pop(&mut buf), Popped::Record(1));
        prop_assert_eq!(&buf, &bytes);
        // Exactly one footprint freed: one push fits again, a second would
        // exceed the span that single pop released.
        prop_assert!(r.try_push(2, &bytes));
        prop_assert!(!r.try_push(2, &bytes));
        // Drain everything; order and the ledger must reconcile.
        let mut drained = 0usize;
        loop {
            match r.try_pop(&mut buf) {
                Popped::Record(kind) => {
                    prop_assert_eq!(kind, if drained + 1 < pushed { 1 } else { 2 });
                    prop_assert_eq!(&buf, &bytes);
                    drained += 1;
                }
                Popped::Empty => break,
                Popped::Closed => prop_assert!(false, "ring never closed"),
            }
        }
        prop_assert_eq!(drained, pushed, "one popped, one pushed: count preserved");
        prop_assert_eq!(r.len(), 0);
    }

    /// The in-place API is the copying API's twin: any capacity and record
    /// mix (records straddling the wrap at arbitrary split points included)
    /// pops the same stream through `try_push_with` / `try_pop_with` as
    /// through `try_push` / `try_pop`, on heap and file segments alike.
    #[test]
    fn in_place_stream_equals_copying_stream(
        cap in 24usize..=512,
        lens in prop::collection::vec(0usize..=160, 1..60),
    ) {
        let max_payload = cap - RECORD_HEADER as usize;
        let lens: Vec<usize> = lens.iter().map(|&l| l.min(max_payload)).collect();
        let want: Vec<(u8, Vec<u8>)> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| ((i % 251) as u8, payload(i, len)))
            .collect();
        let mut backings: Vec<(&str, MakeSegment)> =
            vec![("heap", |cap| Arc::new(HeapSegment::new(cap)))];
        #[cfg(unix)]
        backings.push(("file", file_segment));
        for (name, make) in backings {
            for in_place in [false, true] {
                let got = stream(&SpscRing::new(make(cap)), &lens, in_place);
                prop_assert_eq!(&got, &want, "{} segment, in_place={}", name, in_place);
            }
        }
    }

    /// Cross-thread stream with arbitrary payload mixes: a real producer
    /// and consumer agree on record order, kinds and bytes, and the close
    /// handshake drains everything before reporting `Closed`.
    #[test]
    fn threaded_stream_agrees(
        cap in 64usize..=2048,
        lens in prop::collection::vec(0usize..=128, 1..400),
    ) {
        let seg = Arc::new(HeapSegment::new(cap));
        let tx = SpscRing::new(seg.clone());
        let rx = SpscRing::new(seg);
        let max_payload = tx.max_payload() as usize;
        let lens_tx: Vec<usize> = lens.iter().map(|&l| l.min(max_payload)).collect();
        let expect = lens_tx.clone();
        let producer = std::thread::spawn(move || {
            for (i, &len) in lens_tx.iter().enumerate() {
                let bytes = payload(i, len);
                while !tx.try_push((i % 251) as u8, &bytes) {
                    std::hint::spin_loop();
                }
            }
            tx.close();
        });
        let mut buf = Vec::new();
        let mut next = 0usize;
        loop {
            match rx.try_pop(&mut buf) {
                Popped::Record(kind) => {
                    prop_assert_eq!(kind, (next % 251) as u8);
                    prop_assert_eq!(&buf, &payload(next, expect[next]), "record {}", next);
                    next += 1;
                }
                Popped::Empty => std::hint::spin_loop(),
                Popped::Closed => break,
            }
        }
        producer.join().expect("producer");
        prop_assert_eq!(next, expect.len(), "records lost in flight");
    }
}
