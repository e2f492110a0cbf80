//! Single-producer single-consumer byte ring over a [`Segment`].
//!
//! The ring carries variable-size records — `[len u32][kind u8][magic
//! u8][reserved u16]` header plus payload — through a fixed data area.
//! Cursors are *monotone byte counts* (they never wrap); only the data
//! offsets wrap, so "full" (`tail - head == capacity`) and "empty" (`tail
//! == head`) are unambiguous without a sacrificial slot. Records may
//! straddle the physical wrap point: every copy is split at the boundary.
//!
//! Publication protocol (model-checked in `tests/ring_protocol.rs`):
//!
//! - producer: read `Head` (acquire), check space, write record bytes,
//!   store `Tail = tail + n` (release);
//! - consumer: read `Tail` (acquire), parse records in `[head, tail)`,
//!   store `Head = head + n` (release).
//!
//! The acquire on `Tail` is what makes the record bytes visible to the
//! consumer; the acquire on `Head` is what lets the producer reuse space.
//!
//! Records are built and consumed in the slot itself:
//! [`try_push_with`](SpscRing::try_push_with) hands the producer the
//! payload bytes of its slot (one piece, or two across the wrap) and
//! [`try_pop_with`](SpscRing::try_pop_with) passes the published payload to
//! the consumer in place, storing `Head` only after it returns, so the
//! producer cannot overwrite a record that is still being read. Only a
//! payload that straddles the wrap is first copied into the caller's
//! scratch buffer. [`try_push`](SpscRing::try_push) and
//! [`try_pop`](SpscRing::try_pop) are copying wrappers over the two.

use std::sync::Arc;

use super::segment::{lend, Ctrl, Segment};

/// Per-record header bytes: `len: u32` | `kind: u8` | `magic: u8` |
/// `reserved: u16`.
pub const RECORD_HEADER: u64 = 8;

/// Magic byte stamped into every record header; a mismatch on pop means
/// cursor corruption and is reported as poisoning, not silently skipped.
const RECORD_MAGIC: u8 = 0xA7;

/// What [`SpscRing::try_pop`] (or [`SpscRing::try_pop_with`]) found.
#[derive(Debug, PartialEq, Eq)]
pub enum Popped<T = u8> {
    /// Nothing published.
    Empty,
    /// A record was consumed: its kind tag for `try_pop` (payload in the
    /// caller's scratch), the consumer's result for `try_pop_with`.
    Record(T),
    /// The producer closed the ring and everything published was consumed.
    Closed,
}

/// SPSC ring handle. Producer-side calls (`try_push`, `close`) must come
/// from one logical producer, consumer-side calls from one logical
/// consumer; the fabric serialises each side with its own lock.
pub struct SpscRing {
    seg: Arc<dyn Segment>,
}

impl SpscRing {
    /// Wrap `seg`. The segment's control words must start zeroed (freshly
    /// created) or hold a consistent prior state (reattach).
    pub fn new(seg: Arc<dyn Segment>) -> Self {
        SpscRing { seg }
    }

    /// Data capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.seg.capacity()
    }

    /// Bytes currently published but unconsumed.
    pub fn len(&self) -> u64 {
        let tail = self.seg.ctrl_load(Ctrl::Tail);
        let head = self.seg.ctrl_load(Ctrl::Head);
        tail.saturating_sub(head)
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest payload a single record can carry in this ring.
    pub fn max_payload(&self) -> u64 {
        self.seg.capacity().saturating_sub(RECORD_HEADER)
    }

    /// Mark the producer side closed (shutdown handshake): consumers keep
    /// draining and then observe [`Popped::Closed`].
    pub fn close(&self) {
        self.seg.ctrl_store(Ctrl::Closed, 1);
    }

    /// Whether the producer closed the ring.
    pub fn is_closed(&self) -> bool {
        self.seg.ctrl_load(Ctrl::Closed) != 0
    }

    /// Consumer-side attach acknowledgement (cross-process bring-up).
    pub fn mark_attached(&self) {
        self.seg.ctrl_store(Ctrl::Attached, 1);
    }

    /// Whether a consumer has attached.
    pub fn is_attached(&self) -> bool {
        self.seg.ctrl_load(Ctrl::Attached) != 0
    }

    /// Copy `bytes` into the data area starting at logical position `pos`,
    /// splitting at the physical wrap point.
    fn write_wrapped(&self, pos: u64, bytes: &[u8]) {
        let cap = self.seg.capacity();
        let off = pos % cap;
        let first = ((cap - off) as usize).min(bytes.len());
        self.seg.data_write(off, &bytes[..first]);
        if first < bytes.len() {
            self.seg.data_write(0, &bytes[first..]);
        }
    }

    /// Copy `dst.len()` bytes out of the data area from logical position
    /// `pos`, splitting at the physical wrap point.
    fn read_wrapped(&self, pos: u64, dst: &mut [u8]) {
        let cap = self.seg.capacity();
        let off = pos % cap;
        let first = ((cap - off) as usize).min(dst.len());
        self.seg.data_read(off, &mut dst[..first]);
        let rest = dst.len() - first;
        if rest > 0 {
            self.seg.data_read(0, &mut dst[first..]);
        }
    }

    /// Publish one record, copying `payload` into its slot. See
    /// [`try_push_with`](Self::try_push_with).
    pub fn try_push(&self, kind: u8, payload: &[u8]) -> bool {
        self.try_push_with(kind, payload.len(), |at, piece| {
            piece.copy_from_slice(&payload[at..at + piece.len()])
        })
    }

    /// Publish one record of `len` payload bytes built in place: after the
    /// header is written, `fill(at, piece)` must fill `piece` with payload
    /// bytes `[at, at + piece.len())`. It is called once, or twice (`at = 0`,
    /// then the remainder) when the slot straddles the wrap point. Returns
    /// `false` without calling `fill` when the ring lacks space (the caller
    /// retries after the consumer advances). Panics if the record can never
    /// fit (payload larger than the ring).
    pub fn try_push_with(
        &self,
        kind: u8,
        len: usize,
        mut fill: impl FnMut(usize, &mut [u8]),
    ) -> bool {
        let need = RECORD_HEADER + len as u64;
        let cap = self.seg.capacity();
        assert!(
            need <= cap,
            "record of {need} bytes exceeds ring capacity {cap}"
        );
        let tail = self.seg.ctrl_load(Ctrl::Tail);
        let head = self.seg.ctrl_load(Ctrl::Head);
        if cap - (tail - head) < need {
            return false;
        }
        let mut header = [0u8; RECORD_HEADER as usize];
        header[..4].copy_from_slice(&(len as u32).to_le_bytes());
        header[4] = kind;
        header[5] = RECORD_MAGIC;
        self.write_wrapped(tail, &header);
        let off = (tail + RECORD_HEADER) % cap;
        let first = ((cap - off) as usize).min(len);
        self.seg.write_with(off, first, &mut |piece| fill(0, piece));
        if first < len {
            self.seg
                .write_with(0, len - first, &mut |piece| fill(first, piece));
        }
        self.seg.ctrl_store(Ctrl::Tail, tail + need);
        true
    }

    /// Consume one record if available, copying its payload into `scratch`
    /// (cleared first). See [`try_pop_with`](Self::try_pop_with).
    pub fn try_pop(&self, scratch: &mut Vec<u8>) -> Popped {
        // Only a payload straddling the wrap lands here (then is copied out).
        let mut straddle = Vec::new();
        self.try_pop_with(&mut straddle, |kind, payload| {
            scratch.clear();
            scratch.extend_from_slice(payload);
            kind
        })
    }

    /// Consume one record if available: `f(kind, payload)` reads the
    /// payload in place, and the space is released (`Head` stored) only
    /// after `f` returns. A payload straddling the wrap point is first
    /// copied into `scratch`, and `f` reads it there.
    ///
    /// # Panics
    ///
    /// On header corruption (bad magic or a length exceeding the published
    /// span) — the cursors are no longer trustworthy and continuing would
    /// deliver garbage bytes into registered memory.
    pub fn try_pop_with<R>(
        &self,
        scratch: &mut Vec<u8>,
        f: impl FnOnce(u8, &[u8]) -> R,
    ) -> Popped<R> {
        let mut tail = self.seg.ctrl_load(Ctrl::Tail);
        let head = self.seg.ctrl_load(Ctrl::Head);
        if tail == head {
            if !self.is_closed() {
                return Popped::Empty;
            }
            // `Closed` may have been observed between our `Tail` load and
            // the producer's final publishes (push … push, close). Having
            // seen the close flag (acquire), re-read `Tail`: every record
            // published before the close must still drain, or the consumer
            // would drop the stream's suffix.
            tail = self.seg.ctrl_load(Ctrl::Tail);
            if tail == head {
                return Popped::Closed;
            }
        }
        let avail = tail - head;
        assert!(
            avail >= RECORD_HEADER,
            "ring published a partial header ({avail} bytes)"
        );
        let mut header = [0u8; RECORD_HEADER as usize];
        self.read_wrapped(head, &mut header);
        let len = u32::from_le_bytes(header[..4].try_into().expect("fixed slice")) as u64;
        let kind = header[4];
        assert_eq!(
            header[5], RECORD_MAGIC,
            "ring record magic mismatch at head {head}"
        );
        assert!(
            RECORD_HEADER + len <= avail,
            "ring record length {len} exceeds published span {avail}"
        );
        let cap = self.seg.capacity();
        let off = (head + RECORD_HEADER) % cap;
        let out = if off + len <= cap {
            let mut f = Some(f);
            let mut out = None;
            self.seg.read_with(off, len as usize, &mut |payload| {
                out = f.take().map(|f| f(kind, payload));
            });
            out.expect("read_with lends the range exactly once")
        } else {
            let straddled = lend(scratch, len as usize);
            self.read_wrapped(head + RECORD_HEADER, straddled);
            f(kind, straddled)
        };
        self.seg.ctrl_store(Ctrl::Head, head + RECORD_HEADER + len);
        Popped::Record(out)
    }
}

#[cfg(test)]
mod tests {
    use super::super::segment::HeapSegment;
    use super::*;

    fn ring(cap: usize) -> SpscRing {
        SpscRing::new(Arc::new(HeapSegment::new(cap)))
    }

    #[test]
    fn push_pop_round_trip() {
        let r = ring(256);
        assert!(r.try_push(1, b"hello"));
        assert!(r.try_push(2, b""));
        let mut buf = Vec::new();
        assert_eq!(r.try_pop(&mut buf), Popped::Record(1));
        assert_eq!(buf, b"hello");
        assert_eq!(r.try_pop(&mut buf), Popped::Record(2));
        assert!(buf.is_empty());
        assert_eq!(r.try_pop(&mut buf), Popped::Empty);
    }

    #[test]
    fn records_straddle_the_wrap_point() {
        let r = ring(32);
        let mut buf = Vec::new();
        // Walk the cursors until pushes land at every offset mod 32,
        // forcing header and payload splits.
        for i in 0..64u8 {
            let payload = vec![i; (i % 13) as usize];
            assert!(r.try_push(i, &payload), "push {i}");
            assert_eq!(r.try_pop(&mut buf), Popped::Record(i));
            assert_eq!(buf, payload, "record {i}");
        }
        assert!(r.is_empty());
    }

    #[test]
    fn in_place_pop_uses_scratch_only_across_the_wrap() {
        let r = ring(32);
        let mut scratch = Vec::new();
        // 8 + 12 bytes at offset 0: in place.
        assert!(r.try_push(1, &[1; 12]));
        let in_place = r.try_pop_with(&mut scratch, |_, p| (p.to_vec(), p.as_ptr()));
        let Popped::Record((bytes, at)) = in_place else {
            panic!("record expected")
        };
        assert_eq!(bytes, [1; 12]);
        assert!(scratch.is_empty(), "an unwrapped record must not be copied");
        assert_ne!(at, scratch.as_ptr());
        // Header at 20, payload 28..40 wraps at 32: copied into scratch.
        assert!(r.try_push_with(2, 12, |at, piece| {
            for (i, b) in piece.iter_mut().enumerate() {
                *b = (at + i) as u8;
            }
        }));
        let straddled = r.try_pop_with(&mut scratch, |kind, p| (kind, p.to_vec(), p.as_ptr()));
        let Popped::Record((kind, bytes, at)) = straddled else {
            panic!("record expected")
        };
        assert_eq!(kind, 2);
        assert_eq!(bytes, (0..12).collect::<Vec<u8>>());
        assert_eq!(
            at,
            scratch.as_ptr(),
            "a wrapped record is read from scratch"
        );
        assert_eq!(r.try_pop_with(&mut scratch, |_, _| ()), Popped::Empty);
    }

    #[test]
    fn full_ring_rejects_then_accepts_after_drain() {
        let r = ring(40); // room for exactly two 8+12 records
        assert!(r.try_push(0, &[1; 12]));
        assert!(r.try_push(1, &[2; 12]));
        assert!(!r.try_push(2, &[3; 12]), "full ring must reject");
        let mut buf = Vec::new();
        assert_eq!(r.try_pop(&mut buf), Popped::Record(0));
        assert!(r.try_push(2, &[3; 12]), "freed space must be reusable");
        assert_eq!(r.try_pop(&mut buf), Popped::Record(1));
        assert_eq!(r.try_pop(&mut buf), Popped::Record(2));
        assert_eq!(buf, [3; 12]);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let r = ring(64);
        assert!(r.try_push(9, b"last"));
        r.close();
        let mut buf = Vec::new();
        assert_eq!(r.try_pop(&mut buf), Popped::Record(9));
        assert_eq!(r.try_pop(&mut buf), Popped::Closed);
    }

    #[test]
    #[should_panic(expected = "exceeds ring capacity")]
    fn oversized_record_panics() {
        let r = ring(16);
        let _ = r.try_push(0, &[0; 64]);
    }

    #[test]
    fn cross_thread_stream() {
        let seg = Arc::new(HeapSegment::new(512));
        let tx = SpscRing::new(seg.clone());
        let rx = SpscRing::new(seg);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u32 {
                let payload = i.to_le_bytes();
                while !tx.try_push((i % 251) as u8, &payload) {
                    std::hint::spin_loop();
                }
            }
            tx.close();
        });
        let mut buf = Vec::new();
        let mut next = 0u32;
        loop {
            match rx.try_pop(&mut buf) {
                Popped::Record(kind) => {
                    assert_eq!(kind, (next % 251) as u8);
                    assert_eq!(buf, next.to_le_bytes());
                    next += 1;
                }
                Popped::Empty => std::hint::spin_loop(),
                Popped::Closed => break,
            }
        }
        assert_eq!(next, 10_000);
        producer.join().unwrap();
    }
}
