//! ShmFabric data-path allocation guard.
//!
//! A counting global allocator wraps `System` and counts allocations of at
//! least 4 KiB — payload-sized buffers, not the small bookkeeping the verbs
//! layer does per WR. After a warm-up round has grown every reusable buffer
//! (the progress thread's scratch, the outstanding-record map), a
//! steady-state 64 KiB RDMA-write-with-immediate over
//! `ShmFabric::loopback()` must allocate no such buffer anywhere: the
//! payload is gathered straight into its ring slot and delivered from the
//! slot in place. The count covers the progress thread too, since the
//! allocator is global.
//!
//! This file holds exactly one test: a sibling test allocating on another
//! thread while the window is open would fail it spuriously.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use partix_verbs::shm::ShmFabric;
use partix_verbs::{
    connect_pair, imm, CompletionQueue, Network, Opcode, QpCaps, RecvWr, SendWr, Sge, WcStatus,
};

/// Allocations of at least this many bytes are counted.
const LARGE: usize = 4096;

struct CountingAlloc;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

fn note(size: usize) {
    if size >= LARGE && COUNTING.load(Ordering::Relaxed) {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
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

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const LEN: usize = 64 << 10;

fn poll(cq: &CompletionQueue, what: &str) -> partix_verbs::WorkCompletion {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(wc) = cq.poll_one() {
            return wc;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn steady_state_64k_write_with_imm_allocates_no_payload_buffer() {
    let fabric = ShmFabric::loopback();
    let net = Network::new(2, fabric.clone());
    let (a, b) = (net.open(0).unwrap(), net.open(1).unwrap());
    let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
    let (send_cq, recv_cq) = (a.create_cq(), b.create_cq());
    let caps = QpCaps::default();
    let qa = a
        .create_qp(pda, send_cq.clone(), a.create_cq(), caps)
        .unwrap();
    let qb = b
        .create_qp(pdb, b.create_cq(), recv_cq.clone(), caps)
        .unwrap();
    connect_pair(&qa, &qb).unwrap();
    let src = a.reg_mr(pda, LEN).unwrap();
    let dst = b.reg_mr(pdb, LEN).unwrap();

    let round = |tick: u8| {
        src.fill(0, LEN, tick).unwrap();
        qb.post_recv(RecvWr::bare(tick as u64)).unwrap();
        qa.post_send(SendWr {
            wr_id: tick as u64,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: LEN as u32,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: Some(imm::encode(0, 16)),
            inline_data: false,
            flow: 0,
        })
        .unwrap();
        assert_eq!(poll(&send_cq, "send CQE").status, WcStatus::Success);
        assert_eq!(poll(&recv_cq, "recv CQE").wr_id, tick as u64);
    };

    // Warm-up: the progress thread's scratch and the outstanding-record
    // map reach their steady-state capacity here.
    for tick in 0..4u8 {
        round(tick);
    }

    LARGE_ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    for tick in 4..12u8 {
        round(tick);
    }
    COUNTING.store(false, Ordering::Relaxed);
    let allocs = LARGE_ALLOCS.load(Ordering::Relaxed);

    // The rounds moved real bytes before the count is judged.
    assert_eq!(dst.read_vec(0, LEN).unwrap(), vec![11u8; LEN]);
    assert_eq!(fabric.data_records(), 12);
    assert_eq!(
        allocs, 0,
        "eight steady-state 64 KiB writes made {allocs} allocations of >= {LARGE} bytes"
    );
    fabric.shutdown();
}
