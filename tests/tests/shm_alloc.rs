//! ShmFabric data-path allocation guard.
//!
//! Counts allocations of at least 4 KiB (payload-sized buffers, not the
//! small bookkeeping the verbs layer does per WR) with the shared
//! `partix_system_tests::alloc` counter, progress thread included. After a
//! warm-up round has grown every reusable buffer (the progress thread's
//! scratch, the outstanding-record map), a steady-state 64 KiB
//! RDMA-write-with-immediate over `ShmFabric::loopback()` must allocate no
//! such buffer anywhere: the payload is gathered straight into its ring
//! slot and delivered from the slot in place.

use std::time::{Duration, Instant};

use partix_system_tests::alloc::{self, CountingAlloc, LARGE};
use partix_verbs::shm::ShmFabric;
use partix_verbs::{
    connect_pair, imm, CompletionQueue, Network, Opcode, QpCaps, RecvWr, SendWr, Sge, WcStatus,
};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    alloc::run(&[(
        "steady_state_64k_write_with_imm_allocates_no_payload_buffer",
        steady_state_64k_write_with_imm_allocates_no_payload_buffer,
    )]);
}

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

    let ((), allocs) = alloc::measure(|| {
        for tick in 4..12u8 {
            round(tick);
        }
    });

    // The rounds moved real bytes before the count is judged.
    assert_eq!(dst.read_vec(0, LEN).unwrap(), vec![11u8; LEN]);
    assert_eq!(fabric.data_records(), 12);
    assert_eq!(
        allocs.large, 0,
        "eight steady-state 64 KiB writes made {} allocations of >= {LARGE} bytes",
        allocs.large
    );
    fabric.shutdown();
}
