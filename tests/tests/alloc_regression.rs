//! Data-plane allocation regression gates.
//!
//! After warm-up rounds have populated every pool (WR freelists, CQ rings,
//! poll scratch, hash-map capacity), steady-state rounds must perform zero
//! heap allocations end to end, at a 4 KiB and a 64 KiB message:
//!
//! - through the partitioned runtime (PLogGP aggregation): post, wire
//!   delivery, completion dispatch and progress polling all run out of
//!   recycled storage;
//! - on raw verbs: 16 RDMA writes posted with one `post_send_batch` and
//!   drained with `poll_cq_into` over the instant fabric.
//!
//! Counted by the shared `partix_system_tests::alloc` counter; the checks
//! run one after another on the main thread.

use partix_core::{AggregatorKind, PartixConfig, World};
use partix_system_tests::alloc::{self, CountingAlloc};
use partix_verbs::{
    connect_pair, InstantFabric, Network, Opcode, PostOptions, QpCaps, SendWr, Sge,
};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Partitions (and WRs) per message.
const PARTS: usize = 16;
const WARMUP: u8 = 4;
const MEASURED: u8 = 16;

fn main() {
    alloc::run(&[
        ("steady_state_4k_send_is_allocation_free", || {
            steady_state_send_is_allocation_free(256)
        }),
        ("steady_state_64k_send_is_allocation_free", || {
            steady_state_send_is_allocation_free(4096)
        }),
        ("raw_verbs_4k_round_is_allocation_free", || {
            raw_verbs_round_is_allocation_free(4096)
        }),
        ("raw_verbs_64k_round_is_allocation_free", || {
            raw_verbs_round_is_allocation_free(65536)
        }),
    ]);
}

/// One `PARTS × part_bytes` PLogGP partitioned send per round.
fn steady_state_send_is_allocation_free(part_bytes: usize) {
    let world = World::instant(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
    let p0 = world.proc(0);
    let p1 = world.proc(1);
    let parts = PARTS as u32;
    let total = PARTS * part_bytes;
    let sbuf = p0.alloc_buffer(total).unwrap();
    let rbuf = p1.alloc_buffer(total).unwrap();
    let send = p0.psend_init(&sbuf, parts, part_bytes, 1, 0).unwrap();
    let recv = p1.precv_init(&rbuf, parts, part_bytes, 0, 0).unwrap();

    let round = |tick: u8| {
        recv.start().unwrap();
        send.start().unwrap();
        for i in 0..parts {
            sbuf.fill(
                i as usize * part_bytes,
                part_bytes,
                tick.wrapping_add(i as u8),
            )
            .unwrap();
            send.pready(i).unwrap();
        }
        send.wait().unwrap();
        recv.wait().unwrap();
    };

    // Warm-up: freelists, scratch buffers, and map capacity fill here.
    for tick in 0..WARMUP {
        round(tick);
    }
    let ((), allocs) = alloc::measure(|| {
        for tick in WARMUP..WARMUP + MEASURED {
            round(tick);
        }
    });

    // Verify the rounds actually moved data before judging the count.
    let last = WARMUP + MEASURED - 1;
    for i in 0..parts {
        let got = rbuf.read_vec(i as usize * part_bytes, part_bytes).unwrap();
        assert!(
            got.iter().all(|&b| b == last.wrapping_add(i as u8)),
            "partition {i} holds stale bytes"
        );
    }
    assert_eq!(
        allocs.all, 0,
        "steady-state {total} B partitioned send must not touch the heap \
         ({} allocations leaked into the hot path)",
        allocs.all
    );
}

/// One `msg`-byte message per round: `PARTS` pooled RDMA-write WRs updated
/// in place, one `post_send_batch` slot claim, completions drained into a
/// reused vector, and the wire moving bytes MR→MR directly.
fn raw_verbs_round_is_allocation_free(msg: usize) {
    let pb = msg / PARTS;
    let net = Network::new(2, InstantFabric::new());
    let a = net.open(0).unwrap();
    let b = net.open(1).unwrap();
    let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
    let cqa = a.create_cq();
    let qa = a
        .create_qp(pda, cqa.clone(), a.create_cq(), QpCaps::default())
        .unwrap();
    let qb = b
        .create_qp(pdb, b.create_cq(), b.create_cq(), QpCaps::default())
        .unwrap();
    connect_pair(&qa, &qb).unwrap();
    let src = a.reg_mr(pda, msg).unwrap();
    let dst = b.reg_mr(pdb, msg).unwrap();
    let mut wrs: Vec<SendWr> = (0..PARTS)
        .map(|i| SendWr {
            wr_id: i as u64,
            opcode: Opcode::RdmaWrite,
            sg_list: vec![Sge {
                addr: src.addr_at(i * pb),
                length: pb as u32,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr() + (i * pb) as u64,
            rkey: dst.rkey(),
            imm: None,
            inline_data: false,
            flow: 0,
        })
        .collect();
    let mut scratch = Vec::with_capacity(PARTS);
    let mut next_id = 0u64;

    let mut round = |tick: u8| {
        src.fill(0, msg, tick).unwrap();
        for wr in wrs.iter_mut() {
            wr.wr_id = next_id;
            next_id += 1;
        }
        let granted = qa.post_send_batch(&wrs, PostOptions::default()).unwrap();
        assert_eq!(granted, PARTS, "instant fabric frees slots synchronously");
        scratch.clear();
        while scratch.len() < PARTS {
            cqa.poll_cq_into(&mut scratch, PARTS);
        }
    };

    for tick in 0..WARMUP {
        round(tick);
    }
    let ((), allocs) = alloc::measure(|| {
        for tick in WARMUP..WARMUP + MEASURED {
            round(tick);
        }
    });

    let last = WARMUP + MEASURED - 1;
    assert_eq!(dst.read_vec(0, msg).unwrap(), vec![last; msg]);
    assert_eq!(
        allocs.all, 0,
        "steady-state {msg} B post_send_batch + poll_cq_into round must not touch \
         the heap ({} allocations)",
        allocs.all
    );
}
