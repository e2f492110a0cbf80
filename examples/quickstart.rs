//! Quickstart: the full MPI Partitioned lifecycle on two in-process ranks.
//!
//! ```text
//! cargo run -p partix-examples --bin quickstart
//! ```
//!
//! Demonstrates the paper's API mapping end to end: `psend_init` /
//! `precv_init` (matched by rank + tag), `start`, per-partition `pready`,
//! receive-side `parrived`, and `wait`, over the instant (functional)
//! fabric. The PLogGP aggregator decides how many RDMA-write-with-immediate
//! work requests actually hit the wire.

use partix_core::telemetry::digest::Fnv1a;
use partix_core::{AggregatorKind, PartixConfig, World};

fn main() {
    // A two-rank world over the instant fabric (real byte movement, no
    // modelled timing).
    let world = World::instant(2, PartixConfig::with_aggregator(AggregatorKind::PLogGp));
    let sender = world.proc(0);
    let receiver = world.proc(1);

    // 16 partitions of 4 KiB each: one 64 KiB persistent buffer per side.
    let partitions = 16u32;
    let part_bytes = 4 << 10;
    let total = partitions as usize * part_bytes;
    let sbuf = sender.alloc_buffer(total).expect("register send buffer");
    let rbuf = receiver.alloc_buffer(total).expect("register recv buffer");

    // MPI_Psend_init / MPI_Precv_init: matching happens at init time on
    // (source, destination, tag) — no wildcards in partitioned
    // communication.
    let send = sender
        .psend_init(&sbuf, partitions, part_bytes, 1, /*tag=*/ 7)
        .expect("psend_init");
    let recv = receiver
        .precv_init(&rbuf, partitions, part_bytes, 0, 7)
        .expect("precv_init");

    println!(
        "channel plan: {} transport partition(s) over {} QP(s) for {} KiB",
        send.plan().unwrap().groups,
        send.plan().unwrap().qp_count,
        total >> 10,
    );

    // Three persistent rounds over the same buffers. Everything the
    // receiver observes feeds a running FNV-1a digest printed at the end:
    // the CI smoke test pins that digest, so any change in what actually
    // lands (not just whether the asserts pass) fails loudly.
    let mut digest = Fnv1a::new();
    for round in 0..3u8 {
        recv.start().expect("recv start");
        send.start().expect("send start");

        // "Threads" fill their partition and mark it ready. Here the main
        // thread plays all of them, in a scrambled order to show order
        // independence.
        for i in (0..partitions).rev() {
            sbuf.fill(
                i as usize * part_bytes,
                part_bytes,
                round.wrapping_mul(17) ^ i as u8,
            )
            .expect("fill partition");
            send.pready(i).expect("pready");
        }

        // The receiver can watch individual partitions land...
        while !recv.parrived(partitions - 1).expect("parrived") {
            std::hint::spin_loop();
        }
        // ...and completes once all have.
        send.wait().expect("send wait");
        recv.wait().expect("recv wait");

        // Verify the data.
        for i in 0..partitions {
            let got = rbuf
                .read_vec(i as usize * part_bytes, part_bytes)
                .expect("read partition");
            assert!(
                got.iter().all(|b| *b == round.wrapping_mul(17) ^ i as u8),
                "partition {i} corrupted"
            );
            digest.bytes(&got);
        }
        println!(
            "round {round}: {} partitions delivered in {} work request(s) total",
            partitions,
            send.total_wrs_posted(),
        );
    }
    println!("quickstart OK digest={:#018x}", digest.finish());
}
