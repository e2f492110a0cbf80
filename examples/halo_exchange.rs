//! 2-D halo exchange with partitioned communication — one of the
//! application patterns of the micro-benchmark suite the paper builds on
//! (Temuçin et al., ICPP'22).
//!
//! ```text
//! cargo run -p partix-examples --bin halo_exchange
//! ```
//!
//! Four ranks form a 2×2 periodic grid. Each rank owns an N×N tile of
//! `f64` cells and exchanges its edge rows/columns with its four
//! neighbours every iteration; each edge is a partitioned message whose
//! partitions are strips committed independently (as row-owning threads
//! would). A Jacobi-style stencil then verifies that the halos carry the
//! right values.

use partix_core::telemetry::digest::Fnv1a;
use partix_core::{AggregatorKind, MemoryRegion, PartixConfig, PrecvRequest, PsendRequest, World};

/// Tile edge length in cells.
const N: usize = 64;
/// Strips per edge (= partitions per halo message).
const STRIPS: u32 = 8;
/// Bytes per halo edge.
const EDGE_BYTES: usize = N * std::mem::size_of::<f64>();

struct Neighbor {
    send: PsendRequest,
    recv: PrecvRequest,
    sbuf: MemoryRegion,
    rbuf: MemoryRegion,
}

fn main() {
    // 2x2 periodic grid.
    let (rows, cols) = (2u32, 2u32);
    let world = World::instant(
        rows * cols,
        PartixConfig::with_aggregator(AggregatorKind::PLogGp),
    );
    let rank_of = |r: u32, c: u32| (r % rows) * cols + (c % cols);

    // Per rank, four directed halo channels: tags 0..4 = N, S, W, E.
    let mut links: Vec<Vec<Neighbor>> = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let me = world.proc(rank_of(r, c));
            let mut mine = Vec::new();
            // (dr, dc, tag): the tag identifies the direction so the
            // symmetric channels match unambiguously.
            for (dr, dc, tag) in [(rows - 1, 0, 0u32), (1, 0, 1), (0, cols - 1, 2), (0, 1, 3)] {
                let peer = rank_of(r + dr, c + dc);
                let other = world.proc(peer);
                let sbuf = me.alloc_buffer(EDGE_BYTES).expect("send edge");
                let rbuf = other.alloc_buffer(EDGE_BYTES).expect("recv edge");
                let send = me
                    .psend_init(&sbuf, STRIPS, EDGE_BYTES / STRIPS as usize, peer, tag)
                    .expect("psend_init");
                let recv = other
                    .precv_init(
                        &rbuf,
                        STRIPS,
                        EDGE_BYTES / STRIPS as usize,
                        rank_of(r, c),
                        tag,
                    )
                    .expect("precv_init");
                mine.push(Neighbor {
                    send,
                    recv,
                    sbuf,
                    rbuf,
                });
            }
            links.push(mine);
        }
    }

    // Every verified halo byte feeds a running FNV-1a digest printed at
    // the end; the CI smoke test pins it, so a change in delivered bytes
    // (not just assertion health) fails loudly.
    let mut digest = Fnv1a::new();
    for iter in 0..4u32 {
        // Start all receives, then all sends.
        for rank in links.iter() {
            for n in rank {
                n.recv.start().expect("recv start");
            }
        }
        for rank in links.iter() {
            for n in rank {
                n.send.start().expect("send start");
            }
        }

        // Each rank "computes" its edges strip by strip and commits them.
        for (rank_id, rank) in links.iter().enumerate() {
            for (dir, n) in rank.iter().enumerate() {
                for strip in 0..STRIPS {
                    let cell = halo_value(iter, rank_id as u32, dir as u32, strip);
                    let bytes = cell.to_le_bytes();
                    let strip_bytes = EDGE_BYTES / STRIPS as usize;
                    let mut payload = Vec::with_capacity(strip_bytes);
                    while payload.len() < strip_bytes {
                        payload.extend_from_slice(&bytes);
                    }
                    n.sbuf
                        .write(strip as usize * strip_bytes, &payload)
                        .expect("write strip");
                    n.send.pready(strip).expect("pready");
                }
            }
        }

        // Complete and verify the received halos.
        for (rank_id, rank) in links.iter().enumerate() {
            for (dir, n) in rank.iter().enumerate() {
                n.send.wait().expect("send wait");
                n.recv.wait().expect("recv wait");
                let strip_bytes = EDGE_BYTES / STRIPS as usize;
                for strip in 0..STRIPS {
                    let got = n
                        .rbuf
                        .read_vec(strip as usize * strip_bytes, 8)
                        .expect("read strip");
                    digest.bytes(&got);
                    let got = f64::from_le_bytes(got.try_into().unwrap());
                    let want = halo_value(iter, rank_id as u32, dir as u32, strip);
                    assert!(
                        (got - want).abs() < 1e-12,
                        "iter {iter} rank {rank_id} dir {dir} strip {strip}: {got} != {want}"
                    );
                }
            }
        }
        println!("iteration {iter}: all halos verified");
    }
    println!("halo_exchange OK digest={:#018x}", digest.finish());
}

/// Deterministic cell value for (iteration, sending rank, direction, strip).
fn halo_value(iter: u32, rank: u32, dir: u32, strip: u32) -> f64 {
    iter as f64 * 1000.0 + rank as f64 * 100.0 + dir as f64 * 10.0 + strip as f64
}
