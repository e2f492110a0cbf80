//! Two-process sustained-throughput benchmark over the real-time
//! shared-memory fabric. Writes `results/BENCH_shm.json`.
//!
//! ```text
//! shm_exchange [--smoke] [--out DIR] [--prom ADDR]
//! ```
//!
//! `--prom ADDR` (e.g. `127.0.0.1:9464`) attaches a wall-clock telemetry
//! sampler to the sender's progress thread and serves the latest window
//! frame as a Prometheus scrape endpoint for the duration of the run —
//! `curl http://ADDR/metrics` while the bench streams to watch
//! `partix_window_*` deltas and `partix_gauge_*` ring counters live.
//!
//! The parent process is rank A (node 0); it re-executes itself as rank B
//! (node 1) with `--role b`. The two processes bootstrap exactly like a
//! real verbs deployment: each registers memory, creates a QP, publishes
//! its QP number / rkey / buffer address as an out-of-band blob in the
//! shared tmpfs directory, opens the directed shm channel
//! (`open_tx`/`open_rx` with the file-segment attach handshake), and then
//! A streams RDMA-write-with-immediate messages into B's slot buffer with
//! a 16-WR window while B consumes receive CQEs and verifies payload
//! bytes. Throughput is measured on A from first post to last send-side
//! completion — i.e. it includes the full ack round trip through the
//! reverse ring, not just enqueue rate.
//!
//! Per row the JSON records sustained msgs/s and GB/s plus the fabric's
//! reliability counters (retransmits, stale acks, ring-full backpressure
//! stalls) from both sides, so a "fast" run that silently leaned on the
//! retry machinery is visible as such.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use partix_bench::prom::PromServer;
use partix_verbs::shm::{await_blob, default_shm_dir, publish_blob};
use partix_verbs::telemetry::{Sample, SampleSource, Sampler, SamplerConfig};
use partix_verbs::{
    Network, Opcode, PeerId, QpCaps, QpState, RecvWr, SendWr, Sge, ShmConfig, ShmFabric,
    VerbsError, WcStatus,
};

/// Receive-window slots (and the sender's source slots): message `j` lands
/// in slot `j % SLOTS`, so with a 16-WR send window a slot is never
/// rewritten while its previous occupant could still be unverified.
const SLOTS: usize = 32;
/// Slot stride: the largest message size benchmarked.
const STRIDE: usize = 64 << 10;
/// Sender window (the QP's hardware cap).
const WINDOW: u64 = 16;
/// Receive WRs kept posted ahead of the sender.
const RECV_DEPTH: u64 = 256;

/// QP caps for both ends. The default 10 µs RNR timer models NIC-speed
/// re-arm, but this bench runs two processes plus two progress threads on
/// whatever CPUs the host has — on a single core, a scheduler timeslice
/// easily exceeds the whole default RNR budget while the receiver is
/// merely waiting its turn to repost. A 2 ms timer × 7 retries rides out
/// scheduling latency without masking a genuinely stuck receiver.
fn bench_caps() -> QpCaps {
    QpCaps {
        min_rnr_timer_ns: 2_000_000,
        ..QpCaps::default()
    }
}

/// Deterministic payload byte `k` of slot `s`.
fn slot_byte(s: usize, k: usize) -> u8 {
    (s.wrapping_mul(131).wrapping_add(k.wrapping_mul(7)) & 0xff) as u8
}

fn rows(smoke: bool) -> Vec<(usize, u64)> {
    if smoke {
        vec![(64, 5_000), (4096, 1_000), (STRIDE, 200)]
    } else {
        vec![(64, 200_000), (4096, 50_000), (STRIDE, 5_000)]
    }
}

struct RowResult {
    msg_bytes: usize,
    messages: u64,
    wall_s: f64,
    msgs_per_sec: f64,
    gb_per_sec: f64,
    sender_retransmits: u64,
    sender_stale_acks: u64,
    sender_ring_full_stalls: u64,
    receiver_report: String,
}

fn parse_kv(report: &str, key: &str) -> Option<u64> {
    report.split_whitespace().find_map(|pair| {
        pair.strip_prefix(&format!("{key}="))
            .and_then(|v| v.parse().ok())
    })
}

/// Attach a wall-clock sampler (1 ms windows, last 600 retained) to the
/// sender fabric and serve its latest frame at `addr`.
fn start_prom(addr: &str, fabric: &Arc<ShmFabric>, net: &Network) -> PromServer {
    let state = net.state().clone();
    let fab = fabric.clone();
    let source: SampleSource = Arc::new(move || Sample {
        snapshot: state.telemetry_snapshot(),
        stages: Vec::new(),
        gauges: fab.sample_gauges(),
    });
    let sampler = Sampler::new(
        SamplerConfig {
            interval_ns: 1_000_000,
            capacity: 600,
            deterministic: false,
        },
        source,
    );
    fabric.attach_sampler(sampler.clone());
    let srv = PromServer::bind(addr, sampler).expect("bind Prometheus endpoint");
    println!("serving metrics at http://{}/metrics", srv.local_addr());
    srv
}

/// Rank A: the sender / orchestrator.
fn role_a(dir: &Path, smoke: bool, out: &Path, prom: Option<&str>) {
    let fabric = ShmFabric::host(dir.to_path_buf(), ShmConfig::default());
    let net = Network::new(2, fabric.clone() as Arc<dyn partix_verbs::Fabric>);
    let _prom_server = prom.map(|addr| start_prom(addr, &fabric, &net));
    let a = net.open(0).expect("node 0");
    let pd = a.alloc_pd();
    let (send_cq, recv_cq) = (a.create_cq(), a.create_cq());
    let qa = a
        .create_qp(pd, send_cq.clone(), recv_cq, bench_caps())
        .expect("qp a");
    let src = a.reg_mr(pd, SLOTS * STRIDE).expect("source slots");
    for s in 0..SLOTS {
        let bytes: Vec<u8> = (0..STRIDE).map(|k| slot_byte(s, k)).collect();
        src.write(s * STRIDE, &bytes).expect("fill slot");
    }

    publish_blob(dir, "ep_a", format!("qp={}", qa.qp_num()).as_bytes()).expect("publish ep_a");
    let ep_b =
        String::from_utf8(await_blob(dir, "ep_b", Duration::from_secs(60)).expect("await ep_b"))
            .expect("utf8 ep_b");
    let qb_num = parse_kv(&ep_b, "qp").expect("peer qp") as u32;
    let rkey = parse_kv(&ep_b, "rkey").expect("peer rkey") as u32;
    let base_addr = parse_kv(&ep_b, "addr").expect("peer addr");

    qa.modify(QpState::Init).expect("init");
    qa.modify_to_rtr(PeerId {
        node: 1,
        qp_num: qb_num,
    })
    .expect("rtr");
    qa.modify_to_rts().expect("rts");
    fabric
        .open_tx((0, qa.qp_num()), (1, qb_num), Duration::from_secs(60))
        .expect("open data channel");

    let mut results: Vec<RowResult> = Vec::new();
    for (cfg_idx, (msg_bytes, messages)) in rows(smoke).iter().copied().enumerate() {
        // B pre-posts its receive window, then signals readiness.
        let rdy = format!("rdy_{cfg_idx}_b");
        await_blob(dir, &rdy, Duration::from_secs(60)).expect("await receiver ready");

        let stalls0 = fabric.ring_full_stalls();
        let retrans0 = fabric.retransmits();
        let stale0 = fabric.stale_acks();
        let mut completed = 0u64;
        let t0 = Instant::now();
        for j in 0..messages {
            let slot = (j % SLOTS as u64) as usize;
            let wr = SendWr {
                wr_id: j,
                opcode: Opcode::RdmaWriteWithImm,
                sg_list: vec![Sge {
                    addr: src.addr() + (slot * STRIDE) as u64,
                    length: msg_bytes as u32,
                    lkey: src.lkey(),
                }],
                remote_addr: base_addr + (slot * STRIDE) as u64,
                rkey,
                imm: Some(j as u32),
                inline_data: false,
                flow: 0,
            };
            // Window at the QP cap: on a full queue, reap completions.
            let mut wr = Some(wr);
            loop {
                match qa.post_send(wr.take().expect("wr")) {
                    Ok(()) => break,
                    Err(VerbsError::SendQueueFull { .. }) => {
                        loop {
                            if let Some(wc) = send_cq.poll_one() {
                                assert_eq!(wc.status, WcStatus::Success, "send {}", wc.wr_id);
                                completed += 1;
                                break;
                            }
                            std::thread::yield_now();
                        }
                        // post_send admitted nothing on a full queue but
                        // took the WR by value, so rebuild it.
                        wr = Some(SendWr {
                            wr_id: j,
                            opcode: Opcode::RdmaWriteWithImm,
                            sg_list: vec![Sge {
                                addr: src.addr() + (slot * STRIDE) as u64,
                                length: msg_bytes as u32,
                                lkey: src.lkey(),
                            }],
                            remote_addr: base_addr + (slot * STRIDE) as u64,
                            rkey,
                            imm: Some(j as u32),
                            inline_data: false,
                            flow: 0,
                        });
                    }
                    Err(e) => panic!("post {j}: {e}"),
                }
            }
            // Opportunistic reap keeps the queue from hard-filling.
            while let Some(wc) = send_cq.poll_one() {
                assert_eq!(wc.status, WcStatus::Success, "send {}", wc.wr_id);
                completed += 1;
            }
        }
        while completed < messages {
            match send_cq.poll_one() {
                Some(wc) => {
                    assert_eq!(wc.status, WcStatus::Success, "send {}", wc.wr_id);
                    completed += 1;
                }
                None => std::hint::spin_loop(),
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();

        let done = format!("done_{cfg_idx}_b");
        let report = String::from_utf8(
            await_blob(dir, &done, Duration::from_secs(60)).expect("await receiver done"),
        )
        .expect("utf8 done");
        let received = parse_kv(&report, "received").unwrap_or(0);
        assert_eq!(received, messages, "receiver lost messages: {report}");
        assert_eq!(
            parse_kv(&report, "verify_failures").unwrap_or(u64::MAX),
            0,
            "receiver verification failed: {report}"
        );

        let row = RowResult {
            msg_bytes,
            messages,
            wall_s,
            msgs_per_sec: messages as f64 / wall_s,
            gb_per_sec: (messages as f64 * msg_bytes as f64) / wall_s / 1e9,
            sender_retransmits: fabric.retransmits() - retrans0,
            sender_stale_acks: fabric.stale_acks() - stale0,
            sender_ring_full_stalls: fabric.ring_full_stalls() - stalls0,
            receiver_report: report.trim().to_string(),
        };
        println!(
            "{:>7} B x {:>7}: {:>10.0} msgs/s {:>8.3} GB/s  (wall {:.3}s, stalls {}, retrans {})",
            row.msg_bytes,
            row.messages,
            row.msgs_per_sec,
            row.gb_per_sec,
            row.wall_s,
            row.sender_ring_full_stalls,
            row.sender_retransmits
        );
        results.push(row);
    }

    publish_blob(dir, "shutdown_a", b"bye").expect("publish shutdown");
    write_json(out, smoke, &results, &fabric.sample_gauges()).expect("write BENCH_shm.json");
    assert!(
        fabric.quiesce(Duration::from_secs(10)),
        "sender fabric failed to quiesce"
    );
    fabric.shutdown();
}

/// Rank B: the receiver.
fn role_b(dir: &Path, smoke: bool) {
    let fabric = ShmFabric::host(dir.to_path_buf(), ShmConfig::default());
    let net = Network::new(2, fabric.clone() as Arc<dyn partix_verbs::Fabric>);
    let b = net.open(1).expect("node 1");
    let pd = b.alloc_pd();
    let (send_cq, recv_cq) = (b.create_cq(), b.create_cq());
    let qb = b
        .create_qp(pd, send_cq, recv_cq.clone(), bench_caps())
        .expect("qp b");
    let dst = b.reg_mr(pd, SLOTS * STRIDE).expect("slot buffer");

    publish_blob(
        dir,
        "ep_b",
        format!("qp={} rkey={} addr={}", qb.qp_num(), dst.rkey(), dst.addr()).as_bytes(),
    )
    .expect("publish ep_b");
    let ep_a =
        String::from_utf8(await_blob(dir, "ep_a", Duration::from_secs(60)).expect("await ep_a"))
            .expect("utf8 ep_a");
    let qa_num = parse_kv(&ep_a, "qp").expect("peer qp") as u32;

    qb.modify(QpState::Init).expect("init");
    qb.modify_to_rtr(PeerId {
        node: 0,
        qp_num: qa_num,
    })
    .expect("rtr");
    qb.modify_to_rts().expect("rts");
    // Receive-only process: give the progress thread its delivery target
    // before any record can arrive.
    fabric.attach_network(net.state());
    fabric
        .open_rx((0, qa_num), (1, qb.qp_num()), Duration::from_secs(60))
        .expect("open data channel");

    for (cfg_idx, (msg_bytes, messages)) in rows(smoke).iter().copied().enumerate() {
        let mut posted = 0u64;
        while posted < RECV_DEPTH.min(messages) {
            qb.post_recv(RecvWr::bare(posted)).expect("pre-post recv");
            posted += 1;
        }
        publish_blob(dir, &format!("rdy_{cfg_idx}_b"), b"ready").expect("publish ready");

        let mut received = 0u64;
        let mut out_of_order = 0u64;
        while received < messages {
            match recv_cq.poll_one() {
                Some(wc) => {
                    if wc.imm != Some(received as u32) {
                        out_of_order += 1;
                    }
                    assert_eq!(wc.byte_len, msg_bytes as u32, "recv {}", received);
                    received += 1;
                    if posted < messages {
                        qb.post_recv(RecvWr::bare(posted)).expect("repost recv");
                        posted += 1;
                    }
                }
                None => std::hint::spin_loop(),
            }
        }
        // The stream is quiet: spot-verify the final window's slots
        // against the sender's deterministic fill.
        let tail = messages.min(SLOTS as u64);
        let mut verify_failures = 0u64;
        for j in (messages - tail)..messages {
            let slot = (j % SLOTS as u64) as usize;
            let got = dst.read_vec(slot * STRIDE, msg_bytes).expect("read slot");
            if !(0..msg_bytes).all(|k| got[k] == slot_byte(slot, k)) {
                verify_failures += 1;
            }
        }
        publish_blob(
            dir,
            &format!("done_{cfg_idx}_b"),
            format!(
                "received={received} out_of_order={out_of_order} \
                 verify_failures={verify_failures} data_records={} \
                 rnr_deferrals={}",
                fabric.data_records(),
                fabric.rnr_deferrals()
            )
            .as_bytes(),
        )
        .expect("publish done");
    }

    await_blob(dir, "shutdown_a", Duration::from_secs(60)).expect("await shutdown");
    fabric.shutdown();
}

fn write_json(
    out: &Path,
    smoke: bool,
    results: &[RowResult],
    fabric_gauges: &[(&'static str, u64)],
) -> std::io::Result<()> {
    use std::fmt::Write;
    let mut f = String::new();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let w = &mut f;
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "  \"bench\": \"shm_exchange\",");
    let _ = writeln!(w, "  \"smoke\": {smoke},");
    let _ = writeln!(w, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(w, "  \"window\": {WINDOW},");
    let _ = writeln!(w, "  \"slots\": {SLOTS},");
    let _ = writeln!(w, "  \"sender_fabric\": {{");
    for (i, (name, v)) in fabric_gauges.iter().enumerate() {
        let sep = if i + 1 == fabric_gauges.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(w, "    \"{name}\": {v}{sep}");
    }
    let _ = writeln!(w, "  }},");
    let _ = writeln!(w, "  \"rows\": [");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(w, "    {{");
        let _ = writeln!(w, "      \"msg_bytes\": {},", r.msg_bytes);
        let _ = writeln!(w, "      \"messages\": {},", r.messages);
        let _ = writeln!(w, "      \"wall_s\": {:.6},", r.wall_s);
        let _ = writeln!(w, "      \"msgs_per_sec\": {:.0},", r.msgs_per_sec);
        let _ = writeln!(w, "      \"gb_per_sec\": {:.4},", r.gb_per_sec);
        let _ = writeln!(w, "      \"sender_retransmits\": {},", r.sender_retransmits);
        let _ = writeln!(w, "      \"sender_stale_acks\": {},", r.sender_stale_acks);
        let _ = writeln!(
            w,
            "      \"sender_ring_full_stalls\": {},",
            r.sender_ring_full_stalls
        );
        let _ = writeln!(w, "      \"receiver_report\": \"{}\"", r.receiver_report);
        let _ = writeln!(w, "    }}{sep}");
    }
    let _ = writeln!(w, "  ]");
    let _ = writeln!(w, "}}");
    let path = partix_bench::artifacts::write_artifact(out, "BENCH_shm.json", &f)?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let mut role = String::from("a");
    let mut smoke = false;
    let mut out = PathBuf::from("results");
    let mut dir: Option<PathBuf> = None;
    let mut prom: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--role" => role = it.next().expect("--role requires a value"),
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(it.next().expect("--out requires a value")),
            "--dir" => dir = Some(PathBuf::from(it.next().expect("--dir requires a value"))),
            "--prom" => prom = Some(it.next().expect("--prom requires an address")),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    match role.as_str() {
        "b" => {
            let dir = dir.expect("--dir is required for --role b");
            role_b(&dir, smoke);
        }
        "a" => {
            let dir = dir.unwrap_or_else(|| {
                default_shm_dir().join(format!("partix_shm_exchange_{}", std::process::id()))
            });
            std::fs::create_dir_all(&dir).expect("create work dir");
            let exe = std::env::current_exe().expect("own path");
            let mut cmd = Command::new(exe);
            cmd.arg("--role").arg("b").arg("--dir").arg(&dir);
            if smoke {
                cmd.arg("--smoke");
            }
            let mut child = cmd.spawn().expect("spawn rank B");
            role_a(&dir, smoke, &out, prom.as_deref());
            let status = child.wait().expect("wait for rank B");
            assert!(status.success(), "rank B exited with {status:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        other => {
            eprintln!("unknown --role {other} (want a|b)");
            std::process::exit(2);
        }
    }
}
