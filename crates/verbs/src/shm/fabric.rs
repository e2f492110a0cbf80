//! The real-time shared-memory fabric.
//!
//! [`ShmFabric`] runs the verbs object model on *wall-clock time and real
//! threads*: every posted WR is serialised into a per-QP-pair SPSC
//! [`SpscRing`] (a DATA record carrying the gathered payload), a dedicated
//! progress thread drains rings into deliveries and completions, and the
//! receive side acknowledges each record on a paired ACK ring — the
//! RDMA-write-with-immediate protocol of Ibdxnet's messaging engine mapped
//! onto shared memory (see DESIGN.md §12).
//!
//! The data path copies a payload twice: `submit` gathers the source
//! segments (or the inline snapshot) straight into the DATA record's ring
//! slot behind its header, and the progress thread delivers from that slot
//! in place into the destination region, releasing the slot only
//! afterwards. The slot is the only intermediate buffer. Owned copies are
//! made only where a record must outlive it: records charged as dropped
//! (kept for retransmission) and receiver-not-ready deferrals (kept for the
//! RNR timer).
//!
//! Two deployments share all of this code:
//!
//! - **loopback** — both endpoints in one process over [`HeapSegment`]
//!   rings: the conformance-matrix configuration, where the same
//!   [`NetworkState`] (and telemetry registry) sees both sides;
//! - **host** — one process per endpoint over [`FileSegment`] rings in a
//!   tmpfs directory: the `shm_exchange` two-process deployment, where
//!   each process stamps its own side of the ledger.
//!
//! Reliability is PR 2's RC state machine on real [`Instant`] deadlines:
//! receiver-not-ready re-arms after the QP's `min_rnr_timer` (wall-clock)
//! up to `rnr_retry` times; deterministic fault injection (`drop_nth` /
//! `dup_nth`) exercises ack-timeout retransmission with the IB exponential
//! backoff (`4.096 µs × 2^timeout`, doubling per attempt) and PSN
//! exactly-once suppression. The ring transport itself is lossless, so
//! ack timers arm only for records charged as dropped — a presumed-lost
//! record is retransmitted, a merely-slow ack is awaited (this keeps the
//! double-entry wire ledger exact; see the invariant laws in
//! `partix-telemetry`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use partix_telemetry::{segments_for, FlowStage, Sampler, SHM_GAUGE_NAMES};

use crate::buf::{InlineVec, PooledBuf};
use crate::fabric::{
    complete_send, execute_delivery_from, outcome_status, sender_retry_profile, DeliveryOutcome,
    Fabric, PostOptions, TransferJob,
};
use crate::network::NetworkState;
use crate::qp::RetryProfile;
use crate::types::{Opcode, WcStatus};

use super::ring::{Popped, SpscRing};
use super::segment::{FileSegment, HeapSegment, Segment};

/// DATA record kind tag.
const KIND_DATA: u8 = 1;
/// ACK record kind tag.
const KIND_ACK: u8 = 2;

/// Serialized DATA header bytes (payload follows).
const DATA_HEADER: usize = 72;
/// Serialized ACK record bytes.
const ACK_LEN: usize = 48;

/// Configuration of a [`ShmFabric`].
#[derive(Clone, Copy, Debug)]
pub struct ShmConfig {
    /// Data-ring capacity per QP-pair channel, bytes. A single record
    /// (72-byte header + payload) must fit.
    pub ring_capacity: u64,
    /// ACK-ring capacity per channel, bytes.
    pub ack_capacity: u64,
    /// Deterministic loss injection: every `n`-th DATA enqueue is dropped
    /// before it reaches the ring (1 = every one). Drops are charged to the
    /// wire ledger and recovered by ack-timeout retransmission.
    pub drop_nth: Option<u64>,
    /// Deterministic duplication: every `n`-th DATA enqueue is preceded by
    /// a ghost copy sharing its PSN, which the receive side must suppress.
    pub dup_nth: Option<u64>,
    /// How long the progress thread parks when idle. Submissions unpark it,
    /// so this bounds RNR/timer latency, not message latency.
    pub idle_park: Duration,
    /// MTU used for `mtu_segments` accounting (the wire ledger's
    /// segmentation law), matching `FabricParams::mtu`.
    pub mtu: usize,
    /// Bound on waiting for ring space on submit before panicking (a ring
    /// sized far below the offered load is a deployment error, not a
    /// recoverable condition).
    pub full_ring_deadline: Duration,
}

impl Default for ShmConfig {
    fn default() -> Self {
        ShmConfig {
            ring_capacity: 1 << 20,
            ack_capacity: 1 << 16,
            drop_nth: None,
            dup_nth: None,
            idle_park: Duration::from_micros(100),
            mtu: 4096,
            full_ring_deadline: Duration::from_secs(10),
        }
    }
}

/// Where a fabric's segments live.
enum Backing {
    /// In-process heap rings, channels created lazily on first submit.
    Loopback,
    /// File rings under a shared directory; channels opened explicitly
    /// with [`ShmFabric::open_tx`] / [`ShmFabric::open_rx`].
    Host(PathBuf),
}

/// Directed channel identity: sender node/QP → receiver node/QP.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PairKey {
    src_node: u32,
    src_qp: u32,
    dst_node: u32,
    dst_qp: u32,
}

impl PairKey {
    fn file_stem(&self) -> String {
        format!(
            "partix_n{}q{}_n{}q{}",
            self.src_node, self.src_qp, self.dst_node, self.dst_qp
        )
    }
}

/// One directed QP-pair channel: DATA ring (sender → receiver) plus ACK
/// ring (receiver → sender).
struct Channel {
    key: PairKey,
    data: SpscRing,
    ack: SpscRing,
    /// This process produces DATA / consumes ACK.
    we_send: bool,
    /// This process consumes DATA / produces ACK.
    we_recv: bool,
    /// Serialises the DATA producer side (posts may come from any thread;
    /// the ring protocol wants one logical producer).
    tx_lock: Mutex<()>,
}

/// Sender-side record awaiting its ACK.
struct Pending {
    /// Completion identity (enough to rebuild the job for
    /// [`complete_send`]).
    echo: AckEcho,
    /// Retry attributes captured at post time.
    profile: RetryProfile,
    /// Wire attempts already charged as dropped; `retry_cnt` bounds this.
    attempts: u8,
    /// Set only for records charged as dropped, the only ones ever
    /// retransmitted.
    resend: Option<Resend>,
    /// Flow-clock timestamp at submit, for the wire-stage histogram.
    submit_ns: u64,
}

/// A drop-charged record's retransmission state.
struct Resend {
    /// The full DATA record (header and payload) as gathered at post time.
    record: Vec<u8>,
    /// When the ack-timeout backoff expires and the record is re-offered
    /// to the ring.
    deadline: Instant,
}

/// A delivery's receiver-not-ready budget (the sender's `rnr_retry` and
/// `min_rnr_timer`, carried in the DATA header) and the deferrals so far.
#[derive(Clone, Copy)]
struct RnrRetry {
    budget: u8,
    min_timer_ns: u64,
    attempts: u8,
}

/// Receiver-side delivery re-armed by the RNR timer. The job owns a copy
/// of the payload (`inline_payload`): the ring slot it arrived in has been
/// reused by then.
struct RnrPending {
    job: TransferJob,
    retry: RnrRetry,
    deadline: Instant,
}

/// The identity a receiver echoes back in an ACK.
#[derive(Clone, Copy)]
struct AckEcho {
    src_node: u32,
    src_qp: u32,
    dst_qp: u32,
    wr_id: u64,
    psn: u64,
    flow: u64,
    total_len: u32,
    opcode: Opcode,
}

#[derive(Default)]
struct ShmStats {
    submitted: AtomicU64,
    bytes: AtomicU64,
    data_records: AtomicU64,
    ack_records: AtomicU64,
    retransmits: AtomicU64,
    rnr_deferrals: AtomicU64,
    stale_acks: AtomicU64,
    ring_full_stalls: AtomicU64,
    progress_iterations: AtomicU64,
    progress_wakeups: AtomicU64,
    ring_occupancy_high_water: AtomicU64,
}

/// Mutable progress-engine state, under one lock: the sender's
/// outstanding-record table and the receiver's RNR retry queue.
#[derive(Default)]
struct Inflight {
    outstanding: HashMap<(u32, u64), Pending>,
    rnr: Vec<RnrPending>,
}

/// Real-time shared-memory fabric. See the module docs.
pub struct ShmFabric {
    cfg: ShmConfig,
    backing: Backing,
    channels: Mutex<Vec<Arc<Channel>>>,
    by_pair: Mutex<HashMap<PairKey, Arc<Channel>>>,
    inflight: Mutex<Inflight>,
    net: OnceLock<Weak<NetworkState>>,
    shutdown: AtomicBool,
    progress: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Progress thread handle for unparking on submit.
    progress_thread: Mutex<Option<std::thread::Thread>>,
    data_seq: AtomicU64,
    stats: ShmStats,
    /// Wall-clock sampler ticked by the progress thread, paired with the
    /// instant it was attached (its t = 0).
    sampler: OnceLock<(Arc<Sampler>, Instant)>,
    me: Weak<ShmFabric>,
}

impl ShmFabric {
    /// In-process fabric over heap rings with default configuration.
    pub fn loopback() -> Arc<Self> {
        Self::loopback_with(ShmConfig::default())
    }

    /// In-process fabric over heap rings.
    pub fn loopback_with(cfg: ShmConfig) -> Arc<Self> {
        Self::build(cfg, Backing::Loopback)
    }

    /// Cross-process fabric over file rings in `dir` (typically
    /// [`default_shm_dir`](super::segment::default_shm_dir)). Channels are
    /// opened explicitly with [`ShmFabric::open_tx`] /
    /// [`ShmFabric::open_rx`] after the out-of-band QP-number exchange.
    pub fn host(dir: impl Into<PathBuf>, cfg: ShmConfig) -> Arc<Self> {
        Self::build(cfg, Backing::Host(dir.into()))
    }

    fn build(cfg: ShmConfig, backing: Backing) -> Arc<Self> {
        assert!(
            cfg.ring_capacity > DATA_HEADER as u64 && cfg.ack_capacity > ACK_LEN as u64,
            "ring capacities must hold at least one record"
        );
        let fabric = Arc::new_cyclic(|me| ShmFabric {
            cfg,
            backing,
            channels: Mutex::new(Vec::new()),
            by_pair: Mutex::new(HashMap::new()),
            inflight: Mutex::new(Inflight::default()),
            net: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            progress: Mutex::new(None),
            progress_thread: Mutex::new(None),
            data_seq: AtomicU64::new(0),
            stats: ShmStats::default(),
            sampler: OnceLock::new(),
            me: me.clone(),
        });
        let weak = fabric.me.clone();
        let handle = std::thread::Builder::new()
            .name("partix-shm-progress".into())
            .spawn(move || progress_loop(weak))
            .expect("spawn shm progress thread");
        *fabric.progress_thread.lock() = Some(handle.thread().clone());
        *fabric.progress.lock() = Some(handle);
        fabric
    }

    /// The configuration in force.
    pub fn config(&self) -> ShmConfig {
        self.cfg
    }

    /// Register the network this fabric delivers into. Implicit on first
    /// `submit`; a receive-only process (host mode) calls it explicitly so
    /// the progress thread can resolve destination QPs.
    pub fn attach_network(&self, net: &Arc<NetworkState>) {
        let weak = self.net.get_or_init(|| Arc::downgrade(net));
        debug_assert!(
            weak.upgrade().is_some_and(|n| Arc::ptr_eq(&n, net)),
            "a ShmFabric serves exactly one network"
        );
    }

    /// Total WRs submitted.
    pub fn submitted(&self) -> u64 {
        self.stats.submitted.load(Ordering::Relaxed)
    }

    /// Total payload bytes submitted.
    pub fn total_bytes(&self) -> u64 {
        self.stats.bytes.load(Ordering::Relaxed)
    }

    /// DATA records consumed by this process's progress thread.
    pub fn data_records(&self) -> u64 {
        self.stats.data_records.load(Ordering::Relaxed)
    }

    /// ACK records consumed by this process's progress thread.
    pub fn ack_records(&self) -> u64 {
        self.stats.ack_records.load(Ordering::Relaxed)
    }

    /// Ack-timeout retransmissions performed.
    pub fn retransmits(&self) -> u64 {
        self.stats.retransmits.load(Ordering::Relaxed)
    }

    /// Deliveries re-armed by the wall-clock RNR timer.
    pub fn rnr_deferrals(&self) -> u64 {
        self.stats.rnr_deferrals.load(Ordering::Relaxed)
    }

    /// ACKs that arrived after their record had already completed (the
    /// duplicate-ack side effect of a timeout retransmission racing a slow
    /// original ack).
    pub fn stale_acks(&self) -> u64 {
        self.stats.stale_acks.load(Ordering::Relaxed)
    }

    /// Times a submit had to wait for ring space (backpressure events).
    pub fn ring_full_stalls(&self) -> u64 {
        self.stats.ring_full_stalls.load(Ordering::Relaxed)
    }

    /// Progress-thread loop iterations (each is one full scan of every
    /// channel plus timer service).
    pub fn progress_iterations(&self) -> u64 {
        self.stats.progress_iterations.load(Ordering::Relaxed)
    }

    /// Times the progress thread woke from an idle park (unparked by a
    /// submit or a timer deadline).
    pub fn progress_wakeups(&self) -> u64 {
        self.stats.progress_wakeups.load(Ordering::Relaxed)
    }

    /// High-water mark of DATA-ring occupancy in bytes, across every
    /// channel this process consumes, as observed by the progress thread.
    pub fn ring_occupancy_high_water(&self) -> u64 {
        self.stats.ring_occupancy_high_water.load(Ordering::Relaxed)
    }

    /// Attach a wall-clock [`Sampler`]: the progress thread ticks it with
    /// nanoseconds elapsed since this call, so frames capture windows of
    /// real time. One sampler per fabric; later calls are ignored.
    pub fn attach_sampler(&self, sampler: Arc<Sampler>) {
        let _ = self.sampler.set((sampler, Instant::now()));
    }

    /// The fabric-level gauges a composed [`Sample`](partix_telemetry::Sample)
    /// source should carry: progress-loop activity and ring occupancy.
    pub fn sample_gauges(&self) -> Vec<(&'static str, u64)> {
        SHM_GAUGE_NAMES
            .into_iter()
            .zip([
                self.progress_iterations(),
                self.progress_wakeups(),
                self.ring_occupancy_high_water(),
                self.ring_full_stalls(),
                self.rnr_deferrals(),
                self.stale_acks(),
            ])
            .collect()
    }

    /// Whether nothing is in flight on this fabric: every consumable ring
    /// drained, no record awaiting ack, no RNR-deferred delivery.
    pub fn is_idle(&self) -> bool {
        {
            let inflight = self.inflight.lock();
            if !inflight.outstanding.is_empty() || !inflight.rnr.is_empty() {
                return false;
            }
        }
        let channels = self.channels.lock();
        channels
            .iter()
            .all(|ch| (!ch.we_recv || ch.data.is_empty()) && (!ch.we_send || ch.ack.is_empty()))
    }

    /// Block until [`is_idle`](Self::is_idle) holds, or `timeout` elapses.
    /// Returns whether the fabric quiesced.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.is_idle() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            self.kick();
            std::thread::yield_now();
        }
    }

    /// Stop the progress thread: close every producer ring, wait for the
    /// final drain, and join. Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for ch in self.channels.lock().iter() {
            if ch.we_send {
                ch.data.close();
            }
            if ch.we_recv {
                ch.ack.close();
            }
        }
        self.kick();
        if let Some(handle) = self.progress.lock().take() {
            // If the progress thread itself holds the last `Arc` (so `Drop`
            // — and thus this method — runs *on* that thread), a join would
            // self-deadlock (EDEADLK). The stop flag is already set, so the
            // loop exits on its own; just let the handle fall away.
            if handle.thread().id() == std::thread::current().id() {
                return;
            }
            let _ = handle.join();
        }
    }

    fn kick(&self) {
        if let Some(t) = self.progress_thread.lock().as_ref() {
            t.unpark();
        }
    }

    /// Open the sending side of the directed channel `src → dst` (host
    /// mode): creates the segment files and waits up to `timeout` for the
    /// receiver to attach.
    pub fn open_tx(
        &self,
        src: (u32, u32),
        dst: (u32, u32),
        timeout: Duration,
    ) -> std::io::Result<()> {
        let key = PairKey {
            src_node: src.0,
            src_qp: src.1,
            dst_node: dst.0,
            dst_qp: dst.1,
        };
        let Backing::Host(dir) = &self.backing else {
            panic!("open_tx applies to host-mode fabrics; loopback channels are implicit");
        };
        let data =
            FileSegment::create(&dir.join(key.file_stem() + ".data"), self.cfg.ring_capacity)?;
        let ack = FileSegment::create(&dir.join(key.file_stem() + ".ack"), self.cfg.ack_capacity)?;
        let ch = self.install(key, Arc::new(data), Arc::new(ack), true, false);
        let deadline = Instant::now() + timeout;
        while !ch.data.is_attached() {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "peer did not attach to shm channel",
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Open the receiving side of the directed channel `src → dst` (host
    /// mode): polls for the sender's segment files up to `timeout`, then
    /// acknowledges attachment.
    pub fn open_rx(
        &self,
        src: (u32, u32),
        dst: (u32, u32),
        timeout: Duration,
    ) -> std::io::Result<()> {
        let key = PairKey {
            src_node: src.0,
            src_qp: src.1,
            dst_node: dst.0,
            dst_qp: dst.1,
        };
        let Backing::Host(dir) = &self.backing else {
            panic!("open_rx applies to host-mode fabrics; loopback channels are implicit");
        };
        let deadline = Instant::now() + timeout;
        let (data, ack) = loop {
            let data = FileSegment::open(&dir.join(key.file_stem() + ".data"))?;
            let ack = FileSegment::open(&dir.join(key.file_stem() + ".ack"))?;
            if let (Some(d), Some(a)) = (data, ack) {
                break (d, a);
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "shm channel segments never appeared",
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let ch = self.install(key, Arc::new(data), Arc::new(ack), false, true);
        ch.data.mark_attached();
        Ok(())
    }

    fn install(
        &self,
        key: PairKey,
        data: Arc<dyn Segment>,
        ack: Arc<dyn Segment>,
        we_send: bool,
        we_recv: bool,
    ) -> Arc<Channel> {
        let ch = Arc::new(Channel {
            key,
            data: SpscRing::new(data),
            ack: SpscRing::new(ack),
            we_send,
            we_recv,
            tx_lock: Mutex::new(()),
        });
        self.by_pair.lock().insert(key, ch.clone());
        self.channels.lock().push(ch.clone());
        ch
    }

    /// Channel for `key`, creating it lazily in loopback mode.
    fn channel(&self, key: PairKey) -> Arc<Channel> {
        if let Some(ch) = self.by_pair.lock().get(&key) {
            return ch.clone();
        }
        match &self.backing {
            Backing::Loopback => {
                // Double-checked under the map lock to keep creation
                // single-shot under concurrent posts.
                let mut map = self.by_pair.lock();
                if let Some(ch) = map.get(&key) {
                    return ch.clone();
                }
                let ch = Arc::new(Channel {
                    key,
                    data: SpscRing::new(Arc::new(HeapSegment::new(
                        self.cfg.ring_capacity as usize,
                    ))),
                    ack: SpscRing::new(Arc::new(HeapSegment::new(self.cfg.ack_capacity as usize))),
                    we_send: true,
                    we_recv: true,
                    tx_lock: Mutex::new(()),
                });
                map.insert(key, ch.clone());
                self.channels.lock().push(ch.clone());
                ch
            }
            Backing::Host(_) => panic!(
                "no shm channel open for QP pair {:?}; host mode requires open_tx before posting",
                key
            ),
        }
    }

    /// Publish a DATA record of `len` bytes on `ch`'s DATA ring, built in
    /// its slot by `fill` (see [`SpscRing::try_push_with`]), waiting out
    /// backpressure, and charge the wire ledger for a transfer entering the
    /// fabric.
    fn enqueue_data(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        len: usize,
        mut fill: impl FnMut(usize, &mut [u8]),
    ) {
        let payload_len = (len - DATA_HEADER) as u64;
        let _tx = ch.tx_lock.lock();
        if !ch.data.try_push_with(KIND_DATA, len, &mut fill) {
            self.stats.ring_full_stalls.fetch_add(1, Ordering::Relaxed);
            let deadline = Instant::now() + self.cfg.full_ring_deadline;
            loop {
                self.kick();
                std::thread::yield_now();
                if ch.data.try_push_with(KIND_DATA, len, &mut fill) {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "shm data ring {:?} full past the {:?} stall deadline — ring under-sized \
                     for the offered load or the consumer is gone",
                    ch.key,
                    self.cfg.full_ring_deadline
                );
            }
        }
        let wire = &net.telemetry().wire;
        wire.inner_submissions.inc();
        wire.mtu_segments
            .add(segments_for(payload_len, self.cfg.mtu));
        self.kick();
    }

    /// Publish `job` as a DATA record with `header`, gathering its payload
    /// straight into the ring slot.
    fn enqueue_job(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        header: &[u8; DATA_HEADER],
        job: &TransferJob,
    ) {
        let len = DATA_HEADER + job.total_len as usize;
        self.enqueue_data(net, ch, len, |at, piece| {
            gather_record(header, job, at, piece)
        });
    }
}

impl Drop for ShmFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Fabric for ShmFabric {
    fn submit(&self, net: &Arc<NetworkState>, job: TransferJob) {
        assert!(
            !self.shutdown.load(Ordering::Acquire),
            "submit on a shut-down ShmFabric"
        );
        self.attach_network(net);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(job.total_len as u64, Ordering::Relaxed);

        let key = PairKey {
            src_node: job.src_node,
            src_qp: job.src_qp,
            dst_node: job.dst_node,
            dst_qp: job.dst_qp,
        };
        let ch = self.channel(key);
        let profile = sender_retry_profile(net, &job).unwrap_or(RetryProfile {
            timeout: 5,
            retry_cnt: 0,
            rnr_retry: 0,
            min_rnr_timer_ns: 10_000,
        });
        let header = encode_data_header(&job, &profile);
        let flows = &net.telemetry().flows;
        let submit_ns = flows.now();
        flows.event(job.flow, FlowStage::WireSubmit, job.src_qp, 0, 0);

        // Ghost duplicates (ours or a lossy decorator's) are
        // fire-and-forget: no ack, no retransmission, no completion.
        if job.ghost {
            self.enqueue_job(net, &ch, &header, &job);
            return;
        }

        // Deterministic chaos, drawn per DATA submission in submit order.
        let seq = self.data_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let wire = &net.telemetry().wire;
        if let Some(n) = self.cfg.dup_nth {
            if seq % n.max(1) == 0 {
                wire.duplicates_injected.inc();
                let mut ghost = header;
                ghost[FLAGS_AT] |= FLAG_GHOST;
                self.enqueue_job(net, &ch, &ghost, &job);
            }
        }
        let dropped = self.cfg.drop_nth.is_some_and(|n| seq % n.max(1) == 0);

        let echo = AckEcho {
            src_node: job.src_node,
            src_qp: job.src_qp,
            dst_qp: job.dst_qp,
            wr_id: job.wr_id,
            psn: job.psn,
            flow: job.flow,
            total_len: job.total_len,
            opcode: job.opcode,
        };
        // A dropped record is gathered now, at post time, into the copy its
        // retransmissions re-send: the source region may be rewritten by
        // then.
        let resend = dropped.then(|| {
            let mut record = vec![0u8; DATA_HEADER + job.total_len as usize];
            gather_record(&header, &job, 0, &mut record);
            Resend {
                record,
                deadline: Instant::now() + Duration::from_nanos(profile.backoff_ns(0)),
            }
        });
        // Registered before the record can produce an ack, so the ack
        // handler always finds its entry.
        self.inflight.lock().outstanding.insert(
            (job.src_qp, job.psn),
            Pending {
                echo,
                profile,
                attempts: 0,
                resend,
                submit_ns,
            },
        );
        if dropped {
            // Lost before the wire: charged now, recovered by the ack
            // timer. The progress thread owns the retransmission.
            wire.dropped.inc();
            self.kick();
            return;
        }
        self.enqueue_job(net, &ch, &header, &job);
    }
}

// ---------------------------------------------------------------------------
// Wire records
// ---------------------------------------------------------------------------

const FLAG_IMM: u8 = 1;
const FLAG_GHOST: u8 = 2;
/// Offset of the flags byte in a DATA header.
const FLAGS_AT: usize = 60;

fn opcode_to_wire(op: Opcode) -> u8 {
    match op {
        Opcode::RdmaWrite => 0,
        Opcode::RdmaWriteWithImm => 1,
        Opcode::Send => 2,
        Opcode::SendWithImm => 3,
    }
}

fn opcode_from_wire(b: u8) -> Opcode {
    match b {
        0 => Opcode::RdmaWrite,
        1 => Opcode::RdmaWriteWithImm,
        2 => Opcode::Send,
        _ => Opcode::SendWithImm,
    }
}

fn status_to_wire(s: WcStatus) -> u8 {
    match s {
        WcStatus::Success => 0,
        WcStatus::RemoteAccessError => 1,
        WcStatus::RetryExceeded => 2,
        WcStatus::RnrRetryExceeded => 3,
        WcStatus::LocalLengthError => 4,
    }
}

fn status_from_wire(b: u8) -> WcStatus {
    match b {
        0 => WcStatus::Success,
        1 => WcStatus::RemoteAccessError,
        2 => WcStatus::RetryExceeded,
        3 => WcStatus::RnrRetryExceeded,
        _ => WcStatus::LocalLengthError,
    }
}

/// Encode `job`'s DATA header. The payload follows it in the record,
/// gathered by [`gather_record`].
fn encode_data_header(job: &TransferJob, profile: &RetryProfile) -> [u8; DATA_HEADER] {
    let mut h = [0u8; DATA_HEADER];
    h[0..4].copy_from_slice(&job.src_node.to_le_bytes());
    h[4..8].copy_from_slice(&job.dst_node.to_le_bytes());
    h[8..12].copy_from_slice(&job.src_qp.to_le_bytes());
    h[12..16].copy_from_slice(&job.dst_qp.to_le_bytes());
    h[16..24].copy_from_slice(&job.wr_id.to_le_bytes());
    h[24..32].copy_from_slice(&job.psn.to_le_bytes());
    h[32..40].copy_from_slice(&job.flow.to_le_bytes());
    h[40..48].copy_from_slice(&job.remote_addr.to_le_bytes());
    h[48..52].copy_from_slice(&job.rkey.to_le_bytes());
    h[52..56].copy_from_slice(&job.total_len.to_le_bytes());
    h[56..60].copy_from_slice(&job.imm.unwrap_or(0).to_le_bytes());
    let mut flags = 0u8;
    if job.imm.is_some() {
        flags |= FLAG_IMM;
    }
    if job.ghost {
        flags |= FLAG_GHOST;
    }
    h[FLAGS_AT] = flags;
    h[61] = opcode_to_wire(job.opcode);
    h[62] = profile.rnr_retry;
    h[64..72].copy_from_slice(&profile.min_rnr_timer_ns.to_le_bytes());
    h
}

/// Copy bytes `[at, at + out.len())` of `job`'s DATA record — `header`,
/// then the payload gathered *at post time* from the inline snapshot or
/// the source segments — into `out` (the wire must not chase
/// source-region rewrites across a process boundary).
fn gather_record(header: &[u8; DATA_HEADER], job: &TransferJob, at: usize, out: &mut [u8]) {
    let end = at + out.len();
    // Where record bytes `[pos, pos + len)` meet `out`: the offset into
    // that piece and the range of `out` it fills.
    let overlap = |pos: usize, len: usize| {
        let (lo, hi) = (pos.max(at), (pos + len).min(end));
        (lo < hi).then(|| (lo - pos, lo - at..hi - at))
    };
    if let Some((from, to)) = overlap(0, DATA_HEADER) {
        let n = to.len();
        out[to].copy_from_slice(&header[from..from + n]);
    }
    if let Some(p) = &job.inline_payload {
        if let Some((from, to)) = overlap(DATA_HEADER, p.len()) {
            let n = to.len();
            out[to].copy_from_slice(&p[from..from + n]);
        }
        return;
    }
    let mut pos = DATA_HEADER;
    for seg in job.segments.iter() {
        if let Some((from, to)) = overlap(pos, seg.len) {
            seg.mr
                .read(seg.offset + from, &mut out[to])
                .expect("segments validated at post time");
        }
        pos += seg.len;
    }
}

/// Parse a DATA record's header into a deliverable job (no payload: the
/// caller lends the bytes that follow the header) plus the sender's RNR
/// budget.
fn parse_data(rec: &[u8]) -> (TransferJob, RnrRetry) {
    let u32_at = |o: usize| u32::from_le_bytes(rec[o..o + 4].try_into().expect("fixed"));
    let u64_at = |o: usize| u64::from_le_bytes(rec[o..o + 8].try_into().expect("fixed"));
    let flags = rec[FLAGS_AT];
    let total_len = u32_at(52);
    debug_assert_eq!(rec.len() - DATA_HEADER, total_len as usize);
    let job = TransferJob {
        src_node: u32_at(0),
        dst_node: u32_at(4),
        src_qp: u32_at(8),
        dst_qp: u32_at(12),
        wr_id: u64_at(16),
        opcode: opcode_from_wire(rec[61]),
        segments: InlineVec::new(),
        remote_addr: u64_at(40),
        rkey: u32_at(48),
        imm: (flags & FLAG_IMM != 0).then(|| u32_at(56)),
        total_len,
        inline_payload: None,
        psn: u64_at(24),
        ghost: flags & FLAG_GHOST != 0,
        flow: u64_at(32),
        opts: PostOptions::default(),
    };
    let retry = RnrRetry {
        budget: rec[62],
        min_timer_ns: u64_at(64),
        attempts: 0,
    };
    (job, retry)
}

fn serialize_ack(echo: &AckEcho, status: WcStatus) -> [u8; ACK_LEN] {
    let mut rec = [0u8; ACK_LEN];
    rec[0..4].copy_from_slice(&echo.src_node.to_le_bytes());
    rec[4..8].copy_from_slice(&echo.src_qp.to_le_bytes());
    rec[8..12].copy_from_slice(&echo.dst_qp.to_le_bytes());
    rec[16..24].copy_from_slice(&echo.wr_id.to_le_bytes());
    rec[24..32].copy_from_slice(&echo.psn.to_le_bytes());
    rec[32..40].copy_from_slice(&echo.flow.to_le_bytes());
    rec[40..44].copy_from_slice(&echo.total_len.to_le_bytes());
    rec[44] = status_to_wire(status);
    rec[45] = opcode_to_wire(echo.opcode);
    rec
}

fn parse_ack(rec: &[u8]) -> (AckEcho, WcStatus) {
    let u32_at = |o: usize| u32::from_le_bytes(rec[o..o + 4].try_into().expect("fixed"));
    let u64_at = |o: usize| u64::from_le_bytes(rec[o..o + 8].try_into().expect("fixed"));
    (
        AckEcho {
            src_node: u32_at(0),
            src_qp: u32_at(4),
            dst_qp: u32_at(8),
            wr_id: u64_at(16),
            psn: u64_at(24),
            flow: u64_at(32),
            total_len: u32_at(40),
            opcode: opcode_from_wire(rec[45]),
        },
        status_from_wire(rec[44]),
    )
}

impl AckEcho {
    /// Rebuild the minimal job [`complete_send`] needs.
    fn to_job(self) -> TransferJob {
        TransferJob {
            src_node: self.src_node,
            dst_node: 0,
            src_qp: self.src_qp,
            dst_qp: self.dst_qp,
            wr_id: self.wr_id,
            opcode: self.opcode,
            segments: InlineVec::new(),
            remote_addr: 0,
            rkey: 0,
            imm: None,
            total_len: self.total_len,
            inline_payload: None,
            psn: self.psn,
            ghost: false,
            flow: self.flow,
            opts: PostOptions::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Progress engine
// ---------------------------------------------------------------------------

/// The dedicated poll/progress thread (Ibdxnet's receive thread): drains
/// DATA rings into deliveries + ACKs, ACK rings into send completions,
/// and services the wall-clock RNR and retransmission timers.
fn progress_loop(me: Weak<ShmFabric>) {
    let mut scratch: Vec<u8> = Vec::new();
    // This thread's copy of the channel list. Channels are only ever
    // added, so a length change is the only refresh signal needed.
    let mut channels: Vec<Arc<Channel>> = Vec::new();
    loop {
        let Some(fab) = me.upgrade() else { return };
        let shutting_down = fab.shutdown.load(Ordering::Acquire);
        let net = fab.net.get().and_then(|w| w.upgrade());
        let mut did_work = false;
        fab.stats
            .progress_iterations
            .fetch_add(1, Ordering::Relaxed);

        if let Some(net) = &net {
            {
                let all = fab.channels.lock();
                if all.len() != channels.len() {
                    channels.clone_from(&all);
                }
            }
            for ch in &channels {
                if ch.we_recv {
                    fab.stats
                        .ring_occupancy_high_water
                        .fetch_max(ch.data.len(), Ordering::Relaxed);
                    while let Popped::Record(()) =
                        ch.data.try_pop_with(&mut scratch, |kind, rec| {
                            debug_assert_eq!(kind, KIND_DATA);
                            fab.stats.data_records.fetch_add(1, Ordering::Relaxed);
                            fab.handle_data(net, ch, rec);
                        })
                    {
                        did_work = true;
                    }
                }
                if ch.we_send {
                    while let Popped::Record(()) = ch.ack.try_pop_with(&mut scratch, |kind, rec| {
                        debug_assert_eq!(kind, KIND_ACK);
                        fab.stats.ack_records.fetch_add(1, Ordering::Relaxed);
                        fab.handle_ack(net, rec);
                    }) {
                        did_work = true;
                    }
                }
            }
            did_work |= fab.service_rnr(net);
            did_work |= fab.service_timeouts(net);
        }

        if let Some((sampler, epoch)) = fab.sampler.get() {
            sampler.tick(epoch.elapsed().as_nanos() as u64);
        }

        if shutting_down {
            // Final drain: leave only once everything consumable is quiet
            // (or the fabric is being torn down with the network gone).
            if net.is_none() || (!did_work && fab.is_idle()) {
                return;
            }
            continue;
        }
        if !did_work {
            let park = fab.next_deadline_in().unwrap_or(fab.cfg.idle_park);
            drop(fab); // don't hold the Arc while parked: Drop must be able to join us
            std::thread::park_timeout(park);
            // The fabric may have been dropped while we were parked.
            if let Some(fab) = me.upgrade() {
                fab.stats.progress_wakeups.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl ShmFabric {
    /// Time until the nearest armed RNR/retransmission deadline, bounded
    /// by the idle park interval.
    fn next_deadline_in(&self) -> Option<Duration> {
        let inflight = self.inflight.lock();
        let now = Instant::now();
        let nearest = inflight
            .rnr
            .iter()
            .map(|r| r.deadline)
            .chain(
                inflight
                    .outstanding
                    .values()
                    .filter_map(|p| p.resend.as_ref().map(|r| r.deadline)),
            )
            .min()?;
        Some(
            nearest
                .saturating_duration_since(now)
                .min(self.cfg.idle_park),
        )
    }

    /// Deliver one DATA record, read in place from its ring slot. A
    /// receiver-not-ready outcome within the sender's budget copies the
    /// payload out of the slot, which is reused once this returns, and
    /// re-arms on the wall-clock RNR timer.
    fn handle_data(&self, net: &Arc<NetworkState>, ch: &Channel, rec: &[u8]) {
        let (job, retry) = parse_data(rec);
        let payload = &rec[DATA_HEADER..];
        if let Some(deadline) = self.deliver(net, ch, &job, payload, retry) {
            let job = TransferJob {
                inline_payload: Some(PooledBuf::from_vec(payload.to_vec())),
                ..job
            };
            self.inflight.lock().rnr.push(RnrPending {
                job,
                retry: RnrRetry {
                    attempts: 1,
                    ..retry
                },
                deadline,
            });
        }
    }

    /// Run the destination-side effects of `job` with `payload` and, for
    /// non-ghost records, acknowledge. Receiver-not-ready within the RNR
    /// budget acknowledges nothing and returns the deadline of the next
    /// attempt instead.
    fn deliver(
        &self,
        net: &Arc<NetworkState>,
        ch: &Channel,
        job: &TransferJob,
        payload: &[u8],
        retry: RnrRetry,
    ) -> Option<Instant> {
        let outcome = execute_delivery_from(net, job, payload);
        if matches!(outcome, DeliveryOutcome::ReceiverNotReady) && retry.attempts < retry.budget {
            let wire = &net.telemetry().wire;
            wire.rnr_requeues.inc();
            self.stats.rnr_deferrals.fetch_add(1, Ordering::Relaxed);
            let flows = &net.telemetry().flows;
            flows.event(
                job.flow,
                FlowStage::RnrWait,
                job.src_qp,
                0,
                retry.min_timer_ns,
            );
            if job.flow != 0 {
                flows.stage_ns(|s| &s.rnr_wait, retry.min_timer_ns);
            }
            return Some(Instant::now() + Duration::from_nanos(retry.min_timer_ns.max(1)));
        }
        if job.ghost {
            return None;
        }
        let echo = AckEcho {
            src_node: job.src_node,
            src_qp: job.src_qp,
            dst_qp: job.dst_qp,
            wr_id: job.wr_id,
            psn: job.psn,
            flow: job.flow,
            total_len: job.total_len,
            opcode: job.opcode,
        };
        let ack = serialize_ack(&echo, outcome_status(&outcome));
        let deadline = Instant::now() + self.cfg.full_ring_deadline;
        while !ch.ack.try_push(KIND_ACK, &ack) {
            assert!(
                Instant::now() < deadline,
                "shm ack ring full past the stall deadline — sender progress thread gone?"
            );
            std::thread::yield_now();
        }
        None
    }

    /// Complete a send against an arriving ACK. Duplicate acks (the
    /// receiver acks every non-ghost record, so a timeout retransmission
    /// that raced a slow original produces two) fall out of the
    /// outstanding table: only the first completes.
    fn handle_ack(&self, net: &Arc<NetworkState>, rec: &[u8]) {
        let (echo, status) = parse_ack(rec);
        let pending = self
            .inflight
            .lock()
            .outstanding
            .remove(&(echo.src_qp, echo.psn));
        let Some(pending) = pending else {
            self.stats.stale_acks.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let flows = &net.telemetry().flows;
        if echo.flow != 0 {
            let wire_ns = flows.now().saturating_sub(pending.submit_ns);
            flows.stage_ns(|s| &s.wire, wire_ns);
        }
        complete_send(net, &echo.to_job(), status);
    }

    /// Re-attempt RNR-deferred deliveries whose wall-clock timer expired.
    fn service_rnr(&self, net: &Arc<NetworkState>) -> bool {
        let now = Instant::now();
        let due: Vec<RnrPending> = {
            let mut inflight = self.inflight.lock();
            let mut due = Vec::new();
            let mut i = 0;
            while i < inflight.rnr.len() {
                if inflight.rnr[i].deadline <= now {
                    due.push(inflight.rnr.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            due
        };
        let worked = !due.is_empty();
        for mut r in due {
            let key = PairKey {
                src_node: r.job.src_node,
                src_qp: r.job.src_qp,
                dst_node: r.job.dst_node,
                dst_qp: r.job.dst_qp,
            };
            let Some(ch) = self.by_pair.lock().get(&key).cloned() else {
                continue;
            };
            let payload = r
                .job
                .inline_payload
                .as_deref()
                .expect("deferred deliveries own their payload");
            if let Some(deadline) = self.deliver(net, &ch, &r.job, payload, r.retry) {
                r.retry.attempts += 1;
                r.deadline = deadline;
                self.inflight.lock().rnr.push(r);
            }
        }
        worked
    }

    /// Retransmit (or give up on) records charged as dropped whose ack
    /// timeout expired: the IB sender-side exponential backoff on real
    /// [`Instant`] deadlines.
    fn service_timeouts(&self, net: &Arc<NetworkState>) -> bool {
        let now = Instant::now();
        let mut retransmit: Vec<(PairKey, Vec<u8>)> = Vec::new();
        let mut exhausted: Vec<(AckEcho, u64)> = Vec::new();
        {
            let mut inflight = self.inflight.lock();
            let keys: Vec<(u32, u64)> = inflight
                .outstanding
                .iter()
                .filter(|(_, p)| p.resend.as_ref().is_some_and(|r| r.deadline <= now))
                .map(|(k, _)| *k)
                .collect();
            for k in keys {
                let p = inflight.outstanding.get_mut(&k).expect("key just listed");
                if p.attempts >= p.profile.retry_cnt {
                    let p = inflight.outstanding.remove(&k).expect("present");
                    exhausted.push((p.echo, p.submit_ns));
                    continue;
                }
                p.attempts += 1;
                let backoff = Duration::from_nanos(p.profile.backoff_ns(p.attempts));
                let resend = p.resend.as_mut().expect("filtered on resend");
                // Re-armed pessimistically: if the chaos knob drops the
                // retransmitted record too, the next expiry doubles again.
                resend.deadline = now + backoff;
                let key = PairKey {
                    src_node: p.echo.src_node,
                    src_qp: p.echo.src_qp,
                    // dst lives in the record; recover it from the header.
                    dst_node: u32::from_le_bytes(resend.record[4..8].try_into().expect("fixed")),
                    dst_qp: p.echo.dst_qp,
                };
                retransmit.push((key, resend.record.clone()));
            }
        }
        let worked = !retransmit.is_empty() || !exhausted.is_empty();
        let wire = &net.telemetry().wire;
        for (key, record) in retransmit {
            self.stats.retransmits.fetch_add(1, Ordering::Relaxed);
            wire.retransmits.inc();
            let flow = u64::from_le_bytes(record[32..40].try_into().expect("fixed"));
            let src_qp = u32::from_le_bytes(record[8..12].try_into().expect("fixed"));
            net.telemetry()
                .flows
                .event(flow, FlowStage::Retransmit, src_qp, 0, 0);
            // The retransmitted record re-enters the wire; whether it is
            // dropped again is the next submit-order chaos draw.
            let seq = self.data_seq.fetch_add(1, Ordering::Relaxed) + 1;
            if self.cfg.drop_nth.is_some_and(|n| seq % n.max(1) == 0) {
                wire.dropped.inc();
                continue;
            }
            if let Some(ch) = self.by_pair.lock().get(&key).cloned() {
                if flow != 0 {
                    net.telemetry().flows.stage_ns(|s| &s.retrans_wait, 0);
                }
                self.enqueue_data(net, &ch, record.len(), |at, piece| {
                    piece.copy_from_slice(&record[at..at + piece.len()])
                });
            }
        }
        for (echo, _) in exhausted {
            wire.exhausted.inc();
            complete_send(net, &echo.to_job(), WcStatus::RetryExceeded);
        }
        worked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::CompletionQueue;
    use crate::network::{connect_pair, Context, Network};
    use crate::qp::{QpCaps, QueuePair};
    use crate::types::{imm, Opcode, RecvWr, SendWr, Sge, WcOpcode, WorkCompletion};
    use partix_telemetry::invariants;

    struct Pair {
        net: Network,
        fabric: Arc<ShmFabric>,
        a: Context,
        b: Context,
        qa: Arc<QueuePair>,
        qb: Arc<QueuePair>,
        cqa: Arc<CompletionQueue>,
        cqb: Arc<CompletionQueue>,
        pda: crate::network::ProtectionDomain,
        pdb: crate::network::ProtectionDomain,
    }

    fn pair(cfg: ShmConfig, caps: QpCaps) -> Pair {
        let fabric = ShmFabric::loopback_with(cfg);
        let net = Network::new(2, fabric.clone());
        let a = net.open(0).unwrap();
        let b = net.open(1).unwrap();
        let (pda, pdb) = (a.alloc_pd(), b.alloc_pd());
        let (cqa, cqb) = (a.create_cq(), b.create_cq());
        let qa = a.create_qp(pda, cqa.clone(), a.create_cq(), caps).unwrap();
        let qb = b.create_qp(pdb, b.create_cq(), cqb.clone(), caps).unwrap();
        connect_pair(&qa, &qb).unwrap();
        Pair {
            net,
            fabric,
            a,
            b,
            qa,
            qb,
            cqa,
            cqb,
            pda,
            pdb,
        }
    }

    fn poll_until(cq: &CompletionQueue, what: &str) -> WorkCompletion {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(wc) = cq.poll_one() {
                return wc;
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    fn write_with_imm(
        p: &Pair,
        src: &crate::memory::MemoryRegion,
        dst: &crate::memory::MemoryRegion,
        wr_id: u64,
        len: u32,
    ) {
        p.qa.post_send(SendWr {
            wr_id,
            opcode: Opcode::RdmaWriteWithImm,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: len,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: Some(imm::encode(0, 4)),
            inline_data: false,
            flow: 0,
        })
        .unwrap();
    }

    fn assert_clean(p: &Pair) {
        assert!(
            p.fabric.quiesce(Duration::from_secs(10)),
            "fabric must quiesce"
        );
        let report = invariants::check_strict(&p.net.state().telemetry_snapshot());
        assert!(report.is_clean(), "invariants violated: {report:?}");
    }

    #[test]
    fn loopback_write_with_imm_round_trip() {
        let p = pair(ShmConfig::default(), QpCaps::default());
        let src = p.a.reg_mr(p.pda, 4096).unwrap();
        let dst = p.b.reg_mr(p.pdb, 4096).unwrap();
        src.fill(0, 4096, 0x5a).unwrap();
        p.qb.post_recv(RecvWr::bare(70)).unwrap();
        write_with_imm(&p, &src, &dst, 1, 4096);
        let send_wc = poll_until(&p.cqa, "send CQE");
        assert_eq!(send_wc.wr_id, 1);
        assert_eq!(send_wc.status, WcStatus::Success);
        let recv_wc = poll_until(&p.cqb, "recv CQE");
        assert_eq!(recv_wc.wr_id, 70);
        assert_eq!(recv_wc.opcode, WcOpcode::RecvRdmaWithImm);
        assert_eq!(imm::decode(recv_wc.imm.unwrap()), (0, 4));
        assert_eq!(dst.read_vec(0, 4096).unwrap(), vec![0x5a; 4096]);
        assert_clean(&p);
        p.fabric.shutdown();
    }

    #[test]
    fn injected_drop_recovers_by_ack_timeout_retransmission() {
        let cfg = ShmConfig {
            drop_nth: Some(3),
            ..ShmConfig::default()
        };
        let p = pair(cfg, QpCaps::default());
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        for i in 0..3u64 {
            src.fill(0, 64, i as u8 + 1).unwrap();
            p.qb.post_recv(RecvWr::bare(100 + i)).unwrap();
            write_with_imm(&p, &src, &dst, i, 64);
            let wc = poll_until(&p.cqa, "send CQE");
            assert_eq!(wc.status, WcStatus::Success);
            let _ = poll_until(&p.cqb, "recv CQE");
            assert_eq!(dst.read_vec(0, 64).unwrap(), vec![i as u8 + 1; 64]);
        }
        assert_eq!(p.fabric.retransmits(), 1, "third submit was dropped once");
        assert_clean(&p);
        let snap = p.net.state().telemetry_snapshot();
        assert_eq!(snap.wire.dropped, 1);
        assert_eq!(snap.wire.retransmits, 1);
        p.fabric.shutdown();
    }

    #[test]
    fn injected_duplicates_are_psn_suppressed() {
        let cfg = ShmConfig {
            dup_nth: Some(1),
            ..ShmConfig::default()
        };
        let p = pair(cfg, QpCaps::default());
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        for i in 0..4u64 {
            src.fill(0, 64, 0x10 + i as u8).unwrap();
            p.qb.post_recv(RecvWr::bare(200 + i)).unwrap();
            write_with_imm(&p, &src, &dst, i, 64);
            let wc = poll_until(&p.cqa, "send CQE");
            assert_eq!(wc.status, WcStatus::Success);
            let _ = poll_until(&p.cqb, "recv CQE");
            assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0x10 + i as u8; 64]);
        }
        assert_clean(&p);
        let snap = p.net.state().telemetry_snapshot();
        assert_eq!(snap.wire.duplicates_injected, 4);
        assert_eq!(snap.wire.duplicates_suppressed, 4);
        p.fabric.shutdown();
    }

    #[test]
    fn rnr_waits_out_the_timer_on_the_wall_clock() {
        let caps = QpCaps {
            min_rnr_timer_ns: 2_000_000, // 2 ms per RNR wait
            ..QpCaps::default()
        };
        let p = pair(ShmConfig::default(), caps);
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        src.fill(0, 64, 0x77).unwrap();
        // No receive posted yet: the first delivery attempt hits RNR and
        // re-arms on the wall-clock timer; the receive lands mid-backoff.
        write_with_imm(&p, &src, &dst, 9, 64);
        std::thread::sleep(Duration::from_millis(1));
        p.qb.post_recv(RecvWr::bare(900)).unwrap();
        let wc = poll_until(&p.cqa, "send CQE");
        assert_eq!(wc.status, WcStatus::Success);
        let recv_wc = poll_until(&p.cqb, "recv CQE");
        assert_eq!(recv_wc.wr_id, 900);
        assert!(p.fabric.rnr_deferrals() >= 1, "at least one RNR deferral");
        assert_clean(&p);
        p.fabric.shutdown();
    }

    #[test]
    fn unrecoverable_loss_exhausts_the_retry_budget() {
        let cfg = ShmConfig {
            drop_nth: Some(1), // every attempt lost, retransmissions included
            ..ShmConfig::default()
        };
        let caps = QpCaps {
            timeout: 1, // 8.2 us base backoff: fail fast
            retry_cnt: 3,
            ..QpCaps::default()
        };
        let p = pair(cfg, caps);
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        p.qb.post_recv(RecvWr::bare(1)).unwrap();
        write_with_imm(&p, &src, &dst, 5, 64);
        let wc = poll_until(&p.cqa, "send CQE");
        assert_eq!(wc.status, WcStatus::RetryExceeded);
        assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0; 64], "nothing landed");
        assert!(p.fabric.quiesce(Duration::from_secs(10)));
        let snap = p.net.state().telemetry_snapshot();
        assert_eq!(snap.wire.exhausted, 1);
        assert_eq!(snap.wire.retransmits, 3);
        assert_eq!(snap.wire.dropped, 4, "original + three retransmissions");
        // Not `check_strict`: the receive WR is still legitimately posted.
        let report = invariants::check(&snap);
        assert!(report.is_clean(), "invariants violated: {report:?}");
        p.fabric.shutdown();
    }

    #[test]
    fn two_sided_send_lands_in_recv_scatter_space() {
        let p = pair(ShmConfig::default(), QpCaps::default());
        let src = p.a.reg_mr(p.pda, 256).unwrap();
        let dst = p.b.reg_mr(p.pdb, 256).unwrap();
        src.write(0, b"partitioned aggregation over shm").unwrap();
        p.qb.post_recv(RecvWr {
            wr_id: 11,
            sg_list: vec![Sge {
                addr: dst.addr(),
                length: 256,
                lkey: dst.lkey(),
            }],
        })
        .unwrap();
        p.qa.post_send(SendWr {
            wr_id: 12,
            opcode: Opcode::Send,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: 32,
                lkey: src.lkey(),
            }],
            remote_addr: 0,
            rkey: 0,
            imm: None,
            inline_data: false,
            flow: 0,
        })
        .unwrap();
        let wc = poll_until(&p.cqa, "send CQE");
        assert_eq!(wc.status, WcStatus::Success);
        let recv_wc = poll_until(&p.cqb, "recv CQE");
        assert_eq!(recv_wc.wr_id, 11);
        assert_eq!(recv_wc.byte_len, 32);
        assert_eq!(
            dst.read_vec(0, 32).unwrap(),
            b"partitioned aggregation over shm".to_vec()
        );
        assert_clean(&p);
        p.fabric.shutdown();
    }

    #[test]
    fn wall_clock_sampler_captures_frames_from_the_progress_thread() {
        use partix_telemetry::{Sample, SampleSource, SamplerConfig};
        let p = pair(ShmConfig::default(), QpCaps::default());
        let net = p.net.state().clone();
        let fab = p.fabric.clone();
        let source: SampleSource = Arc::new(move || Sample {
            snapshot: net.telemetry_snapshot(),
            stages: Vec::new(),
            gauges: fab.sample_gauges(),
        });
        let sampler = Sampler::new(
            SamplerConfig {
                interval_ns: 100_000, // 100 µs windows on the wall clock
                capacity: 64,
                deterministic: false,
            },
            source,
        );
        p.fabric.attach_sampler(sampler.clone());
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        for i in 0..4u64 {
            src.fill(0, 64, i as u8 + 1).unwrap();
            p.qb.post_recv(RecvWr::bare(300 + i)).unwrap();
            write_with_imm(&p, &src, &dst, i, 64);
            let _ = poll_until(&p.cqa, "send CQE");
            let _ = poll_until(&p.cqb, "recv CQE");
            std::thread::sleep(Duration::from_micros(300));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while sampler.frames_captured() == 0 {
            assert!(Instant::now() < deadline, "progress thread never sampled");
            std::thread::yield_now();
        }
        let frames = sampler.frames();
        let gauges: Vec<&str> = frames
            .last()
            .unwrap()
            .gauges
            .iter()
            .map(|g| g.name)
            .collect();
        assert!(gauges.contains(&"progress_iterations"));
        assert!(gauges.contains(&"ring_occupancy_high_water"));
        assert!(p.fabric.progress_iterations() > 0);
        assert_clean(&p);
        p.fabric.shutdown();
    }

    fn rdma_write(
        p: &Pair,
        src: &crate::memory::MemoryRegion,
        dst: &crate::memory::MemoryRegion,
        wr_id: u64,
        len: u32,
    ) {
        p.qa.post_send(SendWr {
            wr_id,
            opcode: Opcode::RdmaWrite,
            sg_list: vec![Sge {
                addr: src.addr(),
                length: len,
                lkey: src.lkey(),
            }],
            remote_addr: dst.addr(),
            rkey: dst.rkey(),
            imm: None,
            inline_data: false,
            flow: 0,
        })
        .unwrap();
    }

    #[test]
    fn rnr_deferred_write_survives_its_ring_slot_being_reused() {
        const LEN: usize = 64 << 10;
        // Four 64 KiB records fill the ring, so the eight writes below
        // reuse the deferred record's slot at least once.
        let cfg = ShmConfig {
            ring_capacity: 4 * (LEN as u64 + 80),
            ..ShmConfig::default()
        };
        let caps = QpCaps {
            min_rnr_timer_ns: 50_000_000, // 50 ms per RNR wait, 7 waits
            ..QpCaps::default()
        };
        let p = pair(cfg, caps);
        let src = p.a.reg_mr(p.pda, LEN).unwrap();
        let other = p.a.reg_mr(p.pda, LEN).unwrap();
        let dst = p.b.reg_mr(p.pdb, LEN).unwrap();
        let scratch_dst = p.b.reg_mr(p.pdb, LEN).unwrap();
        let expect: Vec<u8> = (0..LEN).map(|i| (i * 7 + 3) as u8).collect();
        src.write(0, &expect).unwrap();
        // No receive posted: the delivery is deferred and must own its
        // payload, because its slot is about to be overwritten.
        write_with_imm(&p, &src, &dst, 1, LEN as u32);
        let deadline = Instant::now() + Duration::from_secs(10);
        while p.fabric.rnr_deferrals() == 0 {
            assert!(Instant::now() < deadline, "write was never RNR-deferred");
            std::thread::yield_now();
        }
        src.fill(0, LEN, 0xEE).unwrap(); // the source may change after post
        for i in 0..8u64 {
            other.fill(0, LEN, 0x40 + i as u8).unwrap();
            rdma_write(&p, &other, &scratch_dst, 10 + i, LEN as u32);
            let wc = poll_until(&p.cqa, "plain write CQE");
            assert_eq!((wc.wr_id, wc.status), (10 + i, WcStatus::Success));
        }
        assert_eq!(scratch_dst.read_vec(0, LEN).unwrap(), vec![0x47; LEN]);
        assert_eq!(p.fabric.data_records(), 9);
        p.qb.post_recv(RecvWr::bare(77)).unwrap();
        let wc = poll_until(&p.cqa, "deferred write CQE");
        assert_eq!((wc.wr_id, wc.status), (1, WcStatus::Success));
        assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 77);
        assert!(
            dst.read_vec(0, LEN).unwrap() == expect,
            "deferred payload corrupted"
        );
        assert_clean(&p);
        p.fabric.shutdown();
    }

    #[test]
    fn records_straddling_the_ring_wrap_deliver_byte_exact() {
        // 300-byte payloads make 380-byte records: in a 1000-byte ring the
        // third record's payload crosses the wrap point and is delivered
        // from the progress thread's scratch buffer, after which the
        // cursors land at a new offset on every lap. Two SGEs (split at
        // byte 120) make the wrap split fall inside either segment.
        const LEN: usize = 300;
        const SPLIT: usize = 120;
        let cfg = ShmConfig {
            ring_capacity: 1000,
            ..ShmConfig::default()
        };
        let p = pair(cfg, QpCaps::default());
        let src = p.a.reg_mr(p.pda, LEN).unwrap();
        let dst = p.b.reg_mr(p.pdb, LEN).unwrap();
        let sge = |at: usize, len: usize| Sge {
            addr: src.addr_at(at),
            length: len as u32,
            lkey: src.lkey(),
        };
        for i in 0..12u64 {
            let bytes: Vec<u8> = (0..LEN).map(|j| (j as u64 * 13 + i * 29) as u8).collect();
            src.write(0, &bytes).unwrap();
            p.qb.post_recv(RecvWr::bare(500 + i)).unwrap();
            p.qa.post_send(SendWr {
                wr_id: i,
                opcode: Opcode::RdmaWriteWithImm,
                sg_list: vec![sge(0, SPLIT), sge(SPLIT, LEN - SPLIT)],
                remote_addr: dst.addr(),
                rkey: dst.rkey(),
                imm: Some(imm::encode(0, 4)),
                inline_data: false,
                flow: 0,
            })
            .unwrap();
            assert_eq!(poll_until(&p.cqa, "send CQE").status, WcStatus::Success);
            assert_eq!(poll_until(&p.cqb, "recv CQE").wr_id, 500 + i);
            assert_eq!(dst.read_vec(0, LEN).unwrap(), bytes, "record {i}");
        }
        assert_clean(&p);
        p.fabric.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drains() {
        let p = pair(ShmConfig::default(), QpCaps::default());
        let src = p.a.reg_mr(p.pda, 64).unwrap();
        let dst = p.b.reg_mr(p.pdb, 64).unwrap();
        src.fill(0, 64, 0xEE).unwrap();
        p.qb.post_recv(RecvWr::bare(3)).unwrap();
        write_with_imm(&p, &src, &dst, 2, 64);
        let _ = poll_until(&p.cqa, "send CQE");
        p.fabric.shutdown();
        p.fabric.shutdown(); // second call is a no-op
        assert_eq!(dst.read_vec(0, 64).unwrap(), vec![0xEE; 64]);
        let _ = &p.qa;
    }
}
