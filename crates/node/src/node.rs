//! The networked validator: a thin transport/WAL/clock shell over the
//! shared sans-I/O engine.
//!
//! All consensus logic — DAG admission, synchronization, round pacing,
//! block production, the commit rule, evidence handling — lives in the
//! shared [`ValidatorEngine`] (`mahimahi-core`), the same state machine
//! the simulator drives. This shell only maps engine effects onto the
//! real world:
//!
//! - [`Output::Broadcast`]/[`Output::SendTo`] → the length-prefixed TCP
//!   [`Transport`];
//! - [`Output::Persist`] → the write-ahead log, fsynced before the next
//!   send when [`WalRecord::is_durable`] (durability before
//!   dissemination — the rule and its reasons are stated there);
//! - [`Output::Committed`] → the application's commit channel;
//! - time → [`Input::TimerFired`] from an `Instant`-derived microsecond
//!   counter, fed once per event-loop iteration. The loop blocks until the
//!   earliest of a frame, the engine's earliest pending [`Output::WakeAt`],
//!   and a 2 ms fallback for the two inputs that cannot wake a blocked
//!   receive (see [`FALLBACK_WAIT`]), so a deadline is served when it falls
//!   due rather than at the next poll.
//!
//! Frames are decoded and verified on the loop's own thread, right before
//! the engine applies them ([`NodeConfig::verify_workers`] is 0 by
//! default): no verdict waits on another thread for the loop to wake up.
//!
//! Recovery replays the WAL's [`WalRecord`]s into the engine before the
//! first input: blocks rebuild the DAG and the produced-round watermark,
//! evidence records restore convictions, the latest checkpoint restores
//! the cut everything below it was compacted away for (see [`crate::log`]).

use crate::log::{AnyWal, LogStats, NodeLog};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use mahimahi_core::{
    engine::{EngineConfig, Input, Time as EngineTime},
    AdmissionConfig, AdmissionPipeline, CommittedSubDag, Committer, CommitterOptions, EvidencePool,
    IngressConfig, MempoolConfig, Output, TxIntegrityReport, ValidatorEngine, WalRecord,
};
use mahimahi_crypto::{CoinSecret, Keypair};
use mahimahi_dag::BlockStore;
use mahimahi_telemetry::{Gauge, Histogram, Registry, Stage, StageSnapshot, StageStats};
use mahimahi_transport::{wake_acceptor, Transport};
use mahimahi_types::{
    AuthorityIndex, Committee, Encode, Envelope, Round, TestCommittee, Transaction, TxReceipt,
    Verified,
};
use mahimahi_wal::{FileWal, MemStorage, Wal};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on frames handled per event-loop iteration, so a flooding
/// peer cannot starve the timer tick (production pacing, wake-ups).
const MAX_FRAMES_PER_ITERATION: usize = 128;

/// The longest the event loop blocks with no frame and no engine deadline
/// due. Frames wake the loop and [`Alarm`] serves every
/// [`Output::WakeAt`] on time; this bound exists only for the two sources
/// that cannot wake a blocked receive — batches submitted through
/// [`NodeHandle`] and the stop flag — and is how late either is noticed.
const FALLBACK_WAIT: Duration = Duration::from_millis(2);

/// A recorded engine interaction: the input handled and the `Debug`
/// rendering of the outputs it produced — the exact artifact the
/// trace-replay test compares against a fresh engine.
pub type RecordedStep = (Input, String);

/// Configuration of one networked validator.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's authority index.
    pub authority: AuthorityIndex,
    /// The public committee: every member's verifying key and the coin's
    /// public parameters.
    pub committee: Committee,
    /// This node's signing key.
    pub keypair: Keypair,
    /// This node's share of the global perfect coin.
    pub coin_secret: CoinSecret,
    /// Committer parameters (wave length, leaders per round).
    pub options: CommitterOptions,
    /// Write-ahead log path; `None` uses a volatile in-memory log.
    pub wal_path: Option<PathBuf>,
    /// Mempool bounds and per-block payload budget: pool capacity in
    /// transactions and bytes, plus the `max_block_txs`/`max_block_bytes`
    /// drained into each produced block (see
    /// [`MempoolConfig`]). Submissions past the capacity are rejected with
    /// `TxVerdict::Full` instead of growing the queue.
    pub mempool: MempoolConfig,
    /// Client-ingress policy: per-client token buckets, the fair-queue
    /// admission order, and age-based mempool forwarding (see
    /// [`IngressConfig`]). The default is fully permissive — no rate
    /// limit, no forwarding — matching the pre-ingress behavior.
    pub ingress: IngressConfig,
    /// Record every engine [`Input`] and the `Debug` rendering of its
    /// outputs while the node runs (retrieved with
    /// [`NodeHandle::stop_into_trace`]). Off by default — the buffer grows
    /// with the run; it exists for the determinism-contract replay tests.
    pub record_trace: bool,
    /// Minimum spacing between produced rounds (pacing; localhost clusters
    /// would otherwise spin thousands of rounds per second).
    pub min_round_interval: Duration,
    /// How long to keep collecting previous-round blocks after the quorum
    /// arrived before producing the next round — the simulator's
    /// post-quorum pacing knob, exposed here so both drivers configure the
    /// engine identically. Zero (the default) advances at quorum.
    pub inclusion_wait: Duration,
    /// Garbage-collection depth: blocks more than this many rounds below
    /// the commit frontier are deterministically excluded from commits and
    /// periodically dropped from memory. `None` disables GC.
    pub gc_depth: Option<u64>,
    /// Sequencing decisions between signed checkpoints (`0` disables
    /// checkpointing). The checkpoints whose snapshot the log needs (the
    /// engine picks them by bytes logged, see `mahimahi_core::engine`) are
    /// persisted durably and mark the WAL records they make redundant —
    /// earlier checkpoints and, when `gc_depth` is set, blocks below the
    /// checkpointed frontier — for the next compaction; see
    /// [`EngineConfig::checkpoint_interval`] for the safety contract.
    pub checkpoint_interval: u64,
    /// Verify-stage worker threads for the admission pipeline. `0` (the
    /// [`NodeConfig::local`] default) decodes and checks each frame inline
    /// on the event-loop thread, in the iteration that applies it: no
    /// thread hop, and no verdict waiting for the loop's next wake-up.
    /// Higher values decode and verify frames on worker threads in
    /// parallel while the apply stage stays sequential and deterministic;
    /// the loop cannot block on their verdicts, so one that lands after
    /// the loop went to sleep is applied at the next frame or tick.
    pub verify_workers: usize,
    /// Bound on inputs in flight inside the verify stage. When it is
    /// reached, the event loop stops pulling frames from the transport for
    /// that iteration and the excess waits in the transport's inbound
    /// channel. That channel is unbounded, so its reader threads never
    /// block and the backpressure does not reach the peer's TCP connection;
    /// bounding the hops is ROADMAP item 2(c).
    pub verify_queue_bound: usize,
    /// Where to serve this node's metrics endpoint, or `None` (the default)
    /// to run without one. Binding `127.0.0.1:0` picks an ephemeral port;
    /// the bound address is available as [`NodeHandle::metrics_addr`]. The
    /// endpoint is a minimal HTTP server with two routes: `GET /metrics`
    /// returns the node's [`Registry`] in the Prometheus text exposition
    /// (commit-path stage histograms plus every mempool/verify/commit
    /// gauge), and `GET /status` returns a [`StatusReport`] as JSON. The
    /// server thread only *reads* lock-free metric handles — it cannot
    /// perturb the consensus loop, and a bind failure downgrades to running
    /// without the endpoint rather than failing the node.
    pub metrics_addr: Option<SocketAddr>,
}

impl NodeConfig {
    /// A sensible localhost configuration for member `authority` of
    /// `setup`, keeping only its own secrets.
    pub fn local(authority: u32, setup: TestCommittee) -> Self {
        let authority = AuthorityIndex(authority);
        NodeConfig {
            authority,
            committee: setup.committee().clone(),
            keypair: setup.keypair(authority).clone(),
            coin_secret: setup.coin_secret(authority).clone(),
            options: CommitterOptions::default(),
            wal_path: None,
            mempool: MempoolConfig {
                max_block_txs: 1_000,
                ..MempoolConfig::default()
            },
            ingress: IngressConfig::default(),
            record_trace: false,
            min_round_interval: Duration::from_millis(2),
            inclusion_wait: Duration::ZERO,
            gc_depth: Some(128),
            checkpoint_interval: 32,
            verify_workers: 0,
            verify_queue_bound: 1024,
            metrics_addr: None,
        }
    }

    /// The engine configuration both this node and the test harnesses
    /// derive from these parameters — public so replay tests can construct
    /// a fresh engine identical to the one a recorded node ran.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            authority: self.authority,
            committee: self.committee.clone(),
            keypair: self.keypair.clone(),
            coin_secret: self.coin_secret.clone(),
            certified: false,
            mempool: self.mempool,
            ingress: self.ingress,
            inclusion_wait: self.inclusion_wait.as_micros() as EngineTime,
            min_round_interval: self.min_round_interval.as_micros() as EngineTime,
            gc_depth: self.gc_depth,
            halt_from_round: None,
            checkpoint_interval: self.checkpoint_interval,
        }
    }
}

/// Declares each of the node's gauges once: a `NodeGauge` variant indexing
/// `NodeMetrics::gauges`, and its row (metric name, help text) in `GAUGES`,
/// in the same order.
macro_rules! node_gauges {
    ($($gauge:ident: $name:literal, $help:literal;)*) => {
        #[derive(Clone, Copy)]
        enum NodeGauge {
            $($gauge,)*
        }

        const GAUGES: &[(&str, &str)] = &[$(($name, $help),)*];
    };
}

node_gauges! {
    Round: "mahimahi_round", "Last produced DAG round";
    HighestRound: "mahimahi_highest_round", "Highest round in the local DAG";
    CommittedSlots: "mahimahi_committed_slots", "Leader slots committed";
    CommittedTransactions: "mahimahi_committed_transactions",
        "Transactions linearized into the committed order";
    Convictions: "mahimahi_convictions", "Authorities convicted of equivocation";
    MempoolAccepted: "mahimahi_mempool_accepted", "Transactions accepted into the pool";
    MempoolRejectedDuplicate: "mahimahi_mempool_rejected_duplicate",
        "Submissions rejected as digest duplicates";
    MempoolRejectedFull: "mahimahi_mempool_rejected_full",
        "Submissions rejected for pool capacity";
    MempoolRejectedRateLimited: "mahimahi_mempool_rejected_rate_limited",
        "Submissions bounced by the per-client rate limiter";
    MempoolForwarded: "mahimahi_mempool_forwarded",
        "Transactions handed to a peer by age-based forwarding";
    MempoolPending: "mahimahi_mempool_pending", "Transactions currently pending inclusion";
    MempoolPeakOccupancy: "mahimahi_mempool_peak_occupancy",
        "Peak pool occupancy in transactions";
    VerifyDepth: "mahimahi_verify_depth", "Inputs in flight inside the verify stage";
    VerifyPeakDepth: "mahimahi_verify_peak_depth", "High-water mark of the verify-stage depth";
    VerifyVerified: "mahimahi_verify_verified",
        "Inputs that passed verification and reached the engine";
    VerifyRejected: "mahimahi_verify_rejected", "Inputs dropped by the verify stage";
    WalBytes: "mahimahi_wal_bytes", "Length of the write-ahead log";
    WalLiveBytes: "mahimahi_wal_live_bytes",
        "Log bytes held by records no checkpoint has made redundant";
    WalCompactions: "mahimahi_wal_compactions", "Log rewrites completed";
    WalCompactedBytes: "mahimahi_wal_compacted_bytes", "Bytes copied by log rewrites, in total";
    WalErrors: "mahimahi_wal_errors", "Log appends, syncs and rewrites that failed";
    WalBlockBytes: "mahimahi_wal_block_bytes", "Log bytes appended as block records";
    WalCheckpointBytes: "mahimahi_wal_checkpoint_bytes",
        "Log bytes appended as checkpoint records (snapshots)";
    WalEvidenceBytes: "mahimahi_wal_evidence_bytes", "Log bytes appended as evidence records";
    CheckpointSnapshotBytes: "mahimahi_checkpoint_snapshot_bytes",
        "Size of the last state snapshot that went to the log";
}

/// Registry-backed node metrics, refreshed once per event-loop iteration
/// (lock-free reads for tests, the benchmark and monitoring).
///
/// Every gauge lives in the node's [`Registry`], so in-process readers and
/// the HTTP metrics endpoint observe the same values — there is no
/// parallel set of ad-hoc atomics to keep in sync. The same registry also
/// holds the eight commit-path stage histograms ([`StageStats`]). Only the
/// gauges an in-process reader asks for have an accessor here; every one
/// of them is on `/metrics`.
pub struct NodeMetrics {
    registry: Arc<Registry>,
    /// One handle per `NodeGauge`, in declaration order.
    gauges: Vec<Arc<Gauge>>,
    wal_compaction_seconds: Arc<Histogram>,
    checkpoint_cut_seconds: Arc<Histogram>,
    stage_stats: StageStats,
}

impl NodeMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        NodeMetrics {
            stage_stats: StageStats::new(&registry),
            gauges: GAUGES
                .iter()
                .map(|&(name, help)| registry.gauge(name, help))
                .collect(),
            wal_compaction_seconds: registry.histogram(
                "mahimahi_wal_compaction_seconds",
                "Time the consensus thread spent in one log rewrite",
            ),
            checkpoint_cut_seconds: registry.histogram(
                "mahimahi_checkpoint_cut_seconds",
                "Time the consensus thread spent in an engine step that produced a cut",
            ),
            registry,
        }
    }

    fn set(&self, gauge: NodeGauge, value: u64) {
        self.gauges[gauge as usize].set(value);
    }

    fn get(&self, gauge: NodeGauge) -> u64 {
        self.gauges[gauge as usize].get()
    }

    /// Refreshes the engine-derived gauges (rounds, commits, mempool).
    fn update_engine(&self, engine: &ValidatorEngine) {
        use NodeGauge as G;
        let report: TxIntegrityReport = engine.tx_integrity();
        self.set(G::Round, engine.round());
        self.set(G::HighestRound, engine.store().highest_round());
        self.set(G::CommittedSlots, engine.committed_slots());
        self.set(G::CommittedTransactions, engine.committed_transactions());
        self.set(G::Convictions, engine.convicted().len() as u64);
        self.set(G::MempoolAccepted, report.accepted);
        self.set(G::MempoolRejectedDuplicate, report.rejected_duplicate);
        self.set(G::MempoolRejectedFull, report.rejected_full);
        self.set(G::MempoolRejectedRateLimited, report.rejected_rate_limited);
        self.set(G::MempoolForwarded, report.forwarded);
        self.set(G::MempoolPending, report.pending);
        self.set(G::MempoolPeakOccupancy, report.peak_occupancy_txs);
        self.set(G::CheckpointSnapshotBytes, engine.last_snapshot_bytes());
    }

    /// Refreshes the verify-stage gauges from the admission pipeline.
    fn update_pipeline(&self, pipeline: &AdmissionPipeline) {
        use NodeGauge as G;
        self.set(G::VerifyDepth, pipeline.depth() as u64);
        self.set(G::VerifyPeakDepth, pipeline.peak_depth() as u64);
        self.set(G::VerifyVerified, pipeline.verified());
        self.set(G::VerifyRejected, pipeline.rejected());
    }

    /// Refreshes the write-ahead-log gauges.
    fn update_wal(&self, stats: LogStats) {
        use NodeGauge as G;
        self.set(G::WalBytes, stats.bytes);
        self.set(G::WalLiveBytes, stats.live_bytes);
        self.set(G::WalCompactions, stats.compactions);
        self.set(G::WalCompactedBytes, stats.compacted_bytes);
        self.set(G::WalErrors, stats.errors);
        self.set(G::WalBlockBytes, stats.block_bytes);
        self.set(G::WalCheckpointBytes, stats.checkpoint_bytes);
        self.set(G::WalEvidenceBytes, stats.evidence_bytes);
    }

    /// The registry every metric of this node lives in (stage histograms
    /// included) — render it with [`Registry::render_prometheus`].
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Point-in-time copy of the eight commit-path stage histograms
    /// (mergeable across validators — see `StageSnapshot::merge`).
    pub fn stage_snapshot(&self) -> StageSnapshot {
        self.stage_stats.snapshot()
    }

    /// A point-in-time status summary (the `/status` endpoint's payload).
    pub fn status(&self) -> StatusReport {
        use NodeGauge as G;
        StatusReport {
            round: self.get(G::Round),
            highest_round: self.get(G::HighestRound),
            committed_slots: self.get(G::CommittedSlots),
            committed_transactions: self.get(G::CommittedTransactions),
            convictions: self.get(G::Convictions),
            mempool_pending: self.get(G::MempoolPending),
            mempool_accepted: self.get(G::MempoolAccepted),
            verify_depth: self.get(G::VerifyDepth),
            wal_errors: self.get(G::WalErrors),
        }
    }

    /// Last produced DAG round.
    pub fn round(&self) -> u64 {
        self.get(NodeGauge::Round)
    }

    /// Transactions accepted into the pool so far.
    pub fn accepted(&self) -> u64 {
        self.get(NodeGauge::MempoolAccepted)
    }

    /// Submissions rejected for capacity (`TxVerdict::Full`) so far.
    pub fn rejected_full(&self) -> u64 {
        self.get(NodeGauge::MempoolRejectedFull)
    }

    /// Transactions handed to a peer by age-based mempool forwarding.
    pub fn forwarded(&self) -> u64 {
        self.get(NodeGauge::MempoolForwarded)
    }

    /// Peak pool occupancy (transactions) observed so far.
    pub fn peak_occupancy(&self) -> u64 {
        self.get(NodeGauge::MempoolPeakOccupancy)
    }

    /// High-water mark of the verify-stage depth.
    pub fn verify_peak_depth(&self) -> u64 {
        self.get(NodeGauge::VerifyPeakDepth)
    }

    /// Inputs the verify stage dropped (undecodable frames, invalid
    /// signatures or proofs).
    pub fn rejected(&self) -> u64 {
        self.get(NodeGauge::VerifyRejected)
    }

    /// Times the write-ahead log has been rewritten down to its live
    /// records.
    pub fn wal_compactions(&self) -> u64 {
        self.get(NodeGauge::WalCompactions)
    }

    /// Write-ahead-log appends, syncs and rewrites that failed.
    pub fn wal_errors(&self) -> u64 {
        self.get(NodeGauge::WalErrors)
    }
}

impl std::fmt::Debug for NodeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeMetrics")
            .field("status", &self.status())
            .finish_non_exhaustive()
    }
}

/// A point-in-time node status summary, served as JSON by the metrics
/// endpoint's `GET /status` route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusReport {
    /// Last produced DAG round.
    pub round: u64,
    /// Highest round in the local DAG.
    pub highest_round: u64,
    /// Leader slots committed.
    pub committed_slots: u64,
    /// Transactions linearized into the committed order.
    pub committed_transactions: u64,
    /// Authorities convicted of equivocation.
    pub convictions: u64,
    /// Transactions currently pending inclusion.
    pub mempool_pending: u64,
    /// Transactions accepted into the pool so far.
    pub mempool_accepted: u64,
    /// Inputs in flight inside the verify stage.
    pub verify_depth: u64,
    /// Write-ahead-log appends, syncs and rewrites that failed.
    pub wal_errors: u64,
}

impl StatusReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"round\":{},\"highest_round\":{},\"committed_slots\":{},",
                "\"committed_transactions\":{},\"convictions\":{},",
                "\"mempool_pending\":{},\"mempool_accepted\":{},",
                "\"verify_depth\":{},\"wal_errors\":{}}}"
            ),
            self.round,
            self.highest_round,
            self.committed_slots,
            self.committed_transactions,
            self.convictions,
            self.mempool_pending,
            self.mempool_accepted,
            self.verify_depth,
            self.wal_errors,
        )
    }
}

/// The metrics endpoint's accept loop: a deliberately minimal HTTP/1.1
/// server (request line + headers in, one response out, close). It reads
/// only lock-free metric handles, so a slow or hostile scraper can never
/// back-pressure consensus. It blocks in `accept`; [`NodeHandle`]'s stop
/// sets the flag and then connects once, so the check after each accept
/// sees it.
fn serve_metrics(listener: TcpListener, metrics: Arc<NodeMetrics>, stop: Arc<AtomicBool>) {
    for accepted in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok(stream) => {
                let _ = answer_scrape(stream, &metrics);
            }
            Err(_) => break,
        }
    }
}

/// Serves one metrics-endpoint request (see [`NodeConfig::metrics_addr`]).
fn answer_scrape(mut stream: TcpStream, metrics: &NodeMetrics) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut request = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        request.extend_from_slice(&buf[..n]);
        if request.windows(4).any(|w| w == b"\r\n\r\n") || request.len() > 8192 {
            break;
        }
    }
    let first_line = String::from_utf8_lossy(&request);
    let path = first_line
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            metrics.registry().render_prometheus(),
        ),
        "/status" => ("200 OK", "application/json", metrics.status().to_json()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    stream.flush()
}

/// The engine's earliest pending [`Output::WakeAt`], and from it how long
/// the event loop may block before the next [`Input::TimerFired`] is due —
/// the node's counterpart of the simulator's wake-up heap, which needs
/// only its head because every tick re-runs all of the engine's timers.
#[derive(Debug, Default)]
struct Alarm {
    /// The earliest requested deadline not yet served (engine µs).
    due: Option<EngineTime>,
    /// The latest tick fed to the engine: it served every deadline at or
    /// before it.
    fed: Option<EngineTime>,
}

impl Alarm {
    /// Records a `WakeAt(at)`; the earliest pending deadline wins. One the
    /// latest fed tick already reached is served and needs no tick of its
    /// own — which is what keeps an engine that asks for a past deadline on
    /// every tick from spinning the loop.
    fn request(&mut self, at: EngineTime) {
        if self.fed.is_some_and(|fed| at <= fed) {
            return;
        }
        self.due = Some(self.due.map_or(at, |due| due.min(at)));
    }

    /// Records that `TimerFired { now }` reached the engine. The pending
    /// deadline is forgotten only here, once a tick at or past it has been
    /// fed.
    fn fed(&mut self, now: EngineTime) {
        self.fed = Some(self.fed.map_or(now, |fed| fed.max(now)));
        if self.due.is_some_and(|due| due <= now) {
            self.due = None;
        }
    }

    /// How long the loop may block at `now`: until the pending deadline —
    /// zero once it has passed, for one immediate tick — and never longer
    /// than [`FALLBACK_WAIT`].
    fn wait(&self, now: EngineTime) -> Duration {
        self.due.map_or(FALLBACK_WAIT, |due| {
            Duration::from_micros(due.saturating_sub(now)).min(FALLBACK_WAIT)
        })
    }
}

/// Handle to a running [`ValidatorNode`].
pub struct NodeHandle {
    /// Committed sub-DAGs, in commit order.
    commits: Receiver<CommittedSubDag>,
    /// Receipts for batches submitted through this handle (the local twin
    /// of the receipt frames wire clients receive).
    receipts: Receiver<TxReceipt>,
    transactions: Sender<Vec<Transaction>>,
    stop: Arc<AtomicBool>,
    metrics: Arc<NodeMetrics>,
    metrics_addr: Option<SocketAddr>,
    trace: Option<Arc<Mutex<Vec<RecordedStep>>>>,
    join: Option<JoinHandle<()>>,
    metrics_join: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// The stream of committed sub-DAGs.
    pub fn commits(&self) -> &Receiver<CommittedSubDag> {
        &self.commits
    }

    /// The stream of receipts for batches submitted through this handle:
    /// one `Admission` receipt per [`Self::submit_batch`], then `Committed`
    /// notices as the accepted transactions are sequenced — the exact
    /// frames a wire client would receive.
    pub fn receipts(&self) -> &Receiver<TxReceipt> {
        &self.receipts
    }

    /// Submits a client transaction to this validator.
    pub fn submit(&self, transaction: Transaction) {
        self.submit_batch(vec![transaction]);
    }

    /// Submits a client transaction batch to this validator — the same
    /// ingestion vocabulary as the wire's `Envelope::TxBatch` frame (the
    /// run loop feeds both through `Input::TxBatchReceived`).
    pub fn submit_batch(&self, batch: Vec<Transaction>) {
        if batch.is_empty() {
            return;
        }
        let _ = self.transactions.send(batch);
    }

    /// The node's current round (last produced), refreshed once per
    /// event-loop iteration.
    pub fn round(&self) -> Round {
        self.metrics.round()
    }

    /// The node's registry-backed metrics: mempool/ingress occupancy and
    /// rejection gauges, verify-stage depth, commit progress — refreshed
    /// once per event-loop iteration, read lock-free.
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// The bound address of the node's metrics endpoint, when
    /// [`NodeConfig::metrics_addr`] was set and the bind succeeded.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Stops the node and waits for its thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Stops the node and returns the recorded engine trace (every
    /// [`Input`] handled, with the `Debug` rendering of its outputs), if
    /// the node was started with [`NodeConfig::record_trace`].
    pub fn stop_into_trace(mut self) -> Option<Vec<RecordedStep>> {
        self.shutdown();
        let trace = self.trace.take()?;
        let steps = std::mem::take(&mut *trace.lock().expect("trace poisoned"));
        Some(steps)
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        if let Some(join) = self.metrics_join.take() {
            if let Some(addr) = self.metrics_addr {
                wake_acceptor(addr);
            }
            let _ = join.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A networked Mahi-Mahi validator.
pub struct ValidatorNode {
    authority: AuthorityIndex,
    transport: Transport,
    engine: ValidatorEngine,
    /// Committee copy for the verify workers (stateless checks only).
    committee: Committee,
    /// Verify-stage sizing, forwarded to the [`AdmissionPipeline`].
    admission: AdmissionConfig,
    /// The write-ahead log and its liveness index. A durable Persist
    /// defers its fsync, which is flushed before the next network send
    /// (durability-before-dissemination) or at the end of the batch.
    log: NodeLog,
    /// Registry-backed gauges, refreshed once per event-loop iteration.
    metrics: Arc<NodeMetrics>,
    /// Commit-path stage histograms: this clone records the driver-side
    /// boundaries (ingress, verify, resequence); a second clone is the
    /// engine's telemetry sink.
    stage_stats: StageStats,
    /// Requested metrics-endpoint address ([`NodeConfig::metrics_addr`]).
    metrics_addr: Option<SocketAddr>,
    /// Input/output recording (determinism-contract replay tests).
    trace: Option<Arc<Mutex<Vec<RecordedStep>>>>,
}

impl ValidatorNode {
    /// Creates the node over an already-bound transport, replaying the WAL
    /// (if any) to recover the DAG and the recorded convictions.
    ///
    /// # Errors
    ///
    /// Propagates WAL I/O failures.
    pub fn new(config: NodeConfig, transport: Transport) -> Result<Self, mahimahi_wal::WalError> {
        let committer = Committer::new(config.committee.clone(), config.options);
        let mut engine = ValidatorEngine::honest(config.engine_config(), Box::new(committer));

        let wal = match &config.wal_path {
            Some(path) => AnyWal::File(FileWal::open_path(path)?),
            None => AnyWal::Memory(Wal::open(MemStorage::new())?),
        };
        let log = NodeLog::recover(wal, config.authority, config.gc_depth, &mut engine)?;

        // One registry per node: the gauges below, the eight stage
        // histograms, and the engine's telemetry sink all render through
        // the same `/metrics` exposition.
        let registry = Arc::new(Registry::new());
        let metrics = Arc::new(NodeMetrics::new(Arc::clone(&registry)));
        let stage_stats = StageStats::new(&registry);
        engine.set_telemetry(Arc::new(stage_stats.clone()));
        metrics.update_engine(&engine);
        metrics.update_wal(log.stats());

        Ok(ValidatorNode {
            authority: config.authority,
            transport,
            engine,
            committee: config.committee,
            admission: AdmissionConfig {
                verify_workers: config.verify_workers,
                queue_bound: config.verify_queue_bound,
            },
            log,
            metrics,
            stage_stats,
            metrics_addr: config.metrics_addr,
            trace: config
                .record_trace
                .then(|| Arc::new(Mutex::new(Vec::new()))),
        })
    }

    /// The node's local DAG (inspection).
    pub fn store(&self) -> &BlockStore {
        self.engine.store()
    }

    /// The shared engine this shell drives (inspection).
    pub fn engine(&self) -> &ValidatorEngine {
        &self.engine
    }

    /// The evidence pool (verified convictions, slashing hooks).
    pub fn evidence(&self) -> &EvidencePool {
        self.engine.evidence()
    }

    /// The authorities this node has convicted of equivocation, in index
    /// order (restored from the WAL after a restart).
    pub fn convicted(&self) -> Vec<AuthorityIndex> {
        self.engine.convicted()
    }

    /// The last produced round (0 after a fresh start).
    pub fn round(&self) -> Round {
        self.engine.round()
    }

    /// Spawns the protocol loop (and the metrics endpoint, when
    /// configured), returning the control handle.
    pub fn start(self) -> NodeHandle {
        let (commit_tx, commit_rx) = unbounded();
        let (receipt_tx, receipt_rx) = unbounded();
        let (tx_tx, tx_rx) = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::clone(&self.metrics);
        let trace = self.trace.clone();
        let authority = self.authority;
        // Metrics are advisory: a bind failure downgrades to running
        // without the endpoint instead of failing the node.
        let mut metrics_addr = None;
        let mut metrics_join = None;
        if let Some(requested) = self.metrics_addr {
            // Without its address the server could not be woken to stop.
            let bound = TcpListener::bind(requested)
                .and_then(|listener| Ok((listener.local_addr()?, listener)));
            if let Ok((addr, listener)) = bound {
                metrics_addr = Some(addr);
                let server_metrics = Arc::clone(&metrics);
                let server_stop = Arc::clone(&stop);
                metrics_join = Some(
                    std::thread::Builder::new()
                        .name(format!("metrics-{authority}"))
                        .spawn(move || serve_metrics(listener, server_metrics, server_stop))
                        .expect("spawn metrics thread"),
                );
            }
        }
        let loop_stop = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name(format!("validator-{authority}"))
            .spawn(move || self.run(commit_tx, receipt_tx, tx_rx, loop_stop))
            .expect("spawn validator thread");
        NodeHandle {
            commits: commit_rx,
            receipts: receipt_rx,
            transactions: tx_tx,
            stop,
            metrics,
            metrics_addr,
            trace,
            join: Some(join),
            metrics_join,
        }
    }

    /// The event loop: block until a frame arrives, the engine's earliest
    /// pending [`Output::WakeAt`] falls due, or [`FALLBACK_WAIT`] passes;
    /// then feed *all* ready inputs — one timer tick, every queued client
    /// batch, and every frame already received (bounded by
    /// [`MAX_FRAMES_PER_ITERATION`] and the verify queue bound) — through
    /// the admission pipeline, apply whatever verified inputs it releases
    /// (in submission order) as one output batch, then render that batch
    /// against the transport/WAL/commit channel once.
    ///
    /// The pipeline is the verify stage of the verify/apply split: frame
    /// decoding and [`mahimahi_core::admission::verify`] — signature
    /// checks and coin-share proofs — run inline on this thread by
    /// default, or on worker threads when [`NodeConfig::verify_workers`]
    /// asks for them, while the engine — the apply stage — stays
    /// single-threaded and deterministic and checks nothing again. Because
    /// the pipeline re-sequences results into submission order, the engine
    /// observes the same input stream a serial node would, minus the
    /// invalid inputs the verify stage drops. Batching also amortizes WAL
    /// fsyncs across the inputs of an iteration (the sync is still forced
    /// before any network send, so durability-before-dissemination holds).
    ///
    /// The loop also feeds the commit-path stage clocks: inputs enter the
    /// pipeline through the `_at` variants stamped with the loop's
    /// microsecond counter. Verified inline, an input's verdict and its
    /// release land in the call and the iteration that submit it, so the
    /// verify and resequence histograms read 0 by construction; only with
    /// verify workers would they measure queueing time. The ingress stages
    /// record honest zeros too — a frame is submitted in the same iteration
    /// that pulls it off the transport channel, and the wire carries no
    /// send timestamp this driver could trust.
    fn run(
        mut self,
        commits: Sender<CommittedSubDag>,
        receipts: Sender<TxReceipt>,
        transactions: Receiver<Vec<Transaction>>,
        stop: Arc<AtomicBool>,
    ) {
        let mut pipeline = AdmissionPipeline::new(self.admission, self.committee.clone());
        pipeline.set_stage_stats(self.stage_stats.clone());
        let started = Instant::now();
        let client_from = self.authority.as_usize();
        // State-sync: ask the committee for its latest quorum-certified
        // checkpoint. A fresh or long-offline validator adopts any cut
        // ahead of its own frontier instead of replaying from genesis;
        // responses at or below the local frontier are simply rejected by
        // the engine, so the request is safe to send unconditionally.
        self.transport
            .broadcast(Envelope::CheckpointRequest.to_bytes_vec());
        let clock = || started.elapsed().as_micros() as EngineTime;
        let mut alarm = Alarm::default();
        while !stop.load(Ordering::SeqCst) {
            // Wait for one incoming frame, at most until the engine's next
            // deadline (not at all once it is past).
            let first = match self.transport.incoming().recv_timeout(alarm.wait(clock())) {
                Ok(frame) => Some(frame),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => None,
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            };
            let now = clock();
            pipeline.submit_at(Input::TimerFired { now }, now);
            // Drain client batches (enqueue-only inputs).
            loop {
                match transactions.try_recv() {
                    Ok(batch) => {
                        self.stage_stats.record(Stage::IngressReceived, 0);
                        pipeline.submit_at(
                            Input::TxBatchReceived {
                                from: client_from,
                                transactions: batch,
                            },
                            now,
                        );
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            // The blocking frame plus everything else already queued.
            // Decoding happens in the verify stage; when the pipeline is
            // at its bound, leave the rest in the transport channel —
            // that is the backpressure path toward the peer.
            let mut frame = first;
            let mut drained = 0;
            while let Some((peer, bytes)) = frame.take() {
                self.stage_stats.record(Stage::IngressReceived, 0);
                self.stage_stats.record(Stage::VerifyDequeued, 0);
                pipeline.submit_frame_at(peer as usize, bytes, now);
                drained += 1;
                if drained < MAX_FRAMES_PER_ITERATION && pipeline.has_capacity() {
                    frame = self.transport.incoming().try_recv().ok();
                }
            }
            // Apply every verified input the pipeline has released, in
            // submission order, and render the outputs once.
            let mut outputs = Vec::new();
            for input in pipeline.drain_ready_at(now) {
                self.handle_verified(input, &mut alarm, &mut outputs);
            }
            let applied = self.apply(outputs, &commits, &receipts);
            self.metrics.update_engine(&self.engine);
            self.metrics.update_pipeline(&pipeline);
            self.metrics.update_wal(self.log.stats());
            if applied.is_err() {
                // The application hung up, or the log failed under a
                // durable record: either way this validator stops, like a
                // crash (the gauges above keep the `wal_errors` that say
                // which).
                return;
            }
        }
        // Inputs still in flight inside the verify stage are dropped with
        // the pipeline: never applied, never traced.
        self.transport.shutdown();
    }

    /// Applies one verified input to the engine, recording the step when
    /// tracing, and keeps `alarm` in step with the ticks fed and the
    /// wake-ups requested. The trace records the *verified* inputs in
    /// sequenced order, so replaying it through the plain
    /// [`ValidatorEngine::handle`] path reproduces these outputs byte for
    /// byte.
    fn handle_verified(
        &mut self,
        input: Verified<Input>,
        alarm: &mut Alarm,
        outputs: &mut Vec<Output>,
    ) {
        let recorded = self.trace.as_ref().map(|_| input.get().clone());
        let tick = match *input {
            Input::TimerFired { now } => Some(now),
            _ => None,
        };
        // The clock is read here: the engine stays clock-free.
        let started = Instant::now();
        let produced = self.engine.handle_verified(input);
        if let Some(now) = tick {
            alarm.fed(now);
        }
        for output in &produced {
            if let Output::WakeAt(at) = output {
                alarm.request(*at);
            }
        }
        let cut = |output: &Output| matches!(output, Output::CheckpointProduced(_));
        if produced.iter().any(cut) {
            self.metrics
                .checkpoint_cut_seconds
                .record(started.elapsed().as_micros() as u64);
        }
        if let (Some(trace), Some(recorded)) = (&self.trace, recorded) {
            trace
                .lock()
                .expect("trace poisoned")
                .push((recorded, format!("{produced:?}")));
        }
        outputs.extend(produced);
    }

    /// Carries out engine effects against the transport, the WAL, and the
    /// commit channel. Durable WAL records ([`WalRecord::is_durable`])
    /// defer their fsync until just before the next network send — or the
    /// end of the batch — so consecutive records share one sync without
    /// ever disseminating ahead of one. Errors when the application hung
    /// up, or when a durable record could not be appended or synced: the
    /// rest of the batch is then dropped unsent — disseminating what a
    /// restart would not remember risks producing the same round twice —
    /// and the caller stops the node (a crash fault, which the protocol
    /// tolerates `f` of).
    fn apply(
        &mut self,
        outputs: Vec<Output>,
        commits: &Sender<CommittedSubDag>,
        receipts: &Sender<TxReceipt>,
    ) -> Result<(), ()> {
        for output in outputs {
            match output {
                Output::Broadcast(envelope) => {
                    self.log.flush().map_err(drop)?;
                    self.transport.broadcast(envelope.to_bytes_vec());
                }
                Output::SendTo(peer, envelope) => {
                    self.log.flush().map_err(drop)?;
                    self.transport.send(peer as u32, envelope.to_bytes_vec());
                }
                Output::Persist(record) => {
                    // Durability before dissemination: a durable record
                    // (`WalRecord::is_durable`) is fsynced by the flush
                    // ahead of the next send. Peers' blocks can be fetched
                    // again, so only a durable record's failure stops the
                    // node.
                    if self.log.append(&record).is_err() && record.is_durable(self.authority) {
                        return Err(());
                    }
                    // A checkpoint marks what it subsumes as dead; once
                    // that outweighs what is live, rewrite the log. The
                    // clock is read here: the engine stays clock-free.
                    if matches!(record, WalRecord::Checkpoint { .. }) && self.log.compaction_due() {
                        let started = Instant::now();
                        self.log.compact();
                        self.metrics
                            .wal_compaction_seconds
                            .record(started.elapsed().as_micros() as u64);
                    }
                }
                Output::Committed(sub_dag) => {
                    if commits.send(sub_dag).is_err() {
                        return Err(());
                    }
                }
                Output::TxReceipt { peer, receipt } => {
                    if peer == self.authority.as_usize() {
                        // A batch submitted through the local NodeHandle
                        // (the run loop stamps those with this node's own
                        // index): the receipt goes to the handle's channel.
                        // A closed receiver means the application does not
                        // care — drop it, receipts are advisory.
                        let _ = receipts.send(receipt);
                    } else {
                        // A wire client's batch: the transport routes ids
                        // in the client range down the client's own
                        // connection (gone connections drop the frame).
                        self.log.flush().map_err(drop)?;
                        self.transport
                            .send(peer as u32, Envelope::TxReceipt(receipt).to_bytes_vec());
                    }
                }
                // Wake-ups were handed to the loop's alarm as the engine
                // emitted them; conviction and checkpoint notices have no
                // node-side consumer beyond the gauges.
                Output::WakeAt(_) | Output::Convicted(_) | Output::CheckpointProduced(_) => {}
            }
        }
        self.log.flush().map_err(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_types::{BlockBuilder, EquivocationProof};

    fn wal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mahimahi-node-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn conflicting_pair(setup: &TestCommittee, author: u32) -> EquivocationProof {
        EquivocationProof::synthetic(setup, AuthorityIndex(author))
    }

    #[test]
    fn recovery_restores_rounds_from_wal() {
        let dir = wal_dir("rounds");
        let wal_path = dir.join("v0.wal");
        let setup = TestCommittee::new(4, 5);

        // Build a few rounds worth of blocks and log them as a node would.
        {
            let mut dag = mahimahi_dag::DagBuilder::new(setup.clone());
            dag.add_full_rounds(3);
            let mut wal = FileWal::open_path(&wal_path).unwrap();
            for block in dag.store().iter() {
                if block.round() > 0 {
                    wal.append(&WalRecord::Block(block.clone()).to_bytes_vec())
                        .unwrap();
                }
            }
            wal.sync().unwrap();
        }

        let transport = Transport::bind(0, "127.0.0.1:0").unwrap();
        let mut config = NodeConfig::local(0, setup);
        config.wal_path = Some(wal_path);
        let node = ValidatorNode::new(config, transport).unwrap();
        assert_eq!(node.store().highest_round(), 3);
        assert_eq!(node.round(), 3, "own round recovered");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_node_starts_at_round_zero() {
        let setup = TestCommittee::new(4, 5);
        let transport = Transport::bind(1, "127.0.0.1:0").unwrap();
        let node = ValidatorNode::new(NodeConfig::local(1, setup), transport).unwrap();
        assert_eq!(node.round(), 0);
        assert_eq!(node.store().highest_round(), 0);
    }

    #[test]
    fn corrupt_wal_records_are_skipped() {
        let setup = TestCommittee::new(4, 5);
        let dir = wal_dir("bad");
        let wal_path = dir.join("bad.wal");
        {
            let mut wal = FileWal::open_path(&wal_path).unwrap();
            wal.append(b"garbage record").unwrap();
            // A bare block encoding, without the record tag, is not a
            // record either.
            let mut dag = mahimahi_dag::DagBuilder::new(setup.clone());
            dag.add_full_rounds(1);
            for block in dag.store().iter().filter(|block| block.round() > 0) {
                wal.append(block.as_bytes()).unwrap();
            }
            wal.sync().unwrap();
        }
        let transport = Transport::bind(2, "127.0.0.1:0").unwrap();
        let mut config = NodeConfig::local(2, setup);
        config.wal_path = Some(wal_path);
        let node = ValidatorNode::new(config, transport).unwrap();
        assert_eq!(node.store().highest_round(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evidence_received_on_the_wire_is_persisted_and_survives_restart() {
        // Feed an Evidence frame through the engine exactly as the run
        // loop would, applying the Persist outputs to a file WAL; a fresh
        // node over the same WAL must come up already convinced.
        let setup = TestCommittee::new(4, 5);
        let proof = conflicting_pair(&setup, 3);
        let dir = wal_dir("evidence");
        let wal_path = dir.join("v0.wal");

        {
            let transport = Transport::bind(0, "127.0.0.1:0").unwrap();
            let mut config = NodeConfig::local(0, setup.clone());
            config.wal_path = Some(wal_path.clone());
            let mut node = ValidatorNode::new(config, transport).unwrap();
            let (commit_tx, _commit_rx) = unbounded();
            let (receipt_tx, _receipt_rx) = unbounded();
            let outputs = node
                .engine
                .handle(Input::from_envelope(1, Envelope::Evidence(proof.clone())));
            assert!(
                outputs
                    .iter()
                    .any(|output| matches!(output, Output::Persist(WalRecord::Evidence(_)))),
                "conviction must be persisted: {outputs:?}"
            );
            node.apply(outputs, &commit_tx, &receipt_tx).unwrap();
            assert_eq!(node.convicted(), vec![AuthorityIndex(3)]);
        }

        let transport = Transport::bind(0, "127.0.0.1:0").unwrap();
        let mut config = NodeConfig::local(0, setup);
        config.wal_path = Some(wal_path);
        let recovered = ValidatorNode::new(config, transport).unwrap();
        assert_eq!(
            recovered.convicted(),
            vec![AuthorityIndex(3)],
            "conviction must survive the restart"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Node 0 of a fresh committee logging to `storage`, and the one peer
    /// its transport is connected to (to observe what it sends).
    fn node_logging_to(storage: &MemStorage) -> (ValidatorNode, Transport) {
        let peer = Transport::bind(1, "127.0.0.1:0").unwrap();
        let transport = Transport::bind(0, "127.0.0.1:0").unwrap();
        transport.connect(1, peer.local_addr());
        let config = NodeConfig::local(0, TestCommittee::new(4, 5));
        let mut node = ValidatorNode::new(config.clone(), transport).unwrap();
        let wal = AnyWal::Memory(Wal::open(storage.clone()).unwrap());
        node.log =
            NodeLog::recover(wal, config.authority, config.gc_depth, &mut node.engine).unwrap();
        (node, peer)
    }

    #[test]
    fn an_own_block_whose_sync_fails_is_never_handed_to_the_transport() {
        let storage = MemStorage::new();
        let (mut node, peer) = node_logging_to(&storage);
        let (commit_tx, _commit_rx) = unbounded();
        let (receipt_tx, _receipt_rx) = unbounded();
        storage.fail_syncs(true);
        let outputs = node.engine.handle(Input::TimerFired { now: 0 });
        assert!(matches!(
            &outputs[..],
            [Output::Persist(WalRecord::Block(_)), Output::Broadcast(_)]
        ));
        assert!(node.apply(outputs, &commit_tx, &receipt_tx).is_err());
        assert_eq!(node.log.stats().errors, 1);
        assert!(storage.durable_snapshot().is_empty(), "nothing was synced");
        // Frames to one peer are FIFO: had the block reached the transport,
        // it would arrive ahead of this marker.
        node.transport.send(1, b"marker".to_vec());
        let first = peer.incoming().recv_timeout(Duration::from_secs(10));
        assert_eq!(first, Ok((0, b"marker".to_vec())));
    }

    #[test]
    fn a_peers_block_that_fails_to_append_does_not_stop_the_node() {
        let storage = MemStorage::new();
        let (mut node, _peer) = node_logging_to(&storage);
        let (commit_tx, _commit_rx) = unbounded();
        let (receipt_tx, _receipt_rx) = unbounded();
        // Round 1 goes out on a healthy log; round 2 needs a quorum, so the
        // next input produces nothing of this node's own.
        let outputs = node.engine.handle(Input::TimerFired { now: 0 });
        node.apply(outputs, &commit_tx, &receipt_tx).unwrap();
        let mut dag = mahimahi_dag::DagBuilder::new(TestCommittee::new(4, 5));
        let round_one = dag.add_full_round();
        let block = dag.store().get(&round_one[1]).unwrap().clone();

        storage.fail_appends(true);
        let outputs = node.engine.handle(Input::BlockReceived { from: 1, block });
        assert!(matches!(
            &outputs[..],
            [Output::Persist(WalRecord::Block(block))] if block.author() != node.authority
        ));
        // Not durable — the synchronizer can fetch it again — so the
        // failure is counted and the node carries on.
        assert!(node.apply(outputs, &commit_tx, &receipt_tx).is_ok());
        assert_eq!(node.log.stats().errors, 1);
    }

    #[test]
    fn a_failed_wal_sync_stops_the_run_loop_and_stays_on_the_metrics() {
        let storage = MemStorage::new();
        let (node, _peer) = node_logging_to(&storage);
        storage.fail_syncs(true);
        let handle = node.start();
        // The first tick produces round 1, which cannot be made durable:
        // the loop exits as if the application had hung up, dropping its
        // end of the commit channel.
        let closed = handle.commits().recv_timeout(Duration::from_secs(10));
        assert!(matches!(
            closed,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected)
        ));
        assert_eq!(handle.metrics().wal_errors(), 1);
        assert!(handle
            .metrics()
            .status()
            .to_json()
            .contains("\"wal_errors\":1"));
    }

    #[test]
    fn a_block_frame_that_fails_verification_never_reaches_the_engine() {
        let setup = TestCommittee::new(4, 5);
        let transport = Transport::bind(0, "127.0.0.1:0").unwrap();
        let peer = Transport::bind(1, "127.0.0.1:0").unwrap();
        peer.connect(0, transport.local_addr());
        let mut config = NodeConfig::local(0, setup.clone());
        config.record_trace = true;
        let handle = ValidatorNode::new(config, transport).unwrap().start();
        // The bad frames first, then two valid round-1 blocks: with its
        // own, a quorum. Frames on one connection arrive in order, so once
        // the node is past round 1 it has handled all four.
        let bad = BlockBuilder::failing_verification(&setup, AuthorityIndex(3));
        let mut dag = mahimahi_dag::DagBuilder::new(setup);
        let round_one = dag.add_full_round();
        let valid = [1, 2].map(|author| dag.store().get(&round_one[author]).unwrap().clone());
        for block in bad.iter().chain(&valid) {
            peer.send(0, Envelope::Block(block.clone()).to_bytes_vec());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while (handle.round() < 2 || handle.metrics().rejected() < 2) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(handle.round() >= 2, "the valid frames were applied");
        assert_eq!(handle.metrics().rejected(), 2);
        let trace = handle.stop_into_trace().expect("record_trace is on");
        peer.shutdown();
        let applied: Vec<_> = trace
            .iter()
            .filter_map(|(input, _)| match input {
                Input::BlockReceived { block, .. } => Some(block.digest()),
                _ => None,
            })
            .collect();
        assert_eq!(applied, valid.map(|block| block.digest()));
    }

    #[test]
    fn the_earliest_deadline_wins_and_is_kept_until_a_tick_reaches_it() {
        let mut alarm = Alarm::default();
        assert_eq!(alarm.wait(0), FALLBACK_WAIT, "nothing requested");
        alarm.request(900);
        alarm.request(500);
        alarm.request(700);
        assert_eq!(alarm.wait(100), Duration::from_micros(400));
        // A tick short of the deadline does not serve it.
        alarm.fed(300);
        assert_eq!(alarm.wait(300), Duration::from_micros(200));
        // One at it does. The later requests went with it: the engine
        // re-arms every timer it still needs on each tick.
        alarm.fed(500);
        assert_eq!(alarm.wait(500), FALLBACK_WAIT);
    }

    #[test]
    fn a_past_deadline_is_one_immediate_tick_and_then_no_spin() {
        let mut alarm = Alarm::default();
        alarm.fed(1_000);
        alarm.request(2_000);
        // The loop woke after the deadline: tick at once.
        assert_eq!(alarm.wait(2_500), Duration::ZERO);
        alarm.fed(2_500);
        assert_eq!(alarm.wait(2_500), FALLBACK_WAIT);
        // Asking again for a time that tick already reached buys no
        // second one.
        alarm.request(2_000);
        alarm.request(2_500);
        assert_eq!(alarm.wait(2_600), FALLBACK_WAIT);
    }

    #[test]
    fn a_deadline_an_hour_away_waits_no_longer_than_the_fallback() {
        let mut alarm = Alarm::default();
        alarm.request(3_600_000_000);
        assert_eq!(alarm.wait(0), FALLBACK_WAIT);

        // A node holding such a deadline (a forwarding timer an hour out,
        // armed by a batch sitting in its pool) still stops promptly: the
        // stop flag is read at least once per fallback wait.
        let mut config = NodeConfig::local(0, TestCommittee::new(4, 5));
        config.ingress = IngressConfig {
            forward_age: Some(3_600_000_000),
            ..IngressConfig::default()
        };
        let transport = Transport::bind(0, "127.0.0.1:0").unwrap();
        let handle = ValidatorNode::new(config, transport).unwrap().start();
        handle.submit(Transaction::benchmark(1));
        let receipt = handle.receipts().recv_timeout(Duration::from_secs(10));
        assert!(matches!(receipt, Ok(TxReceipt::Admission { .. })));
        let stopping = Instant::now();
        handle.stop();
        assert!(
            stopping.elapsed() < Duration::from_secs(1),
            "stop took {:?}",
            stopping.elapsed()
        );
    }

    #[test]
    fn inclusion_wait_is_forwarded_to_the_engine() {
        let setup = TestCommittee::new(4, 5);
        let mut config = NodeConfig::local(3, setup);
        config.inclusion_wait = Duration::from_millis(40);
        assert_eq!(config.engine_config().inclusion_wait, 40_000);
        assert_eq!(config.engine_config().min_round_interval, 2_000);
    }
}
