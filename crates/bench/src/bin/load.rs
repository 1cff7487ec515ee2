//! Open-loop load generator for the client-ingress/mempool subsystem.
//!
//! Drives a 4-validator cluster at a configurable per-validator
//! transaction rate and payload size through the *wire* ingestion path
//! (`Envelope::TxBatch` frames), then reports:
//!
//! - sustained committed throughput (tx/s), gated at ≥100k tx/s with
//!   p99 commit latency ≤500 ms when the offered load reaches 100k;
//! - the client-observed commit-latency histogram (p50/p99/max);
//! - peak mempool occupancy against the configured capacity;
//! - the transaction-integrity verdict (no loss, no duplication).
//!
//! A **verify-stage phase** additionally pushes signed block frames
//! through the admission pipeline (the node's parallel verify stage) and
//! reports its frame throughput, peak queue depth, and the
//! verified/rejected split — the depth gauge for sizing
//! `verify_workers`/`verify_queue_bound`.
//!
//! A second, deliberately oversubscribed **saturation phase** pushes a
//! burst far past the pool capacity and verifies the subsystem answers
//! with `TxVerdict::Full` rejections and a bounded pool instead of
//! unbounded memory growth.
//!
//! A **fairness phase** aims hundreds of Zipf-skewed clients at a single
//! validator with per-client rate limiting on, and gates on the ingress
//! subsystem's two promises: every batch is answered with an admission
//! receipt (zero receipt loss), and no compliant client — one whose
//! offered rate is within the limit — is starved relative to another
//! (min/max accepted-throughput ratio ≥ 0.5 among compliant clients).
//!
//! The cluster is the deterministic loopback driver (virtual time, real
//! wire codec, in-memory WALs), so the run is reproducible and
//! CI-friendly — every number here is a protocol-model result; the
//! wall-clock numbers on real sockets and real fsyncs are the `wallclock/`
//! benchmark's. The binary exits non-zero if any transaction is lost or
//! duplicated, the latency histogram is empty, occupancy exceeds
//! capacity, or the saturation phase sees no rejections — CI's
//! `load-smoke` gate.
//!
//! Flags: `--quick` (short run), `--rate <tx/s per validator>`,
//! `--tx-bytes <n>`, `--duration-s <n>`, `--capacity <txs>`.

use mahimahi_core::{
    engine::Input, AdmissionConfig, AdmissionPipeline, CommitterOptions, IngressConfig,
    MempoolConfig,
};
use mahimahi_dag::DagBuilder;
use mahimahi_net::time::{self, Time};
use mahimahi_node::{LoopbackCluster, LoopbackConfig};
use mahimahi_sim::LatencyStats;
use mahimahi_telemetry::{Stage, StageSnapshot};
use mahimahi_types::{Decode, Encode, Envelope, TestCommittee, Transaction, TxReceipt, TxVerdict};
use std::io::Write;

const NODES: usize = 4;
const LINK_DELAY: Time = time::from_millis(30);
const INCLUSION_WAIT: Time = time::from_millis(20);
/// Client submission quantum (matches the simulator's batch interval).
const BATCH_INTERVAL: Time = time::from_millis(5);

struct Args {
    quick: bool,
    rate_per_validator: u64,
    tx_bytes: usize,
    duration_s: u64,
    capacity: usize,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let flag = |name: &str| argv.iter().any(|arg| arg == name);
    let value = |name: &str| {
        argv.iter()
            .position(|arg| arg == name)
            .and_then(|at| argv.get(at + 1))
            .and_then(|raw| raw.parse::<u64>().ok())
    };
    let quick = flag("--quick");
    Args {
        quick,
        rate_per_validator: value("--rate").unwrap_or(27_000),
        tx_bytes: value("--tx-bytes").unwrap_or(Transaction::BENCHMARK_SIZE as u64) as usize,
        duration_s: value("--duration-s").unwrap_or(if quick { 6 } else { 20 }),
        capacity: value("--capacity").unwrap_or(50_000) as usize,
    }
}

/// A transaction whose prefix encodes a globally unique id, padded to the
/// configured payload size.
fn load_tx(id: u64, tx_bytes: usize) -> Transaction {
    let mut payload = vec![0u8; tx_bytes.max(8)];
    payload[..8].copy_from_slice(&id.to_le_bytes());
    Transaction::new(payload)
}

struct PhaseReport {
    offered_tps: u64,
    committed: u64,
    throughput_tps: f64,
    latency: LatencyStats,
    /// Commit-path stage histograms merged across the cluster's
    /// validators, when the phase collects them.
    stages: Option<StageSnapshot>,
    peak_occupancy: u64,
    capacity: u64,
    rejected_full: u64,
    violations: Vec<String>,
}

impl PhaseReport {
    fn print(&self, title: &str) {
        let latency = self.latency.snapshot();
        println!(
            "{title}: offered={:>6} tps | committed={:>8} | tput={:>8.0} tps | \
             lat p50={:>6.3}s p99={:>6.3}s max={:>6.3}s | peak mempool={}/{} | full-rejects={}",
            self.offered_tps,
            self.committed,
            self.throughput_tps,
            latency.p50_s(),
            latency.p99_s(),
            latency.max_s(),
            self.peak_occupancy,
            self.capacity,
            self.rejected_full,
        );
        if let Some(stages) = &self.stages {
            for stage in Stage::ALL {
                let histogram = stages.stage(stage);
                println!(
                    "  stage {:<16} count={:>8} | p50={:>9.6}s p99={:>9.6}s",
                    stage.name(),
                    histogram.count(),
                    histogram.p50_s(),
                    histogram.p99_s(),
                );
            }
            println!(
                "  stage p99 sum {:>6.3}s vs end-to-end p99 {:>6.3}s",
                stages.p99_sum_s(),
                latency.p99_s(),
            );
        }
        for violation in &self.violations {
            println!("  ✗ {violation}");
        }
    }

    fn json(&self, phase: &str) -> String {
        let latency = self.latency.snapshot();
        let stages = self
            .stages
            .as_ref()
            .map(|stages| {
                let entries: Vec<String> = Stage::ALL
                    .iter()
                    .map(|&stage| {
                        let histogram = stages.stage(stage);
                        format!(
                            "\"{}\":{{\"count\":{},\"p50_s\":{:.6},\"p99_s\":{:.6}}}",
                            stage.name(),
                            histogram.count(),
                            histogram.p50_s(),
                            histogram.p99_s(),
                        )
                    })
                    .collect();
                format!(
                    ",\"stage_p99_sum_s\":{:.6},\"stages\":{{{}}}",
                    stages.p99_sum_s(),
                    entries.join(",")
                )
            })
            .unwrap_or_default();
        format!(
            "{{\"phase\":\"{phase}\",\"offered_tps\":{},\"committed\":{},\
             \"throughput_tps\":{:.1},\"latency_p50_s\":{:.4},\"latency_p99_s\":{:.4},\
             \"peak_occupancy\":{},\"capacity\":{},\"rejected_full\":{}{stages},\"pass\":{}}}",
            self.offered_tps,
            self.committed,
            self.throughput_tps,
            latency.p50_s(),
            latency.p99_s(),
            self.peak_occupancy,
            self.capacity,
            self.rejected_full,
            self.violations.is_empty(),
        )
    }
}

/// The stage-decomposition gates: every commit-path stage histogram must
/// hold samples, and the per-stage p99 sum must land within a factor of
/// two of the measured end-to-end p99 (the decomposition accounts for the
/// latency rather than mislabeling it).
fn check_stage_decomposition(stages: &StageSnapshot, e2e_p99_s: f64, violations: &mut Vec<String>) {
    if !stages.all_stages_populated() {
        let missing: Vec<&str> = Stage::ALL
            .iter()
            .filter(|&&stage| stages.stage(stage).is_empty())
            .map(|&stage| stage.name())
            .collect();
        violations.push(format!(
            "commit-path stages with empty histograms: {}",
            missing.join(", ")
        ));
    }
    let p99_sum = stages.p99_sum_s();
    if e2e_p99_s > 0.0 && !(0.5 * e2e_p99_s..=2.0 * e2e_p99_s).contains(&p99_sum) {
        violations.push(format!(
            "stage p99 sum {p99_sum:.3}s outside [0.5x, 2x] of the \
             end-to-end p99 {e2e_p99_s:.3}s"
        ));
    }
}

/// `(commit time, batch tag)` for every batch `validator` reported
/// committed: one client-observed latency sample per `Committed` tag. Tags
/// are engine receive times; the client submitted one link delay earlier.
fn committed_batches(
    cluster: &LoopbackCluster,
    validator: usize,
) -> impl Iterator<Item = (Time, u64)> + '_ {
    cluster
        .receipts(validator)
        .iter()
        .filter_map(|(at, _, receipt)| match receipt {
            TxReceipt::Committed { tags } => Some(tags.iter().map(move |&tag| (*at, tag))),
            TxReceipt::Admission { .. } => None,
        })
        .flatten()
}

/// The sustained-load phase on the deterministic loopback cluster.
fn loopback_load_phase(args: &Args) -> PhaseReport {
    let mut cluster = LoopbackCluster::new(LoopbackConfig {
        nodes: NODES,
        seed: 0x10ad,
        options: CommitterOptions::mahi_mahi_5(2),
        link_delay: LINK_DELAY,
        inclusion_wait: INCLUSION_WAIT,
        mempool: MempoolConfig {
            capacity_txs: args.capacity,
            ..MempoolConfig::default()
        },
        ingress: IngressConfig::default(),
    });
    let window = time::from_secs(args.duration_s);
    let drain = time::from_secs(2);
    let mut next_id = 0u64;
    let mut submitted_per_validator = 0u64;
    let mut now = 0;
    // Open loop: at every batch boundary, each validator receives the
    // transactions that fell due since the last one (exact-rate clients).
    while now < window {
        let due = (now as u128 * args.rate_per_validator as u128 / time::SECOND as u128) as u64;
        let count = due.saturating_sub(submitted_per_validator);
        submitted_per_validator = due;
        for validator in 0..NODES {
            if count > 0 {
                let batch: Vec<Transaction> = (0..count)
                    .map(|_| {
                        next_id += 1;
                        load_tx(next_id, args.tx_bytes)
                    })
                    .collect();
                cluster.submit_batch(validator, batch);
            }
        }
        cluster.run_until(now);
        now += BATCH_INTERVAL;
    }
    // Drain: let in-flight payloads commit.
    cluster.run_until(window + drain);

    let mut latency = LatencyStats::default();
    let mut committed = 0u64;
    let mut peak_occupancy = 0u64;
    let mut rejected_full = 0u64;
    let mut last_commit: Time = 0;
    let mut violations = Vec::new();
    for validator in 0..NODES {
        for (at, tag) in committed_batches(&cluster, validator) {
            latency.record(at - tag + LINK_DELAY);
            last_commit = last_commit.max(at);
        }
        let integrity = cluster.engine(validator).tx_integrity();
        committed += integrity.own_committed;
        peak_occupancy = peak_occupancy.max(integrity.peak_occupancy_txs);
        rejected_full += integrity.rejected_full;
        violations.extend(
            integrity
                .violations()
                .into_iter()
                .map(|violation| format!("validator {validator}: {violation}")),
        );
    }
    if latency.is_empty() {
        violations.push("empty commit-latency histogram".into());
    }
    let throughput_tps = if last_commit > 0 {
        committed as f64 / time::as_secs_f64(last_commit)
    } else {
        0.0
    };
    let offered = args.rate_per_validator * NODES as u64;
    if throughput_tps < 0.8 * offered as f64 {
        violations.push(format!(
            "sustained throughput {throughput_tps:.0} tps below 80% of the offered {offered} tps"
        ));
    }
    // The verify/apply-split throughput gate: at 100k offered, the
    // cluster must sustain six figures with a bounded tail.
    if offered >= 100_000 {
        if throughput_tps < 100_000.0 {
            violations.push(format!(
                "sustained throughput {throughput_tps:.0} tps below the 100k gate"
            ));
        }
        let p99 = latency.snapshot().p99_s();
        if p99 > 0.5 {
            violations.push(format!(
                "commit-latency p99 {p99:.3}s above the 500 ms gate"
            ));
        }
    }
    // The stage decomposition merged across validators must populate
    // every histogram and account for the end-to-end tail.
    let mut stages = StageSnapshot::default();
    for validator in 0..NODES {
        stages.merge(&cluster.stage_snapshot(validator));
    }
    check_stage_decomposition(&stages, latency.snapshot().p99_s(), &mut violations);
    PhaseReport {
        offered_tps: offered,
        committed,
        throughput_tps,
        latency,
        stages: Some(stages),
        peak_occupancy,
        capacity: args.capacity as u64,
        rejected_full,
        violations,
    }
}

/// The saturation phase: a burst several times the pool capacity must be
/// answered with `Full` rejections and a bounded pool.
fn loopback_saturation_phase() -> PhaseReport {
    const CAPACITY: usize = 1_000;
    const BURST: u64 = 5_000;
    let mut cluster = LoopbackCluster::new(LoopbackConfig {
        nodes: NODES,
        seed: 0x5a7,
        options: CommitterOptions::mahi_mahi_5(2),
        link_delay: LINK_DELAY,
        inclusion_wait: INCLUSION_WAIT,
        mempool: MempoolConfig {
            capacity_txs: CAPACITY,
            ..MempoolConfig::default()
        },
        ingress: IngressConfig::default(),
    });
    // One burst of 5× capacity, split into codec-sized batches, all
    // arriving at the same instant at validator 0.
    let mut offset = 0u64;
    while offset < BURST {
        let batch: Vec<Transaction> = (offset..(offset + 2_500).min(BURST))
            .map(|id| load_tx(0xbeef_0000_0000 + id, 64))
            .collect();
        offset += batch.len() as u64;
        cluster.submit_batch(0, batch);
    }
    cluster.run_until(time::from_secs(5));

    let integrity = cluster.engine(0).tx_integrity();
    let mut latency = LatencyStats::default();
    for (at, tag) in committed_batches(&cluster, 0) {
        latency.record(at - tag + LINK_DELAY);
    }
    let mut violations = integrity.violations();
    if integrity.rejected_full == 0 {
        violations.push(format!(
            "saturation burst of {BURST} into capacity {CAPACITY} produced no Full rejections"
        ));
    }
    let engine_rejections =
        integrity.rejected_duplicate + integrity.rejected_full + integrity.rejected_rate_limited;
    if cluster.rejections(0) != engine_rejections {
        violations.push(format!(
            "driver saw {} rejections (admission-receipt verdicts), \
             engine counted {engine_rejections}",
            cluster.rejections(0),
        ));
    }
    // Receipt coverage under saturation: the bursts arrived as wire
    // batches, so every one of them owes the client an admission receipt
    // even when the pool sheds its payload.
    let ingress = cluster.ingress_report(0);
    violations.extend(ingress.violations());
    PhaseReport {
        offered_tps: 0,
        committed: integrity.own_committed,
        throughput_tps: 0.0,
        latency,
        stages: None,
        peak_occupancy: integrity.peak_occupancy_txs,
        capacity: CAPACITY as u64,
        rejected_full: integrity.rejected_full,
        violations,
    }
}

/// Fairness report: hundreds of rate-limited Zipf clients against one
/// validator.
struct FairnessReport {
    clients: u64,
    compliant: u64,
    batches: u64,
    admissions: u64,
    accepted: u64,
    rate_limited: u64,
    fairness_ratio: f64,
    violations: Vec<String>,
}

impl FairnessReport {
    fn print(&self) {
        println!(
            "fairness  : clients={:>4} ({} compliant) | batches={:>6} | receipts={:>6} | \
             accepted={:>6} | rate-limited={:>6} | min/max ratio={:.3}",
            self.clients,
            self.compliant,
            self.batches,
            self.admissions,
            self.accepted,
            self.rate_limited,
            self.fairness_ratio,
        );
        for violation in &self.violations {
            println!("  ✗ {violation}");
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"phase\":\"fairness\",\"clients\":{},\"compliant\":{},\"batches\":{},\
             \"admission_receipts\":{},\"accepted\":{},\"rate_limited\":{},\
             \"fairness_ratio\":{:.4},\"pass\":{}}}",
            self.clients,
            self.compliant,
            self.batches,
            self.admissions,
            self.accepted,
            self.rate_limited,
            self.fairness_ratio,
            self.violations.is_empty(),
        )
    }
}

/// The multi-client fairness phase: ≥500 concurrent clients with
/// Zipf-skewed offered load (client `i` demands `∝ 1/(i+1)`) all hitting
/// validator 0 with per-client rate limiting on. Hard gates:
///
/// - **zero receipt loss** — every submitted batch is answered by exactly
///   one admission receipt, and the engine's ingress ledger agrees;
/// - **fairness** — among *compliant* clients (offered rate within the
///   limit), the min/max ratio of per-client accepted throughput
///   (normalized by each client's offered load) is ≥ 0.5: the limiter
///   sheds the heavy hitters, never the well-behaved tail.
fn loopback_fairness_phase(quick: bool) -> FairnessReport {
    const CLIENTS: usize = 600;
    /// Per-client sustained admission limit (tx/s of engine time).
    const RATE_LIMIT: u64 = 10;
    const BURST: u64 = 20;
    /// The heaviest client's demand; client `i` demands `TOP / (i+1)`.
    const TOP_DEMAND: f64 = 800.0;
    let window = time::from_secs(if quick { 3 } else { 6 });
    let interval = time::from_millis(50);

    let mut cluster = LoopbackCluster::new(LoopbackConfig {
        nodes: NODES,
        seed: 0xfa17,
        options: CommitterOptions::mahi_mahi_5(2),
        link_delay: LINK_DELAY,
        inclusion_wait: INCLUSION_WAIT,
        mempool: MempoolConfig {
            capacity_txs: 50_000,
            ..MempoolConfig::default()
        },
        ingress: IngressConfig {
            rate_limit_per_client: RATE_LIMIT,
            burst_per_client: BURST,
            ..IngressConfig::default()
        },
    });
    // Client ids start above the committee: external, rate-limited range.
    let client_id = |client: usize| NODES + client;
    let demand = |client: usize| TOP_DEMAND / (client + 1) as f64;
    let mut submitted_txs = vec![0u64; CLIENTS];
    let mut submitted_batches = vec![0u64; CLIENTS];
    let mut next_id = 0u64;
    let mut now = 0;
    while now < window {
        for client in 0..CLIENTS {
            let due = (demand(client) * time::as_secs_f64(now)) as u64;
            let count = due.saturating_sub(submitted_txs[client]);
            if count == 0 {
                continue;
            }
            submitted_txs[client] += count;
            submitted_batches[client] += 1;
            let batch: Vec<Transaction> = (0..count)
                .map(|_| {
                    next_id += 1;
                    load_tx(0xfa17_0000_0000 + next_id, 64)
                })
                .collect();
            cluster.submit_batch_as(0, client_id(client), batch);
        }
        cluster.run_until(now);
        now += interval;
    }
    cluster.run_until(window + time::from_secs(2));

    // Tally the receipts validator 0 addressed to each client.
    let mut admissions = vec![0u64; CLIENTS];
    let mut accepted = vec![0u64; CLIENTS];
    for (_, peer, receipt) in cluster.receipts(0) {
        let Some(client) = peer.checked_sub(NODES).filter(|&c| c < CLIENTS) else {
            continue;
        };
        if let TxReceipt::Admission { verdicts, .. } = receipt {
            admissions[client] += 1;
            accepted[client] += verdicts
                .iter()
                .filter(|verdict| matches!(verdict, TxVerdict::Accepted))
                .count() as u64;
        }
    }

    let mut violations = Vec::new();
    // Gate 1: zero receipt loss, per client and in the engine's ledger.
    for client in 0..CLIENTS {
        if admissions[client] != submitted_batches[client] {
            violations.push(format!(
                "client {client}: {} batches submitted but {} admission receipts",
                submitted_batches[client], admissions[client]
            ));
        }
    }
    let report = cluster.ingress_report(0);
    violations.extend(report.violations());
    // Gate 2: fairness among compliant clients — accepted throughput
    // normalized by offered load, min/max ≥ 0.5.
    let compliant: Vec<usize> = (0..CLIENTS)
        .filter(|&client| demand(client) <= RATE_LIMIT as f64 && submitted_txs[client] > 0)
        .collect();
    let fractions: Vec<f64> = compliant
        .iter()
        .map(|&client| accepted[client] as f64 / submitted_txs[client] as f64)
        .collect();
    let min = fractions.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = fractions.iter().cloned().fold(0.0, f64::max);
    let fairness_ratio = if max > 0.0 { min / max } else { 0.0 };
    if compliant.len() < 500 {
        violations.push(format!(
            "only {} compliant clients active; the gate requires ≥500 concurrent clients",
            compliant.len()
        ));
    }
    if fairness_ratio < 0.5 {
        violations.push(format!(
            "fairness ratio {fairness_ratio:.3} below the 0.5 gate \
             (a compliant client was starved)"
        ));
    }
    if report.rate_limited == 0 {
        violations.push("rate limiter never engaged — the phase offered no overload".into());
    }
    FairnessReport {
        clients: CLIENTS as u64,
        compliant: compliant.len() as u64,
        batches: submitted_batches.iter().sum(),
        admissions: admissions.iter().sum(),
        accepted: accepted.iter().sum(),
        rate_limited: report.rate_limited,
        fairness_ratio,
        violations,
    }
}

/// Verify-stage report: the admission pipeline driven standalone over
/// signed block frames (wall-clock, parallel workers).
struct VerifyReport {
    frames: u64,
    verified: u64,
    rejected: u64,
    peak_depth: u64,
    throughput_fps: f64,
    violations: Vec<String>,
}

impl VerifyReport {
    fn print(&self) {
        println!(
            "verify    : frames={:>7} | verified={:>7} | rejected={:>5} | \
             peak depth={:>5} | tput={:>8.0} frames/s",
            self.frames, self.verified, self.rejected, self.peak_depth, self.throughput_fps,
        );
        for violation in &self.violations {
            println!("  ✗ {violation}");
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"phase\":\"verify\",\"frames\":{},\"verified\":{},\"rejected\":{},\
             \"peak_depth\":{},\"throughput_fps\":{:.1},\"pass\":{}}}",
            self.frames,
            self.verified,
            self.rejected,
            self.peak_depth,
            self.throughput_fps,
            self.violations.is_empty(),
        )
    }
}

/// Pushes signed block frames (every 16th one tampered) through a
/// parallel [`AdmissionPipeline`] and measures frame throughput and the
/// queue-depth high-water mark. The pipeline must keep submission order,
/// admit exactly the valid frames, and attribute every tampered one.
fn verify_stage_phase(quick: bool) -> VerifyReport {
    const WORKERS: usize = 4;
    let rounds = if quick { 64 } else { 256 };
    let setup = TestCommittee::new(NODES, 0xfee1);
    let mut dag = DagBuilder::new(setup.clone());
    dag.add_full_rounds(rounds);
    let blocks: Vec<_> = dag
        .store()
        .iter()
        .filter(|block| block.round() > 0)
        .cloned()
        .collect();
    let frames: Vec<(bool, Vec<u8>)> = blocks
        .iter()
        .enumerate()
        .map(|(index, block)| {
            let mut bytes = Envelope::Block(block.clone()).to_bytes_vec();
            let tampered = index % 16 == 3;
            if tampered {
                // Flip a parent-digest byte: the frame still decodes, but
                // the signature no longer covers the content.
                bytes[31] ^= 0xff;
            }
            (tampered, bytes)
        })
        .collect();
    let expected_rejected = frames.iter().filter(|(tampered, _)| *tampered).count() as u64;

    let mut pipeline = AdmissionPipeline::new(
        AdmissionConfig {
            verify_workers: WORKERS,
            queue_bound: 4096,
        },
        setup.committee().clone(),
    );
    let started = std::time::Instant::now();
    for (_, bytes) in &frames {
        pipeline.submit_frame(0, bytes.clone());
    }
    let admitted = pipeline.flush();
    let elapsed = started.elapsed().as_secs_f64();

    let mut violations = Vec::new();
    let expected_order: Vec<_> = frames
        .iter()
        .filter(|(tampered, _)| !tampered)
        .map(|(_, bytes)| match Envelope::from_bytes_exact(bytes) {
            Ok(Envelope::Block(block)) => block.digest(),
            _ => unreachable!("untampered frames decode"),
        })
        .collect();
    let admitted_order: Vec<_> = admitted
        .iter()
        .filter_map(|input| match &**input {
            Input::BlockReceived { block, .. } => Some(block.digest()),
            _ => None,
        })
        .collect();
    if admitted_order != expected_order {
        violations.push("verified frames did not emerge in submission order".into());
    }
    if pipeline.rejected() != expected_rejected {
        violations.push(format!(
            "expected {expected_rejected} rejected frames, pipeline counted {}",
            pipeline.rejected()
        ));
    }
    if pipeline.peak_depth() == 0 {
        violations.push("verify queue depth gauge never moved".into());
    }
    VerifyReport {
        frames: frames.len() as u64,
        verified: pipeline.verified(),
        rejected: pipeline.rejected(),
        peak_depth: pipeline.peak_depth() as u64,
        throughput_fps: frames.len() as f64 / elapsed,
        violations,
    }
}

fn main() {
    let args = parse_args();
    bench::banner(
        "Client-ingress load generator",
        "the bounded mempool sustains the offered load with backpressure \
         instead of unbounded queues: no transaction lost or duplicated, \
         occupancy within capacity, Full rejections under saturation",
    );

    let load = loopback_load_phase(&args);
    load.print("load      ");
    let saturation = loopback_saturation_phase();
    saturation.print("saturation");
    let fairness = loopback_fairness_phase(args.quick);
    fairness.print();
    let verify = verify_stage_phase(args.quick);
    verify.print();

    let rows = [
        load.json("load"),
        saturation.json("saturation"),
        fairness.json(),
        verify.json(),
    ];
    let path = bench::results_dir().join("load.json");
    let mut file = std::fs::File::create(&path).expect("create json report");
    writeln!(
        file,
        "{{\n  \"suite\": \"load\",\n  \"phases\": [\n    {}\n  ]\n}}",
        rows.join(",\n    ")
    )
    .expect("write json report");
    println!("\n→ wrote {}", path.display());

    let failed = load.violations.len()
        + saturation.violations.len()
        + fairness.violations.len()
        + verify.violations.len();
    if failed > 0 {
        println!("{failed} violation(s)");
        std::process::exit(1);
    }
}
