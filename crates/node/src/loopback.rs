//! A deterministic in-memory "node" driver: the third shell over the
//! shared sans-I/O engine, built for equivalence and replay testing.
//!
//! [`LoopbackCluster`] drives `n` [`ValidatorEngine`]s exactly the way the
//! TCP node does — every message is serialized through the real wire codec
//! ([`Envelope`]), every [`Output::Persist`] lands in a real
//! (in-memory) write-ahead log — but the transport is a deterministic
//! event queue with a constant link delay and a virtual clock, so the
//! whole run is a pure function of its inputs. The cluster records every
//! [`Input`] each engine handled (plus the rendered outputs), which makes
//! two end-to-end properties testable:
//!
//! - **driver equivalence**: the same seeded workload through the
//!   simulator and through this wire-faithful node driver must commit the
//!   byte-identical leader sequence (`tests/driver_equivalence.rs`);
//! - **replayability**: feeding a recorded trace into a freshly
//!   constructed engine must reproduce the recorded outputs exactly — the
//!   engine's determinism contract.

use mahimahi_core::{
    engine::{EngineConfig, Input, Time},
    CommittedSubDag, Committer, CommitterOptions, IngressConfig, IngressReport, MempoolConfig,
    Output, ValidatorEngine, WalRecord,
};
use mahimahi_telemetry::{Registry, Stage, StageSnapshot, StageStats};
use mahimahi_types::{
    AuthorityIndex, Decode, Encode, Envelope, TestCommittee, Transaction, TxReceipt,
};
use mahimahi_wal::{MemStorage, Wal};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::Arc;

/// A serialized frame in flight on the loopback "network" (wake-ups ride
/// the deduplicated `timers` set instead).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Frame {
    /// The sending validator.
    from: usize,
    /// The receiving validator.
    to: usize,
    /// The encoded [`Envelope`].
    bytes: Vec<u8>,
    /// Virtual send time — the delivery delta is the ingress flight time.
    /// (Heap order is decided by the `(time, sequence)` tuple prefix, so
    /// this field never participates in a comparison that matters.)
    sent: Time,
}

/// Configuration of a [`LoopbackCluster`].
#[derive(Debug, Clone)]
pub struct LoopbackConfig {
    /// Committee size.
    pub nodes: usize,
    /// Committee provisioning seed (must match the simulator's for
    /// equivalence runs).
    pub seed: u64,
    /// Committer parameters.
    pub options: CommitterOptions,
    /// Constant one-way link delay (microseconds of virtual time).
    pub link_delay: Time,
    /// Engine inclusion wait (post-quorum pacing).
    pub inclusion_wait: Time,
    /// Mempool bounds and per-block payload budget (must match the
    /// simulator's for equivalence runs).
    pub mempool: MempoolConfig,
    /// Client-ingress policy: per-client token buckets, fair-queue
    /// admission, and age-based forwarding. Default permissive.
    pub ingress: IngressConfig,
}

/// An `n`-engine cluster over a deterministic loopback fabric.
pub struct LoopbackCluster {
    config: LoopbackConfig,
    setup: TestCommittee,
    engines: Vec<ValidatorEngine>,
    wals: Vec<Wal<MemStorage>>,
    /// (delivery time, sequence, frame) — total order, FIFO per tie.
    queue: BinaryHeap<Reverse<(Time, u64, Frame)>>,
    /// Deduplicated pending wake-ups.
    timers: BTreeSet<(Time, usize)>,
    sequence: u64,
    now: Time,
    started: bool,
    /// Per-validator recorded input traces.
    traces: Vec<Vec<Input>>,
    /// Per-validator rendered outputs, parallel to `traces`.
    rendered: Vec<Vec<String>>,
    /// Per-validator committed sub-DAGs, in commit order.
    commits: Vec<Vec<CommittedSubDag>>,
    /// Per-validator mempool rejections observed: non-`Accepted` verdicts
    /// in emitted `Admission` receipts.
    rejections: Vec<u64>,
    /// Per-validator emitted receipts, `(emission time, destination peer,
    /// receipt)` in emission order — what the TCP node would frame down
    /// the client's connection (or the local handle's channel). Each tag
    /// of a `Committed` receipt is a batch's receive time, so with the
    /// emission time beside it every tag is one client-observed
    /// commit-latency sample.
    receipts: Vec<Vec<(Time, usize, TxReceipt)>>,
    /// Per-validator metric registries (stage histograms live here).
    registries: Vec<Arc<Registry>>,
    /// Per-validator commit-path stage histograms: the cluster records the
    /// driver-side boundaries, the engine reports its own through the
    /// shared sink.
    stage_stats: Vec<StageStats>,
}

impl LoopbackCluster {
    /// Builds the cluster (no events scheduled until [`Self::run_until`]).
    pub fn new(config: LoopbackConfig) -> Self {
        let setup = TestCommittee::new(config.nodes, config.seed);
        let registries: Vec<Arc<Registry>> = (0..config.nodes)
            .map(|_| Arc::new(Registry::new()))
            .collect();
        let stage_stats: Vec<StageStats> = registries
            .iter()
            .map(|registry| StageStats::new(registry))
            .collect();
        let engines = (0..config.nodes)
            .map(|index| {
                let mut engine =
                    Self::fresh_engine_for(&config, &setup, AuthorityIndex::from(index));
                // Record-only sink: replay equivalence against a fresh
                // (no-op-sink) engine is untouched.
                engine.set_telemetry(Arc::new(stage_stats[index].clone()));
                engine
            })
            .collect();
        let wals = (0..config.nodes)
            .map(|_| Wal::open(MemStorage::new()).expect("fresh in-memory wal"))
            .collect();
        LoopbackCluster {
            setup,
            engines,
            wals,
            queue: BinaryHeap::new(),
            timers: BTreeSet::new(),
            sequence: 0,
            now: 0,
            started: false,
            traces: vec![Vec::new(); config.nodes],
            rendered: vec![Vec::new(); config.nodes],
            commits: vec![Vec::new(); config.nodes],
            rejections: vec![0; config.nodes],
            receipts: vec![Vec::new(); config.nodes],
            registries,
            stage_stats,
            config,
        }
    }

    fn fresh_engine_for(
        config: &LoopbackConfig,
        setup: &TestCommittee,
        authority: AuthorityIndex,
    ) -> ValidatorEngine {
        let committer = Committer::new(setup.committee().clone(), config.options);
        let mut engine_config = EngineConfig::new(authority, setup.clone());
        engine_config.inclusion_wait = config.inclusion_wait;
        engine_config.mempool = config.mempool;
        engine_config.ingress = config.ingress;
        ValidatorEngine::honest(engine_config, Box::new(committer))
    }

    /// A fresh, un-driven engine configured exactly like `validator`'s —
    /// the starting point for replaying a recorded trace.
    pub fn fresh_engine(&self, validator: usize) -> ValidatorEngine {
        Self::fresh_engine_for(
            &self.config,
            &self.setup,
            self.engines[validator].authority(),
        )
    }

    /// Submits a client transaction to `validator` as its local client —
    /// a one-transaction batch under the validator's own index, fed
    /// directly (no frame, no link delay, no clock tick), so a workload
    /// submitted before the run lands ahead of round 1. The engine tags it
    /// with its current time.
    pub fn submit(&mut self, validator: usize, transaction: Transaction) {
        self.feed(
            validator,
            Input::TxBatchReceived {
                from: validator,
                transactions: vec![transaction],
            },
        );
    }

    /// Submits a client batch to `validator` through the real wire codec —
    /// an [`Envelope::TxBatch`] frame enqueued on the fabric, delivered
    /// one link delay later and tagged by the engine with its receive
    /// time, exactly as the TCP node's client listener behaves.
    pub fn submit_batch(&mut self, validator: usize, transactions: Vec<Transaction>) {
        self.submit_batch_as(validator, validator, transactions);
    }

    /// Submits a client batch to `validator` under an explicit `client`
    /// identity — the id the engine's per-client rate limiter and fair
    /// queue key on. Ids at or above the committee size model external
    /// clients (subject to rate limiting, like the TCP transport's
    /// client-range connection ids); `submit_batch` uses the validator's
    /// own index (exempt, like the local `NodeHandle` path).
    pub fn submit_batch_as(
        &mut self,
        validator: usize,
        client: usize,
        transactions: Vec<Transaction>,
    ) {
        if transactions.is_empty() {
            return;
        }
        let bytes = Envelope::TxBatch(transactions).to_bytes_vec();
        self.enqueue_frame(client, validator, bytes);
    }

    /// Runs the event loop up to (and including) virtual time `horizon`.
    pub fn run_until(&mut self, horizon: Time) {
        if !self.started {
            self.started = true;
            for validator in 0..self.config.nodes {
                self.feed(validator, Input::TimerFired { now: 0 });
            }
        }
        loop {
            let next_frame = self.queue.peek().map(|Reverse((time, ..))| *time);
            let next_timer = self.timers.first().map(|&(time, _)| time);
            let next = match (next_frame, next_timer) {
                (Some(frame), Some(timer)) => frame.min(timer),
                (Some(frame), None) => frame,
                (None, Some(timer)) => timer,
                (None, None) => break,
            };
            if next > horizon {
                break;
            }
            self.now = next;
            // Timers first at a tie: a wake-up scheduled for `t` precedes
            // deliveries at `t`, matching the simulator's event loop.
            if next_timer == Some(next) {
                let &(time, validator) = self.timers.first().expect("peeked");
                self.timers.remove(&(time, validator));
                self.feed(validator, Input::TimerFired { now: time });
                continue;
            }
            let Reverse((
                time,
                _,
                Frame {
                    from,
                    to,
                    bytes,
                    sent,
                },
            )) = self.queue.pop().expect("peeked");
            let Ok(message) = Envelope::from_bytes_exact(&bytes) else {
                continue; // torn frame: dropped, like the node
            };
            // Driver-side stage boundaries: the link flight is the ingress
            // stage; dequeue, verification, and resequencing happen inline
            // in virtual time — honest zeros keep the histograms complete.
            let stats = &self.stage_stats[to];
            stats.record(Stage::IngressReceived, time.saturating_sub(sent));
            stats.record(Stage::VerifyDequeued, 0);
            stats.record(Stage::Verified, 0);
            stats.record(Stage::Resequenced, 0);
            self.feed(to, Input::TimerFired { now: time });
            self.feed(to, Input::from_envelope(from, message));
        }
    }

    /// Hands `input` to one engine, records it, and renders the outputs
    /// back onto the fabric (frames, timers, WAL, commit log).
    fn feed(&mut self, validator: usize, input: Input) {
        self.traces[validator].push(input.clone());
        let outputs = self.engines[validator].handle(input);
        self.rendered[validator].push(format!("{outputs:?}"));
        for output in outputs {
            match output {
                Output::Broadcast(envelope) => {
                    let bytes = envelope.to_bytes_vec();
                    for peer in 0..self.config.nodes {
                        if peer != validator {
                            self.enqueue_frame(validator, peer, bytes.clone());
                        }
                    }
                }
                Output::SendTo(peer, envelope) => {
                    let bytes = envelope.to_bytes_vec();
                    self.enqueue_frame(validator, peer, bytes);
                }
                Output::WakeAt(time) => {
                    self.timers.insert((time.max(self.now), validator));
                }
                Output::Persist(record) => {
                    // Durability before dissemination: see
                    // `WalRecord::is_durable`.
                    let wal = &mut self.wals[validator];
                    let _ = wal.append(&record.to_bytes_vec());
                    if record.is_durable(self.engines[validator].authority()) {
                        let _ = wal.sync();
                    }
                }
                Output::Committed(sub_dag) => {
                    self.commits[validator].push(sub_dag);
                }
                Output::TxReceipt { peer, receipt } => {
                    // Clients live outside the fabric (like the TCP node's
                    // client connections): receipts are recorded at the
                    // emitting validator, never re-enqueued as frames.
                    if let TxReceipt::Admission { verdicts, .. } = &receipt {
                        self.rejections[validator] +=
                            verdicts.iter().filter(|v| !v.is_accepted()).count() as u64;
                    }
                    self.receipts[validator].push((self.now, peer, receipt));
                }
                Output::Convicted(_) | Output::CheckpointProduced(_) => {}
            }
        }
    }

    fn enqueue_frame(&mut self, from: usize, to: usize, bytes: Vec<u8>) {
        self.sequence += 1;
        self.queue.push(Reverse((
            self.now + self.config.link_delay,
            self.sequence,
            Frame {
                from,
                to,
                bytes,
                sent: self.now,
            },
        )));
    }

    /// The engine running as `validator`.
    pub fn engine(&self, validator: usize) -> &ValidatorEngine {
        &self.engines[validator]
    }

    /// Every input `validator`'s engine handled, in order.
    pub fn trace(&self, validator: usize) -> &[Input] {
        &self.traces[validator]
    }

    /// The rendered (`Debug`) outputs of every handled input, parallel to
    /// [`Self::trace`].
    pub fn rendered_outputs(&self, validator: usize) -> &[String] {
        &self.rendered[validator]
    }

    /// The committed sub-DAGs `validator` emitted, in commit order.
    pub fn commits(&self, validator: usize) -> &[CommittedSubDag] {
        &self.commits[validator]
    }

    /// Mempool rejections observed at `validator`: non-`Accepted` verdicts
    /// in its `Admission` receipts.
    pub fn rejections(&self, validator: usize) -> u64 {
        self.rejections[validator]
    }

    /// Every receipt `validator` emitted, as `(emission time, destination
    /// peer, receipt)` in emission order.
    pub fn receipts(&self, validator: usize) -> &[(Time, usize, TxReceipt)] {
        &self.receipts[validator]
    }

    /// The ingress conservation ledger of `validator`'s engine — what the
    /// receipt-integrity oracle and this module's burst and Zipf-client
    /// tests gate on.
    pub fn ingress_report(&self, validator: usize) -> IngressReport {
        self.engines[validator].ingress_report()
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Point-in-time copy of `validator`'s commit-path stage histograms.
    pub fn stage_snapshot(&self, validator: usize) -> StageSnapshot {
        self.stage_stats[validator].snapshot()
    }

    /// `validator`'s metric registry (renders the same exposition the TCP
    /// node's metrics endpoint serves).
    pub fn registry(&self, validator: usize) -> &Arc<Registry> {
        &self.registries[validator]
    }

    /// Replays `validator`'s WAL into a fresh engine (recovery check).
    pub fn recover_from_wal(&mut self, validator: usize) -> ValidatorEngine {
        let mut engine = self.fresh_engine(validator);
        for record in self.wals[validator].records().expect("in-memory wal") {
            if let Ok(record) = WalRecord::from_bytes_exact(&record.payload) {
                engine.restore(record);
            }
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> LoopbackConfig {
        LoopbackConfig {
            nodes: 4,
            seed: 11,
            options: CommitterOptions::mahi_mahi_5(2),
            link_delay: 30_000,
            inclusion_wait: 20_000,
            mempool: MempoolConfig::test(10_000, 100),
            ingress: IngressConfig::default(),
        }
    }

    #[test]
    fn cluster_advances_and_commits_in_lockstep() {
        let mut cluster = LoopbackCluster::new(config());
        for validator in 0..4 {
            cluster.submit(validator, Transaction::benchmark(validator as u64));
        }
        cluster.run_until(3_000_000); // 3 s of virtual time, 30 ms links
        for validator in 0..4 {
            assert!(
                cluster.engine(validator).round() > 50,
                "validator {validator} stalled at {}",
                cluster.engine(validator).round()
            );
            assert!(!cluster.commits(validator).is_empty());
        }
        // All four commit logs are identical (not merely prefix-consistent:
        // the fabric is symmetric).
        let log = cluster.engine(0).commit_log().to_vec();
        for validator in 1..4 {
            assert_eq!(cluster.engine(validator).commit_log(), &log[..]);
        }
    }

    #[test]
    fn wire_batches_commit_and_yield_latency_samples() {
        let mut cluster = LoopbackCluster::new(config());
        cluster.run_until(200_000); // warm up a few rounds
        let submitted_at = cluster.now();
        cluster.submit_batch(
            0,
            vec![Transaction::benchmark(1), Transaction::benchmark(2)],
        );
        cluster.run_until(3_000_000);
        // One batch, one note: a single Committed tag once both of its
        // transactions are sequenced.
        let samples: Vec<(Time, u64)> = cluster
            .receipts(0)
            .iter()
            .filter_map(|(at, _, receipt)| match receipt {
                TxReceipt::Committed { tags } => Some((*at, tags[0])),
                TxReceipt::Admission { .. } => None,
            })
            .collect();
        assert_eq!(samples.len(), 1, "the batch committed");
        for &(committed, tag) in &samples {
            assert!(tag >= submitted_at, "tag is the engine receive time");
            assert!(committed > tag, "commit strictly after submission");
        }
        let integrity = cluster.engine(0).tx_integrity();
        assert_eq!(integrity.accepted, 2);
        assert_eq!(integrity.own_committed, 2);
        assert!(integrity.conserves_transactions());
        assert_eq!(cluster.rejections(0), 0);
        // A duplicate batch after the fact is rejected, visibly.
        cluster.submit_batch(0, vec![Transaction::benchmark(1)]);
        cluster.run_until(3_200_000);
        assert_eq!(cluster.rejections(0), 1);
    }

    #[test]
    fn external_clients_are_rate_limited_and_every_batch_is_receipted() {
        let mut limited = config();
        limited.ingress.rate_limit_per_client = 10;
        limited.ingress.burst_per_client = 2;
        let mut cluster = LoopbackCluster::new(limited);
        cluster.run_until(200_000);
        // External client 9 bursts four single-tx batches at one instant:
        // the bucket admits two and sheds two, but all four batches get
        // admission receipts.
        for i in 0..4u64 {
            cluster.submit_batch_as(0, 9, vec![Transaction::benchmark(100 + i)]);
        }
        cluster.run_until(3_000_000);
        let to_client: Vec<_> = cluster
            .receipts(0)
            .iter()
            .filter(|(_, peer, _)| *peer == 9)
            .collect();
        let admissions = to_client
            .iter()
            .filter(|(_, _, receipt)| matches!(receipt, TxReceipt::Admission { .. }))
            .count();
        assert_eq!(admissions, 4, "one admission receipt per batch");
        assert!(
            to_client
                .iter()
                .any(|(_, _, receipt)| matches!(receipt, TxReceipt::Committed { .. })),
            "accepted transactions owe the client a commit notice"
        );
        let report = cluster.ingress_report(0);
        assert_eq!(report.batches_received, 4);
        assert_eq!(report.rate_limited, 2);
        assert!(report.violations().is_empty(), "{report:?}");
        // The committee-id path (`submit_batch`) stays exempt: a batch
        // from the validator's own index is never rate limited.
        let before = cluster.ingress_report(0).rate_limited;
        cluster.submit_batch(0, (0..8).map(|i| Transaction::benchmark(900 + i)).collect());
        cluster.run_until(3_400_000);
        assert_eq!(cluster.ingress_report(0).rate_limited, before);
    }

    #[test]
    fn sustained_wire_load_conserves_every_transaction() {
        const CAPACITY: u64 = 5_000;
        let mut cluster = LoopbackCluster::new(LoopbackConfig {
            mempool: MempoolConfig {
                capacity_txs: CAPACITY as usize,
                ..MempoolConfig::default()
            },
            ..config()
        });
        // Open loop: every 5 ms of a 2 s window each validator's client
        // sends a wire batch of 10 (2,000 tx/s per validator), whether or
        // not anything has committed yet; then 2 s to drain.
        let mut sent_per_validator = 0;
        for now in (0..2_000_000).step_by(5_000) {
            for validator in 0..4u64 {
                let first = (validator << 32) + sent_per_validator;
                cluster.submit_batch(
                    validator as usize,
                    (first..first + 10).map(Transaction::benchmark).collect(),
                );
            }
            sent_per_validator += 10;
            cluster.run_until(now);
        }
        cluster.run_until(4_000_000);
        for validator in 0..4 {
            let integrity = cluster.engine(validator).tx_integrity();
            // No loss, no duplicate across own blocks, pool within bounds.
            assert_eq!(integrity.violations(), Vec::<String>::new());
            assert!(integrity.peak_occupancy_txs <= CAPACITY, "{integrity:?}");
            assert!(
                cluster
                    .receipts(validator)
                    .iter()
                    .any(|(_, _, receipt)| matches!(receipt, TxReceipt::Committed { .. })),
                "validator {validator} reported no batch committed"
            );
            // After the drain nothing is owed: every accepted transaction
            // committed, exactly once (forwarding is off, so none left by
            // another door).
            assert_eq!(integrity.accepted, sent_per_validator, "{integrity:?}");
            assert_eq!(integrity.own_committed, integrity.accepted);
            assert_eq!((integrity.pending, integrity.in_flight), (0, 0));
        }
    }

    #[test]
    fn a_burst_past_capacity_is_shed_with_full_and_every_batch_is_receipted() {
        let mut cluster = LoopbackCluster::new(LoopbackConfig {
            mempool: MempoolConfig {
                capacity_txs: 1_000,
                ..MempoolConfig::default()
            },
            ..config()
        });
        // 5× the pool's capacity, as two wire batches arriving at validator
        // 0 at the same instant.
        cluster.submit_batch(0, (0..2_500).map(Transaction::benchmark).collect());
        cluster.submit_batch(0, (2_500..5_000).map(Transaction::benchmark).collect());
        cluster.run_until(3_000_000);
        let integrity = cluster.engine(0).tx_integrity();
        assert!(integrity.rejected_full > 0, "{integrity:?}");
        assert_eq!(integrity.violations(), Vec::<String>::new());
        // The verdicts the client was sent are the engine's own counters.
        assert_eq!(
            cluster.rejections(0),
            integrity.rejected_duplicate
                + integrity.rejected_full
                + integrity.rejected_rate_limited
        );
        // A batch the pool sheds is still owed its admission receipt.
        let ingress = cluster.ingress_report(0);
        assert_eq!(ingress.batches_received, 2);
        assert_eq!(ingress.violations(), Vec::<String>::new());
    }

    #[test]
    fn compliant_zipf_clients_are_not_starved_by_heavy_hitters() {
        const CLIENTS: usize = 600;
        const RATE_LIMIT: u64 = 10;
        let mut cluster = LoopbackCluster::new(LoopbackConfig {
            ingress: IngressConfig {
                rate_limit_per_client: RATE_LIMIT,
                burst_per_client: 20,
                ..IngressConfig::default()
            },
            ..config()
        });
        // Client `i` demands 800 / (i + 1) tx/s of validator 0: the first
        // 79 exceed the limit, the other 521 are compliant. Ids start above
        // the committee — the external, rate-limited range.
        let demand = |client: usize| 800.0 / (client + 1) as f64;
        let mut submitted = vec![0u64; CLIENTS];
        let mut batches = vec![0u64; CLIENTS];
        for now in (0..2_000_000u64).step_by(50_000) {
            for client in 0..CLIENTS {
                let due = (demand(client) * now as f64 / 1e6) as u64;
                if due > submitted[client] {
                    let ids = (submitted[client]..due).map(|i| ((client as u64) << 32) + i);
                    cluster.submit_batch_as(
                        0,
                        4 + client,
                        ids.map(Transaction::benchmark).collect(),
                    );
                    submitted[client] = due;
                    batches[client] += 1;
                }
            }
            cluster.run_until(now);
        }
        cluster.run_until(3_000_000);

        let mut admissions = vec![0u64; CLIENTS];
        let mut accepted = vec![0u64; CLIENTS];
        for (_, peer, receipt) in cluster.receipts(0) {
            if let TxReceipt::Admission { verdicts, .. } = receipt {
                admissions[peer - 4] += 1;
                accepted[peer - 4] += verdicts.iter().filter(|v| v.is_accepted()).count() as u64;
            }
        }
        // Zero receipt loss, per client and in the engine's ledger.
        assert_eq!(admissions, batches);
        let report = cluster.ingress_report(0);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert!(report.rate_limited > 0, "the limiter never engaged");
        // Among compliant clients, accepted ÷ offered differs by at most a
        // factor of two: the limiter sheds the heavy hitters, not the tail.
        let shares: Vec<f64> = (0..CLIENTS)
            .filter(|&client| demand(client) <= RATE_LIMIT as f64 && submitted[client] > 0)
            .map(|client| accepted[client] as f64 / submitted[client] as f64)
            .collect();
        assert!(shares.len() >= 500, "{} compliant clients", shares.len());
        let min = shares.iter().copied().fold(f64::INFINITY, f64::min);
        let max = shares.iter().copied().fold(0.0, f64::max);
        assert!(min / max >= 0.5, "accepted share ranges {min:.3}..{max:.3}");
    }

    #[test]
    fn stage_histograms_cover_all_eight_stages() {
        let mut cluster = LoopbackCluster::new(config());
        cluster.run_until(200_000);
        cluster.submit_batch(
            0,
            vec![Transaction::benchmark(1), Transaction::benchmark(2)],
        );
        cluster.run_until(3_000_000);
        let snapshot = cluster.stage_snapshot(0);
        assert!(
            snapshot.all_stages_populated(),
            "every stage histogram must see at least one sample"
        );
        // Ingress samples are link flights: exactly the configured delay.
        let ingress = snapshot.stage(Stage::IngressReceived);
        assert!((ingress.quantile_s(1.0) - 0.03).abs() < 0.005);
        // The registry serves the same histograms as Prometheus text.
        let text = cluster.registry(0).render_prometheus();
        assert!(text.contains("mahimahi_stage_sequenced_seconds_bucket"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn checkpoint_records_are_synced_like_own_blocks_and_evidence() {
        let mut cluster = LoopbackCluster::new(config());
        cluster.run_until(3_000_000);
        let storage = cluster.wals.swap_remove(0).into_storage();
        let records: Vec<WalRecord> = Wal::open(storage.clone())
            .unwrap()
            .records()
            .unwrap()
            .iter()
            .map(|record| WalRecord::from_bytes_exact(&record.payload).unwrap())
            .collect();
        let checkpoints = records
            .iter()
            .filter(|record| matches!(record, WalRecord::Checkpoint { .. }))
            .count();
        assert!(checkpoints >= 2, "the run must cross checkpoint boundaries");
        // One sync per durable record, checkpoints included — and none for
        // the peers' blocks in between.
        let durable = records
            .iter()
            .filter(|record| record.is_durable(AuthorityIndex(0)))
            .count();
        assert!(durable < records.len());
        assert_eq!(storage.sync_count(), durable as u64);
    }

    /// What validator `validator` logged: the frame payload bytes of its
    /// block records, and `(position, record bytes)` of every checkpoint
    /// record, in log order.
    fn logged(cluster: &mut LoopbackCluster, validator: usize) -> (u64, Vec<(u64, u64)>) {
        let records = cluster.wals[validator].records().unwrap();
        let mut block_bytes = 0;
        let mut snapshots = Vec::new();
        for record in records {
            let bytes = record.payload.len() as u64;
            match WalRecord::from_bytes_exact(&record.payload).unwrap() {
                WalRecord::Block(_) => block_bytes += bytes,
                WalRecord::Checkpoint { checkpoint, .. } => {
                    snapshots.push((checkpoint.position(), bytes));
                }
                WalRecord::Evidence(_) => {}
            }
        }
        (block_bytes, snapshots)
    }

    /// A fast fabric: rounds are cheap in virtual time, so a run can cross
    /// many cuts.
    fn fast_config() -> LoopbackConfig {
        LoopbackConfig {
            link_delay: 1_000,
            inclusion_wait: 0,
            ..config()
        }
    }

    #[test]
    fn snapshots_follow_the_bytes_logged_not_the_cuts() {
        let mut cluster = LoopbackCluster::new(fast_config());
        for step in 0..40u64 {
            let batch = (0..25).map(|i| Transaction::benchmark(step * 25 + i));
            cluster.submit_batch((step % 4) as usize, batch.collect());
            cluster.run_until((step + 1) * 20_000);
        }
        let cuts = cluster
            .engine(0)
            .latest_checkpoint()
            .map_or(0, |checkpoint| checkpoint.position() / 32);
        let (block_bytes, snapshots) = logged(&mut cluster, 0);
        assert!(cuts >= 12, "the run crossed only {cuts} cuts");
        assert!(
            (3..cuts / 2).contains(&(snapshots.len() as u64)),
            "{} snapshots over {cuts} cuts",
            snapshots.len()
        );
        // The rule's bound: every snapshot but the newest is followed by
        // sixteen times its size in blocks — well inside the 1/8 aimed at.
        let snapshot_bytes: u64 = snapshots.iter().map(|&(_, bytes)| bytes).sum();
        let newest = snapshots.last().expect("checked").1;
        assert!(
            snapshot_bytes <= block_bytes / 8 + newest,
            "{snapshot_bytes} B of snapshots beside {block_bytes} B of blocks"
        );
        // The rule reads the committed sequence alone: every validator
        // persists its snapshots at the same cuts.
        for validator in 1..4 {
            let (_, theirs) = logged(&mut cluster, validator);
            let shared = theirs.len().min(snapshots.len());
            assert!(shared >= 3);
            assert_eq!(
                theirs[..shared],
                snapshots[..shared],
                "validator {validator}"
            );
        }
    }

    #[test]
    fn an_idle_cluster_still_snapshots_and_its_log_compacts() {
        // No payload at all: the rule counts block bytes, and empty blocks
        // have some.
        let mut cluster = LoopbackCluster::new(fast_config());
        let mut horizon = 0;
        while logged(&mut cluster, 0).1.len() < 3 {
            horizon += 10_000;
            assert!(horizon < 5_000_000, "an idle log never got its snapshots");
            cluster.run_until(horizon);
        }
        // Through the node's log, the newest of those records marks the
        // blocks below its floor dead, and the rewrite goes through.
        let storage = cluster.wals.swap_remove(0).into_storage();
        let wal = crate::log::AnyWal::Memory(Wal::open(storage).unwrap());
        let mut engine = cluster.fresh_engine(0);
        let mut log =
            crate::log::NodeLog::recover(wal, AuthorityIndex(0), Some(16), &mut engine).unwrap();
        assert!(log.compaction_due(), "{:?}", log.stats());
        let before = log.stats().bytes;
        log.compact();
        let after = log.stats();
        assert_eq!((after.compactions, after.errors), (1, 0));
        assert!(after.bytes < before / 2);
        assert!(engine.latest_checkpoint().is_some());
    }

    #[test]
    fn wal_recovery_reproduces_the_dag() {
        let mut cluster = LoopbackCluster::new(config());
        cluster.run_until(1_000_000);
        let live_round = cluster.engine(0).round();
        assert!(live_round > 10);
        let recovered = cluster.recover_from_wal(0);
        assert_eq!(recovered.round(), live_round);
        assert_eq!(
            recovered.store().highest_round(),
            cluster.engine(0).store().highest_round()
        );
    }
}
