//! The simulation event loop.

use mahimahi_core::{admission, Input};
use mahimahi_net::time::Time;
use mahimahi_net::{
    Adversary, GeoLatency, LatencyModel, MessageMeta, NetworkConfig, NoAdversary,
    PartitionAdversary, RandomSubsetAdversary, RotatingDelayAdversary, SimNetwork, UniformLatency,
};
use mahimahi_telemetry::{Stage, StageSnapshot, StageStats};
use mahimahi_types::{
    AuthorityIndex, Committee, Envelope, TestCommittee, Transaction, TxReceipt, Verified,
};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::config::{AdversaryChoice, Behavior, LatencyChoice, SimConfig};
use crate::message::{over_the_wire, WireModel};
use crate::metrics::{LatencyStats, SimReport};
use crate::validator::{Action, SimValidator};

/// Runtime dispatch over the latency models (chosen per run).
#[allow(clippy::large_enum_variant)] // Geo carries the full region matrix; one instance per run
enum AnyLatency {
    Geo(GeoLatency),
    Uniform(UniformLatency),
}

impl LatencyModel for AnyLatency {
    fn sample<R: Rng + ?Sized>(&self, from: usize, to: usize, rng: &mut R) -> Time {
        match self {
            AnyLatency::Geo(model) => model.sample(from, to, rng),
            AnyLatency::Uniform(model) => model.sample(from, to, rng),
        }
    }

    fn mean(&self, from: usize, to: usize) -> Time {
        match self {
            AnyLatency::Geo(model) => model.mean(from, to),
            AnyLatency::Uniform(model) => model.mean(from, to),
        }
    }
}

/// Runtime dispatch over the adversaries.
enum AnyAdversary {
    None(NoAdversary),
    RandomSubset(RandomSubsetAdversary),
    Rotating(RotatingDelayAdversary),
    Partition(PartitionAdversary),
}

impl Adversary for AnyAdversary {
    fn schedule(&mut self, meta: MessageMeta, arrival: Time) -> Time {
        let scheduled = match self {
            AnyAdversary::None(adversary) => adversary.schedule(meta, arrival),
            AnyAdversary::RandomSubset(adversary) => adversary.schedule(meta, arrival),
            AnyAdversary::Rotating(adversary) => adversary.schedule(meta, arrival),
            AnyAdversary::Partition(adversary) => adversary.schedule(meta, arrival),
        };
        // The `Adversary::schedule` contract: asynchronous adversaries may
        // delay messages arbitrarily but never accelerate them (and never
        // travel back before the physical arrival computed by the latency
        // model). A violation here would silently break causality in every
        // downstream experiment, so it fails loudly in debug builds.
        debug_assert!(
            scheduled >= arrival,
            "adversary accelerated a message: {scheduled} < {arrival} (meta {meta:?})"
        );
        scheduled
    }
}

/// A delivery parked until the recipient's CPU frees up:
/// (resume time, sequence, recipient, delivery).
type DeferredDelivery = (Time, u64, usize, Delivery);

/// Everything a finished run exposes per validator, beyond the observer's
/// metrics: committed-leader logs and convicted-equivocator sets.
#[derive(Debug)]
pub struct SimOutcome {
    /// Metrics at the observer validator.
    pub report: SimReport,
    /// Per-validator committed leader sequences (`None` = skipped slot),
    /// indexed by authority; crashed validators have empty logs.
    pub logs: Vec<Vec<Option<mahimahi_types::BlockRef>>>,
    /// Per-validator convicted-equivocator sets in index order — the
    /// output of the evidence pools after at-source detection plus gossip.
    pub culprits: Vec<Vec<mahimahi_types::AuthorityIndex>>,
    /// Per-validator transaction-pipeline accounting (mempool occupancy,
    /// rejections, conservation, duplicate commits), indexed by authority —
    /// what the `tx-integrity` scenario oracle checks.
    pub tx_integrity: Vec<mahimahi_core::TxIntegrityReport>,
    /// Per-validator ingress ledgers (receipts, commit notices,
    /// forwarding, rate limiting), indexed by authority — what the
    /// `receipt-integrity` scenario oracle checks.
    pub ingress: Vec<mahimahi_core::IngressReport>,
    /// Per-validator final execution-state root, indexed by authority —
    /// what the `state-root-agreement` scenario oracle compares.
    pub state_roots: Vec<mahimahi_types::StateRoot>,
    /// Per-validator signed checkpoints in position order — roots at
    /// *identical* commit positions, comparable even when validators
    /// finish at different frontiers.
    pub checkpoints: Vec<Vec<mahimahi_types::Checkpoint>>,
}

/// A full simulated deployment: committee, network, clients, clock.
pub struct Simulation {
    config: SimConfig,
    /// The committee every sent envelope is verified against.
    committee: Committee,
    network: SimNetwork<Delivery, AnyLatency, AnyAdversary>,
    validators: Vec<SimValidator>,
    /// Deliveries deferred because the recipient's CPU was busy.
    deferred: BinaryHeap<Reverse<DeferredDelivery>>,
    deferred_sequence: u64,
    /// Scheduled `maybe_advance` wake-ups: (time, sequence, validator).
    /// The sequence makes equal-timestamp pops FIFO — `BinaryHeap` is not
    /// stable, so without it the pop order of colliding wake-ups would
    /// depend on heap insertion history rather than on the seed.
    wakeups: BinaryHeap<Reverse<(Time, u64, usize)>>,
    wakeup_sequence: u64,
    /// Per-validator CPU availability.
    cpu_busy_until: Vec<Time>,
    now: Time,
    /// Whether the round-1 kick-off has run.
    started: bool,
    /// Next client batch time and id counter.
    next_batch_at: Time,
    next_tx_id: u64,
    /// Transactions due so far per honest validator (exact-rate clients).
    txs_due_per_validator: u64,
    /// Client-observed commit latency: one sample per batch (submitted
    /// after the warm-up) whose `Committed` receipt reached the entry
    /// validator's local client — receive there → receipt there.
    latencies: LatencyStats,
    /// Per-validator commit-path stage histograms: the runner records the
    /// verify/resequence boundaries it owns (CPU cost, deferred wait), the
    /// engines report theirs through shared [`StageStats`] sinks.
    stage_stats: Vec<StageStats>,
    /// Per-validator receipts addressed to clients outside the committee,
    /// as `(emission time, client, receipt)` in emission order: what the
    /// TCP node would frame down those clients' connections.
    receipts: Vec<Vec<(Time, usize, TxReceipt)>>,
}

/// A sent envelope as its recipients receive it: the input decoded from
/// its wire bytes and verified once, at send (see [`Simulation::perform`]),
/// and the CPU time each recipient is charged to verify it. Every
/// recipient of a broadcast applies the same value.
///
/// Ordering is trivial: inside the deferred heap, entries order by the
/// tuple prefix only.
#[derive(Clone)]
struct Delivery {
    input: Verified<Input>,
    cost: Time,
}

impl PartialEq for Delivery {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delivery {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// Interval between client submission batches (quantizes open-loop arrival
/// times; small relative to WAN latencies).
const CLIENT_BATCH_INTERVAL: Time = 5_000; // 5 ms

impl Simulation {
    /// Builds a simulation from `config`.
    pub fn new(config: SimConfig) -> Self {
        let setup = TestCommittee::new(config.committee_size, config.seed);
        let nodes = config.committee_size;
        let latency = match config.latency {
            LatencyChoice::AwsWan {
                jitter_percent,
                tail_mean,
            } => AnyLatency::Geo(
                GeoLatency::aws(nodes).with_jitter(jitter_percent as f64 / 100.0, tail_mean),
            ),
            LatencyChoice::Uniform { min, max } => {
                AnyLatency::Uniform(UniformLatency::new(min, max))
            }
        };
        let quorum = setup.committee().quorum_threshold();
        let adversary = match config.adversary {
            AdversaryChoice::None => AnyAdversary::None(NoAdversary),
            AdversaryChoice::RandomSubset { hold } => AnyAdversary::RandomSubset(
                RandomSubsetAdversary::new(nodes, quorum, hold, config.seed ^ 0xada),
            ),
            AdversaryChoice::RotatingDelay {
                targets,
                period,
                extra,
            } => AnyAdversary::Rotating(RotatingDelayAdversary::new(nodes, targets, period, extra)),
            AdversaryChoice::Partition { minority, heals_at } => {
                AnyAdversary::Partition(PartitionAdversary::split_first(nodes, minority, heals_at))
            }
        };
        let network = SimNetwork::new(
            NetworkConfig::aws(nodes, config.seed ^ 0x7ea),
            latency,
            adversary,
        );
        let stage_stats: Vec<StageStats> = (0..nodes).map(|_| StageStats::detached()).collect();
        let validators = (0..nodes)
            .map(|index| {
                let mut validator = SimValidator::new(
                    config.engine_config(AuthorityIndex::from(index), setup.clone()),
                    &setup,
                    config.protocol.committer(setup.committee().clone()),
                    config.behavior_of(index),
                    config.protocol.leader_schedule(),
                );
                // The engine shares this validator's stage histograms; the
                // sink is record-only, so determinism is untouched.
                validator.set_telemetry(Arc::new(stage_stats[index].clone()));
                validator
            })
            .collect();
        Simulation {
            committee: setup.committee().clone(),
            network,
            validators,
            deferred: BinaryHeap::new(),
            deferred_sequence: 0,
            wakeups: BinaryHeap::new(),
            wakeup_sequence: 0,
            cpu_busy_until: vec![0; nodes],
            now: 0,
            started: false,
            next_batch_at: 0,
            next_tx_id: 0,
            txs_due_per_validator: 0,
            latencies: LatencyStats::default(),
            stage_stats,
            receipts: vec![Vec::new(); nodes],
            config,
        }
    }

    /// Enqueues `transactions` at `validator` before the run starts (so
    /// they ride in its first block) — seeded-workload injection for tests
    /// (the open-loop clients use `txs_per_second_per_validator` instead).
    pub fn preload_transactions(&mut self, validator: usize, transactions: Vec<Transaction>) {
        self.validators[validator].preload(transactions);
    }

    /// The first honest validator (identical commit sequences make any
    /// honest validator a valid observer).
    fn observer(&self) -> usize {
        (0..self.config.committee_size)
            .find(|&index| matches!(self.config.behavior_of(index), Behavior::Honest))
            .unwrap_or(0)
    }

    /// Runs to completion, returning every per-validator observable: the
    /// metrics report, the committed-leader logs, and each validator's
    /// convicted-equivocator set (fault attribution). The scenario
    /// harness's oracles consume this richer outcome.
    pub fn run_full(self) -> SimOutcome {
        let mut simulation = self;
        simulation.run_until(simulation.config.duration);
        let logs = simulation
            .validators
            .iter()
            .map(|validator| validator.commit_log().to_vec())
            .collect();
        let culprits = simulation
            .validators
            .iter()
            .map(|validator| validator.convicted())
            .collect();
        let tx_integrity = simulation
            .validators
            .iter()
            .map(|validator| validator.tx_integrity())
            .collect();
        let ingress = simulation
            .validators
            .iter()
            .map(|validator| validator.ingress_report())
            .collect();
        let state_roots = simulation
            .validators
            .iter_mut()
            .map(|validator| validator.state_root())
            .collect();
        let checkpoints = simulation
            .validators
            .iter()
            .map(|validator| validator.checkpoints().to_vec())
            .collect();
        SimOutcome {
            logs,
            culprits,
            tx_integrity,
            ingress,
            state_roots,
            checkpoints,
            report: simulation.report(),
        }
    }

    /// Runs the simulation to completion and produces the report.
    pub fn run(mut self) -> SimReport {
        self.run_until(self.config.duration);
        self.report()
    }

    /// Runs every event due up to and including virtual time `horizon`,
    /// then sets the clock to `horizon`. The first call starts the run:
    /// every validator produces round 1 on top of genesis. The open-loop
    /// clients stop at the configured duration whatever the horizon.
    pub fn run_until(&mut self, horizon: Time) {
        if !self.started {
            self.started = true;
            for index in 0..self.validators.len() {
                let actions = self.validators[index].maybe_advance(self.now);
                self.perform(index, actions);
            }
        }

        loop {
            let next_network = self.network.next_delivery_time();
            let next_deferred = self.deferred.peek().map(|Reverse((time, ..))| *time);
            let next_wakeup = self.wakeups.peek().map(|Reverse((time, ..))| *time);
            let next_batch =
                (self.next_batch_at <= self.config.duration).then_some(self.next_batch_at);
            let Some(next) = [next_network, next_deferred, next_wakeup, next_batch]
                .into_iter()
                .flatten()
                .min()
            else {
                break;
            };
            if next > horizon {
                break;
            }
            self.now = next;

            if Some(next) == next_wakeup {
                let Reverse((_, _, validator)) = self.wakeups.pop().expect("peeked");
                let actions = self.validators[validator].maybe_advance(self.now);
                self.perform(validator, actions);
                continue;
            }
            if Some(next) == next_batch {
                self.submit_client_batch();
                continue;
            }
            if Some(next) == next_deferred {
                let Reverse((_, _, to, delivery)) = self.deferred.pop().expect("peeked");
                self.process_message(to, delivery);
                continue;
            }
            let envelope = self.network.next_delivery().expect("peeked");
            self.dispatch(envelope.to, envelope.payload);
        }
        self.now = self.now.max(horizon);
    }

    /// Hands `transactions` to `validator` as one batch from `client`, at
    /// the current virtual time. A `client` at or above the committee size
    /// is an external client: its receipts are kept (see
    /// [`Self::receipts`]). The validator's own index is its local client,
    /// whose commit receipts are the run's latency samples.
    pub fn submit_batch(
        &mut self,
        validator: usize,
        client: usize,
        transactions: Vec<Transaction>,
    ) {
        let batch = Input::TxBatchReceived {
            from: client,
            transactions,
        };
        let batch = admission::verify(&self.committee, batch).expect("a batch makes no claim");
        let actions = self.validators[validator].on_message(self.now, batch);
        self.perform(validator, actions);
    }

    /// The validator running as `index`.
    pub fn validator(&self, index: usize) -> &SimValidator {
        &self.validators[index]
    }

    /// Every receipt `validator` addressed to a client outside the
    /// committee, as `(emission time, client, receipt)` in emission order.
    pub fn receipts(&self, validator: usize) -> &[(Time, usize, TxReceipt)] {
        &self.receipts[validator]
    }

    /// Open-loop clients: each honest validator receives the transactions
    /// that fell due since the previous batch. Exact-rate accounting: after
    /// `t` seconds every honest validator has received `⌊t × rate⌋`
    /// transactions, whatever the batch interval.
    fn submit_client_batch(&mut self) {
        let rate = self.config.txs_per_second_per_validator;
        if rate == 0 {
            self.next_batch_at = self.config.duration + 1;
            return;
        }
        let due = (self.now as u128 * rate as u128 / mahimahi_net::time::SECOND as u128) as u64;
        let count = due.saturating_sub(self.txs_due_per_validator);
        self.txs_due_per_validator = due;
        for index in 0..self.validators.len() {
            if !matches!(self.config.behavior_of(index), Behavior::Honest) {
                continue;
            }
            let batch: Vec<Transaction> = (self.next_tx_id..self.next_tx_id + count)
                .map(|id| Transaction::new(id.to_le_bytes().to_vec()))
                .collect();
            self.next_tx_id += count;
            if !batch.is_empty() {
                // The validator's local client: the batch goes in under
                // the validator's own index, tagged with its receive time.
                self.submit_batch(index, index, batch);
            }
            // Inclusion happens at the next block production; nudge the
            // validator in case it is idle at a round boundary.
            let actions = self.validators[index].maybe_advance(self.now);
            self.perform(index, actions);
        }
        self.next_batch_at = self.now + CLIENT_BATCH_INTERVAL;
    }

    /// Applies CPU gating, then lets the recipient process the delivery.
    fn dispatch(&mut self, to: usize, delivery: Delivery) {
        let busy_until = self.cpu_busy_until[to];
        if busy_until > self.now {
            // The deferred heap is the simulator's resequencer: the message
            // waits exactly until the recipient's CPU frees up.
            self.stage_stats[to].record(Stage::Resequenced, busy_until - self.now);
            self.deferred_sequence += 1;
            self.deferred
                .push(Reverse((busy_until, self.deferred_sequence, to, delivery)));
            return;
        }
        self.stage_stats[to].record(Stage::Resequenced, 0);
        self.process_message(to, delivery);
    }

    fn process_message(&mut self, to: usize, delivery: Delivery) {
        self.cpu_busy_until[to] = self.now + delivery.cost;
        // The charged CPU time *is* the verify-stage latency in this model.
        self.stage_stats[to].record(Stage::Verified, delivery.cost);
        let actions = self.validators[to].on_message(self.now, delivery.input);
        self.perform(to, actions);
    }

    /// The CPU time a recipient is charged to verify `message`.
    fn verify_cost(&self, message: &Envelope) -> Time {
        let cpu = &self.config.cpu;
        match message {
            Envelope::Block(block) | Envelope::Proposal(block) => cpu.block_verify(
                crate::message::block_wire_size(block, self.config.tx_wire_size),
            ),
            Envelope::Ack { .. } => cpu.signature_verify,
            Envelope::Certificate { signatures, .. } => cpu.certificate_verify(*signatures),
            Envelope::Request(_) => 1,
            // Sync replies go through the admission pipeline's batched
            // crypto path: one multi-scalar signature check and a shared
            // per-round coin base across the whole reply.
            Envelope::Response(blocks) => {
                let total_bytes: usize = blocks
                    .iter()
                    .map(|block| crate::message::block_wire_size(block, self.config.tx_wire_size))
                    .sum();
                cpu.block_verify_batched(total_bytes, blocks.len())
            }
            // A proof is two block verifications, batched the same way
            // (evidence is only as good as its signatures).
            Envelope::Evidence(proof) => {
                let total_bytes: usize = [proof.first(), proof.second()]
                    .iter()
                    .map(|block| crate::message::block_wire_size(block, self.config.tx_wire_size))
                    .sum();
                cpu.block_verify_batched(total_bytes, 2)
            }
            // Client batches and forwarded mempool frames cost their
            // ingest hashing (digest dedup).
            Envelope::TxBatch(transactions) | Envelope::TxForward(transactions) => {
                1 + cpu.hash_per_kb
                    * ((transactions.len() * self.config.tx_wire_size) as Time / 1024)
            }
            // Receipts carry no signatures; parsing is the only cost.
            Envelope::TxReceipt(_) => 1,
            // One signature check per checkpoint attestation.
            Envelope::Checkpoint(_) => cpu.signature_verify,
            Envelope::CheckpointRequest => 1,
            Envelope::CheckpointResponse { checkpoints, .. } => {
                cpu.signature_verify * checkpoints.len() as Time
            }
        }
    }

    /// What the recipients of `message` from `origin` apply: the input
    /// decoded from its bytes (see [`over_the_wire`]) and verified with
    /// [`admission::verify`], once for all of them, priced at the cost
    /// each recipient is charged. `None` for a frame the decoder or the
    /// verifier rejects: it goes nowhere, as a node drops it.
    fn deliverable(&self, origin: usize, message: &Envelope) -> Option<Delivery> {
        let envelope = over_the_wire(message)?;
        let cost = self.verify_cost(&envelope);
        let input = admission::verify(&self.committee, Input::from_envelope(origin, envelope))?;
        Some(Delivery { input, cost })
    }

    /// Executes validator actions: network sends and latency bookkeeping.
    /// A sent envelope travels as what its recipients apply (see
    /// [`Self::deliverable`]); one the decoder or the verifier rejects goes
    /// nowhere.
    fn perform(&mut self, origin: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Broadcast(message) => {
                    // Block creation costs CPU on the producer.
                    if matches!(message, Envelope::Block(_) | Envelope::Proposal(_)) {
                        self.cpu_busy_until[origin] = self.cpu_busy_until[origin].max(self.now)
                            + self.config.cpu.block_creation;
                    }
                    let size = message.wire_size(self.config.tx_wire_size);
                    let round = message.round();
                    if let Some(delivery) = self.deliverable(origin, &message) {
                        self.network
                            .broadcast(self.now, origin, size, round, delivery);
                    }
                }
                Action::Send(to, message) => {
                    if to >= self.validators.len() {
                        // Only receipts leave the committee: kept at the
                        // network edge, where the client would read them.
                        if let Envelope::TxReceipt(receipt) = message {
                            self.receipts[origin].push((self.now, to, receipt));
                        }
                        continue;
                    }
                    let size = message.wire_size(self.config.tx_wire_size);
                    let round = message.round();
                    if let Some(delivery) = self.deliverable(origin, &message) {
                        self.network
                            .send(self.now, origin, to, size, round, delivery);
                    }
                }
                Action::BatchesCommitted(received) => {
                    let warmup =
                        (self.config.duration as f64 * self.config.warmup_fraction) as Time;
                    for received in received {
                        if received >= warmup {
                            self.latencies.record(self.now - received);
                        }
                    }
                }
                Action::WakeAt(time) => {
                    self.wakeup_sequence += 1;
                    self.wakeups
                        .push(Reverse((time.max(self.now), self.wakeup_sequence, origin)));
                }
            }
        }
    }

    fn report(self) -> SimReport {
        let observer_index = self.observer();
        let observer = &self.validators[observer_index];
        let duration_s = mahimahi_net::time::as_secs_f64(self.config.duration);
        let warmup = (self.config.duration as f64 * self.config.warmup_fraction) as Time;
        let window_s = mahimahi_net::time::as_secs_f64(self.config.duration - warmup);

        // Throughput: committed transactions at the observer over the
        // post-warm-up window, approximated by scaling the total count by
        // the window share (commits are spread evenly in steady state).
        let committed = observer.engine().committed_transactions();
        let throughput = if window_s > 0.0 {
            committed as f64 * (window_s / duration_s) / window_s
        } else {
            0.0
        };

        let honest = (0..self.config.committee_size)
            .filter(|&i| matches!(self.config.behavior_of(i), Behavior::Honest))
            .count();
        let offered = self.config.txs_per_second_per_validator * honest as u64;
        // Merge the honest validators' stage histograms: faulty behaviors
        // would pollute the pipeline picture with intentionally weird
        // timings.
        let mut stages = StageSnapshot::default();
        for index in 0..self.config.committee_size {
            if matches!(self.config.behavior_of(index), Behavior::Honest) {
                stages.merge(&self.stage_stats[index].snapshot());
            }
        }
        SimReport {
            protocol: self.config.protocol.name(),
            committee_size: self.config.committee_size,
            faulty: self.config.committee_size - honest,
            offered_load_tps: offered,
            duration_s,
            committed_transactions: committed,
            throughput_tps: throughput,
            latency: self.latencies,
            stages,
            highest_round: observer.store().highest_round(),
            committed_slots: observer.engine().committed_slots(),
            skipped_slots: observer.engine().skipped_slots(),
            sequenced_blocks: observer.engine().sequenced_blocks(),
            network_bytes: self.network.bytes_sent(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolChoice;
    use mahimahi_net::time;
    use mahimahi_types::BlockBuilder;
    use mahimahi_wal::Wal;

    fn base_config(protocol: ProtocolChoice) -> SimConfig {
        SimConfig {
            protocol,
            committee_size: 4,
            duration: time::from_secs(5),
            txs_per_second_per_validator: 50,
            latency: LatencyChoice::Uniform {
                min: time::from_millis(40),
                max: time::from_millis(60),
            },
            seed: 7,
            ..SimConfig::default()
        }
    }

    #[test]
    fn mahi_mahi_5_commits_transactions() {
        let report = Simulation::new(base_config(ProtocolChoice::MahiMahi5 { leaders: 2 })).run();
        assert!(report.committed_transactions > 0, "{report:?}");
        assert!(report.highest_round > 20, "{report:?}");
        assert!(!report.latency.is_empty());
        assert!(report.latency.mean_s() < 2.0, "{}", report.latency.mean_s());
    }

    #[test]
    fn mahi_mahi_4_is_faster_than_5() {
        let five = Simulation::new(base_config(ProtocolChoice::MahiMahi5 { leaders: 2 })).run();
        let four = Simulation::new(base_config(ProtocolChoice::MahiMahi4 { leaders: 2 })).run();
        assert!(
            four.latency.mean_s() < five.latency.mean_s(),
            "MM4 {} !< MM5 {}",
            four.latency.mean_s(),
            five.latency.mean_s()
        );
    }

    #[test]
    fn cordial_miners_commits_but_slower_than_mahi_mahi() {
        let mahi = Simulation::new(base_config(ProtocolChoice::MahiMahi5 { leaders: 2 })).run();
        let cordial = Simulation::new(base_config(ProtocolChoice::CordialMiners)).run();
        assert!(cordial.committed_transactions > 0);
        assert!(
            cordial.latency.mean_s() > mahi.latency.mean_s(),
            "CM {} !> MM5 {}",
            cordial.latency.mean_s(),
            mahi.latency.mean_s()
        );
    }

    #[test]
    fn tusk_commits_with_highest_latency() {
        let tusk = Simulation::new(base_config(ProtocolChoice::Tusk)).run();
        assert!(tusk.committed_transactions > 0, "{tusk:?}");
        let mahi = Simulation::new(base_config(ProtocolChoice::MahiMahi4 { leaders: 2 })).run();
        assert!(
            tusk.latency.mean_s() > 1.5 * mahi.latency.mean_s(),
            "Tusk {} vs MM4 {}",
            tusk.latency.mean_s(),
            mahi.latency.mean_s()
        );
    }

    #[test]
    fn crash_faults_do_not_block_commits() {
        let config = base_config(ProtocolChoice::MahiMahi5 { leaders: 2 }).with_crashed(1);
        let report = Simulation::new(config).run();
        assert!(report.committed_transactions > 0, "{report:?}");
        assert!(report.skipped_slots > 0, "crashed slots must be skipped");
    }

    #[test]
    fn equivocator_does_not_break_safety_or_liveness() {
        let mut config = base_config(ProtocolChoice::MahiMahi5 { leaders: 2 });
        config.behaviors = vec![(3, Behavior::Equivocator)];
        let report = Simulation::new(config).run();
        assert!(report.committed_transactions > 0, "{report:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Simulation::new(base_config(ProtocolChoice::MahiMahi4 { leaders: 2 })).run();
        let b = Simulation::new(base_config(ProtocolChoice::MahiMahi4 { leaders: 2 })).run();
        assert_eq!(a.committed_transactions, b.committed_transactions);
        assert_eq!(a.highest_round, b.highest_round);
    }

    #[test]
    fn active_attacks_do_not_block_commits() {
        for behavior in [
            Behavior::WithholdingLeader,
            Behavior::SplitBrainEquivocator { minority: 1 },
            Behavior::SlowProposer {
                delay: time::from_millis(120),
            },
            Behavior::ForkSpammer { forks: 3 },
        ] {
            let mut config = base_config(ProtocolChoice::MahiMahi5 { leaders: 2 });
            config.behaviors = vec![(3, behavior)];
            let report = Simulation::new(config).run();
            assert!(
                report.committed_transactions > 0,
                "{behavior:?}: {report:?}"
            );
        }
    }

    #[test]
    fn equivocators_are_attributed_and_convictions_converge() {
        for behavior in [
            Behavior::Equivocator,
            Behavior::SplitBrainEquivocator { minority: 1 },
            Behavior::ForkSpammer { forks: 3 },
            Behavior::Adaptive,
        ] {
            let mut config = base_config(ProtocolChoice::MahiMahi5 { leaders: 2 });
            config.behaviors = vec![(3, behavior)];
            let outcome = Simulation::new(config).run_full();
            // Every honest validator converges on exactly the culprit.
            for validator in 0..3 {
                assert_eq!(
                    outcome.culprits[validator],
                    vec![AuthorityIndex(3)],
                    "{behavior:?}: validator {validator} attribution"
                );
            }
        }
        // All-honest run: nobody is ever convicted (no false positives).
        let outcome =
            Simulation::new(base_config(ProtocolChoice::MahiMahi5 { leaders: 2 })).run_full();
        assert!(outcome.culprits.iter().all(Vec::is_empty));
    }

    #[test]
    fn validator_offline_during_gossip_still_converges_on_culprits() {
        // Validator 1 is down for the first 4 of 5 seconds — it misses the
        // flood-once Evidence broadcasts entirely. The synchronizer-driven
        // evidence catch-up (convictions piggybacked on Request replies)
        // must still converge it on the culprit set.
        let mut config = base_config(ProtocolChoice::MahiMahi5 { leaders: 2 });
        config.behaviors = vec![
            (
                1,
                Behavior::Offline {
                    from: 0,
                    until: time::from_secs(4),
                },
            ),
            (3, Behavior::SplitBrainEquivocator { minority: 1 }),
        ];
        let outcome = Simulation::new(config).run_full();
        for validator in [0, 1, 2] {
            assert_eq!(
                outcome.culprits[validator],
                vec![AuthorityIndex(3)],
                "validator {validator} must attribute v3 despite the outage"
            );
        }
    }

    #[test]
    fn split_brain_with_matching_partition_preserves_agreement() {
        let mut config = base_config(ProtocolChoice::MahiMahi4 { leaders: 2 });
        config.behaviors = vec![(3, Behavior::SplitBrainEquivocator { minority: 1 })];
        config.adversary = AdversaryChoice::Partition {
            minority: 1,
            heals_at: time::from_secs(2),
        };
        let SimOutcome { report, logs, .. } = Simulation::new(config).run_full();
        assert!(report.committed_transactions > 0, "{report:?}");
        // The three correct validators (0 was partitioned, not faulty) must
        // agree on a common prefix despite the coordinated equivocation.
        for i in 0..3 {
            for j in (i + 1)..3 {
                let len = logs[i].len().min(logs[j].len());
                assert_eq!(&logs[i][..len], &logs[j][..len], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn withholding_leader_under_tusk_commits() {
        let mut config = base_config(ProtocolChoice::Tusk);
        config.behaviors = vec![(3, Behavior::WithholdingLeader)];
        let report = Simulation::new(config).run();
        assert!(report.committed_transactions > 0, "{report:?}");
    }

    #[test]
    fn colliding_wakeups_pop_in_insertion_order() {
        // Wake-ups scheduled for the identical instant must pop FIFO
        // regardless of the heap shape at push time — `BinaryHeap` alone is
        // not stable, and an insertion-history-dependent pop order at equal
        // timestamps would break seed reproducibility. The interleaved
        // later entry perturbs the heap exactly the way a live run does.
        let mut sim = Simulation::new(base_config(ProtocolChoice::MahiMahi5 { leaders: 2 }));
        let collide = time::from_millis(500);
        let later = time::from_millis(700);
        for (validator, at) in [
            (3, collide),
            (0, later),
            (1, collide),
            (2, collide),
            (0, collide),
        ] {
            sim.perform(validator, vec![Action::WakeAt(at)]);
        }
        let mut popped = Vec::new();
        while let Some(Reverse((at, _, validator))) = sim.wakeups.pop() {
            popped.push((at, validator));
        }
        assert_eq!(
            popped,
            vec![
                (collide, 3),
                (collide, 1),
                (collide, 2),
                (collide, 0),
                (later, 0)
            ]
        );
    }

    #[test]
    fn a_frame_the_decoder_rejects_is_dropped_at_send() {
        // One transaction past the batch limit encodes but does not decode:
        // validator 1 never sees the batch, the way a node drops the frame.
        // Blocks that decode but fail verification are dropped there too.
        let mut sim = Simulation::new(SimConfig {
            txs_per_second_per_validator: 0,
            ..base_config(ProtocolChoice::MahiMahi5 { leaders: 2 })
        });
        let oversized = (0..=mahimahi_types::MAX_BATCH_TXS as u64)
            .map(|id| Transaction::new(id.to_le_bytes().to_vec()))
            .collect();
        let bad = BlockBuilder::failing_verification(&TestCommittee::new(4, 7), AuthorityIndex(3));
        let mut sends = vec![Action::Send(1, Envelope::TxBatch(oversized))];
        sends.extend(
            bad.iter()
                .map(|block| Action::Send(1, Envelope::Block(block.clone()))),
        );
        sim.perform(0, sends);
        sim.run_until(time::from_secs(1));
        let validator = sim.validator(1);
        assert_eq!(validator.ingress_report().batches_received, 0);
        let logged = Wal::open(validator.log().clone())
            .unwrap()
            .records()
            .unwrap();
        assert!(validator.round() > 5, "the run went on");
        for block in &bad {
            assert!(!validator.store().contains(&block.reference()));
            assert!(!logged
                .iter()
                .any(|record| record.payload.ends_with(block.as_bytes())));
        }
    }

    #[test]
    fn random_subset_adversary_keeps_liveness() {
        let mut config = base_config(ProtocolChoice::MahiMahi5 { leaders: 2 });
        config.adversary = AdversaryChoice::RandomSubset {
            hold: time::from_millis(80),
        };
        let report = Simulation::new(config).run();
        assert!(report.committed_transactions > 0, "{report:?}");
    }
}
