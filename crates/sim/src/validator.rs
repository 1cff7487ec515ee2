//! The simulated validator: a thin shell over the shared sans-I/O engine.
//!
//! A [`SimValidator`] is one protocol participant. All consensus logic —
//! DAG admission, synchronization, round pacing, block production, the
//! commit rule, evidence handling — lives in the shared
//! [`ValidatorEngine`] (`mahimahi-core`), the same state machine the TCP
//! node drives. This shell only:
//!
//! - models the *process*: crashed and offline windows drop inputs before
//!   they reach the engine (a down process loses in-flight messages; the
//!   synchronizer repairs the gaps after restart);
//! - selects the [`ProposerStrategy`] matching the configured
//!   [`Behavior`] (Byzantine attack strategies live in
//!   [`crate::strategy`]);
//! - maps engine [`Output`]s onto runner [`Action`]s (virtual network
//!   sends, wake-ups) and plays the validator's local client: batches go
//!   in under the validator's own index, and the `Committed` receipts
//!   addressed to that index are the client's latency samples;
//! - keeps the validator's write-ahead log: every [`Output::Persist`] is
//!   appended to an in-memory [`Wal`] exactly as the TCP node's log writes
//!   it, synced when the record is durable.
//!
//! [`ValidatorEngine`]: mahimahi_core::ValidatorEngine
//! [`ProposerStrategy`]: mahimahi_core::ProposerStrategy

use mahimahi_core::{
    engine::{EngineConfig, Input},
    EvidencePool, IngressReport, Output, ProtocolCommitter, TxIntegrityReport, ValidatorEngine,
    WalRecord,
};
use mahimahi_dag::BlockStore;
use mahimahi_net::time::Time;
use mahimahi_types::{
    AuthorityIndex, BlockRef, Checkpoint, Encode, Envelope, Round, StateRoot, TestCommittee,
    Transaction, TxReceipt, Verified,
};
use mahimahi_wal::{MemStorage, Wal};

use crate::config::{Behavior, LeaderSchedule};
use crate::strategy::strategy_for;

/// An effect a validator asks the runner to carry out.
#[derive(Debug)]
pub enum Action {
    /// Send `message` to every other validator.
    Broadcast(Envelope),
    /// Send `message` to one validator.
    Send(usize, Envelope),
    /// Batches this validator's local client submitted just committed
    /// (a `Committed` receipt addressed to the validator's own index); each
    /// entry is one batch's receive time.
    BatchesCommitted(Vec<Time>),
    /// Call `maybe_advance` again no earlier than the given time (a
    /// pacing wait is pending).
    WakeAt(Time),
}

/// One simulated protocol participant.
pub struct SimValidator {
    behavior: Behavior,
    engine: ValidatorEngine,
    /// Every signed checkpoint this validator produced, in position order
    /// (the `state-root-agreement` oracle compares them across validators).
    checkpoints: Vec<Checkpoint>,
    /// Every record the engine asked to persist, in emission order.
    log: Wal<MemStorage>,
    /// A handle on `log`'s bytes (clones share them).
    storage: MemStorage,
}

impl SimValidator {
    /// Creates the validator `config` describes (see
    /// [`SimConfig::engine_config`](crate::config::SimConfig::engine_config)),
    /// playing `behavior`. `setup` holds every member's secrets: an
    /// adversary that anticipates the coin precomputes it from them.
    pub fn new(
        mut config: EngineConfig,
        setup: &TestCommittee,
        committer: Box<dyn ProtocolCommitter>,
        behavior: Behavior,
        leader_schedule: LeaderSchedule,
    ) -> Self {
        let strategy = strategy_for(
            behavior,
            config.certified,
            config.authority,
            setup,
            leader_schedule,
        );
        if let Behavior::Crashed { from_round } = behavior {
            config.halt_from_round = Some(from_round);
        }
        let storage = MemStorage::new();
        SimValidator {
            behavior,
            engine: ValidatorEngine::new(config, committer, strategy),
            checkpoints: Vec::new(),
            log: Wal::open(storage.clone()).expect("an empty log opens"),
            storage,
        }
    }

    /// The committed leader sequence so far (`None` entries are skipped
    /// slots). Any two honest validators' logs must be prefix-consistent —
    /// the safety property of Lemmas 5–7.
    pub fn commit_log(&self) -> &[Option<BlockRef>] {
        self.engine.commit_log()
    }

    /// The authority this validator runs as.
    pub fn authority(&self) -> AuthorityIndex {
        self.engine.authority()
    }

    /// The local DAG.
    pub fn store(&self) -> &BlockStore {
        self.engine.store()
    }

    /// The shared engine this shell drives (inspection).
    pub fn engine(&self) -> &ValidatorEngine {
        &self.engine
    }

    /// Attaches a record-only telemetry sink to the engine (see
    /// [`ValidatorEngine::set_telemetry`]).
    pub fn set_telemetry(&mut self, sink: std::sync::Arc<dyn mahimahi_core::TelemetrySink>) {
        self.engine.set_telemetry(sink);
    }

    /// The evidence pool (verified convictions, slashing hooks).
    pub fn evidence(&self) -> &EvidencePool {
        self.engine.evidence()
    }

    /// The authorities this validator has convicted of equivocation, in
    /// index order. Honest validators converge on this set (the
    /// `evidence-attribution` oracle of `mahimahi-scenarios` checks it).
    pub fn convicted(&self) -> Vec<AuthorityIndex> {
        self.engine.convicted()
    }

    /// Last produced round.
    pub fn round(&self) -> Round {
        self.engine.round()
    }

    /// Transactions waiting for inclusion.
    pub fn queued_transactions(&self) -> usize {
        self.engine.mempool().len()
    }

    fn is_crashed(&self, round: Round) -> bool {
        matches!(self.behavior, Behavior::Crashed { from_round } if round >= from_round)
    }

    fn is_offline(&self, now: Time) -> bool {
        matches!(self.behavior, Behavior::Offline { from, until }
            if (from..until).contains(&now))
    }

    /// Enqueues the local client's workload before the run starts, with
    /// no clock tick ahead of it — a tick at time zero would produce round
    /// 1 first, and a preloaded workload is meant to ride in it. The
    /// receipt and the forwarding wake-up are dropped: nothing reads an
    /// admission verdict here, and the run's first `maybe_advance` re-arms
    /// the timer.
    pub fn preload(&mut self, transactions: Vec<Transaction>) {
        let from = self.authority().as_usize();
        self.engine
            .handle(Input::TxBatchReceived { from, transactions });
    }

    /// The transaction-pipeline accounting at this validator (mempool
    /// occupancy, rejections, conservation, duplicate commits).
    pub fn tx_integrity(&self) -> TxIntegrityReport {
        self.engine.tx_integrity()
    }

    /// The ingress ledger at this validator (receipts, commit notices,
    /// forwarding, rate limiting) — what the `receipt-integrity` scenario
    /// oracle checks.
    pub fn ingress_report(&self) -> IngressReport {
        self.engine.ingress_report()
    }

    /// The execution-state root after every sub-DAG applied so far
    /// (`&mut`: the engine keeps it incrementally).
    pub fn state_root(&mut self) -> StateRoot {
        self.engine.state_root()
    }

    /// Every checkpoint this validator signed, in position order.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// The storage under this validator's write-ahead log: a handle that
    /// shares its bytes and sync count, for opening or inspecting the log.
    pub fn log(&self) -> &MemStorage {
        &self.storage
    }

    /// Applies a delivered input — a message, verified once at send, or a
    /// client batch — returning follow-up actions. A batch's `from` is the
    /// submitting connection; the validator's own index is its local
    /// client, whose receipts come back as [`Action::BatchesCommitted`].
    pub fn on_message(&mut self, now: Time, input: Verified<Input>) -> Vec<Action> {
        if self.is_crashed(self.engine.round() + 1) {
            return Vec::new();
        }
        if self.is_offline(now) {
            // The process is down: in-flight messages addressed to it are
            // lost; the synchronizer repairs the gaps after restart.
            return Vec::new();
        }
        let mut actions = Vec::new();
        let outputs = self.engine.handle(Input::TimerFired { now });
        self.apply(outputs, &mut actions);
        let outputs = self.engine.handle_verified(input);
        self.apply(outputs, &mut actions);
        actions
    }

    /// Advances the engine clock: produces blocks when pacing allows,
    /// releases paced messages, runs the commit rule. Called by the runner
    /// at start-up, after every state change, and on scheduled wake-ups.
    pub fn maybe_advance(&mut self, now: Time) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.is_offline(now) {
            // Re-check right after the restart time.
            if let Behavior::Offline { until, .. } = self.behavior {
                actions.push(Action::WakeAt(until));
            }
            return actions;
        }
        let outputs = self.engine.handle(Input::TimerFired { now });
        self.apply(outputs, &mut actions);
        actions
    }

    /// Maps engine outputs onto runner actions. Records to persist go to
    /// the log; commit and conviction notifications have no simulator-side
    /// effect (metrics read the engine's counters directly); checkpoints
    /// are recorded for the `state-root-agreement` oracle; receipts
    /// addressed to this validator's own index are its local client's
    /// inbox (open-loop clients do not retry, so admission verdicts stop
    /// here — the rejection counters stay visible through
    /// [`Self::tx_integrity`]); everything else forwards one-to-one.
    fn apply(&mut self, outputs: Vec<Output>, actions: &mut Vec<Action>) {
        let own = self.authority().as_usize();
        for output in outputs {
            match output {
                Output::Broadcast(envelope) => actions.push(Action::Broadcast(envelope)),
                Output::SendTo(peer, envelope) => actions.push(Action::Send(peer, envelope)),
                Output::WakeAt(time) => actions.push(Action::WakeAt(time)),
                Output::CheckpointProduced(checkpoint) => self.checkpoints.push(checkpoint),
                Output::TxReceipt { peer, receipt } if peer == own => {
                    if let TxReceipt::Committed { tags } = receipt {
                        actions.push(Action::BatchesCommitted(tags));
                    }
                }
                Output::TxReceipt { peer, receipt } => {
                    actions.push(Action::Send(peer, Envelope::TxReceipt(receipt)))
                }
                Output::Persist(record) => self.persist(&record),
                Output::Committed(_) | Output::Convicted(_) => {}
            }
        }
    }

    /// Appends `record` the way the node's log does — a block record as
    /// its tag and the block's retained bytes, anything else as its
    /// encoding — and syncs when the record is durable
    /// ([`WalRecord::is_durable`]). The log is in memory, so an append
    /// fails only for a record past [`mahimahi_wal::MAX_RECORD_BYTES`];
    /// such a record stays out of the log and the run goes on.
    fn persist(&mut self, record: &WalRecord) {
        let appended = match record {
            WalRecord::Block(block) => self
                .log
                .append_parts(&[&[WalRecord::BLOCK_TAG], block.as_bytes()]),
            _ => self.log.append(&record.to_bytes_vec()),
        };
        if appended.is_ok() && record.is_durable(self.authority()) {
            let _ = self.log.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolChoice;
    use mahimahi_core::MempoolConfig;
    use mahimahi_types::{Block, TestCommittee};
    use std::collections::{HashMap, HashSet};
    use std::sync::Arc;

    /// Election probe mirroring the strategies' internal oracle.
    fn elected(schedule: crate::config::LeaderSchedule, authority: u32, round: Round) -> bool {
        crate::strategy::Elector::new(
            AuthorityIndex(authority),
            TestCommittee::new(4, 7),
            schedule,
        )
        .is_elected_leader(round)
    }

    fn validator(authority: u32, behavior: Behavior, certified: bool) -> SimValidator {
        let setup = TestCommittee::new(4, 7);
        let protocol = if certified {
            ProtocolChoice::Tusk
        } else {
            ProtocolChoice::MahiMahi5 { leaders: 2 }
        };
        let committer = protocol.committer(setup.committee().clone());
        // No inclusion wait: unit tests drive rounds explicitly.
        let mut config = EngineConfig::new(AuthorityIndex(authority), setup.clone());
        config.certified = certified;
        config.mempool = MempoolConfig::test(10_000, 100);
        SimValidator::new(
            config,
            &setup,
            committer,
            behavior,
            protocol.leader_schedule(),
        )
    }

    /// Delivers `message` from `from` as the runner does: verified first.
    fn receive(v: &mut SimValidator, now: Time, from: usize, message: Envelope) -> Vec<Action> {
        let committee = TestCommittee::new(4, 7).committee().clone();
        let input =
            mahimahi_core::admission::verify(&committee, Input::from_envelope(from, message))
                .expect("test messages verify");
        v.on_message(now, input)
    }

    /// Broadcast block actions (the production path most tests inspect).
    fn broadcast_block(actions: &[Action]) -> Option<Arc<Block>> {
        actions.iter().find_map(|action| match action {
            Action::Broadcast(Envelope::Block(block)) => Some(block.clone()),
            _ => None,
        })
    }

    #[test]
    fn produces_round_one_at_startup() {
        let mut v = validator(0, Behavior::Honest, false);
        let actions = v.maybe_advance(0);
        assert_eq!(v.round(), 1);
        assert_eq!(actions.len(), 1, "one broadcast, nothing else");
        assert!(broadcast_block(&actions).is_some_and(|b| b.round() == 1));
    }

    #[test]
    fn crashed_validator_does_nothing() {
        let mut v = validator(0, Behavior::Crashed { from_round: 0 }, false);
        assert!(v.maybe_advance(0).is_empty());
        assert_eq!(v.round(), 0);
        assert!(receive(
            &mut v,
            0,
            0,
            Envelope::TxBatch(vec![Transaction::benchmark(1)])
        )
        .is_empty());
        assert_eq!(v.queued_transactions(), 0);
    }

    #[test]
    fn advances_on_peer_blocks() {
        // Four validators exchange round-1 blocks; each should then reach
        // round 2.
        let mut validators: Vec<SimValidator> = (0..4)
            .map(|a| validator(a, Behavior::Honest, false))
            .collect();
        let mut round_one = Vec::new();
        for v in validators.iter_mut() {
            let actions = v.maybe_advance(0);
            if let Some(block) = broadcast_block(&actions) {
                round_one.push((v.authority().as_usize(), block));
            }
        }
        assert_eq!(round_one.len(), 4);
        let (sender, block) = round_one[1].clone();
        let mut target = validators.remove(0);
        // Deliver three peer blocks to validator 0: round 1 quorum complete.
        receive(&mut target, 1000, sender, Envelope::Block(block));
        assert_eq!(target.round(), 1, "needs full quorum at round 1");
        for (sender, block) in round_one.iter().skip(2) {
            receive(&mut target, 1000, *sender, Envelope::Block(block.clone()));
        }
        assert_eq!(target.round(), 2);
        assert_eq!(target.store().blocks_at_round(1).len(), 4);
    }

    #[test]
    fn transactions_flow_into_blocks() {
        let mut v = validator(2, Behavior::Honest, false);
        v.preload([10, 11].map(Transaction::benchmark).to_vec());
        let actions = v.maybe_advance(10);
        let block = broadcast_block(&actions).expect("expected block broadcast");
        assert_eq!(block.transactions().len(), 2);
        assert_eq!(v.queued_transactions(), 0);
    }

    #[test]
    fn block_capacity_is_respected() {
        let mut v = validator(2, Behavior::Honest, false);
        v.preload((0..500).map(Transaction::benchmark).collect());
        let actions = v.maybe_advance(10);
        let block = broadcast_block(&actions).expect("expected block broadcast");
        assert_eq!(block.transactions().len(), 100);
        assert_eq!(v.queued_transactions(), 400);
    }

    #[test]
    fn wire_batches_share_the_mempool_with_local_submissions() {
        let mut v = validator(1, Behavior::Honest, false);
        // A batch through the wire vocabulary lands in the same pool…
        let batch = vec![Transaction::benchmark(1), Transaction::benchmark(2)];
        let actions = receive(&mut v, 5, 0, Envelope::TxBatch(batch));
        assert_eq!(v.queued_transactions(), 2);
        // …as does one the validator's own client submits afterwards.
        receive(
            &mut v,
            5,
            1,
            Envelope::TxBatch(vec![Transaction::benchmark(3)]),
        );
        assert_eq!(v.queued_transactions(), 3);
        let integrity = v.tx_integrity();
        assert_eq!(integrity.accepted, 3);
        let _ = actions;
        let again = receive(
            &mut v,
            6,
            2,
            Envelope::TxBatch(vec![Transaction::benchmark(2)]),
        );
        assert_eq!(v.queued_transactions(), 3, "duplicate digest rejected");
        assert_eq!(v.tx_integrity().rejected_duplicate, 1);
        assert!(again
            .iter()
            .all(|action| !matches!(action, Action::Broadcast(_))));
    }

    #[test]
    fn certified_validator_waits_for_certificate() {
        let mut v = validator(0, Behavior::Honest, true);
        let actions = v.maybe_advance(0);
        let reference = match &actions[..] {
            [Action::Broadcast(Envelope::Proposal(block))] => block.reference(),
            other => panic!("expected proposal broadcast, got {other:?}"),
        };
        // Not in the DAG yet: the round counter advanced but the store has
        // no round-1 block until the certificate forms.
        assert_eq!(v.store().blocks_at_round(1).len(), 0);
        // Acks from two peers complete the quorum (own ack counts).
        let more = receive(
            &mut v,
            10,
            1,
            Envelope::Ack {
                reference,
                voter: AuthorityIndex(1),
            },
        );
        assert!(more.is_empty());
        let more = receive(
            &mut v,
            20,
            2,
            Envelope::Ack {
                reference,
                voter: AuthorityIndex(2),
            },
        );
        assert!(more
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Envelope::Certificate { .. }))));
        assert_eq!(v.store().blocks_at_round(1).len(), 1);
    }

    #[test]
    fn missing_ancestry_triggers_synchronizer() {
        let setup = TestCommittee::new(4, 7);
        let mut dag = mahimahi_dag::DagBuilder::new(setup);
        dag.add_full_round();
        let r2 = dag.add_full_round();
        let block = dag.store().get(&r2[1]).unwrap().clone();

        let mut v = validator(0, Behavior::Honest, false);
        // Deliver a round-2 block whose round-1 parents are unknown.
        let actions = receive(&mut v, 0, 1, Envelope::Block(block));
        assert!(actions.iter().any(|a| matches!(a,
            Action::Send(1, Envelope::Request(refs)) if !refs.is_empty())));
    }

    #[test]
    fn request_answered_with_blocks() {
        let mut v = validator(0, Behavior::Honest, false);
        v.maybe_advance(0);
        let own = v
            .store()
            .blocks_at_round(1)
            .first()
            .map(|b| b.reference())
            .unwrap();
        let actions = receive(&mut v, 5, 3, Envelope::Request(vec![own]));
        assert!(
            matches!(&actions[..], [Action::Send(3, Envelope::Response(blocks))]
            if blocks.len() == 1)
        );
    }

    #[test]
    fn equivocator_sends_different_variants() {
        let mut v = validator(1, Behavior::Equivocator, false);
        let actions = v.maybe_advance(0);
        let mut sent: HashMap<usize, BlockRef> = HashMap::new();
        for action in &actions {
            if let Action::Send(to, Envelope::Block(block)) = action {
                sent.insert(*to, block.reference());
            }
        }
        assert_eq!(sent.len(), 3);
        // Peers in different halves got different digests.
        assert_ne!(sent[&0], sent[&3]);
    }

    #[test]
    fn mute_validator_stays_silent() {
        let mut v = validator(1, Behavior::Mute, false);
        let actions = v.maybe_advance(0);
        assert!(actions.is_empty());
        // But its own chain advances locally.
        assert_eq!(v.round(), 1);
        assert_eq!(v.store().blocks_at_round(1).len(), 1);
    }

    #[test]
    fn split_brain_routes_variants_along_the_partition_boundary() {
        // minority = 2: peers {0, 1} get variant A, {2, 3} \ self variant B.
        let mut v = validator(3, Behavior::SplitBrainEquivocator { minority: 2 }, false);
        let actions = v.maybe_advance(0);
        let mut sent: HashMap<usize, BlockRef> = HashMap::new();
        for action in &actions {
            if let Action::Send(to, Envelope::Block(block)) = action {
                sent.insert(*to, block.reference());
            }
        }
        assert_eq!(sent.len(), 3);
        assert_eq!(sent[&0], sent[&1], "minority side must see one variant");
        assert_ne!(sent[&0], sent[&2], "sides must see conflicting variants");
        // Own chain extends the attacker's own (majority) side.
        let own = v.store().blocks_at_round(1)[0].reference();
        assert_eq!(own, sent[&2]);
    }

    #[test]
    fn fork_spammer_sprays_distinct_variants() {
        let mut v = validator(0, Behavior::ForkSpammer { forks: 3 }, false);
        let actions = v.maybe_advance(0);
        let mut digests = HashSet::new();
        let mut receivers = HashSet::new();
        for action in &actions {
            if let Action::Send(to, Envelope::Block(block)) = action {
                receivers.insert(*to);
                digests.insert(block.reference());
            }
        }
        assert_eq!(receivers.len(), 3, "every peer receives a block");
        assert!(
            digests.len() >= 2,
            "at least two conflicting forks in flight"
        );
    }

    #[test]
    fn adaptive_attacker_withholds_on_slot_and_equivocates_off_slot() {
        // Round 1 with an empty round-0 view: the laggard split is
        // degenerate, so victims fall back to the past-quorum peers. The
        // observable contract: on a leader slot the block reaches exactly
        // f peers and only one variant exists; off slot, two conflicting
        // variants go out and the victims get the minority one.
        let schedule = ProtocolChoice::MahiMahi5 { leaders: 2 }.leader_schedule();
        for authority in 0..4u32 {
            let mut v = validator(authority, Behavior::Adaptive, false);
            let actions = v.maybe_advance(0);
            let mut sent: HashMap<usize, BlockRef> = HashMap::new();
            for action in &actions {
                if let Action::Send(to, Envelope::Block(block)) = action {
                    sent.insert(*to, block.reference());
                }
            }
            let variants: HashSet<BlockRef> = sent.values().copied().collect();
            if elected(schedule, authority, 1) {
                // f = 1 at n = 4: one recipient, one variant, no broadcast.
                assert_eq!(sent.len(), 1, "authority {authority}");
                assert_eq!(variants.len(), 1, "authority {authority}");
            } else {
                assert_eq!(sent.len(), 3, "authority {authority}");
                assert_eq!(variants.len(), 2, "authority {authority} equivocates");
            }
            assert!(actions
                .iter()
                .all(|a| !matches!(a, Action::Broadcast(Envelope::Block(_)))));
        }
    }

    #[test]
    fn withholding_leader_is_honest_off_slot_and_selective_on_slot() {
        // Probe each authority: whoever the deterministic coin elects for
        // round 1 must withhold (≤ f sends), everyone else broadcasts.
        let mut saw_withholding = false;
        let mut saw_broadcast = false;
        let schedule = ProtocolChoice::MahiMahi5 { leaders: 2 }.leader_schedule();
        for authority in 0..4u32 {
            let mut v = validator(authority, Behavior::WithholdingLeader, false);
            let elected = elected(schedule, authority, 1);
            let actions = v.maybe_advance(0);
            let sends = actions
                .iter()
                .filter(|a| matches!(a, Action::Send(_, Envelope::Block(_))))
                .count();
            let broadcasts = actions
                .iter()
                .filter(|a| matches!(a, Action::Broadcast(Envelope::Block(_))))
                .count();
            if elected {
                // f = 1 at n = 4: strictly fewer than f + 1 = 2 recipients.
                assert_eq!((sends, broadcasts), (1, 0), "authority {authority}");
                saw_withholding = true;
            } else {
                assert_eq!((sends, broadcasts), (0, 1), "authority {authority}");
                saw_broadcast = true;
            }
        }
        // MahiMahi5 with 2 leaders per round: both cases must occur.
        assert!(saw_withholding && saw_broadcast);
    }

    #[test]
    fn slow_proposer_releases_blocks_late() {
        let mut v = validator(2, Behavior::SlowProposer { delay: 500 }, false);
        let actions = v.maybe_advance(100);
        // Produced and stored locally, but only a wake-up goes out.
        assert_eq!(v.round(), 1);
        assert_eq!(v.store().blocks_at_round(1).len(), 1);
        assert!(actions
            .iter()
            .all(|a| !matches!(a, Action::Broadcast(_) | Action::Send(..))));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::WakeAt(at) if *at == 600)));
        // At the release time the block finally broadcasts.
        let released = v.maybe_advance(600);
        assert!(released
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Envelope::Block(b)) if b.round() == 1)));
    }

    #[test]
    fn elections_follow_the_schedule() {
        // Cordial Miners proposes only on rounds 1, 6, 11, …: off-schedule
        // rounds never elect anyone.
        let cordial = ProtocolChoice::CordialMiners.leader_schedule();
        assert!(!elected(cordial, 0, 2));
        assert!(!elected(cordial, 0, 5));
        // Propose rounds elect exactly `leaders` among the committee.
        let mahi = ProtocolChoice::MahiMahi5 { leaders: 2 }.leader_schedule();
        let count = (0..4).filter(|&a| elected(mahi, a, 6)).count();
        assert_eq!(count, 2, "MahiMahi5 with 2 leaders elects 2 per round");
    }

    #[test]
    fn convicted_equivocator_is_excluded_from_parents() {
        // Validator 0 convicts v3 through at-source detection, then sees
        // every round-1 block before producing round 2 (the inclusion wait
        // holds production open): its later blocks must not reference
        // v3's chain.
        let setup = TestCommittee::new(4, 7);
        let protocol = ProtocolChoice::MahiMahi5 { leaders: 2 };
        let mut validators: Vec<SimValidator> = (0..3)
            .map(|a| {
                let mut config = EngineConfig::new(AuthorityIndex(a), setup.clone());
                config.mempool = MempoolConfig::test(10_000, 100);
                config.inclusion_wait = 1_000; // hold round 2 open until all of round 1 is here
                SimValidator::new(
                    config,
                    &setup,
                    protocol.committer(setup.committee().clone()),
                    Behavior::Honest,
                    protocol.leader_schedule(),
                )
            })
            .collect();
        let mut equivocator = validator(3, Behavior::Equivocator, false);

        // The equivocator sprays two variants; deliver both to validator 0
        // FIRST so it convicts before its round-1 quorum completes — the
        // exclusion must then bite on the very next production.
        let mut round_one: Vec<(usize, Arc<Block>)> = Vec::new();
        let eq_actions = equivocator.maybe_advance(0);
        for action in &eq_actions {
            if let Action::Send(_, Envelope::Block(block)) = action {
                round_one.push((3, block.clone()));
            }
        }
        for v in validators.iter_mut() {
            let actions = v.maybe_advance(0);
            if let Some(block) = broadcast_block(&actions) {
                round_one.push((v.authority().as_usize(), block));
            }
        }
        let mut target = validators.remove(0);
        for (from, block) in &round_one {
            if *from == 0 {
                continue;
            }
            receive(&mut target, 100, *from, Envelope::Block(block.clone()));
        }
        assert_eq!(target.convicted(), vec![AuthorityIndex(3)]);
        assert!(target.round() >= 2, "round advanced past the conviction");
        // Every block produced after the conviction shuns v3's blocks.
        for round in 2..=target.round() {
            let own = target
                .store()
                .blocks_in_slot(mahimahi_types::Slot::new(round, AuthorityIndex(0)));
            for block in own {
                assert!(
                    block.parents().all(|p| p.author != AuthorityIndex(3)),
                    "round {round} references the convicted equivocator"
                );
            }
        }
    }
}
