//! Conformance oracles: invariants checked after every scenario run.

use mahimahi_net::time;
use mahimahi_sim::{AdversaryChoice, LatencyChoice, SimConfig};
use mahimahi_types::{BlockRef, Checkpoint, Slot};
use std::collections::HashMap;

use crate::scenario::{Scenario, ScenarioRun};

/// An invariant over a finished [`ScenarioRun`].
///
/// Oracles return `Err(detail)` on violation; the detail string names the
/// validators/slots involved so a failure can be replayed from the
/// scenario's seed.
pub trait Oracle {
    /// Stable oracle name for reports.
    fn name(&self) -> &'static str;

    /// Checks the invariant against a finished run.
    ///
    /// # Errors
    ///
    /// Returns a human-readable violation description.
    fn check(&self, scenario: &Scenario, run: &ScenarioRun) -> Result<(), String>;
}

/// The default oracle battery, in reporting order.
pub fn default_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(CommitAgreement),
        Box::new(UniqueSlotCommit),
        Box::new(CommitLatencyBound),
        Box::new(CommitLatencyP99),
        Box::new(Liveness),
        Box::new(EvidenceAttribution),
        Box::new(TxIntegrity),
        Box::new(ReceiptIntegrity),
        Box::new(StateRootAgreement),
    ]
}

/// Theorem 1 (Total Order): any two correct validators' committed leader
/// sequences are pairwise prefix-consistent, whatever the schedule.
pub struct CommitAgreement;

impl Oracle for CommitAgreement {
    fn name(&self) -> &'static str {
        "commit-agreement"
    }

    fn check(&self, scenario: &Scenario, run: &ScenarioRun) -> Result<(), String> {
        let correct = scenario.correct_validators();
        for (position, &i) in correct.iter().enumerate() {
            for &j in correct.iter().skip(position + 1) {
                let (a, b) = (&run.logs[i], &run.logs[j]);
                let len = a.len().min(b.len());
                if let Some(at) = (0..len).find(|&k| a[k] != b[k]) {
                    return Err(format!(
                        "validators {i} and {j} diverged at commit {at}: {:?} vs {:?}",
                        a[at], b[at]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Lemma 2: even under (coordinated) equivocation, at most one block is
/// ever committed for a slot — across every correct validator's log.
pub struct UniqueSlotCommit;

impl Oracle for UniqueSlotCommit {
    fn name(&self) -> &'static str {
        "one-block-per-slot"
    }

    fn check(&self, scenario: &Scenario, run: &ScenarioRun) -> Result<(), String> {
        let mut committed: HashMap<Slot, BlockRef> = HashMap::new();
        for &validator in &scenario.correct_validators() {
            for reference in run.logs[validator].iter().flatten() {
                match committed.get(&reference.slot()) {
                    Some(existing) if existing != reference => {
                        return Err(format!(
                            "slot {:?} committed twice: {existing:?} (earlier) vs {reference:?} \
                             (validator {validator})",
                            reference.slot()
                        ));
                    }
                    _ => {
                        committed.insert(reference.slot(), *reference);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Commit-latency bound under the random network model (and every other
/// schedule the matrix runs): the commit frontier must track the DAG
/// frontier to within a protocol- and adversary-dependent number of rounds.
pub struct CommitLatencyBound;

impl CommitLatencyBound {
    /// The allowed frontier lag in rounds for `scenario`.
    ///
    /// The base term covers the structurally undecidable tail of a run
    /// (the last wave's coin has not opened, plus one wave of indirect
    /// resolution); the slack terms cover schedules that stall decisions
    /// (held-back quorums, rotating targets, partitions) and faults whose
    /// slots resolve only through later anchors.
    pub fn bound(scenario: &Scenario) -> u64 {
        let wave = scenario.config.protocol.leader_schedule().wave_length;
        let base = 4 * wave + 8;
        let adversary_slack = match scenario.config.adversary {
            AdversaryChoice::None => 0,
            AdversaryChoice::RandomSubset { .. } | AdversaryChoice::RotatingDelay { .. } => {
                2 * wave
            }
            AdversaryChoice::Partition { .. } => 3 * wave,
        };
        let fault_slack = if (0..scenario.config.committee_size)
            .all(|index| scenario.behavior_of(index).is_correct())
        {
            0
        } else {
            2 * wave
        };
        base + adversary_slack + fault_slack
    }
}

impl Oracle for CommitLatencyBound {
    fn name(&self) -> &'static str {
        "commit-latency-bound"
    }

    fn check(&self, scenario: &Scenario, run: &ScenarioRun) -> Result<(), String> {
        let frontier = run
            .logs
            .iter()
            .enumerate()
            .filter(|(index, _)| scenario.behavior_of(*index).is_correct())
            .flat_map(|(_, log)| log.iter().flatten())
            .map(|reference| reference.round)
            .max();
        let Some(frontier) = frontier else {
            return Ok(()); // no commits at all: the liveness oracle decides
        };
        let lag = run.report.highest_round.saturating_sub(frontier);
        let bound = Self::bound(scenario);
        if lag > bound {
            return Err(format!(
                "commit frontier lags the DAG by {lag} rounds (> {bound}): highest round {}, \
                 last committed leader round {frontier}",
                run.report.highest_round
            ));
        }
        Ok(())
    }
}

/// Commit-latency *distribution* bound: the p99 client latency (submission
/// → commit at the observer) must stay under a budget derived from the
/// scenario's wave structure, network model, adversary, and fault
/// configuration. Complements [`CommitLatencyBound`]: a run can keep its
/// commit frontier within the round-lag bound while still serving an
/// unbounded latency tail to clients (transactions stuck behind a stalled
/// anchor, a healed partition, or a held-back quorum), and the paper's
/// headline claim is about end-to-end latency, not frontier geometry.
pub struct CommitLatencyP99;

impl CommitLatencyP99 {
    /// Worst-case one-way network delay of the configured model, seconds.
    fn worst_one_way_s(config: &SimConfig) -> f64 {
        match config.latency {
            LatencyChoice::Uniform { max, .. } => time::as_secs_f64(max),
            // Worst inter-region mean (Oregon ↔ Cape Town, 138 ms) plus
            // the multiplicative jitter ceiling and a generous allowance
            // for the exponential tail (P(tail > 5·mean) < 1%).
            LatencyChoice::AwsWan {
                jitter_percent,
                tail_mean,
            } => 0.138 * (1.0 + jitter_percent as f64 / 100.0) + 5.0 * time::as_secs_f64(tail_mean),
        }
    }

    /// The p99 latency budget in seconds for `scenario`.
    ///
    /// Structure mirrors [`CommitLatencyBound::bound`], converted from
    /// rounds into wall-clock: a round costs one message delay on an
    /// uncertified DAG and three on a certified one (proposal → acks →
    /// certificate), plus the configured inclusion wait. The base term
    /// covers inclusion into a block, the wave itself with its coin
    /// opening, and a wave of indirect resolution; slack terms cover
    /// decision-stalling schedules and faulty slots resolved through later
    /// anchors.
    pub fn bound_s(scenario: &Scenario) -> f64 {
        let config = &scenario.config;
        let schedule = config.protocol.leader_schedule();
        let wave = schedule.wave_length as f64;
        let hops = if config.protocol.certified() {
            3.0
        } else {
            1.0
        };
        let per_round =
            hops * Self::worst_one_way_s(config) + time::as_secs_f64(config.inclusion_wait);
        // Non-overlapping schedules propose once per wave, so a freshly
        // submitted transaction can wait a whole extra wave for a
        // transaction-carrying anchor.
        let waves = if schedule.overlapping { 3.0 } else { 4.0 };
        let base = waves * wave * per_round;
        let adversary_slack = match config.adversary {
            AdversaryChoice::None => 0.0,
            AdversaryChoice::RandomSubset { hold } => 2.0 * wave * time::as_secs_f64(hold),
            AdversaryChoice::RotatingDelay { extra, .. } => 2.0 * wave * time::as_secs_f64(extra),
            // A transaction submitted as the partition forms can wait out
            // the entire split, then needs fresh waves to commit.
            AdversaryChoice::Partition { heals_at, .. } => {
                time::as_secs_f64(heals_at) + 2.0 * wave * per_round
            }
        };
        // Three waves, not two: a faulty leader's slot resolves through a
        // later anchor, and under a delivery adversary that rescuing anchor
        // can itself slip a wave before its support quorum assembles.
        let fault_slack =
            if (0..config.committee_size).all(|index| scenario.behavior_of(index).is_correct()) {
                0.0
            } else {
                3.0 * wave * per_round
            };
        base + adversary_slack + fault_slack
    }
}

impl Oracle for CommitLatencyP99 {
    fn name(&self) -> &'static str {
        "commit-latency-p99"
    }

    fn check(&self, scenario: &Scenario, run: &ScenarioRun) -> Result<(), String> {
        if run.report.latency.is_empty() {
            return Ok(()); // no commits at all: the liveness oracle decides
        }
        let p99 = run.report.latency.snapshot().p99_s();
        let bound = Self::bound_s(scenario);
        if p99 > bound {
            return Err(format!(
                "p99 commit latency {p99:.3}s exceeds the {bound:.3}s budget \
                 (mean {:.3}s over {} samples)",
                run.report.latency.mean_s(),
                run.report.latency.len()
            ));
        }
        Ok(())
    }
}

/// Liveness: whenever at least `2f + 1` validators are correct, the run
/// must commit leader slots and client transactions.
pub struct Liveness;

impl Oracle for Liveness {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn check(&self, scenario: &Scenario, run: &ScenarioRun) -> Result<(), String> {
        if !scenario.expects_liveness() {
            return Ok(()); // fewer than 2f + 1 correct: only safety applies
        }
        if run.report.committed_slots == 0 {
            return Err("no leader slot committed despite a correct quorum".into());
        }
        if run.report.committed_transactions == 0 {
            return Err("no client transaction committed despite a correct quorum".into());
        }
        Ok(())
    }
}

/// Fault attribution: every correct validator's convicted-equivocator set
/// must be *exactly* the authorities whose behavior signs conflicting
/// blocks — complete (each equivocator detected, locally or via gossiped
/// proofs) and sound (zero false positives on correct validators, whatever
/// crash faults or delivery-schedule adversaries are in play).
pub struct EvidenceAttribution;

impl Oracle for EvidenceAttribution {
    fn name(&self) -> &'static str {
        "evidence-attribution"
    }

    fn check(&self, scenario: &Scenario, run: &ScenarioRun) -> Result<(), String> {
        let expected = scenario.expected_equivocators();
        for &validator in &scenario.correct_validators() {
            let Some(convicted) = run.culprits.get(validator) else {
                return Err(format!("no culprit set recorded for validator {validator}"));
            };
            let false_positives: Vec<_> = convicted
                .iter()
                .filter(|author| !expected.contains(author))
                .collect();
            if !false_positives.is_empty() {
                return Err(format!(
                    "validator {validator} falsely convicted {false_positives:?} \
                     (actual equivocators: {expected:?})"
                ));
            }
            let missed: Vec<_> = expected
                .iter()
                .filter(|author| !convicted.contains(author))
                .collect();
            if !missed.is_empty() {
                return Err(format!(
                    "validator {validator} failed to attribute equivocators {missed:?} \
                     (convicted only {convicted:?})"
                ));
            }
        }
        Ok(())
    }
}

/// Transaction integrity: at every correct validator, the client pipeline
/// neither loses nor duplicates transactions, and the mempool honors its
/// configured bounds:
///
/// - **conservation** — every accepted transaction is pending, in flight
///   in a produced-but-uncommitted own block, or committed (no loss);
/// - **exactly-once** — no accepted transaction ever commits twice across
///   the validator's own (unforgeably signed) blocks, whatever Byzantine
///   behavior or delivery schedule is in play. A Byzantine peer copying
///   observed payloads into blocks *it* signs is that peer's misbehavior
///   (attributed by the evidence subsystem) and does not violate the
///   correct validator's pipeline;
/// - **bounded occupancy** — peak pool occupancy never exceeds the
///   configured capacity (backpressure instead of unbounded growth).
pub struct TxIntegrity;

impl Oracle for TxIntegrity {
    fn name(&self) -> &'static str {
        "tx-integrity"
    }

    fn check(&self, scenario: &Scenario, run: &ScenarioRun) -> Result<(), String> {
        for &validator in &scenario.correct_validators() {
            let Some(report) = run.tx_integrity.get(validator) else {
                return Err(format!(
                    "no tx-integrity report recorded for validator {validator}"
                ));
            };
            // One shared definition of "sound" (TxIntegrityReport) keeps
            // this oracle and the simulator's sustained-load and burst
            // tests (`crates/sim/tests/clients_and_log.rs`) in lockstep.
            if let Some(violation) = report.violations().into_iter().next() {
                return Err(format!("validator {validator}: {violation}"));
            }
        }
        Ok(())
    }
}

/// Client-ingress accounting: at every correct validator the receipt
/// ledger balances — one admission receipt per batch received on the
/// wire, no commit notice without an open receipt note, and no forwarded
/// batch reported committed more often than it was forwarded.
///
/// Zero receipt loss is the property the client protocol leans on: a
/// client that saw `Admission` for every submission and waits for
/// `Committed` notices can rely on exactly-once reporting without
/// polling.
pub struct ReceiptIntegrity;

impl Oracle for ReceiptIntegrity {
    fn name(&self) -> &'static str {
        "receipt-integrity"
    }

    fn check(&self, scenario: &Scenario, run: &ScenarioRun) -> Result<(), String> {
        for &validator in &scenario.correct_validators() {
            let Some(report) = run.ingress.get(validator) else {
                return Err(format!(
                    "no ingress report recorded for validator {validator}"
                ));
            };
            // `IngressReport::violations` is the shared definition of a
            // balanced receipt ledger — the simulator's burst and
            // Zipf-client tests assert on the same method, so they and
            // the matrix cannot drift.
            if let Some(violation) = report.violations().into_iter().next() {
                return Err(format!("validator {validator}: {violation}"));
            }
        }
        Ok(())
    }
}

/// Execution determinism: every correct validator folds the agreed commit
/// sequence into the same state.
///
/// Two complementary comparisons:
///
/// - **checkpoints** — signed `(position, leader, state_root)` attestations
///   emitted every `checkpoint_interval` decisions compare roots at
///   *identical* commit positions, so validators that finish at different
///   frontiers are still held to agreement over their shared prefix;
/// - **final roots** — validators whose commit logs ended at the same
///   length must hold byte-identical state (equal roots), catching
///   divergence in the tail after the last checkpoint boundary.
pub struct StateRootAgreement;

impl Oracle for StateRootAgreement {
    fn name(&self) -> &'static str {
        "state-root-agreement"
    }

    fn check(&self, scenario: &Scenario, run: &ScenarioRun) -> Result<(), String> {
        let correct = scenario.correct_validators();
        // Checkpoint agreement at identical commit positions.
        let mut by_position: HashMap<u64, (usize, &Checkpoint)> = HashMap::new();
        for &validator in &correct {
            let Some(checkpoints) = run.checkpoints.get(validator) else {
                return Err(format!("no checkpoints recorded for validator {validator}"));
            };
            for checkpoint in checkpoints {
                match by_position.get(&checkpoint.position()) {
                    Some((earlier, existing)) if !existing.attests_same(checkpoint) => {
                        return Err(format!(
                            "validators {earlier} and {validator} attest different states at \
                             commit position {}: {:?} vs {:?}",
                            checkpoint.position(),
                            existing.state_root(),
                            checkpoint.state_root()
                        ));
                    }
                    _ => {
                        by_position.insert(checkpoint.position(), (validator, checkpoint));
                    }
                }
            }
        }
        // Final-root agreement between validators at the same frontier.
        for (index, &i) in correct.iter().enumerate() {
            for &j in correct.iter().skip(index + 1) {
                if run.logs[i].len() == run.logs[j].len()
                    && run.state_roots[i] != run.state_roots[j]
                {
                    return Err(format!(
                        "validators {i} and {j} reached the same commit position ({}) with \
                         different state roots: {:?} vs {:?}",
                        run.logs[i].len(),
                        run.state_roots[i],
                        run.state_roots[j]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_crypto::Digest;
    use mahimahi_net::time;
    use mahimahi_sim::{
        Behavior, IngressReport, LatencyChoice, ProtocolChoice, SimConfig, SimReport,
        TxIntegrityReport,
    };
    use mahimahi_types::{AuthorityIndex, StateRoot, TestCommittee};

    fn reference(round: u64, author: u32, tag: u8) -> BlockRef {
        BlockRef {
            round,
            author: AuthorityIndex(author),
            digest: Digest::new([tag; 32]),
        }
    }

    fn scenario() -> Scenario {
        Scenario::new(
            "oracle-unit",
            SimConfig {
                protocol: ProtocolChoice::MahiMahi5 { leaders: 2 },
                committee_size: 4,
                duration: time::from_secs(2),
                latency: LatencyChoice::Uniform { min: 10, max: 20 },
                ..SimConfig::default()
            },
        )
    }

    fn run_with_logs(logs: Vec<Vec<Option<BlockRef>>>) -> ScenarioRun {
        let validators = logs.len();
        ScenarioRun {
            report: SimReport {
                committed_slots: 1,
                committed_transactions: 1,
                highest_round: 10,
                ..SimReport::default()
            },
            logs,
            culprits: vec![Vec::new(); validators],
            tx_integrity: vec![TxIntegrityReport::default(); validators],
            ingress: vec![IngressReport::default(); validators],
            state_roots: vec![StateRoot::genesis(); validators],
            checkpoints: vec![Vec::new(); validators],
        }
    }

    #[test]
    fn agreement_catches_divergence() {
        let a = vec![Some(reference(1, 0, 1)), Some(reference(2, 1, 2))];
        let b = vec![Some(reference(1, 0, 1)), Some(reference(2, 1, 3))];
        let run = run_with_logs(vec![a.clone(), b, a.clone(), a]);
        assert!(CommitAgreement.check(&scenario(), &run).is_err());
    }

    #[test]
    fn agreement_accepts_prefixes() {
        let long = vec![Some(reference(1, 0, 1)), None, Some(reference(3, 2, 2))];
        let short = long[..2].to_vec();
        let run = run_with_logs(vec![long.clone(), short, long.clone(), long]);
        assert!(CommitAgreement.check(&scenario(), &run).is_ok());
    }

    #[test]
    fn unique_slot_catches_double_commit() {
        // Same slot (round 2, author 1), two digests, in different logs at
        // different positions — prefix consistency alone would miss it.
        let a = vec![Some(reference(2, 1, 7))];
        let b = vec![Some(reference(2, 1, 9))];
        let run = run_with_logs(vec![a.clone(), b, a.clone(), a]);
        assert!(UniqueSlotCommit.check(&scenario(), &run).is_err());
    }

    #[test]
    fn latency_bound_measures_frontier_lag() {
        let mut run = run_with_logs(vec![vec![Some(reference(1, 0, 1))]; 4]);
        run.report.highest_round = 1000;
        let result = CommitLatencyBound.check(&scenario(), &run);
        assert!(result.is_err(), "{result:?}");
        run.report.highest_round = 10;
        assert!(CommitLatencyBound.check(&scenario(), &run).is_ok());
    }

    #[test]
    fn liveness_requires_commits_only_with_a_correct_quorum() {
        let mut run = run_with_logs(vec![Vec::new(); 4]);
        run.report.committed_slots = 0;
        run.report.committed_transactions = 0;
        let live = scenario();
        assert!(Liveness.check(&live, &run).is_err());

        // Two crashed validators: fewer than 2f + 1 correct, no obligation.
        let mut dark = scenario();
        dark.config.behaviors = vec![
            (2, Behavior::Crashed { from_round: 0 }),
            (3, Behavior::Crashed { from_round: 0 }),
        ];
        assert!(Liveness.check(&dark, &run).is_ok());
    }

    #[test]
    fn attribution_requires_exactly_the_equivocators() {
        let mut equivocating = scenario();
        equivocating.config.behaviors = vec![(3, Behavior::ForkSpammer { forks: 3 })];
        let logs = vec![vec![Some(reference(1, 0, 1))]; 4];

        // Complete and sound: every correct validator names exactly v3.
        let mut run = run_with_logs(logs.clone());
        run.culprits = vec![vec![AuthorityIndex(3)]; 4];
        assert!(EvidenceAttribution.check(&equivocating, &run).is_ok());

        // A correct validator that missed the culprit fails the oracle.
        let mut run = run_with_logs(logs.clone());
        run.culprits = vec![
            vec![AuthorityIndex(3)],
            Vec::new(), // validator 1 never convicted anyone
            vec![AuthorityIndex(3)],
            vec![AuthorityIndex(3)],
        ];
        let violation = EvidenceAttribution.check(&equivocating, &run);
        assert!(violation.unwrap_err().contains("failed to attribute"));

        // The Byzantine validator's own (empty) set is not checked.
        let mut run = run_with_logs(logs.clone());
        run.culprits = vec![
            vec![AuthorityIndex(3)],
            vec![AuthorityIndex(3)],
            vec![AuthorityIndex(3)],
            Vec::new(),
        ];
        assert!(EvidenceAttribution.check(&equivocating, &run).is_ok());

        // A false positive on a correct author fails, even in an
        // all-honest scenario.
        let honest = scenario();
        let mut run = run_with_logs(logs);
        run.culprits[2] = vec![AuthorityIndex(0)];
        let violation = EvidenceAttribution.check(&honest, &run);
        assert!(violation.unwrap_err().contains("falsely convicted"));
    }

    #[test]
    fn tx_integrity_catches_loss_duplication_and_overgrowth() {
        let scenario = scenario();
        let logs = vec![vec![Some(reference(1, 0, 1))]; 4];
        let sound = TxIntegrityReport {
            accepted: 10,
            pending: 2,
            in_flight: 3,
            own_committed: 5,
            peak_occupancy_txs: 6,
            peak_occupancy_bytes: 600,
            capacity_txs: 8,
            capacity_bytes: 1_000,
            ..TxIntegrityReport::default()
        };
        let mut run = run_with_logs(logs.clone());
        run.tx_integrity = vec![sound; 4];
        assert!(TxIntegrity.check(&scenario, &run).is_ok());

        // A lost transaction (conservation violated) fails.
        let mut run = run_with_logs(logs.clone());
        run.tx_integrity = vec![sound; 4];
        run.tx_integrity[1].own_committed = 4;
        let violation = TxIntegrity.check(&scenario, &run);
        assert!(violation.unwrap_err().contains("transactions lost"));

        // A duplicate commit fails.
        let mut run = run_with_logs(logs.clone());
        run.tx_integrity = vec![sound; 4];
        run.tx_integrity[2].duplicate_committed = 1;
        let violation = TxIntegrity.check(&scenario, &run);
        assert!(violation.unwrap_err().contains("committed more than once"));

        // Occupancy beyond the configured capacity fails.
        let mut run = run_with_logs(logs.clone());
        run.tx_integrity = vec![sound; 4];
        run.tx_integrity[0].peak_occupancy_txs = 9;
        let violation = TxIntegrity.check(&scenario, &run);
        assert!(violation.unwrap_err().contains("outgrew"));

        // A Byzantine validator's report is not checked (its multi-variant
        // builds legitimately double-count in-flight tags).
        let mut byzantine = scenario;
        byzantine.config.behaviors = vec![(3, Behavior::ForkSpammer { forks: 3 })];
        let mut run = run_with_logs(logs);
        run.tx_integrity = vec![sound; 4];
        run.tx_integrity[3].own_committed = 0;
        assert!(TxIntegrity.check(&byzantine, &run).is_ok());
    }

    #[test]
    fn receipt_integrity_catches_loss_and_phantom_notices() {
        let scenario = scenario();
        let logs = vec![vec![Some(reference(1, 0, 1))]; 4];
        let sound = IngressReport {
            batches_received: 10,
            receipts_emitted: 10,
            notes_opened: 10,
            commit_notices: 7,
            forwarded: 3,
            forwarded_committed: 2,
            rate_limited: 1,
        };
        let mut run = run_with_logs(logs.clone());
        run.ingress = vec![sound; 4];
        assert!(ReceiptIntegrity.check(&scenario, &run).is_ok());

        // A batch that never got an admission receipt fails.
        let mut run = run_with_logs(logs.clone());
        run.ingress = vec![sound; 4];
        run.ingress[1].receipts_emitted = 9;
        let violation = ReceiptIntegrity.check(&scenario, &run);
        assert!(violation.unwrap_err().contains("receipt loss"));

        // A commit notice for a note that was never opened fails.
        let mut run = run_with_logs(logs.clone());
        run.ingress = vec![sound; 4];
        run.ingress[2].commit_notices = 11;
        let violation = ReceiptIntegrity.check(&scenario, &run);
        assert!(violation.unwrap_err().contains("notes opened"));

        // A Byzantine validator's ledger is not checked.
        let mut byzantine = scenario;
        byzantine.config.behaviors = vec![(3, Behavior::ForkSpammer { forks: 3 })];
        let mut run = run_with_logs(logs);
        run.ingress = vec![sound; 4];
        run.ingress[3].receipts_emitted = 0;
        assert!(ReceiptIntegrity.check(&byzantine, &run).is_ok());
    }

    #[test]
    fn certified_protocols_expect_no_equivocators() {
        // Under Tusk, equivocating behaviors degrade to honest production:
        // the ground-truth culprit set is empty and any conviction is a
        // false positive.
        let mut tusk = scenario();
        tusk.config.protocol = ProtocolChoice::Tusk;
        tusk.config.behaviors = vec![(3, Behavior::ForkSpammer { forks: 3 })];
        assert!(tusk.expected_equivocators().is_empty());
        let mut run = run_with_logs(vec![vec![Some(reference(1, 0, 1))]; 4]);
        assert!(EvidenceAttribution.check(&tusk, &run).is_ok());
        run.culprits[0] = vec![AuthorityIndex(3)];
        assert!(EvidenceAttribution.check(&tusk, &run).is_err());
    }

    #[test]
    fn p99_bound_catches_heavy_latency_tails() {
        let scenario = scenario();
        let mut run = run_with_logs(vec![vec![Some(reference(1, 0, 1))]; 4]);
        // Empty stats: liveness decides, not this oracle.
        assert!(CommitLatencyP99.check(&scenario, &run).is_ok());
        // A healthy distribution under the ~0.75 s budget of this config.
        for _ in 0..50 {
            run.report.latency.record(time::from_millis(200));
        }
        assert!(CommitLatencyP99.check(&scenario, &run).is_ok());
        // A 5-second straggler in the top percentile blows the p99.
        run.report.latency.record(time::from_secs(5));
        let violation = CommitLatencyP99.check(&scenario, &run);
        assert!(violation.unwrap_err().contains("p99 commit latency"));
    }

    #[test]
    fn p99_budgets_scale_with_protocol_adversary_and_faults() {
        // Wire latency must be non-negligible for hop counts to register.
        let wan = || {
            let mut scenario = scenario();
            scenario.config.latency = LatencyChoice::Uniform {
                min: time::from_millis(20),
                max: time::from_millis(60),
            };
            scenario
        };
        let benign = wan();
        // Certified rounds cost three hops instead of one.
        let mut tusk = wan();
        tusk.config.protocol = ProtocolChoice::Tusk;
        assert!(CommitLatencyP99::bound_s(&tusk) > CommitLatencyP99::bound_s(&benign));
        // A partition adds its full healing time to the budget.
        let mut partitioned = wan();
        partitioned.config.adversary = mahimahi_sim::AdversaryChoice::Partition {
            minority: 1,
            heals_at: time::from_secs(1),
        };
        assert!(CommitLatencyP99::bound_s(&partitioned) > CommitLatencyP99::bound_s(&benign) + 1.0);
        // Faulty slots resolved through later anchors widen the tail.
        let mut faulty = wan();
        faulty.config.behaviors = vec![(3, Behavior::Adaptive)];
        assert!(CommitLatencyP99::bound_s(&faulty) > CommitLatencyP99::bound_s(&benign));
    }

    #[test]
    fn bounds_scale_with_wave_and_adversary() {
        let benign = scenario();
        let mut partitioned = scenario();
        partitioned.config.adversary = mahimahi_sim::AdversaryChoice::Partition {
            minority: 1,
            heals_at: time::from_secs(1),
        };
        assert!(CommitLatencyBound::bound(&partitioned) > CommitLatencyBound::bound(&benign));
    }

    fn signed_checkpoint(
        authority: u32,
        position: u64,
        root_tag: u8,
    ) -> mahimahi_types::Checkpoint {
        let setup = TestCommittee::new(4, 7);
        mahimahi_types::Checkpoint::sign(
            AuthorityIndex(authority),
            position,
            reference(1, 0, 1),
            StateRoot(Digest::new([root_tag; 32])),
            Digest::new([9; 32]),
            setup.keypair(AuthorityIndex(authority)),
        )
    }

    #[test]
    fn state_root_agreement_accepts_matching_checkpoints_and_roots() {
        let logs = vec![vec![Some(reference(1, 0, 1))]; 4];
        let mut run = run_with_logs(logs);
        run.checkpoints = (0..4).map(|a| vec![signed_checkpoint(a, 32, 5)]).collect();
        assert!(StateRootAgreement.check(&scenario(), &run).is_ok());
    }

    #[test]
    fn state_root_agreement_catches_checkpoint_divergence() {
        // Same position, different roots: execution diverged inside the
        // shared committed prefix — even though final roots (sampled at
        // different frontiers) are not comparable.
        let mut logs = vec![vec![Some(reference(1, 0, 1))]; 4];
        logs[2].push(Some(reference(3, 1, 2))); // validator 2 ran ahead
        let mut run = run_with_logs(logs);
        run.checkpoints = (0..4)
            .map(|a| vec![signed_checkpoint(a, 32, if a == 2 { 6 } else { 5 })])
            .collect();
        let violation = StateRootAgreement.check(&scenario(), &run);
        assert!(violation.unwrap_err().contains("commit position 32"));
    }

    #[test]
    fn state_root_agreement_catches_final_root_divergence() {
        // Equal log lengths but different final roots: the tail past the
        // last checkpoint boundary diverged.
        let mut run = run_with_logs(vec![vec![Some(reference(1, 0, 1))]; 4]);
        run.state_roots[1] = StateRoot(Digest::new([7; 32]));
        let violation = StateRootAgreement.check(&scenario(), &run);
        assert!(violation.unwrap_err().contains("different state roots"));
    }

    #[test]
    fn state_root_agreement_ignores_byzantine_and_crashed_validators() {
        let mut faulty = scenario();
        faulty.config.behaviors = vec![
            (2, Behavior::ForkSpammer { forks: 3 }),
            (3, Behavior::Crashed { from_round: 0 }),
        ];
        let mut run = run_with_logs(vec![vec![Some(reference(1, 0, 1))]; 4]);
        run.state_roots[2] = StateRoot(Digest::new([8; 32]));
        run.checkpoints[3] = vec![signed_checkpoint(3, 32, 9)];
        run.checkpoints[0] = vec![signed_checkpoint(0, 32, 5)];
        run.checkpoints[1] = vec![signed_checkpoint(1, 32, 5)];
        assert!(StateRootAgreement.check(&faulty, &run).is_ok());
    }
}
