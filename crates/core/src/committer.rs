//! Algorithm 1's `TryDecide`: classify every leader slot from the last
//! committed round up to the highest decidable round.

use mahimahi_dag::BlockStore;
use mahimahi_types::{Committee, Round};
use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::decider::{Decision, WaveDecider};
use crate::election::{CoinElector, LeaderElector};
use crate::status::LeaderStatus;

/// Protocol parameters of the committer (Algorithm 1 lines 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitterOptions {
    /// Rounds per wave: 5 (max asynchronous resilience), 4 (the paper's
    /// latency-optimized configuration), or 3 (safety only — Appendix C).
    pub wave_length: u64,
    /// Leader slots per round (`ℓ`); the paper evaluates 1–3 and defaults
    /// to 2 (Section 5.1).
    pub leaders_per_round: usize,
}

impl Default for CommitterOptions {
    fn default() -> Self {
        CommitterOptions {
            wave_length: 5,
            leaders_per_round: 2,
        }
    }
}

impl CommitterOptions {
    /// The paper's `Mahi-Mahi-5` configuration.
    pub fn mahi_mahi_5(leaders_per_round: usize) -> Self {
        CommitterOptions {
            wave_length: 5,
            leaders_per_round,
        }
    }

    /// The paper's `Mahi-Mahi-4` configuration.
    pub fn mahi_mahi_4(leaders_per_round: usize) -> Self {
        CommitterOptions {
            wave_length: 4,
            leaders_per_round,
        }
    }
}

/// The Mahi-Mahi committer: a pure function from a local DAG to a sequence
/// of slot classifications. Stateless apart from memoized coin values and
/// decided slots, so calls are idempotent and cheap to repeat as the DAG
/// grows.
pub struct Committer {
    committee: Committee,
    options: CommitterOptions,
    elector: Box<dyn LeaderElector>,
    /// Memoized decided slots. Sound because the decision rules are stable
    /// over a growing causally-complete DAG (a slot classified commit or
    /// skip never changes — see the stability tests). Undecided slots are
    /// recomputed on every call. Only slots from the latest `from_round`
    /// on are kept: a committed slot's status holds its leader block.
    decided: RefCell<BTreeMap<(Round, usize), LeaderStatus>>,
}

impl Committer {
    /// Creates a committer for `committee` with the given options, electing
    /// leaders through the global perfect coin ([`CoinElector`]).
    ///
    /// # Panics
    ///
    /// Panics if `wave_length < 3` or if `leaders_per_round` is zero or
    /// exceeds the committee size.
    pub fn new(committee: Committee, options: CommitterOptions) -> Self {
        Self::with_elector(committee, options, Box::new(CoinElector::new()))
    }

    /// Creates a committer with a custom election strategy (conformance
    /// tests pin elections with [`crate::FixedElector`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Committer::new`].
    pub fn with_elector(
        committee: Committee,
        options: CommitterOptions,
        elector: Box<dyn LeaderElector>,
    ) -> Self {
        assert!(options.wave_length >= 3, "waves need at least 3 rounds");
        assert!(
            options.leaders_per_round >= 1 && options.leaders_per_round <= committee.size(),
            "leaders per round must be in 1..=committee size"
        );
        Committer {
            committee,
            options,
            elector,
            decided: RefCell::default(),
        }
    }

    /// The committee this committer decides for.
    pub fn committee(&self) -> &Committee {
        &self.committee
    }

    /// The configured options.
    pub fn options(&self) -> CommitterOptions {
        self.options
    }

    /// The highest Propose round whose Certify round can exist in `store`.
    pub fn highest_decidable_round(&self, store: &BlockStore) -> Round {
        store
            .highest_round()
            .saturating_sub(self.options.wave_length - 1)
    }

    /// `TryDecide(r_committed, r_highest)` (Algorithm 1 lines 11–23):
    /// classifies every leader slot of rounds `from_round ..= highest
    /// decidable`, returned in ascending `(round, leader offset)` order.
    ///
    /// Slots are processed from the highest down so that the indirect rule
    /// can consult the (already computed) statuses of later slots when
    /// searching for an anchor.
    pub fn try_decide(&self, store: &BlockStore, from_round: Round) -> Vec<LeaderStatus> {
        let from_round = from_round.max(1);
        let highest = self.highest_decidable_round(store);
        if highest < from_round {
            return Vec::new();
        }
        // (round, offset) → status, filled from the top down. Previously
        // decided slots come from the memo; only undecided ones recompute.
        let mut statuses: BTreeMap<(Round, usize), LeaderStatus> = BTreeMap::new();
        let mut decided = self.decided.borrow_mut();
        // The sequencer asks from its next round on, which only grows: a
        // slot below it is never read again, nor a coin below its certify
        // round.
        decided.retain(|&(round, _), _| round >= from_round);
        self.elector.forget_below(from_round);
        for round in (from_round..=highest).rev() {
            for offset in (0..self.options.leaders_per_round).rev() {
                let status = match decided.get(&(round, offset)) {
                    Some(status) => status.clone(),
                    None => {
                        let status = self.decide_slot(store, round, offset, &statuses);
                        if status.is_decided() {
                            decided.insert((round, offset), status.clone());
                        }
                        status
                    }
                };
                statuses.insert((round, offset), status);
            }
        }
        statuses.into_values().collect()
    }

    /// Classifies a single slot using the direct rule, falling back to the
    /// indirect rule (Algorithm 1 lines 19–21).
    fn decide_slot(
        &self,
        store: &BlockStore,
        round: Round,
        offset: usize,
        later: &BTreeMap<(Round, usize), LeaderStatus>,
    ) -> LeaderStatus {
        let decider = WaveDecider::new(
            &self.committee,
            store,
            self.options.wave_length,
            round,
            offset,
        );
        let Some(slot) = decider.leader_slot(self.elector.as_ref()) else {
            // The coin for this round has not opened: the slot's authority
            // is still unknown.
            return LeaderStatus::Undecided { round, offset };
        };
        match decider.try_direct_decide(slot) {
            Decision::Commit(block) => return LeaderStatus::Commit(block),
            Decision::Skip => return LeaderStatus::Skip(slot),
            Decision::Undecided => {}
        }
        // Indirect rule: find the anchor — the earliest slot of a later
        // wave (round > certify round) not classified as skip.
        let anchor_floor = round + self.options.wave_length;
        let anchor = later
            .range((anchor_floor, 0)..)
            .map(|(_, status)| status)
            .find(|status| !matches!(status, LeaderStatus::Skip(_)));
        match anchor {
            Some(LeaderStatus::Commit(anchor_block)) => {
                match decider.try_indirect_decide(slot, anchor_block) {
                    Decision::Commit(block) => LeaderStatus::Commit(block),
                    Decision::Skip => LeaderStatus::Skip(slot),
                    Decision::Undecided => unreachable!("indirect rule always decides"),
                }
            }
            // Anchor undecided or not found: stay undecided (line 35).
            _ => LeaderStatus::Undecided { round, offset },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_dag::DagBuilder;
    use mahimahi_types::{AuthorityIndex, TestCommittee};

    fn committer(setup: &TestCommittee, wave_length: u64, leaders: usize) -> Committer {
        Committer::new(
            setup.committee().clone(),
            CommitterOptions {
                wave_length,
                leaders_per_round: leaders,
            },
        )
    }

    #[test]
    fn empty_dag_decides_nothing() {
        let setup = TestCommittee::new(4, 3);
        let committer = committer(&setup, 5, 2);
        let dag = DagBuilder::new(setup);
        assert!(committer.try_decide(dag.store(), 1).is_empty());
    }

    #[test]
    fn full_dag_commits_everything_decidable() {
        let setup = TestCommittee::new(4, 3);
        for wave_length in [4u64, 5] {
            for leaders in [1usize, 2, 3] {
                let committer = committer(&setup, wave_length, leaders);
                let mut dag = DagBuilder::new(setup.clone());
                dag.add_full_rounds(10);
                let statuses = committer.try_decide(dag.store(), 1);
                let decidable = 10 - (wave_length - 1);
                assert_eq!(statuses.len(), decidable as usize * leaders);
                for status in &statuses {
                    assert!(
                        matches!(status, LeaderStatus::Commit(_)),
                        "w={wave_length} l={leaders}: {status}"
                    );
                }
                // Ascending round order, each round exactly `leaders` times.
                let rounds: Vec<Round> = statuses.iter().map(LeaderStatus::round).collect();
                let mut expected = Vec::new();
                for round in 1..=decidable {
                    for _ in 0..leaders {
                        expected.push(round);
                    }
                }
                assert_eq!(rounds, expected);
            }
        }
    }

    #[test]
    fn committed_blocks_match_their_slots() {
        let setup = TestCommittee::new(4, 3);
        let committer = committer(&setup, 5, 2);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(8);
        for status in committer.try_decide(dag.store(), 1) {
            let LeaderStatus::Commit(block) = status else {
                panic!("full dag must commit");
            };
            // The block's author must be the coin-elected authority: verify
            // determinism by re-deciding.
            let again = committer.try_decide(dag.store(), block.round());
            assert!(again.iter().any(|s| s.committed_block() == Some(&block)));
        }
    }

    #[test]
    fn from_round_skips_lower_rounds() {
        let setup = TestCommittee::new(4, 3);
        let committer = committer(&setup, 5, 1);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(10);
        let statuses = committer.try_decide(dag.store(), 4);
        assert_eq!(statuses.first().map(LeaderStatus::round), Some(4));
        assert_eq!(statuses.len(), 3); // rounds 4, 5, 6
    }

    #[test]
    fn the_memo_keeps_only_slots_from_the_latest_from_round() {
        // A committed slot's status holds its leader block: a memo of
        // every slot ever decided would pin every leader block of the run.
        let setup = TestCommittee::new(4, 3);
        let committer = committer(&setup, 5, 2);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(30);
        let all = committer.try_decide(dag.store(), 1);
        for from_round in [5, 12, 26] {
            let statuses = committer.try_decide(dag.store(), from_round);
            let expected: Vec<LeaderStatus> = all
                .iter()
                .filter(|status| status.round() >= from_round)
                .cloned()
                .collect();
            assert_eq!(statuses, expected, "the same decisions");
            let memo = committer.decided.borrow();
            assert!(memo.keys().all(|&(round, _)| round >= from_round));
            assert_eq!(memo.len(), expected.len());
            // Coins are memoized by certify round: none below the cut.
            let coins = committer.elector.memoized_rounds();
            assert!(!coins.is_empty());
            assert!(coins.iter().all(|&round| round >= from_round), "{coins:?}");
        }
    }

    #[test]
    fn crashed_leaders_skip_live_leaders_commit() {
        let setup = TestCommittee::new(4, 3);
        let committer = committer(&setup, 5, 2);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_round();
        for _ in 0..9 {
            dag.add_round_producers(&[0, 1, 2]);
        }
        let statuses = committer.try_decide(dag.store(), 1);
        assert!(!statuses.is_empty());
        let mut skips = 0;
        let mut commits = 0;
        for status in &statuses {
            match status {
                LeaderStatus::Commit(block) => {
                    assert_ne!(block.author(), AuthorityIndex(3));
                    commits += 1;
                }
                LeaderStatus::Skip(slot) => {
                    assert_eq!(slot.authority, AuthorityIndex(3));
                    skips += 1;
                }
                LeaderStatus::Undecided { .. } => {}
            }
        }
        assert!(commits > 0, "live leaders must commit");
        assert!(skips > 0, "crashed leader slots must be skipped promptly");
    }

    #[test]
    fn undecided_tail_when_certify_round_missing() {
        let setup = TestCommittee::new(4, 3);
        let committer = committer(&setup, 5, 1);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(5);
        // Round 1 is decidable (certify round 5 exists); nothing above.
        let statuses = committer.try_decide(dag.store(), 1);
        assert_eq!(statuses.len(), 1);
        assert!(statuses[0].is_decided());
    }

    #[test]
    fn decisions_are_stable_as_dag_grows() {
        let setup = TestCommittee::new(4, 3);
        let committer = committer(&setup, 4, 2);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_round();
        for _ in 0..8 {
            dag.add_round_producers(&[0, 1, 2]);
        }
        let early: Vec<String> = committer
            .try_decide(dag.store(), 1)
            .iter()
            .filter(|s| s.is_decided())
            .map(|s| s.to_string())
            .collect();
        dag.add_round_producers(&[0, 1, 2]);
        dag.add_round_producers(&[0, 1, 2]);
        let late: Vec<String> = committer
            .try_decide(dag.store(), 1)
            .iter()
            .filter(|s| s.is_decided())
            .map(|s| s.to_string())
            .collect();
        // Previously decided slots keep their decisions.
        assert!(late.len() >= early.len());
        for (early_status, late_status) in early.iter().zip(&late) {
            assert_eq!(early_status, late_status);
        }
    }

    #[test]
    #[should_panic(expected = "at least 3 rounds")]
    fn rejects_tiny_waves() {
        let setup = TestCommittee::new(4, 3);
        let _ = Committer::new(
            setup.committee().clone(),
            CommitterOptions {
                wave_length: 2,
                leaders_per_round: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "leaders per round")]
    fn rejects_zero_leaders() {
        let setup = TestCommittee::new(4, 3);
        let _ = Committer::new(
            setup.committee().clone(),
            CommitterOptions {
                wave_length: 5,
                leaders_per_round: 0,
            },
        );
    }

    #[test]
    fn wave_3_is_safe_but_commits_less() {
        // Appendix C note: w = 3 satisfies safety; liveness is not
        // guaranteed. On a full DAG it still commits (the common-core
        // failure needs adversarial scheduling).
        let setup = TestCommittee::new(4, 3);
        let committer = committer(&setup, 3, 1);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(6);
        let statuses = committer.try_decide(dag.store(), 1);
        assert!(statuses.iter().all(LeaderStatus::is_decided));
    }
}
