//! Cordial Miners: uncertified-DAG consensus with one leader per wave.
//!
//! Mahi-Mahi characterizes Cordial Miners as follows (Sections 1, 2.2, 6):
//! it operates over the same uncertified DAG and commits a leader with five
//! message delays, but (1) elects only **one leader every `w` rounds**
//! (waves do not overlap), so non-leader transactions wait for the wave
//! boundary; and (2) decides skips only **through the causal history of a
//! later committed leader** (the recursive rule), not directly from
//! `2f + 1` non-votes — which is why Mahi-Mahi bypasses crashed leaders
//! roughly two rounds earlier (Section 5.3).
//!
//! The commit mechanics shared with Mahi-Mahi (votes by first-encounter
//! DFS, implicit certificates) reuse the same `mahimahi-dag` primitives —
//! both protocols interpret the DAG identically; they differ in the commit
//! rule, exactly as in the paper.

use mahimahi_core::{CoinElector, LeaderElector, LeaderStatus, ProtocolCommitter};
use mahimahi_dag::BlockStore;
use mahimahi_types::{Block, Committee, Round, Slot};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Parameters for Cordial Miners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CordialMinersOptions {
    /// Rounds per (non-overlapping) wave. The paper evaluates 5.
    pub wave_length: u64,
}

impl Default for CordialMinersOptions {
    fn default() -> Self {
        CordialMinersOptions { wave_length: 5 }
    }
}

/// The Cordial Miners committer.
pub struct CordialMinersCommitter {
    committee: Committee,
    options: CordialMinersOptions,
    elector: Box<dyn LeaderElector>,
    /// Memoized decided waves (decisions are stable; see `mahimahi-core`),
    /// from the latest first wave asked on.
    decided: RefCell<HashMap<u64, LeaderStatus>>,
}

impl CordialMinersCommitter {
    /// Creates a committer electing leaders through the common coin.
    ///
    /// # Panics
    ///
    /// Panics if `wave_length < 3`.
    pub fn new(committee: Committee, options: CordialMinersOptions) -> Self {
        Self::with_elector(committee, options, Box::new(CoinElector::new()))
    }

    /// Creates a committer with a custom election strategy (tests).
    ///
    /// # Panics
    ///
    /// Panics if `wave_length < 3`.
    pub fn with_elector(
        committee: Committee,
        options: CordialMinersOptions,
        elector: Box<dyn LeaderElector>,
    ) -> Self {
        assert!(options.wave_length >= 3, "waves need at least 3 rounds");
        CordialMinersCommitter {
            committee,
            options,
            elector,
            decided: RefCell::default(),
        }
    }

    /// The configured options.
    pub fn options(&self) -> CordialMinersOptions {
        self.options
    }

    /// Propose round of wave `w` (waves start at round 1).
    fn propose_round(&self, wave: u64) -> Round {
        wave * self.options.wave_length + 1
    }

    fn certify_round(&self, wave: u64) -> Round {
        self.propose_round(wave) + self.options.wave_length - 1
    }

    /// Direct rule: commit the slot candidate holding `2f + 1` certificates
    /// (identical mechanics to Mahi-Mahi, at wave granularity). There is
    /// deliberately no direct skip.
    fn try_direct_commit(&self, store: &BlockStore, wave: u64, slot: Slot) -> Option<Arc<Block>> {
        let certify_round = self.certify_round(wave);
        for candidate in store.blocks_in_slot(slot) {
            let certifiers =
                store.authorities_with(certify_round, |block| store.is_cert(block, candidate));
            if certifiers.len() >= self.committee.quorum_threshold() {
                return Some(Arc::clone(candidate));
            }
        }
        None
    }

    /// Recursive rule: a wave leader is committed iff some candidate has a
    /// certificate inside the committed anchor leader's causal history,
    /// otherwise skipped.
    fn try_indirect(
        &self,
        store: &BlockStore,
        wave: u64,
        slot: Slot,
        anchor: &Block,
    ) -> LeaderStatus {
        let certify_round = self.certify_round(wave);
        let anchor_ref = anchor.reference();
        for candidate in store.blocks_in_slot(slot) {
            let has_certified_link = store.blocks_at_round(certify_round).iter().any(|block| {
                store.is_cert(block, candidate) && store.is_link(&block.reference(), &anchor_ref)
            });
            if has_certified_link {
                return LeaderStatus::Commit(Arc::clone(candidate));
            }
        }
        LeaderStatus::Skip(slot)
    }
}

impl ProtocolCommitter for CordialMinersCommitter {
    fn committee(&self) -> &Committee {
        &self.committee
    }

    fn name(&self) -> &'static str {
        "Cordial-Miners"
    }

    fn try_decide(&self, store: &BlockStore, from_round: Round) -> Vec<LeaderStatus> {
        let wave_length = self.options.wave_length;
        let highest = store.highest_round().saturating_sub(wave_length - 1);
        let from_round = from_round.max(1);
        if highest < from_round {
            return Vec::new();
        }
        let first_wave = (from_round - 1).div_ceil(wave_length);
        let last_wave = (highest - 1) / wave_length;
        if self.propose_round(first_wave) > highest {
            return Vec::new();
        }

        // Decide from the highest wave down so the recursive rule can use
        // later statuses as anchors. Decided waves come from the memo.
        let mut decided = self.decided.borrow_mut();
        // The sequencer asks from its next round on, which only grows: a
        // wave below the first one asked, and its coin, is never read again.
        decided.retain(|&wave, _| wave >= first_wave);
        self.elector.forget_below(self.propose_round(first_wave));
        let mut statuses: HashMap<u64, LeaderStatus> = HashMap::new();
        for wave in (first_wave..=last_wave).rev() {
            let round = self.propose_round(wave);
            if let Some(status) = decided.get(&wave) {
                statuses.insert(wave, status.clone());
                continue;
            }
            let Some(slot) =
                self.elector
                    .elect_slot(&self.committee, store, self.certify_round(wave), round, 0)
            else {
                statuses.insert(wave, LeaderStatus::Undecided { round, offset: 0 });
                continue;
            };
            let status = if let Some(block) = self.try_direct_commit(store, wave, slot) {
                LeaderStatus::Commit(block)
            } else {
                // Find the anchor: the earliest later wave not skipped.
                let anchor = ((wave + 1)..=last_wave)
                    .map(|later| statuses.get(&later).expect("later waves decided first"))
                    .find(|status| !matches!(status, LeaderStatus::Skip(_)));
                match anchor {
                    Some(LeaderStatus::Commit(anchor_block)) => {
                        let anchor_block = Arc::clone(anchor_block);
                        self.try_indirect(store, wave, slot, &anchor_block)
                    }
                    _ => LeaderStatus::Undecided { round, offset: 0 },
                }
            };
            if status.is_decided() {
                decided.insert(wave, status.clone());
            }
            statuses.insert(wave, status);
        }
        (first_wave..=last_wave)
            .map(|wave| statuses.remove(&wave).expect("every wave decided"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_core::CommitSequencer;
    use mahimahi_dag::DagBuilder;
    use mahimahi_types::TestCommittee;

    fn committer(setup: &TestCommittee) -> CordialMinersCommitter {
        CordialMinersCommitter::new(setup.committee().clone(), CordialMinersOptions::default())
    }

    #[test]
    fn commits_one_leader_per_wave_on_full_dag() {
        let setup = TestCommittee::new(4, 17);
        let committer = committer(&setup);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(15);
        let statuses = committer.try_decide(dag.store(), 1);
        // Waves propose at rounds 1, 6, 11; all decidable (certify ≤ 15).
        assert_eq!(statuses.len(), 3);
        assert_eq!(
            statuses.iter().map(LeaderStatus::round).collect::<Vec<_>>(),
            vec![1, 6, 11]
        );
        for status in &statuses {
            assert!(matches!(status, LeaderStatus::Commit(_)), "{status}");
        }
    }

    #[test]
    fn the_memo_keeps_only_waves_from_the_latest_first_wave() {
        // A committed wave's status holds its leader block: a memo of every
        // wave ever decided would pin every leader block of the run.
        let setup = TestCommittee::new(4, 17);
        let committer = committer(&setup);
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
            let first_wave = (from_round - 1).div_ceil(5);
            let memo = committer.decided.borrow();
            assert!(memo.keys().all(|&wave| wave >= first_wave));
            assert_eq!(memo.len(), expected.len());
        }
    }

    #[test]
    fn no_direct_skip_crashed_leader_stays_undecided_until_next_wave() {
        let setup = TestCommittee::new(4, 17);
        let committee = setup.committee().clone();
        let mut dag = DagBuilder::new(setup.clone());
        // v3 is crashed from the start: slot (1, v3) stays empty forever.
        for _ in 0..8 {
            dag.add_round_producers(&[0, 1, 2]);
        }
        // Pin the wave-0 leader to the crashed v3 and wave 1 to a live one.
        let elector = mahimahi_core::FixedElector::new()
            .assign(1, 0, 3)
            .assign(6, 0, 0);
        let committer = CordialMinersCommitter::with_elector(
            committee,
            CordialMinersOptions::default(),
            Box::new(elector),
        );
        // DAG up to round 8: wave 0 decidable (certify 5), wave 1 not
        // (certify 10 missing). Mahi-Mahi would skip v3 directly; Cordial
        // Miners cannot — it must wait for wave 1.
        let statuses = committer.try_decide(dag.store(), 1);
        assert_eq!(statuses.len(), 1);
        assert!(
            matches!(statuses[0], LeaderStatus::Undecided { round: 1, .. }),
            "{}",
            statuses[0]
        );
        // Extend to round 10: wave 1 commits, wave 0 is skipped recursively.
        dag.add_round_producers(&[0, 1, 2]);
        dag.add_round_producers(&[0, 1, 2]);
        let statuses = committer.try_decide(dag.store(), 1);
        assert_eq!(statuses.len(), 2);
        assert!(matches!(statuses[0], LeaderStatus::Skip(slot)
            if slot == Slot::new(1, mahimahi_types::AuthorityIndex(3))));
        assert!(matches!(&statuses[1], LeaderStatus::Commit(block)
            if block.author().0 == 0));
    }

    #[test]
    fn sequencer_drives_cordial_miners() {
        let setup = TestCommittee::new(4, 17);
        let mut sequencer = CommitSequencer::new(committer(&setup));
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(15);
        let decisions = sequencer.try_commit(dag.store());
        assert_eq!(decisions.len(), 3);
        // All blocks up to round 11 are linearized exactly once.
        let emitted = sequencer.emitted_blocks();
        assert_eq!(
            emitted,
            4 /* genesis */ + 11 * 4 - 3 /* above leader */
        );
    }

    #[test]
    fn delays_per_round_is_one() {
        let setup = TestCommittee::new(4, 17);
        assert_eq!(committer(&setup).delays_per_round(), 1);
        assert_eq!(committer(&setup).name(), "Cordial-Miners");
    }

    #[test]
    fn equivocating_leader_commits_at_most_one_block() {
        use mahimahi_dag::BlockSpec;
        let setup = TestCommittee::new(4, 17);
        let committee = setup.committee().clone();
        let mut dag = DagBuilder::new(setup);
        // Round 1: v1 equivocates.
        let r1 = dag.add_round(vec![
            BlockSpec::new(0),
            BlockSpec::new(1).with_tag(1),
            BlockSpec::new(1).with_tag(2),
            BlockSpec::new(2),
            BlockSpec::new(3),
        ]);
        let b2 = r1[2];
        // Everyone builds on the second equivocation.
        for _ in 0..7 {
            let refs: Vec<_> = (0..4u32)
                .map(|a| {
                    let mut spec = BlockSpec::new(a);
                    if dag.current_round() == 1 {
                        let parents: Vec<_> = [b2, r1[0], r1[3], r1[4]].into_iter().collect();
                        spec = spec.with_explicit_parents(parents);
                    }
                    spec
                })
                .collect();
            dag.add_round(refs);
        }
        let elector = mahimahi_core::FixedElector::new().assign(1, 0, 1);
        let committer = CordialMinersCommitter::with_elector(
            committee,
            CordialMinersOptions::default(),
            Box::new(elector),
        );
        let statuses = committer.try_decide(dag.store(), 1);
        assert!(matches!(&statuses[0], LeaderStatus::Commit(block)
            if block.reference() == b2));
    }
}
