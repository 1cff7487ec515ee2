//! The wave decider: Algorithm 2 of the paper.
//!
//! One conceptual decider exists per `(wave offset, leader offset)` pair; in
//! this implementation [`WaveDecider`] is instantiated on demand for a given
//! Propose round and leader offset, which is equivalent (the wave offset is
//! `round % wave_length`) and keeps the committer stateless.

use mahimahi_crypto::coin::{CoinShare, CoinValue};
use mahimahi_dag::BlockStore;
#[cfg(test)]
use mahimahi_types::AuthorityIndex;
use mahimahi_types::{Block, Committee, Round, Slot};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Memoized reconstruction of per-round coin values.
///
/// The combined value is independent of which `2f + 1` valid shares are
/// used (the threshold property), so caching by round is sound even as more
/// blocks arrive — and so is forgetting a round: recomputing it gives the
/// same value. A `RefCell` because the committer that owns it belongs to one
/// thread.
#[derive(Debug, Default)]
pub(crate) struct CoinCache {
    values: RefCell<HashMap<Round, CoinValue>>,
}

impl CoinCache {
    /// Reconstructs (or returns the cached) coin for `round` from the coin
    /// shares embedded in that round's blocks. `None` until blocks from
    /// `2f + 1` distinct authorities carry valid shares.
    ///
    /// Until a round's coin opens, this is asked again on every commit
    /// attempt. While the round holds fewer authors than the threshold the
    /// answer needs no block at all; once it holds enough, the shares are
    /// verified where they are combined, once.
    pub fn coin_for_round(
        &self,
        committee: &Committee,
        store: &BlockStore,
        round: Round,
    ) -> Option<CoinValue> {
        if let Some(value) = self.values.borrow().get(&round) {
            return Some(*value);
        }
        let coin = committee.coin_public();
        if store.authorities_at_round(round).len() < coin.threshold() {
            return None;
        }
        let shares: Vec<CoinShare> = store
            .blocks_at_round(round)
            .iter()
            .filter_map(|block| block.coin_share())
            .collect();
        // `combine` verifies every share it uses. One that fails is skipped,
        // never allowed to panic the node or poison the combination: block
        // validation normally rejects bad shares upstream, but a stored
        // block is Byzantine input as far as this reconstruction is
        // concerned. Only then is each share checked on its own.
        let value = coin
            .combine(round, &one_per_author(&shares))
            .or_else(|_| {
                let valid: Vec<CoinShare> = shares
                    .into_iter()
                    .filter(|share| coin.verify_share(round, share).is_ok())
                    .collect();
                coin.combine(round, &one_per_author(&valid))
            })
            .ok()?;
        self.values.borrow_mut().insert(round, value);
        Some(value)
    }

    /// Forgets every round below `round`.
    pub fn forget_below(&self, round: Round) {
        self.values
            .borrow_mut()
            .retain(|&cached, _| cached >= round);
    }

    /// The rounds holding a value, ascending.
    #[cfg(test)]
    pub fn rounds(&self) -> Vec<Round> {
        let mut rounds: Vec<Round> = self.values.borrow().keys().copied().collect();
        rounds.sort_unstable();
        rounds
    }
}

/// The first share of each author index (equivocating blocks carry the
/// same one), in the order given.
fn one_per_author(shares: &[CoinShare]) -> Vec<CoinShare> {
    let mut seen = HashSet::new();
    shares
        .iter()
        .filter(|share| seen.insert(share.index()))
        .copied()
        .collect()
}

/// The decision rules for one leader slot (Propose round + leader offset).
pub(crate) struct WaveDecider<'a> {
    committee: &'a Committee,
    store: &'a BlockStore,
    wave_length: u64,
    /// The Propose round of the wave under decision.
    propose_round: Round,
    /// This decider's leader offset (`leaderOffset` in Algorithm 2).
    leader_offset: usize,
}

/// Result of the direct or indirect rule, before slot identity is attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Decision {
    Commit(Arc<Block>),
    Skip,
    Undecided,
}

impl<'a> WaveDecider<'a> {
    pub fn new(
        committee: &'a Committee,
        store: &'a BlockStore,
        wave_length: u64,
        propose_round: Round,
        leader_offset: usize,
    ) -> Self {
        debug_assert!(wave_length >= 3);
        WaveDecider {
            committee,
            store,
            wave_length,
            propose_round,
            leader_offset,
        }
    }

    /// `VoteRound(w)`: Propose round + wave length − 2.
    pub fn vote_round(&self) -> Round {
        self.propose_round + self.wave_length - 2
    }

    /// `CertifyRound(w)`: Propose round + wave length − 1.
    pub fn certify_round(&self) -> Round {
        self.propose_round + self.wave_length - 1
    }

    /// The slot this decider classifies, as determined by the election
    /// strategy (the coin of the Certify round in the real protocol).
    /// `None` until the election can be determined.
    pub fn leader_slot(&self, elector: &dyn crate::election::LeaderElector) -> Option<Slot> {
        elector.elect_slot(
            self.committee,
            self.store,
            self.certify_round(),
            self.propose_round,
            self.leader_offset,
        )
    }

    /// `SkippedLeader`: `2f + 1` distinct vote-round authors have a block
    /// that does not vote for `leader`.
    fn skipped_leader(&self, leader: &Block) -> bool {
        let non_votes = self.store.authorities_with(self.vote_round(), |block| {
            !self.store.is_vote(&block.reference(), leader)
        });
        non_votes.len() >= self.committee.quorum_threshold()
    }

    /// `SupportedLeader`: `2f + 1` distinct certify-round authors have a
    /// block that certifies `leader`.
    fn supported_leader(&self, leader: &Block) -> bool {
        let certifiers = self.store.authorities_with(self.certify_round(), |block| {
            self.store.is_cert(block, leader)
        });
        certifiers.len() >= self.committee.quorum_threshold()
    }

    /// `TryDirectDecide` (Algorithm 2 lines 23–27), with the slot-level
    /// refinement of Appendix B: commit whichever candidate is certified
    /// (at most one can be — Lemma 2); skip the slot only when *every*
    /// candidate in view is skipped and `2f + 1` vote-round authors are
    /// present (which also rules out certification of candidates outside
    /// our view, because votes of blocks in a causally-complete DAG always
    /// point inside it).
    pub fn try_direct_decide(&self, slot: Slot) -> Decision {
        let candidates = self.store.blocks_in_slot(slot);
        for candidate in &candidates {
            if self.supported_leader(candidate) {
                return Decision::Commit(Arc::clone(candidate));
            }
        }
        let vote_round_authors = self.store.authorities_at_round(self.vote_round());
        if vote_round_authors.len() < self.committee.quorum_threshold() {
            return Decision::Undecided;
        }
        if candidates
            .iter()
            .all(|candidate| self.skipped_leader(candidate))
        {
            return Decision::Skip;
        }
        Decision::Undecided
    }

    /// `TryIndirectDecide` (Algorithm 2 lines 28–35), given the already
    /// classified `anchor` block of a later wave: commit the candidate with
    /// a certificate in the anchor's causal history; skip if there is none.
    ///
    /// The anchor's causal history is immutable, so this decision is stable.
    pub fn try_indirect_decide(&self, slot: Slot, anchor: &Block) -> Decision {
        let candidates = self.store.blocks_in_slot(slot);
        for candidate in &candidates {
            if self.is_certified_link(candidate, anchor) {
                return Decision::Commit(Arc::clone(candidate));
            }
        }
        Decision::Skip
    }

    /// `IsCertifiedLink(b_anchor, b_leader)`: a certify-round block of the
    /// leader's wave that certifies the leader *and* lies in the anchor's
    /// causal history.
    fn is_certified_link(&self, leader: &Block, anchor: &Block) -> bool {
        let anchor_ref = anchor.reference();
        for decision_block in self.store.blocks_at_round(self.certify_round()) {
            if self.store.is_cert(decision_block, leader)
                && self.store.is_link(&decision_block.reference(), &anchor_ref)
            {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_dag::{BlockSpec, DagBuilder};
    use mahimahi_types::TestCommittee;

    fn setup_dag(rounds: usize) -> (Committee, DagBuilder) {
        let setup = TestCommittee::new(4, 21);
        let committee = setup.committee().clone();
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(rounds);
        (committee, dag)
    }

    #[test]
    fn coin_cache_requires_quorum_of_shares() {
        let (committee, mut dag) = setup_dag(1);
        let coins = CoinCache::default();
        // Round 1 has 4 blocks with shares: coin opens.
        assert!(coins.coin_for_round(&committee, dag.store(), 1).is_some());
        // Round 2 has no blocks yet.
        assert!(coins.coin_for_round(&committee, dag.store(), 2).is_none());
        // Two blocks at round 2 (< 2f+1 = 3 shares): still closed.
        dag.add_round(vec![BlockSpec::new(0), BlockSpec::new(1)]);
        assert!(coins.coin_for_round(&committee, dag.store(), 2).is_none());
    }

    #[test]
    fn coin_value_is_stable_as_blocks_arrive() {
        let (committee, mut dag) = setup_dag(1);
        let coins = CoinCache::default();
        dag.add_round(vec![
            BlockSpec::new(0),
            BlockSpec::new(1),
            BlockSpec::new(2),
        ]);
        let early = coins.coin_for_round(&committee, dag.store(), 2).unwrap();
        // A fresh cache over the grown DAG must agree (threshold property).
        dag.add_round(vec![
            BlockSpec::new(0),
            BlockSpec::new(1),
            BlockSpec::new(2),
        ]);
        let fresh = CoinCache::default()
            .coin_for_round(&committee, dag.store(), 2)
            .unwrap();
        assert_eq!(early.as_bytes(), fresh.as_bytes());
    }

    #[test]
    fn malformed_coin_share_is_skipped_not_panicked() {
        use mahimahi_types::{Block, BlockBuilder, TestCommittee};

        let setup = TestCommittee::new(4, 21);
        let committee = setup.committee().clone();
        let mut store = BlockStore::new(4, 3);
        let genesis = Block::all_genesis(4);
        let parents_for = |author: u32| {
            let mut parents = vec![genesis[author as usize].reference()];
            parents.extend(
                genesis
                    .iter()
                    .map(Block::reference)
                    .filter(|reference| reference.author.0 != author),
            );
            parents
        };
        for author in 0..2u32 {
            let block = BlockBuilder::new(AuthorityIndex(author), 1)
                .parents(parents_for(author))
                .build(&setup)
                .into_arc();
            store.insert(block).unwrap();
        }
        // Authority 2 embeds a garbage share (valid for round 99, not 1)
        // in a correctly *signed* round-1 block — Byzantine input that a
        // validator may hold in its store (e.g. accepted before
        // validation-policy hardening, or injected via a buggy peer).
        let garbage = setup.coin_secret(AuthorityIndex(2)).share_for_round(99);
        let bad = BlockBuilder::new(AuthorityIndex(2), 1)
            .parents(parents_for(2))
            .coin_share(garbage)
            .build(&setup)
            .into_arc();
        assert!(bad.verify(&committee).is_err(), "share must be malformed");
        store.insert(bad).unwrap();

        let coins = CoinCache::default();
        // Three round-1 authors but only two *valid* shares: the coin stays
        // closed — and, the regression, the node does not panic.
        assert!(coins.coin_for_round(&committee, &store, 1).is_none());

        // A fourth, honest block reaches the threshold of valid shares; the
        // garbage share is skipped and the coin matches the clean value.
        let block = BlockBuilder::new(AuthorityIndex(3), 1)
            .parents(parents_for(3))
            .build(&setup)
            .into_arc();
        store.insert(block).unwrap();
        let value = coins
            .coin_for_round(&committee, &store, 1)
            .expect("threshold of valid shares present");
        let clean: Vec<CoinShare> = [0u32, 1, 3]
            .iter()
            .map(|&author| setup.coin_secret(AuthorityIndex(author)).share_for_round(1))
            .collect();
        let expected = committee.coin_public().combine(1, &clean).unwrap();
        assert_eq!(value.as_bytes(), expected.as_bytes());
    }

    #[test]
    fn wave_arithmetic() {
        let (committee, dag) = setup_dag(1);
        let decider = WaveDecider::new(&committee, dag.store(), 5, 10, 0);
        assert_eq!(decider.vote_round(), 13);
        assert_eq!(decider.certify_round(), 14);
        let decider = WaveDecider::new(&committee, dag.store(), 4, 10, 1);
        assert_eq!(decider.vote_round(), 12);
        assert_eq!(decider.certify_round(), 13);
        let decider = WaveDecider::new(&committee, dag.store(), 3, 10, 0);
        assert_eq!(decider.vote_round(), 11);
        assert_eq!(decider.certify_round(), 12);
    }

    #[test]
    fn full_dag_direct_commits_every_slot() {
        let (committee, dag) = setup_dag(6);
        let coins = crate::election::CoinElector::new();
        for wave_length in [3u64, 4, 5] {
            let propose = 1;
            for offset in 0..2 {
                let decider =
                    WaveDecider::new(&committee, dag.store(), wave_length, propose, offset);
                let slot = decider.leader_slot(&coins).expect("coin available");
                assert_eq!(slot.round, propose);
                let decision = decider.try_direct_decide(slot);
                assert!(
                    matches!(&decision, Decision::Commit(block) if block.slot() == slot),
                    "wave {wave_length} offset {offset}: {decision:?}"
                );
            }
        }
    }

    #[test]
    fn crashed_leader_is_directly_skipped() {
        let setup = TestCommittee::new(4, 21);
        let committee = setup.committee().clone();
        let mut dag = DagBuilder::new(setup);
        dag.add_full_round();
        // Author 3 crashes after round 1: rounds 2.. have 3 producers.
        for _ in 0..6 {
            dag.add_round_producers(&[0, 1, 2]);
        }
        let coins = crate::election::CoinElector::new();
        // Find a round whose elected leader (offset 0) is the crashed v3.
        let mut exercised = false;
        for propose in 2..=4u64 {
            let decider = WaveDecider::new(&committee, dag.store(), 5, propose, 0);
            let Some(slot) = decider.leader_slot(&coins) else {
                continue;
            };
            let decision = decider.try_direct_decide(slot);
            if slot.authority == AuthorityIndex(3) {
                assert_eq!(decision, Decision::Skip, "crashed leader at {slot}");
                exercised = true;
            } else {
                assert!(
                    matches!(decision, Decision::Commit(_)),
                    "live leader {slot}"
                );
            }
        }
        // With 3 rounds × 1 offset and a uniform coin the crashed author is
        // elected with probability 1 − (3/4)³ ≈ 58%; if the seed elected
        // only live leaders, check explicitly via offsets.
        if !exercised {
            for propose in 2..=4u64 {
                for offset in 1..4 {
                    let decider = WaveDecider::new(&committee, dag.store(), 5, propose, offset);
                    let Some(slot) = decider.leader_slot(&coins) else {
                        continue;
                    };
                    if slot.authority == AuthorityIndex(3) {
                        assert_eq!(decider.try_direct_decide(slot), Decision::Skip);
                        exercised = true;
                    }
                }
            }
        }
        assert!(exercised, "no slot elected the crashed leader");
    }

    #[test]
    fn insufficient_vote_round_leaves_undecided() {
        let setup = TestCommittee::new(4, 21);
        let committee = setup.committee().clone();
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(5);
        // Extend so the certify round of propose=3 (w=5 → round 7) exists
        // but its *vote* round 6 has only 2 authors... impossible: blocks at
        // round 7 need 2f+1 parents at round 6. Instead test the genuinely
        // reachable case: certify round present with quorum, vote round
        // full, but the leader's slot undecidable because votes are split
        // by equivocation — covered in committer tests. Here: certify round
        // absent entirely.
        let decider = WaveDecider::new(&committee, dag.store(), 5, 4, 0);
        let coins = crate::election::CoinElector::new();
        // Certify round 8 has no blocks: no coin, no slot.
        assert!(decider.leader_slot(&coins).is_none());
    }

    #[test]
    fn indirect_decide_through_anchor() {
        let (committee, mut dag) = setup_dag(7);
        let coins = crate::election::CoinElector::new();
        let slot = WaveDecider::new(&committee, dag.store(), 5, 1, 0)
            .leader_slot(&coins)
            .unwrap();
        // Any round-6 block serves as a committed anchor stand-in; the full
        // DAG guarantees a certificate for the slot inside its history.
        let r6 = dag.add_full_round();
        let anchor = dag.store().get(&r6[0]).unwrap().clone();
        let decider = WaveDecider::new(&committee, dag.store(), 5, 1, 0);
        let decision = decider.try_indirect_decide(slot, &anchor);
        assert!(matches!(decision, Decision::Commit(_)));
    }
}
