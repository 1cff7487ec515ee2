//! Leader slot election.
//!
//! In the protocol proper, leader slots are elected *after the fact* by the
//! global perfect coin opened in the Certify round (Section 3.2, step 1) —
//! that is [`CoinElector`]. Tests that reproduce specific published
//! executions (the Figure 2 / Appendix B walkthrough) need to pin the
//! elections instead — that is [`FixedElector`]. Both implement
//! [`LeaderElector`], which the committer consults for every slot.

use mahimahi_dag::BlockStore;
use mahimahi_types::{AuthorityIndex, Committee, Round, Slot};
use std::collections::HashMap;
use std::fmt::Debug;

use crate::decider::CoinCache;

/// Strategy determining which authority owns a leader slot. Each committer
/// owns its elector, so an elector may memoize without locking.
pub trait LeaderElector: Send + Debug {
    /// The authority elected for `(propose_round, offset)`, or `None` if the
    /// election cannot be determined yet (e.g. the coin has not opened).
    ///
    /// `certify_round` is the round whose blocks carry the relevant coin
    /// shares (`propose_round + wave_length − 1`).
    fn elect(
        &self,
        committee: &Committee,
        store: &BlockStore,
        certify_round: Round,
        propose_round: Round,
        offset: usize,
    ) -> Option<AuthorityIndex>;

    /// Convenience wrapper returning a full [`Slot`].
    fn elect_slot(
        &self,
        committee: &Committee,
        store: &BlockStore,
        certify_round: Round,
        propose_round: Round,
        offset: usize,
    ) -> Option<Slot> {
        self.elect(committee, store, certify_round, propose_round, offset)
            .map(|authority| Slot::new(propose_round, authority))
    }

    /// Drops whatever was memoized for rounds below `round`: the caller
    /// never asks about a certify round below it again.
    fn forget_below(&self, _round: Round) {}

    /// The rounds the elector holds memoized state for, ascending.
    #[cfg(test)]
    fn memoized_rounds(&self) -> Vec<Round> {
        Vec::new()
    }
}

/// The protocol's election: reconstruct the global perfect coin from the
/// shares in the Certify round, then map slot `offset` to authority
/// `(c + offset) mod n` (Algorithm 2, `LeaderBlock`).
#[derive(Debug, Default)]
pub struct CoinElector {
    coins: CoinCache,
}

impl CoinElector {
    /// Creates an elector with an empty coin cache.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LeaderElector for CoinElector {
    fn elect(
        &self,
        committee: &Committee,
        store: &BlockStore,
        certify_round: Round,
        _propose_round: Round,
        offset: usize,
    ) -> Option<AuthorityIndex> {
        let coin = self.coins.coin_for_round(committee, store, certify_round)?;
        Some(AuthorityIndex(
            coin.leader_slot(offset, committee.size()) as u32
        ))
    }

    fn forget_below(&self, round: Round) {
        self.coins.forget_below(round);
    }

    #[cfg(test)]
    fn memoized_rounds(&self) -> Vec<Round> {
        self.coins.rounds()
    }
}

/// A deterministic, test-only election from an explicit table.
///
/// Slots not present in the table fall back to round-robin
/// (`(round + offset) mod n`) so long DAGs remain fully decidable.
#[derive(Debug, Default)]
pub struct FixedElector {
    assignments: HashMap<(Round, usize), AuthorityIndex>,
}

impl FixedElector {
    /// Creates an empty table (pure round-robin).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins `(round, offset)` to `authority`.
    pub fn assign(mut self, round: Round, offset: usize, authority: u32) -> Self {
        self.assignments
            .insert((round, offset), AuthorityIndex(authority));
        self
    }
}

impl LeaderElector for FixedElector {
    fn elect(
        &self,
        committee: &Committee,
        store: &BlockStore,
        certify_round: Round,
        propose_round: Round,
        offset: usize,
    ) -> Option<AuthorityIndex> {
        // Mirror the coin's availability condition so that fixed elections
        // do not leak decisions the protocol could not make yet.
        if store.authorities_at_round(certify_round).len() < committee.quorum_threshold() {
            return None;
        }
        Some(
            self.assignments
                .get(&(propose_round, offset))
                .copied()
                .unwrap_or_else(|| {
                    AuthorityIndex(((propose_round as usize + offset) % committee.size()) as u32)
                }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_dag::DagBuilder;
    use mahimahi_types::TestCommittee;

    #[test]
    fn coin_elector_matches_manual_combination() {
        let setup = TestCommittee::new(4, 33);
        let committee = setup.committee().clone();
        let mut dag = DagBuilder::new(setup.clone());
        dag.add_full_rounds(5);
        let elector = CoinElector::new();
        let elected = elector
            .elect(&committee, dag.store(), 5, 1, 0)
            .expect("coin available");
        // Manual combination of the same round's shares.
        let shares: Vec<_> = (0..4)
            .map(|i| setup.coin_secret(AuthorityIndex(i)).share_for_round(5))
            .collect();
        let value = committee.coin_public().combine(5, &shares).unwrap();
        assert_eq!(elected.as_u64(), value.leader_slot(0, 4));
        // Offsets walk consecutive authorities.
        let next = elector.elect(&committee, dag.store(), 5, 1, 1).unwrap();
        assert_eq!(next.as_u64(), (elected.as_u64() + 1) % 4);
    }

    #[test]
    fn coin_elector_unavailable_before_certify_round() {
        let setup = TestCommittee::new(4, 33);
        let committee = setup.committee().clone();
        let dag = DagBuilder::new(setup);
        let elector = CoinElector::new();
        assert!(elector.elect(&committee, dag.store(), 5, 1, 0).is_none());
    }

    #[test]
    fn fixed_elector_uses_table_then_round_robin() {
        let setup = TestCommittee::new(4, 33);
        let committee = setup.committee().clone();
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(5);
        let elector = FixedElector::new().assign(1, 0, 3);
        assert_eq!(
            elector.elect(&committee, dag.store(), 5, 1, 0),
            Some(AuthorityIndex(3))
        );
        // Unpinned slot: round-robin (round 1 + offset 1) % 4 = 2.
        assert_eq!(
            elector.elect(&committee, dag.store(), 5, 1, 1),
            Some(AuthorityIndex(2))
        );
        // Mirrors coin availability: certify round missing → None.
        assert_eq!(elector.elect(&committee, dag.store(), 9, 5, 0), None);
    }
}
