//! The certified-DAG baseline's consistent-broadcast bookkeeping (Tusk):
//! proposals parked until a certificate releases them, acknowledgement
//! tallies for own proposals, and the own proposals already certified.
//!
//! The engine holds a [`CertifiedBroadcast`] only when it runs certified.
//! An uncertified engine has none and drops the pipeline's three wire
//! messages, which every driver's shared wire can carry: a peer could
//! otherwise park proposals no certificate ever drains, or spoof ack
//! quorums — the acks are voter claims, not signatures, a
//! simulation-fidelity shortcut acceptable only where the protocol
//! actually runs certified.

use mahimahi_types::{AuthorityIndex, AuthoritySet, Block, BlockRef, Round};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Pending proposals, ack tallies and the certified-own set of one
/// validator. Every map is pruned at the GC floor
/// ([`CertifiedBroadcast::compact_below`]); the engine ignores the
/// pipeline's messages for rounds below it on arrival, so nothing pruned is
/// ever re-opened.
pub struct CertifiedBroadcast {
    authority: AuthorityIndex,
    quorum: usize,
    /// Proposals (own and peers') awaiting a certificate.
    pending: HashMap<BlockRef, Arc<Block>>,
    /// Acknowledgements collected for own proposals not yet certified.
    /// Per-proposal voter tallies are dense bitsets — quorum checks are
    /// popcounts, not hash-set cardinalities.
    acks: HashMap<BlockRef, AuthoritySet>,
    /// Own proposals already certified: later acks for them are ignored,
    /// so each forms exactly one certificate.
    certified_own: HashSet<BlockRef>,
}

impl CertifiedBroadcast {
    /// Empty bookkeeping for `authority` under the given quorum threshold.
    pub fn new(authority: AuthorityIndex, quorum: usize) -> Self {
        CertifiedBroadcast {
            authority,
            quorum,
            pending: HashMap::new(),
            acks: HashMap::new(),
            certified_own: HashSet::new(),
        }
    }

    /// Registers an own proposal: it enters the DAG only once a
    /// certificate forms; the own acknowledgement is counted immediately.
    pub fn register_own(&mut self, block: Arc<Block>) {
        let reference = self.park(block);
        self.acks
            .entry(reference)
            .or_default()
            .insert(self.authority);
    }

    /// Parks a proposal until its certificate arrives, returning the
    /// reference to acknowledge.
    pub fn park(&mut self, block: Arc<Block>) -> BlockRef {
        let reference = block.reference();
        self.pending.insert(reference, block);
        reference
    }

    /// Counts `voter`'s acknowledgement of an own proposal. Returns the
    /// number of signatures in the certificate when this ack completes the
    /// quorum — exactly once per proposal. Acks for another author's
    /// block, or for an own proposal already certified, are ignored.
    pub fn on_ack(&mut self, reference: BlockRef, voter: AuthorityIndex) -> Option<usize> {
        if reference.author != self.authority || self.certified_own.contains(&reference) {
            return None;
        }
        let votes = self.acks.entry(reference).or_default();
        votes.insert(voter);
        let signatures = votes.len();
        if signatures < self.quorum {
            return None;
        }
        self.acks.remove(&reference);
        self.certified_own.insert(reference);
        Some(signatures)
    }

    /// Takes the proposal a certificate releases into the DAG, if parked.
    pub fn release(&mut self, reference: &BlockRef) -> Option<Arc<Block>> {
        self.pending.remove(reference)
    }

    /// Drops every entry for a round below `floor`: nothing below the GC
    /// floor can enter the DAG or be committed again.
    pub fn compact_below(&mut self, floor: Round) {
        self.pending.retain(|reference, _| reference.round >= floor);
        self.acks.retain(|reference, _| reference.round >= floor);
        self.certified_own
            .retain(|reference| reference.round >= floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_types::{BlockBuilder, TestCommittee};

    impl CertifiedBroadcast {
        /// Entries held: `[pending proposals, open ack tallies, certified
        /// own]`.
        pub(crate) fn sizes(&self) -> [usize; 3] {
            [
                self.pending.len(),
                self.acks.len(),
                self.certified_own.len(),
            ]
        }
    }

    fn proposal(setup: &TestCommittee, author: u32, round: Round) -> Arc<Block> {
        BlockBuilder::new(AuthorityIndex(author), round)
            .build(setup)
            .into_arc()
    }

    #[test]
    fn the_own_ack_counts_at_registration_and_the_certificate_forms_exactly_once() {
        let setup = TestCommittee::new(4, 7);
        let mut pipeline = CertifiedBroadcast::new(AuthorityIndex(0), 3);
        let own = proposal(&setup, 0, 1);
        let reference = own.reference();
        pipeline.register_own(own);
        assert_eq!(pipeline.sizes(), [1, 1, 0]);
        // Own ack + one peer = 2 of 3; a repeat of the same voter adds
        // nothing; the second peer completes the quorum.
        assert_eq!(pipeline.on_ack(reference, AuthorityIndex(1)), None);
        assert_eq!(pipeline.on_ack(reference, AuthorityIndex(1)), None);
        assert_eq!(pipeline.on_ack(reference, AuthorityIndex(2)), Some(3));
        // The tally is closed: a straggling ack mints no second certificate.
        assert_eq!(pipeline.on_ack(reference, AuthorityIndex(3)), None);
        assert_eq!(pipeline.sizes(), [1, 0, 1]);
        // The certificate releases the proposal once.
        assert_eq!(
            pipeline.release(&reference).map(|block| block.reference()),
            Some(reference)
        );
        assert!(pipeline.release(&reference).is_none());
    }

    #[test]
    fn acks_for_another_authors_block_are_ignored() {
        let setup = TestCommittee::new(4, 7);
        let mut pipeline = CertifiedBroadcast::new(AuthorityIndex(0), 3);
        let theirs = proposal(&setup, 1, 1);
        let reference = pipeline.park(theirs);
        for voter in 0..4 {
            assert_eq!(pipeline.on_ack(reference, AuthorityIndex(voter)), None);
        }
        assert_eq!(pipeline.sizes(), [1, 0, 0], "parked, never tallied");
    }

    #[test]
    fn compaction_drops_every_entry_below_the_floor_and_nothing_above() {
        let setup = TestCommittee::new(4, 7);
        let mut pipeline = CertifiedBroadcast::new(AuthorityIndex(0), 2);
        let mut certified = Vec::new();
        for round in 1..=10 {
            // A certified own proposal, an own proposal still collecting
            // acks, and a peer's proposal no certificate ever came for.
            let own = proposal(&setup, 0, round);
            certified.push(own.reference());
            pipeline.register_own(own);
            assert_eq!(
                pipeline.on_ack(certified[certified.len() - 1], AuthorityIndex(1)),
                Some(2)
            );
            let open = BlockBuilder::new(AuthorityIndex(0), round)
                .transaction(mahimahi_types::Transaction::benchmark(round))
                .build(&setup)
                .into_arc();
            pipeline.register_own(open);
            pipeline.park(proposal(&setup, 1, round));
        }
        assert_eq!(pipeline.sizes(), [30, 10, 10]);
        pipeline.compact_below(8);
        assert_eq!(pipeline.sizes(), [9, 3, 3], "rounds 8, 9 and 10 remain");
        assert!(pipeline.release(&certified[6]).is_none(), "round 7 is gone");
        assert!(pipeline.release(&certified[7]).is_some(), "round 8 is kept");
    }
}
