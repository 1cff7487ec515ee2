//! DAG traversal helpers (Algorithm 3 of the paper).
//!
//! - `VotedBlock` / `IsVote`: which block of a slot a potential vote block
//!   supports — the **first** block of that slot encountered in a depth-first
//!   traversal following the parent order. This is the mechanism that makes
//!   the uncertified DAG tolerate equivocation (Observation 1: a block
//!   cannot vote for two blocks of the same slot).
//! - `IsCert`: a block certifies a leader block if at least `2f + 1` of its
//!   parents (by distinct author) vote for that leader.
//! - `IsLink`: plain reachability through parent references.
//! - `LinearizeSubDags`: the commit-sequence expansion of DagRider used in
//!   Step 5 of the decision rule.

use mahimahi_types::{AuthoritySet, Block, BlockRef, Slot};
use std::collections::HashSet;
use std::sync::Arc;

use crate::store::{BlockIdx, BlockStore};

impl BlockStore {
    /// `VotedBlock(b, id, r)` from Algorithm 3: the first block of `slot`
    /// encountered when depth-first-searching from `vote` following parent
    /// order, or `None` if the slot is unreachable.
    ///
    /// Results are memoized; the memo is sound because stored blocks are
    /// causally complete and immutable.
    pub fn voted_block(&self, vote: &BlockRef, slot: Slot) -> Option<BlockRef> {
        let index = self.index_of(vote)?;
        self.voted_block_idx(index, slot)
            .map(|found| self.stored(found).block.reference())
    }

    fn voted_block_idx(&self, index: BlockIdx, slot: Slot) -> Option<BlockIdx> {
        let stored = self.stored(index);
        // Prune: a block can only reach strictly older rounds.
        if slot.round >= stored.block.round() {
            return None;
        }
        if let Some(&cached) = self.vote_cache.borrow().get(&(index, slot)) {
            return cached;
        }
        let mut result = None;
        for &parent in &self.stored(index).parents {
            let parent_block = &self.stored(parent).block;
            if parent_block.slot() == slot {
                result = Some(parent);
                break;
            }
            if let Some(found) = self.voted_block_idx(parent, slot) {
                result = Some(found);
                break;
            }
        }
        self.vote_cache.borrow_mut().insert((index, slot), result);
        result
    }

    /// `IsVote(b_vote, b_leader)`: whether `vote` supports exactly `leader`
    /// among the (possibly equivocating) blocks of the leader's slot.
    pub fn is_vote(&self, vote: &BlockRef, leader: &Block) -> bool {
        self.voted_block(vote, leader.slot()) == Some(leader.reference())
    }

    /// `IsCert(b_cert, b_leader)`: whether `certificate` carries `2f + 1`
    /// parent votes (by distinct author) for `leader`.
    ///
    /// Results are memoized per (certificate, leader) pair when both blocks
    /// are stored; like votes, certificates are a pure function of
    /// immutable causal histories.
    pub fn is_cert(&self, certificate: &Block, leader: &Block) -> bool {
        let key = match (
            self.index_of(&certificate.reference()),
            self.index_of(&leader.reference()),
        ) {
            (Some(cert_index), Some(leader_index)) => {
                if let Some(&cached) = self.cert_cache.borrow().get(&(cert_index, leader_index)) {
                    return cached;
                }
                Some((cert_index, leader_index))
            }
            _ => None,
        };
        let mut result = false;
        let mut vote_authors = AuthoritySet::new();
        for parent in certificate.parents() {
            if self.is_vote(&parent, leader) {
                vote_authors.insert(parent.author);
                if vote_authors.len() >= self.quorum_threshold() {
                    result = true;
                    break;
                }
            }
        }
        if let Some(key) = key {
            self.cert_cache.borrow_mut().insert(key, result);
        }
        result
    }

    /// `IsLink(b_old, b_new)`: whether a path of parent references leads
    /// from `new` back to `old`. A block links to itself.
    pub fn is_link(&self, old: &BlockRef, new: &BlockRef) -> bool {
        if old == new {
            return self.contains(old);
        }
        let (Some(old_index), Some(new_index)) = (self.index_of(old), self.index_of(new)) else {
            return false;
        };
        let mut visited = HashSet::new();
        let mut frontier = vec![new_index];
        while let Some(index) = frontier.pop() {
            if index == old_index {
                return true;
            }
            if !visited.insert(index) {
                continue;
            }
            let stored = self.stored(index);
            // Prune: parents at or below the target round cannot reach it
            // (other than the target itself, matched above).
            if stored.block.round() <= old.round {
                continue;
            }
            frontier.extend(stored.parents.iter().copied());
        }
        false
    }

    /// All block references in the causal history of `from` (inclusive).
    pub fn causal_history(&self, from: &BlockRef) -> Vec<BlockRef> {
        let Some(start) = self.index_of(from) else {
            return Vec::new();
        };
        let mut visited = HashSet::new();
        let mut frontier = vec![start];
        let mut history = Vec::new();
        while let Some(index) = frontier.pop() {
            if !visited.insert(index) {
                continue;
            }
            let stored = self.stored(index);
            history.push(stored.block.reference());
            frontier.extend(stored.parents.iter().copied());
        }
        history.sort();
        history
    }

    /// One step of `LinearizeSubDags` (Algorithm 3): every block in the
    /// causal history of `leader` not already in `emitted`, in the
    /// deterministic order `(round, author, digest)`, ending with the leader
    /// itself. Emitted blocks are added to `emitted`.
    pub fn linearize_sub_dag(
        &self,
        leader: &BlockRef,
        emitted: &mut HashSet<BlockRef>,
    ) -> Vec<Arc<Block>> {
        self.linearize_sub_dag_floored(leader, emitted, 0)
    }

    /// [`BlockStore::linearize_sub_dag`] with a garbage-collection floor:
    /// blocks with `round < floor` are excluded from the output and not
    /// descended into.
    ///
    /// The floor must be a *deterministic function of the leader's round*
    /// (e.g. `leader.round − gc_depth`) so that every honest validator
    /// excludes exactly the same stale blocks regardless of when each one
    /// physically compacts its store — this is what makes
    /// [`BlockStore::compact`] safe.
    pub fn linearize_sub_dag_floored(
        &self,
        leader: &BlockRef,
        emitted: &mut HashSet<BlockRef>,
        floor: mahimahi_types::Round,
    ) -> Vec<Arc<Block>> {
        let Some(start) = self.index_of(leader) else {
            return Vec::new();
        };
        let mut visited = HashSet::new();
        let mut frontier = vec![start];
        let mut fresh = Vec::new();
        while let Some(index) = frontier.pop() {
            if !visited.insert(index) {
                continue;
            }
            let stored = self.stored(index);
            let reference = stored.block.reference();
            if reference.round < floor || emitted.contains(&reference) {
                // Below the GC floor, or its whole history was linearized
                // with an earlier leader.
                continue;
            }
            fresh.push(reference);
            frontier.extend(stored.parents.iter().copied());
        }
        fresh.sort();
        fresh
            .into_iter()
            .map(|reference| {
                emitted.insert(reference);
                self.get(&reference).expect("collected from store").clone()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BlockSpec, DagBuilder};
    use mahimahi_types::{AuthorityIndex, TestCommittee};

    fn builder() -> DagBuilder {
        DagBuilder::new(TestCommittee::new(4, 5))
    }

    #[test]
    fn vote_follows_first_encounter_order() {
        let mut dag = builder();
        let r1 = dag.add_full_round();
        let _r2 = dag.add_full_round();
        let r3 = dag.add_full_round();
        let store = dag.store();
        // In a full DAG every later block reaches every earlier block, so
        // each round-3 block votes for every round-1 slot's unique block.
        for vote in &r3 {
            for leader_ref in &r1 {
                let leader = store.get(leader_ref).unwrap().clone();
                assert!(store.is_vote(vote, &leader));
            }
        }
    }

    #[test]
    fn vote_misses_unreferenced_block() {
        let mut dag = builder();
        let r1 = dag.add_full_round();
        // Round 2: everyone references only authors {0,1,2} from round 1
        // (plus, implicitly, their own previous block).
        let specs: Vec<BlockSpec> = (0..4)
            .map(|author| BlockSpec::new(author).with_parent_authors(vec![0, 1, 2]))
            .collect();
        let r2 = dag.add_round(specs);
        let store = dag.store();
        let skipped_leader = store.get(&r1[3]).unwrap().clone();
        // Authors 0..2 never reference v3's round-1 block: no vote. Author 3
        // references its own previous block first, so it does vote.
        for vote in &r2[..3] {
            assert!(!store.is_vote(vote, &skipped_leader));
        }
        assert!(store.is_vote(&r2[3], &skipped_leader));
        let seen_leader = store.get(&r1[0]).unwrap().clone();
        for vote in &r2 {
            assert!(store.is_vote(vote, &seen_leader));
        }
    }

    #[test]
    fn equivocating_slot_votes_split_but_never_double() {
        let mut dag = builder();
        let r1 = dag.add_full_round();
        // Round 2: author 1 equivocates with two blocks.
        let specs = vec![
            BlockSpec::new(0),
            BlockSpec::new(1).with_tag(1),
            BlockSpec::new(1).with_tag(2),
            BlockSpec::new(2),
            BlockSpec::new(3),
        ];
        let r2 = dag.add_round(specs);
        let (eq_a, eq_b) = (r2[1], r2[2]);
        assert_eq!(eq_a.author, AuthorityIndex(1));
        assert_eq!(eq_b.author, AuthorityIndex(1));
        assert_ne!(eq_a.digest, eq_b.digest);

        // Round 3: v0 and v1 reference equivocation A; v2 and v3 reference B.
        let specs = vec![
            BlockSpec::new(0).with_explicit_parents(vec![r2[0], eq_a, r2[3], r2[4]]),
            BlockSpec::new(1).with_explicit_parents(vec![eq_a, r2[0], r2[3], r2[4]]),
            BlockSpec::new(2).with_explicit_parents(vec![r2[3], eq_b, r2[0], r2[4]]),
            BlockSpec::new(3).with_explicit_parents(vec![r2[4], eq_b, r2[0], r2[3]]),
        ];
        let r3 = dag.add_round(specs);
        let store = dag.store();
        let block_a = store.get(&eq_a).unwrap().clone();
        let block_b = store.get(&eq_b).unwrap().clone();
        let mut votes_a = 0;
        let mut votes_b = 0;
        for vote in &r3 {
            let for_a = store.is_vote(vote, &block_a);
            let for_b = store.is_vote(vote, &block_b);
            // Observation 1: never both.
            assert!(!(for_a && for_b), "{vote} votes for both equivocations");
            votes_a += usize::from(for_a);
            votes_b += usize::from(for_b);
        }
        assert_eq!(votes_a, 2);
        assert_eq!(votes_b, 2);
        // v1's own chain: r1 block of author 1 still gets votes through
        // either equivocation (both reference it) — sanity check is_link.
        assert!(store.is_link(&r1[1], &eq_a));
        assert!(store.is_link(&r1[1], &eq_b));
    }

    #[test]
    fn certificates_require_quorum_of_votes() {
        let mut dag = builder();
        let r1 = dag.add_full_round();
        let _r2 = dag.add_full_round();
        let _r3 = dag.add_full_round();
        let r4 = dag.add_full_round();
        let store = dag.store();
        let leader = store.get(&r1[0]).unwrap().clone();
        // Full DAG: every round-4 block is a certificate for every round-1
        // block (its 4 parents all vote).
        for cert_ref in &r4 {
            let cert = store.get(cert_ref).unwrap().clone();
            assert!(store.is_cert(&cert, &leader));
        }
    }

    #[test]
    fn certificate_fails_below_quorum() {
        let mut dag = builder();
        let r1 = dag.add_full_round();
        // Round 2: only authors 0 and 1 see r1's author-3 block.
        let specs = vec![
            BlockSpec::new(0),
            BlockSpec::new(1),
            BlockSpec::new(2).with_parent_authors(vec![0, 1, 2]),
            BlockSpec::new(3).with_parent_authors(vec![0, 1, 3]),
        ];
        let _r2 = dag.add_round(specs);
        let r3 = dag.add_full_round();
        let store = dag.store();
        let leader = store.get(&r1[3]).unwrap().clone();
        // Hmm: r2 blocks of authors 2 and 3 do not vote for r1[3]... but
        // author 3's own r2 block references its own r1 block (own-first),
        // so it does vote. Votes: authors 0, 1, 3 = quorum.
        let cert = store.get(&r3[0]).unwrap().clone();
        assert!(store.is_cert(&cert, &leader));

        // Author 2's r1 block: round 2 voters are 0, 1, 2 (author 3 skips
        // it) — still a quorum. Demonstrate a genuine sub-quorum case:
        // leader v3@r1 seen only by v3 itself at round 2.
        let specs = vec![
            BlockSpec::new(0).with_parent_authors(vec![0, 1, 2]),
            BlockSpec::new(1).with_parent_authors(vec![0, 1, 2]),
            BlockSpec::new(2).with_parent_authors(vec![0, 1, 2]),
            BlockSpec::new(3).with_parent_authors(vec![0, 1, 3]),
        ];
        let r4 = dag.add_round(specs);
        let r5 = dag.add_full_round();
        let store = dag.store();
        let leader = store.get(&r3[3]).unwrap().clone();
        // Only author 3's round-4 block votes for v3@r3; certificates at
        // round 5 cannot gather 3 votes.
        let votes: usize = r4
            .iter()
            .map(|vote| usize::from(store.is_vote(vote, &leader)))
            .sum();
        assert_eq!(votes, 1);
        for cert_ref in &r5 {
            let cert = store.get(cert_ref).unwrap().clone();
            assert!(!store.is_cert(&cert, &leader));
        }
    }

    #[test]
    fn is_link_reachability() {
        let mut dag = builder();
        let r1 = dag.add_full_round();
        let specs = vec![
            BlockSpec::new(0).with_parent_authors(vec![0, 1, 2]),
            BlockSpec::new(1).with_parent_authors(vec![0, 1, 2]),
            BlockSpec::new(2).with_parent_authors(vec![0, 1, 2]),
            BlockSpec::new(3),
        ];
        let r2 = dag.add_round(specs);
        let store = dag.store();
        assert!(store.is_link(&r1[0], &r2[0]));
        assert!(store.is_link(&r1[3], &r2[3]));
        // Authors 0..2 never referenced r1[3].
        assert!(!store.is_link(&r1[3], &r2[0]));
        // Self-link and genesis reachability.
        assert!(store.is_link(&r1[0], &r1[0]));
        let genesis = Block::all_genesis(4);
        assert!(store.is_link(&genesis[2].reference(), &r2[1]));
        // Reverse direction never links.
        assert!(!store.is_link(&r2[0], &r1[0]));
    }

    #[test]
    fn linearize_emits_each_block_once_leader_last() {
        let mut dag = builder();
        let r1 = dag.add_full_round();
        let r2 = dag.add_full_round();
        let store = dag.store();
        let mut emitted = HashSet::new();

        let first = store.linearize_sub_dag(&r1[0], &mut emitted);
        // Genesis (4 blocks) + the leader itself.
        assert_eq!(first.len(), 5);
        assert_eq!(first.last().unwrap().reference(), r1[0]);

        let second = store.linearize_sub_dag(&r2[0], &mut emitted);
        // Remaining r1 blocks (3) + r2 leader.
        assert_eq!(second.len(), 4);
        assert_eq!(second.last().unwrap().reference(), r2[0]);

        // No duplicates across calls.
        let mut seen = HashSet::new();
        for block in first.iter().chain(second.iter()) {
            assert!(seen.insert(block.reference()));
        }

        // Re-linearizing the same leader emits nothing.
        assert!(store.linearize_sub_dag(&r2[0], &mut emitted).is_empty());
    }

    #[test]
    fn linearize_order_is_deterministic_round_then_author() {
        let mut dag = builder();
        let _r1 = dag.add_full_round();
        let r2 = dag.add_full_round();
        let store = dag.store();
        let mut emitted = HashSet::new();
        let sequence = store.linearize_sub_dag(&r2[1], &mut emitted);
        let keys: Vec<(u64, u32)> = sequence
            .iter()
            .map(|block| (block.round(), block.author().0))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn causal_history_counts() {
        let mut dag = builder();
        let r1 = dag.add_full_round();
        let store = dag.store();
        let history = store.causal_history(&r1[0]);
        // 4 genesis + itself.
        assert_eq!(history.len(), 5);
        assert!(history.contains(&r1[0]));
    }

    #[test]
    fn voted_block_unknown_ref_is_none() {
        let dag = builder();
        let store = dag.store();
        let genesis = Block::all_genesis(4);
        let bogus = BlockRef {
            round: 9,
            author: AuthorityIndex(0),
            digest: mahimahi_crypto::Digest::ZERO,
        };
        assert_eq!(store.voted_block(&bogus, genesis[0].slot()), None);
        assert!(!store.is_link(&bogus, &genesis[0].reference()));
        assert!(store.causal_history(&bogus).is_empty());
    }
}
