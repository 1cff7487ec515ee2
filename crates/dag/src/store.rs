//! The equivocation-aware block store.

use mahimahi_types::{
    AuthorityIndex, AuthoritySet, Block, BlockRef, DigestKeyed, EquivocationProof, Round, Slot,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::error::Error as StdError;
use std::fmt;
use std::sync::Arc;

/// Dense index of a block inside a [`BlockStore`] (internal interning).
pub(crate) type BlockIdx = u32;

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The block's author index is outside the committee.
    UnknownAuthority(AuthorityIndex),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownAuthority(authority) => {
                write!(f, "block author {authority} outside the committee")
            }
        }
    }
}

impl StdError for StoreError {}

/// Outcome of [`BlockStore::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertResult {
    /// The block (and possibly previously-pending descendants) joined the
    /// DAG. Contains every reference that became available, in insertion
    /// order (the block itself first).
    Inserted(Vec<BlockRef>),
    /// The block is buffered until the listed ancestors arrive.
    Pending(Vec<BlockRef>),
    /// The block (or an identical copy) is already stored or pending.
    Duplicate,
    /// The block's round is below the garbage-collection cutoff; it was
    /// dropped (its slot's fate was decided long ago).
    BelowGcFloor,
}

pub(crate) struct StoredBlock {
    pub block: Arc<Block>,
    /// Parent references resolved to dense indexes.
    pub parents: Vec<BlockIdx>,
}

/// Per-round block index, dense in the committee.
///
/// `present` mirrors which slots are non-empty so quorum tallies
/// ([`BlockStore::authorities_at_round`]) are an O(1) bitset copy instead of
/// an O(n) scan allocating a vector per call — the tally runs once per
/// engine input on the hot path.
struct RoundSlots {
    /// author → equivocating block indexes (insertion order).
    slots: Vec<Vec<BlockIdx>>,
    /// Authorities with at least one block this round.
    present: AuthoritySet,
}

impl RoundSlots {
    fn new(committee_size: usize) -> Self {
        RoundSlots {
            slots: vec![Vec::new(); committee_size],
            present: AuthoritySet::new(),
        }
    }
}

/// A validator's local DAG: every causally-complete block it has accepted.
///
/// The store is *equivocation-aware*: `DAG[r, v]` may hold several blocks
/// when `v` is Byzantine, and all of them participate in traversals exactly
/// as the paper prescribes.
///
/// Blocks whose ancestry is incomplete are buffered (`Pending`) and join the
/// DAG automatically once their missing parents arrive — the store performs
/// the paper's causal-completeness admission rule; a synchronizer drives
/// [`BlockStore::missing_parents`] to fetch the gaps.
pub struct BlockStore {
    committee_size: usize,
    quorum_threshold: usize,
    pub(crate) blocks: Vec<StoredBlock>,
    pub(crate) by_ref: HashMap<BlockRef, BlockIdx, DigestKeyed>,
    /// round → dense per-author slot index with its presence bitset.
    rounds: BTreeMap<Round, RoundSlots>,
    /// Authorities with more than one block in some live round, maintained
    /// incrementally at admission and rebuilt on [`BlockStore::compact`].
    equivocators: AuthoritySet,
    highest_round: Round,
    /// Rounds below this have been garbage-collected ([`BlockStore::compact`]).
    gc_cutoff: Round,
    /// Blocks waiting for ancestors: own ref → block.
    pending: HashMap<BlockRef, Arc<Block>, DigestKeyed>,
    /// missing parent → dependents waiting on it.
    waiters: HashMap<BlockRef, Vec<BlockRef>, DigestKeyed>,
    /// Memoized `VotedBlock` results: (vote block, target slot) → voted
    /// block (if any). Sound because a stored block's causal history is
    /// immutable. Interior mutability keeps traversals `&self`; a `RefCell`
    /// because the store belongs to one thread (it is `Send`, not `Sync`).
    pub(crate) vote_cache: RefCell<HashMap<(BlockIdx, Slot), Option<BlockIdx>, DigestKeyed>>,
    /// Memoized `IsCert` results: (certificate block, leader block) → bool.
    /// Sound for the same reason: both blocks' histories are immutable.
    pub(crate) cert_cache: RefCell<HashMap<(BlockIdx, BlockIdx), bool, DigestKeyed>>,
    /// Equivocation proofs emitted at admission and not yet collected
    /// ([`BlockStore::take_equivocation_evidence`]). One proof per slot —
    /// emitted the moment the *second* digest lands; further forks in the
    /// same slot add no new proofs (one conviction per author suffices).
    fresh_evidence: Vec<EquivocationProof>,
    /// Bumped whenever the DAG's content changes ([`BlockStore::version`]).
    version: u64,
}

impl BlockStore {
    /// Creates a store for a committee of `committee_size` validators with
    /// quorum threshold `quorum_threshold`, pre-seeded with the genesis
    /// blocks of round 0.
    pub fn new(committee_size: usize, quorum_threshold: usize) -> Self {
        let mut store = BlockStore {
            committee_size,
            quorum_threshold,
            blocks: Vec::new(),
            by_ref: HashMap::default(),
            rounds: BTreeMap::new(),
            equivocators: AuthoritySet::new(),
            highest_round: 0,
            gc_cutoff: 0,
            pending: HashMap::default(),
            waiters: HashMap::default(),
            vote_cache: RefCell::default(),
            cert_cache: RefCell::default(),
            fresh_evidence: Vec::new(),
            version: 0,
        };
        for genesis in Block::all_genesis(committee_size) {
            store
                .insert(genesis.into_arc())
                .expect("genesis authors are in range");
        }
        store
    }

    /// The committee size this store was created for.
    pub fn committee_size(&self) -> usize {
        self.committee_size
    }

    /// The quorum threshold `2f + 1` used by vote/certificate counting.
    pub fn quorum_threshold(&self) -> usize {
        self.quorum_threshold
    }

    /// Inserts a block, buffering it if ancestors are missing.
    ///
    /// The caller is responsible for block *validity* ([`Block::verify`]);
    /// the store enforces only causal completeness and authority range.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownAuthority`] for out-of-range authors
    /// (such blocks could not be indexed).
    pub fn insert(&mut self, block: Arc<Block>) -> Result<InsertResult, StoreError> {
        if block.author().as_usize() >= self.committee_size {
            return Err(StoreError::UnknownAuthority(block.author()));
        }
        if block.round() < self.gc_cutoff {
            return Ok(InsertResult::BelowGcFloor);
        }
        let reference = block.reference();
        if self.by_ref.contains_key(&reference) || self.pending.contains_key(&reference) {
            return Ok(InsertResult::Duplicate);
        }
        // Single pass over the parents: resolve each one exactly once, so
        // the complete-block fast path pays one hash lookup per edge (the
        // resolved indexes feed `admit_resolved` directly). Parents below
        // the GC cutoff are treated as present: their slots were decided
        // and dropped; floored linearization never reads them.
        let mut resolved = Vec::with_capacity(block.parents().len());
        let mut missing = Vec::new();
        for parent in block.parents() {
            match self.by_ref.get(&parent) {
                Some(&index) => resolved.push(index),
                None if parent.round >= self.gc_cutoff => missing.push(parent),
                None => {}
            }
        }
        if !missing.is_empty() {
            for parent in &missing {
                self.waiters.entry(*parent).or_default().push(reference);
            }
            self.pending.insert(reference, block);
            return Ok(InsertResult::Pending(missing));
        }
        let mut admitted = vec![reference];
        self.admit_resolved(block, resolved);
        self.drain_waiters(reference, &mut admitted);
        Ok(InsertResult::Inserted(admitted))
    }

    /// Links a now-complete block into the DAG given its already-resolved
    /// parent indexes (garbage-collected parents are pruned edges). Callers
    /// resolve parents while proving completeness, so no edge is looked up
    /// twice.
    fn admit_resolved(&mut self, block: Arc<Block>, parents: Vec<BlockIdx>) {
        let reference = block.reference();
        let index = self.blocks.len() as BlockIdx;
        self.blocks.push(StoredBlock { block, parents });
        self.by_ref.insert(reference, index);
        let round_slots = self
            .rounds
            .entry(reference.round)
            .or_insert_with(|| RoundSlots::new(self.committee_size));
        round_slots.present.insert(reference.author);
        let slot = &mut round_slots.slots[reference.author.as_usize()];
        slot.push(index);
        // Fault attribution at the source: the second digest landing in a
        // slot is conclusive evidence of equivocation. Emit one proof per
        // slot (at the 1 → 2 transition); `by_ref` dedup guarantees the two
        // blocks genuinely differ in digest.
        if slot.len() == 2 {
            let first = Arc::clone(&self.blocks[slot[0] as usize].block);
            let second = Arc::clone(&self.blocks[slot[1] as usize].block);
            match EquivocationProof::new(first, second) {
                Ok(proof) => self.fresh_evidence.push(proof),
                Err(error) => {
                    debug_assert!(false, "slot-mates must form a proof: {error}");
                }
            }
        }
        if slot.len() > 1 {
            self.equivocators.insert(reference.author);
        }
        self.highest_round = self.highest_round.max(reference.round);
        self.version += 1;
    }

    /// After `arrived` joined the DAG, admits any pending blocks that are now
    /// causally complete (transitively).
    fn drain_waiters(&mut self, arrived: BlockRef, admitted: &mut Vec<BlockRef>) {
        let mut frontier = vec![arrived];
        while let Some(parent) = frontier.pop() {
            let Some(dependents) = self.waiters.remove(&parent) else {
                continue;
            };
            for dependent in dependents {
                let Some(block) = self.pending.get(&dependent) else {
                    continue; // already admitted via another parent
                };
                // Resolve while proving completeness: one lookup per edge.
                let mut resolved = Vec::with_capacity(block.parents().len());
                let mut complete = true;
                for reference in block.parents() {
                    match self.by_ref.get(&reference) {
                        Some(&index) => resolved.push(index),
                        None if reference.round < self.gc_cutoff => {}
                        None => {
                            complete = false;
                            break;
                        }
                    }
                }
                if complete {
                    let block = self.pending.remove(&dependent).expect("present");
                    self.admit_resolved(block, resolved);
                    admitted.push(dependent);
                    frontier.push(dependent);
                }
            }
        }
    }

    /// Whether the block is linked into the DAG (not merely pending).
    pub fn contains(&self, reference: &BlockRef) -> bool {
        self.by_ref.contains_key(reference)
    }

    /// Fetches a stored block.
    pub fn get(&self, reference: &BlockRef) -> Option<&Arc<Block>> {
        self.by_ref
            .get(reference)
            .map(|&index| &self.blocks[index as usize].block)
    }

    /// All blocks of `round`, across every authority and equivocation
    /// (`DAG[r, *]`).
    pub fn blocks_at_round(&self, round: Round) -> Vec<&Arc<Block>> {
        let Some(round_slots) = self.rounds.get(&round) else {
            return Vec::new();
        };
        round_slots
            .slots
            .iter()
            .flatten()
            .map(|&index| &self.blocks[index as usize].block)
            .collect()
    }

    /// All blocks occupying `slot` (`DAG[r, v]`; more than one only under
    /// equivocation).
    pub fn blocks_in_slot(&self, slot: Slot) -> Vec<&Arc<Block>> {
        let Some(round_slots) = self.rounds.get(&slot.round) else {
            return Vec::new();
        };
        round_slots.slots[slot.authority.as_usize()]
            .iter()
            .map(|&index| &self.blocks[index as usize].block)
            .collect()
    }

    /// Distinct authorities with at least one block at `round`.
    ///
    /// An O(1) copy of the round's maintained presence bitset — the quorum
    /// tally the engine runs once per input allocates nothing.
    pub fn authorities_at_round(&self, round: Round) -> AuthoritySet {
        self.rounds
            .get(&round)
            .map(|round_slots| round_slots.present)
            .unwrap_or_default()
    }

    /// The highest round with any stored block.
    pub fn highest_round(&self) -> Round {
        self.highest_round
    }

    /// A counter that changes whenever the DAG does: a block joins it, or
    /// [`BlockStore::compact`] drops rounds. Buffering a block that still
    /// misses ancestors changes nothing a traversal reads, so it leaves the
    /// version alone. Equal versions of one store mean equal DAGs, so a
    /// caller can skip re-deriving anything that is a function of the DAG.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The garbage-collection cutoff (0 when never compacted).
    pub fn gc_cutoff(&self) -> Round {
        self.gc_cutoff
    }

    /// Total number of stored (causally complete) blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store holds no blocks (never true: genesis is pre-seeded).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of blocks buffered awaiting ancestors.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// References the store is waiting for (synchronizer work queue).
    pub fn missing_parents(&self) -> Vec<BlockRef> {
        let mut missing: Vec<BlockRef> = self
            .waiters
            .keys()
            .filter(|reference| !self.by_ref.contains_key(reference))
            .copied()
            .collect();
        missing.sort();
        missing
    }

    /// Iterates over every stored block in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Block>> {
        self.blocks.iter().map(|stored| &stored.block)
    }

    /// Drains the equivocation proofs emitted since the last call.
    ///
    /// [`BlockStore::insert`] emits a proof the moment a second digest lands
    /// in a slot; callers (the evidence pool, the simulator's gossip)
    /// collect them here. Proofs reference pre-validated stored blocks, so
    /// they verify by construction against the store's committee.
    pub fn take_equivocation_evidence(&mut self) -> Vec<EquivocationProof> {
        std::mem::take(&mut self.fresh_evidence)
    }

    /// Number of emitted-but-uncollected equivocation proofs.
    pub fn pending_evidence_count(&self) -> usize {
        self.fresh_evidence.len()
    }

    /// Authorities with more than one stored block in some round — the
    /// equivocators visible in this store's current (possibly compacted)
    /// view. Maintained incrementally at admission (and rebuilt by
    /// [`BlockStore::compact`]), so this is an O(1) bitset copy.
    pub fn equivocators(&self) -> AuthoritySet {
        self.equivocators
    }

    pub(crate) fn index_of(&self, reference: &BlockRef) -> Option<BlockIdx> {
        self.by_ref.get(reference).copied()
    }

    pub(crate) fn stored(&self, index: BlockIdx) -> &StoredBlock {
        &self.blocks[index as usize]
    }

    /// Garbage collection: drops every block with `round < cutoff` and all
    /// state referring to them (indexes, pending blocks that can no longer
    /// complete, memo caches).
    ///
    /// Safe to call once the commit sequence has passed `cutoff` *and*
    /// linearization uses a GC floor ≥ `cutoff`
    /// ([`BlockStore::linearize_sub_dag_floored`]): decisions about slots at
    /// or above `cutoff` only read rounds ≥ `cutoff`, and floored
    /// linearization deterministically ignores older blocks, so pruned
    /// parent edges are never followed.
    ///
    /// Returns the number of blocks dropped.
    pub fn compact(&mut self, cutoff: Round) -> usize {
        if cutoff <= self.gc_cutoff {
            return 0;
        }
        self.gc_cutoff = cutoff;
        self.version += 1;
        let before = self.blocks.len();
        // Rebuild the interned block table keeping rounds ≥ cutoff (and
        // genesis-bootstrap blocks only if cutoff is 0, handled above).
        let old_blocks = std::mem::take(&mut self.blocks);
        let mut remap: HashMap<BlockIdx, BlockIdx> = HashMap::new();
        let mut kept: Vec<StoredBlock> = Vec::new();
        for (old_index, stored) in old_blocks.into_iter().enumerate() {
            if stored.block.round() >= cutoff {
                remap.insert(old_index as BlockIdx, kept.len() as BlockIdx);
                kept.push(stored);
            }
        }
        for stored in &mut kept {
            stored.parents = stored
                .parents
                .iter()
                .filter_map(|parent| remap.get(parent).copied())
                .collect();
        }
        self.blocks = kept;
        self.by_ref.retain(|reference, index| {
            if reference.round >= cutoff {
                *index = remap[index];
                true
            } else {
                false
            }
        });
        self.rounds.retain(|&round, _| round >= cutoff);
        self.equivocators.clear();
        for round_slots in self.rounds.values_mut() {
            for (author, indexes) in round_slots.slots.iter_mut().enumerate() {
                for index in indexes.iter_mut() {
                    *index = remap[index];
                }
                if indexes.len() > 1 {
                    self.equivocators.insert(AuthorityIndex::from(author));
                }
            }
        }
        // Pending blocks waiting on now-unreachable ancestry can never be
        // admitted; drop them and their waiter entries.
        self.pending
            .retain(|reference, _| reference.round >= cutoff);
        let pending_refs: std::collections::HashSet<BlockRef> =
            self.pending.keys().copied().collect();
        self.waiters.retain(|missing, dependents| {
            if missing.round < cutoff {
                return false;
            }
            dependents.retain(|dependent| pending_refs.contains(dependent));
            !dependents.is_empty()
        });
        // Memo caches are keyed by dense indexes: cleared wholesale (they
        // re-warm within a round).
        self.vote_cache.get_mut().clear();
        self.cert_cache.get_mut().clear();
        before - self.blocks.len()
    }

    /// Distinct authorities of round `round` satisfying `predicate` on at
    /// least one of their blocks (equivocation-tolerant counting used by the
    /// decision rules). Returned as an allocation-free bitset; cardinality
    /// checks against the quorum thresholds are popcounts.
    pub fn authorities_with<F>(&self, round: Round, predicate: F) -> AuthoritySet
    where
        F: Fn(&Arc<Block>) -> bool,
    {
        let mut authorities = AuthoritySet::new();
        let Some(round_slots) = self.rounds.get(&round) else {
            return authorities;
        };
        for (author, indexes) in round_slots.slots.iter().enumerate() {
            for &index in indexes {
                if predicate(&self.blocks[index as usize].block) {
                    authorities.insert(AuthorityIndex::from(author));
                    break;
                }
            }
        }
        authorities
    }
}

impl fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BlockStore({} blocks, {} pending, rounds 0..={})",
            self.blocks.len(),
            self.pending.len(),
            self.highest_round
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_types::{BlockBuilder, TestCommittee, Transaction};
    use std::collections::HashSet;

    fn setup() -> TestCommittee {
        TestCommittee::new(4, 11)
    }

    fn round_one_block(setup: &TestCommittee, author: u32) -> Arc<Block> {
        let genesis = Block::all_genesis(4);
        let mut parents = vec![genesis[author as usize].reference()];
        parents.extend(
            genesis
                .iter()
                .map(|b| b.reference())
                .filter(|r| r.author.0 != author),
        );
        BlockBuilder::new(AuthorityIndex(author), 1)
            .parents(parents)
            .build(setup)
            .into_arc()
    }

    #[test]
    fn new_store_contains_genesis() {
        let store = BlockStore::new(4, 3);
        assert_eq!(store.len(), 4);
        assert_eq!(store.blocks_at_round(0).len(), 4);
        assert_eq!(store.highest_round(), 0);
        assert!(!store.is_empty());
    }

    #[test]
    fn insert_complete_block() {
        let setup = setup();
        let mut store = BlockStore::new(4, 3);
        let block = round_one_block(&setup, 0);
        let result = store.insert(block.clone()).unwrap();
        assert_eq!(result, InsertResult::Inserted(vec![block.reference()]));
        assert!(store.contains(&block.reference()));
        assert_eq!(store.highest_round(), 1);
    }

    #[test]
    fn duplicate_insert_detected() {
        let setup = setup();
        let mut store = BlockStore::new(4, 3);
        let block = round_one_block(&setup, 0);
        store.insert(block.clone()).unwrap();
        assert_eq!(store.insert(block).unwrap(), InsertResult::Duplicate);
    }

    #[test]
    fn author_out_of_range_rejected() {
        let mut store = BlockStore::new(4, 3);
        let bogus = Block::genesis(AuthorityIndex(9)).into_arc();
        assert_eq!(
            store.insert(bogus),
            Err(StoreError::UnknownAuthority(AuthorityIndex(9)))
        );
    }

    #[test]
    fn pending_until_parents_arrive() {
        let setup = setup();
        let mut store = BlockStore::new(4, 3);
        let r1: Vec<Arc<Block>> = (0..4).map(|a| round_one_block(&setup, a)).collect();
        let r1_refs: Vec<BlockRef> = r1.iter().map(|b| b.reference()).collect();
        let mut parents = vec![r1_refs[0]];
        parents.extend(r1_refs[1..].iter().copied());
        let r2 = BlockBuilder::new(AuthorityIndex(0), 2)
            .parents(parents)
            .transaction(Transaction::benchmark(1))
            .build(&setup)
            .into_arc();

        // Insert the round-2 block first: all four round-1 parents missing.
        let result = store.insert(r2.clone()).unwrap();
        let InsertResult::Pending(missing) = result else {
            panic!("expected pending, got {result:?}");
        };
        assert_eq!(missing.len(), 4);
        assert_eq!(store.pending_count(), 1);
        assert_eq!(store.missing_parents().len(), 4);
        assert!(!store.contains(&r2.reference()));

        // Feed three parents: still pending.
        for block in &r1[..3] {
            store.insert(block.clone()).unwrap();
        }
        assert!(!store.contains(&r2.reference()));

        // The final parent releases the dependent block.
        let result = store.insert(r1[3].clone()).unwrap();
        let InsertResult::Inserted(admitted) = result else {
            panic!("expected inserted, got {result:?}");
        };
        assert_eq!(admitted, vec![r1_refs[3], r2.reference()]);
        assert!(store.contains(&r2.reference()));
        assert_eq!(store.pending_count(), 0);
        assert!(store.missing_parents().is_empty());
    }

    #[test]
    fn duplicate_pending_detected() {
        let setup = setup();
        let mut store = BlockStore::new(4, 3);
        let r1 = round_one_block(&setup, 0);
        let refs = vec![r1.reference()];
        let dependent = BlockBuilder::new(AuthorityIndex(0), 2)
            .parents(refs)
            .build(&setup)
            .into_arc();
        assert!(matches!(
            store.insert(dependent.clone()).unwrap(),
            InsertResult::Pending(_)
        ));
        assert_eq!(store.insert(dependent).unwrap(), InsertResult::Duplicate);
    }

    #[test]
    fn equivocations_share_a_slot() {
        let setup = setup();
        let mut store = BlockStore::new(4, 3);
        let genesis = Block::all_genesis(4);
        let mut parents = vec![genesis[1].reference()];
        parents.extend(
            genesis
                .iter()
                .map(|b| b.reference())
                .filter(|r| r.author.0 != 1),
        );
        let one = BlockBuilder::new(AuthorityIndex(1), 1)
            .parents(parents.clone())
            .transaction(Transaction::benchmark(1))
            .build(&setup)
            .into_arc();
        let two = BlockBuilder::new(AuthorityIndex(1), 1)
            .parents(parents)
            .transaction(Transaction::benchmark(2))
            .build(&setup)
            .into_arc();
        store.insert(one.clone()).unwrap();
        store.insert(two.clone()).unwrap();
        let slot = Slot::new(1, AuthorityIndex(1));
        let in_slot = store.blocks_in_slot(slot);
        assert_eq!(in_slot.len(), 2);
        assert_eq!(store.blocks_at_round(1).len(), 2);
        assert_eq!(
            store.authorities_at_round(1).iter().collect::<Vec<_>>(),
            vec![AuthorityIndex(1)]
        );

        // Detection at the source: the second digest emitted a proof naming
        // exactly the equivocator.
        assert_eq!(store.pending_evidence_count(), 1);
        assert_eq!(
            store.equivocators(),
            AuthoritySet::from_iter([AuthorityIndex(1)]),
            "live view agrees with the emitted evidence"
        );
        let evidence = store.take_equivocation_evidence();
        assert_eq!(evidence.len(), 1);
        let proof = &evidence[0];
        assert_eq!(proof.author(), AuthorityIndex(1));
        assert_eq!(proof.round(), 1);
        assert_eq!(proof.verify(setup.committee()), Ok(()));
        let cited: HashSet<BlockRef> = [proof.first().reference(), proof.second().reference()]
            .into_iter()
            .collect();
        assert_eq!(
            cited,
            HashSet::from([one.reference(), two.reference()]),
            "the proof cites the two conflicting blocks"
        );
        // Draining is one-shot.
        assert!(store.take_equivocation_evidence().is_empty());
    }

    #[test]
    fn third_fork_adds_no_second_proof() {
        let setup = setup();
        let mut store = BlockStore::new(4, 3);
        let genesis = Block::all_genesis(4);
        let mut parents = vec![genesis[2].reference()];
        parents.extend(
            genesis
                .iter()
                .map(|b| b.reference())
                .filter(|r| r.author.0 != 2),
        );
        for tag in 1..=3u64 {
            let fork = BlockBuilder::new(AuthorityIndex(2), 1)
                .parents(parents.clone())
                .transaction(Transaction::benchmark(tag))
                .build(&setup)
                .into_arc();
            store.insert(fork).unwrap();
        }
        assert_eq!(
            store.blocks_in_slot(Slot::new(1, AuthorityIndex(2))).len(),
            3
        );
        // One proof per slot: the 1 → 2 transition, not every pair.
        assert_eq!(store.take_equivocation_evidence().len(), 1);
    }

    #[test]
    fn honest_inserts_emit_no_evidence() {
        let setup = setup();
        let mut store = BlockStore::new(4, 3);
        for author in 0..4 {
            store.insert(round_one_block(&setup, author)).unwrap();
        }
        assert_eq!(store.pending_evidence_count(), 0);
        assert!(store.equivocators().is_empty());
        assert!(store.take_equivocation_evidence().is_empty());
    }

    #[test]
    fn evidence_survives_duplicate_and_pending_paths() {
        let setup = setup();
        let mut store = BlockStore::new(4, 3);
        let r1: Vec<Arc<Block>> = (0..4).map(|a| round_one_block(&setup, a)).collect();
        // A round-2 equivocation pair arrives *before* its parents: both
        // variants buffer as pending, then admit together once round 1
        // lands — the proof must still be emitted on admission.
        let r1_refs: Vec<BlockRef> = r1.iter().map(|b| b.reference()).collect();
        let mut parents = vec![r1_refs[0]];
        parents.extend(r1_refs[1..].iter().copied());
        let variant = |tag: u64| {
            BlockBuilder::new(AuthorityIndex(0), 2)
                .parents(parents.clone())
                .transaction(Transaction::benchmark(tag))
                .build(&setup)
                .into_arc()
        };
        let (a, b) = (variant(1), variant(2));
        assert!(matches!(
            store.insert(a.clone()).unwrap(),
            InsertResult::Pending(_)
        ));
        assert!(matches!(store.insert(b).unwrap(), InsertResult::Pending(_)));
        assert_eq!(store.pending_evidence_count(), 0, "nothing admitted yet");
        for block in &r1 {
            store.insert(block.clone()).unwrap();
        }
        assert_eq!(store.take_equivocation_evidence().len(), 1);
        // Re-inserting an already-stored variant is a duplicate, no proof.
        assert_eq!(store.insert(a).unwrap(), InsertResult::Duplicate);
        assert_eq!(store.pending_evidence_count(), 0);
    }

    #[test]
    fn authorities_with_predicate() {
        let setup = setup();
        let mut store = BlockStore::new(4, 3);
        for author in 0..3 {
            store.insert(round_one_block(&setup, author)).unwrap();
        }
        let with_round_one = store.authorities_with(1, |_| true);
        assert_eq!(with_round_one.len(), 3);
        let none = store.authorities_with(1, |_| false);
        assert!(none.is_empty());
    }

    #[test]
    fn compact_drops_old_rounds_and_rejects_stale_blocks() {
        let setup = setup();
        let mut store = BlockStore::new(4, 3);
        let r1: Vec<Arc<Block>> = (0..4).map(|a| round_one_block(&setup, a)).collect();
        for block in &r1 {
            store.insert(block.clone()).unwrap();
        }
        // Round 2 blocks on top.
        let r1_refs: Vec<BlockRef> = r1.iter().map(|b| b.reference()).collect();
        let mut r2 = Vec::new();
        for author in 0..4u32 {
            let mut parents = vec![r1_refs[author as usize]];
            parents.extend(r1_refs.iter().copied().filter(|r| r.author.0 != author));
            let block = BlockBuilder::new(AuthorityIndex(author), 2)
                .parents(parents)
                .build(&setup)
                .into_arc();
            store.insert(block.clone()).unwrap();
            r2.push(block);
        }
        assert_eq!(store.len(), 12);

        let dropped = store.compact(2);
        assert_eq!(dropped, 8); // genesis + round 1
        assert_eq!(store.gc_cutoff(), 2);
        assert!(store.blocks_at_round(0).is_empty());
        assert!(store.blocks_at_round(1).is_empty());
        assert_eq!(store.blocks_at_round(2).len(), 4);
        // Round-2 blocks remain addressable and traversable among
        // themselves.
        assert!(store.contains(&r2[0].reference()));
        assert!(store.is_link(&r2[0].reference(), &r2[0].reference()));

        // Re-inserting a pruned round-1 block is absorbed.
        assert_eq!(
            store.insert(r1[0].clone()).unwrap(),
            InsertResult::BelowGcFloor
        );
        // A new round-3 block referencing round-2 (present) plus pruned
        // round-1 parents is admitted with the stale edges dropped.
        let mut parents = vec![r2[0].reference()];
        parents.extend(r2[1..].iter().map(|b| b.reference()));
        parents.push(r1_refs[1]);
        let block = BlockBuilder::new(AuthorityIndex(0), 3)
            .parents(parents)
            .build(&setup)
            .into_arc();
        assert!(matches!(
            store.insert(block).unwrap(),
            InsertResult::Inserted(_)
        ));
        // Compacting to a lower (or equal) cutoff is a no-op.
        assert_eq!(store.compact(1), 0);
        assert_eq!(store.compact(2), 0);
    }

    #[test]
    fn missing_parents_is_sorted_and_deduplicated() {
        let setup = setup();
        let mut store = BlockStore::new(4, 3);
        let r1: Vec<Arc<Block>> = (0..4).map(|a| round_one_block(&setup, a)).collect();
        let r1_refs: Vec<BlockRef> = r1.iter().map(|b| b.reference()).collect();
        // Two round-2 blocks both waiting on the same four round-1 parents.
        for author in 0..2u32 {
            let mut parents = vec![r1_refs[author as usize]];
            parents.extend(r1_refs.iter().copied().filter(|r| r.author.0 != author));
            let block = BlockBuilder::new(AuthorityIndex(author), 2)
                .parents(parents)
                .build(&setup)
                .into_arc();
            store.insert(block).unwrap();
        }
        let missing = store.missing_parents();
        assert_eq!(missing.len(), 4);
        let mut sorted = missing.clone();
        sorted.sort();
        assert_eq!(missing, sorted);
    }
}
