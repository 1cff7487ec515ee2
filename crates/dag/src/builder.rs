//! Test and simulation utility for constructing DAGs with precise control.
//!
//! Committer tests need DAGs with specific shapes: crashed authors, blocks
//! that omit particular references, equivocations referenced by chosen
//! subsets of the next round (as in Figure 2 of the paper). [`DagBuilder`]
//! produces *valid, signed* blocks — everything it builds passes
//! [`Block::verify`] — so the committers under test see exactly what a real
//! validator would.

use mahimahi_types::{
    AuthorityIndex, Block, BlockBuilder, BlockRef, Round, TestCommittee, Transaction,
};
use std::collections::HashMap;
use std::sync::Arc;

use crate::store::BlockStore;

/// How a [`BlockSpec`] chooses its parents.
#[derive(Debug, Clone)]
enum Parents {
    /// Reference every block of the previous round (all equivocations).
    FullPrevious,
    /// Reference the previous-round blocks of these authors (first
    /// equivocation only). Must include the spec's own author.
    Authors(Vec<u32>),
    /// Exact ordered references; the builder moves the author's own
    /// previous-round block to the front if it is not already first.
    Explicit(Vec<BlockRef>),
}

/// Specification of one block for [`DagBuilder::add_round`].
#[derive(Debug, Clone)]
pub struct BlockSpec {
    author: u32,
    parents: Parents,
    transactions: Vec<Transaction>,
    tag: u64,
}

impl BlockSpec {
    /// A block by `author` referencing the full previous round.
    pub fn new(author: u32) -> Self {
        BlockSpec {
            author,
            parents: Parents::FullPrevious,
            transactions: Vec::new(),
            tag: 0,
        }
    }

    /// Restricts parents to the previous-round blocks of `authors`.
    ///
    /// The block's own previous block is always referenced first, whether or
    /// not the author appears in the list.
    pub fn with_parent_authors(mut self, authors: Vec<u32>) -> Self {
        self.parents = Parents::Authors(authors);
        self
    }

    /// Uses exact parent references (for targeting specific equivocations).
    ///
    /// If the first reference is the author's own previous-round block, the
    /// list is used verbatim — this is how an equivocating author extends a
    /// chosen equivocation. Otherwise the author's recorded tip is moved to
    /// the front.
    pub fn with_explicit_parents(mut self, parents: Vec<BlockRef>) -> Self {
        self.parents = Parents::Explicit(parents);
        self
    }

    /// Adds transactions to the block.
    pub fn with_transactions(mut self, transactions: Vec<Transaction>) -> Self {
        self.transactions = transactions;
        self
    }

    /// Sets a tag that perturbs the block content, producing distinct
    /// digests for equivocating blocks of the same author and round.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

/// Builds global DAGs round by round for tests and analysis.
///
/// The builder maintains one shared [`BlockStore`] representing an
/// omniscient observer's view; simulations with per-validator views live in
/// `mahimahi-sim` instead.
pub struct DagBuilder {
    setup: TestCommittee,
    store: BlockStore,
    /// Each author's latest block reference (their chain tip).
    tips: Vec<BlockRef>,
    round: Round,
}

impl DagBuilder {
    /// Creates a builder over a provisioned committee, seeded at round 0.
    pub fn new(setup: TestCommittee) -> Self {
        let committee = setup.committee();
        let store = BlockStore::new(committee.size(), committee.quorum_threshold());
        let tips = Block::all_genesis(committee.size())
            .iter()
            .map(Block::reference)
            .collect();
        DagBuilder {
            setup,
            store,
            tips,
            round: 0,
        }
    }

    /// The committee setup backing this builder.
    pub fn setup(&self) -> &TestCommittee {
        &self.setup
    }

    /// The last completed round.
    pub fn current_round(&self) -> Round {
        self.round
    }

    /// The latest block reference of `author`.
    pub fn tip(&self, author: u32) -> BlockRef {
        self.tips[author as usize]
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Mutable access to the underlying store (garbage-collection tests).
    pub fn store_mut(&mut self) -> &mut BlockStore {
        &mut self.store
    }

    /// Adds a round in which every authority references every block of the
    /// previous round. Returns the new references in author order.
    pub fn add_full_round(&mut self) -> Vec<BlockRef> {
        let specs = (0..self.setup.committee().size() as u32)
            .map(BlockSpec::new)
            .collect();
        self.add_round(specs)
    }

    /// Adds `count` consecutive full rounds.
    pub fn add_full_rounds(&mut self, count: usize) -> Vec<Vec<BlockRef>> {
        (0..count).map(|_| self.add_full_round()).collect()
    }

    /// Adds a round where only `producers` make blocks, each referencing the
    /// full previous round. Models benign crashes of the other authorities.
    pub fn add_round_producers(&mut self, producers: &[u32]) -> Vec<BlockRef> {
        let specs = producers
            .iter()
            .map(|&author| BlockSpec::new(author))
            .collect();
        self.add_round(specs)
    }

    /// Adds `count` consecutive rounds produced only by `producers`.
    pub fn add_full_rounds_producers(
        &mut self,
        producers: &[u32],
        count: usize,
    ) -> Vec<Vec<BlockRef>> {
        (0..count)
            .map(|_| self.add_round_producers(producers))
            .collect()
    }

    /// Adds a round of explicitly specified blocks. Returns references in
    /// spec order.
    ///
    /// # Panics
    ///
    /// Panics if a produced block fails validation (a bug in the spec, e.g.
    /// referencing fewer than `2f + 1` previous-round authors) or if a spec
    /// author produced no block in the previous round (it cannot extend its
    /// chain).
    pub fn add_round(&mut self, specs: Vec<BlockSpec>) -> Vec<BlockRef> {
        let round = self.round + 1;
        let mut new_refs = Vec::with_capacity(specs.len());
        let mut new_tips: HashMap<u32, BlockRef> = HashMap::new();
        for spec in specs {
            let block = self.make_block(round, &spec);
            let reference = block.reference();
            self.store
                .insert(block)
                .expect("builder blocks have in-range authors");
            // First block per author becomes the tip (equivocations keep the
            // first so later rounds deterministically extend one chain).
            new_tips.entry(spec.author).or_insert(reference);
            new_refs.push(reference);
        }
        for (author, reference) in new_tips {
            self.tips[author as usize] = reference;
        }
        self.round = round;
        new_refs
    }

    /// Constructs (signs, validates) a block for `round` per `spec` without
    /// inserting it. Exposed for simulations that manage their own stores.
    fn make_block(&self, round: Round, spec: &BlockSpec) -> Arc<Block> {
        let author = AuthorityIndex(spec.author);
        // An explicit list whose head is already an own previous-round block
        // selects that block as the chain to extend (equivocation control).
        if let Parents::Explicit(explicit) = &spec.parents {
            if let Some(first) = explicit.first() {
                if first.author == author && first.round == round - 1 {
                    return self.sign_spec(round, spec, explicit.clone());
                }
            }
        }
        let own_tip = self.tips[spec.author as usize];
        assert_eq!(
            own_tip.round,
            round - 1,
            "author v{} has no block at round {} to extend",
            spec.author,
            round - 1
        );
        let mut parents = vec![own_tip];
        match &spec.parents {
            Parents::FullPrevious => {
                for block in self.store.blocks_at_round(round - 1) {
                    let reference = block.reference();
                    if reference != own_tip {
                        parents.push(reference);
                    }
                }
            }
            Parents::Authors(authors) => {
                for &parent_author in authors {
                    if parent_author == spec.author {
                        continue;
                    }
                    let slot_blocks = self.store.blocks_in_slot(mahimahi_types::Slot::new(
                        round - 1,
                        AuthorityIndex(parent_author),
                    ));
                    let first = slot_blocks.first().unwrap_or_else(|| {
                        panic!("no block by v{parent_author} at round {}", round - 1)
                    });
                    parents.push(first.reference());
                }
            }
            Parents::Explicit(explicit) => {
                for reference in explicit {
                    if *reference != own_tip {
                        parents.push(*reference);
                    }
                }
            }
        }
        self.sign_spec(round, spec, parents)
    }

    fn sign_spec(&self, round: Round, spec: &BlockSpec, parents: Vec<BlockRef>) -> Arc<Block> {
        // Order-preserving dedup: specs may list a reference twice (e.g. an
        // explicit list that repeats the author's own previous block).
        let mut seen = std::collections::HashSet::with_capacity(parents.len());
        let parents: Vec<BlockRef> = parents
            .into_iter()
            .filter(|reference| seen.insert(*reference))
            .collect();
        let mut builder = BlockBuilder::new(AuthorityIndex(spec.author), round)
            .parents(parents)
            .transactions(spec.transactions.iter().cloned());
        if spec.tag != 0 {
            builder = builder.transaction(Transaction::new(spec.tag.to_le_bytes().to_vec()));
        }
        let block = builder.build(&self.setup);
        debug_assert_eq!(
            block.verify(self.setup.committee()),
            Ok(()),
            "DagBuilder produced an invalid block"
        );
        block.into_arc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> DagBuilder {
        DagBuilder::new(TestCommittee::new(4, 9))
    }

    #[test]
    fn full_rounds_grow_the_dag() {
        let mut dag = builder();
        dag.add_full_rounds(3);
        assert_eq!(dag.current_round(), 3);
        assert_eq!(dag.store().len(), 4 + 12);
        for round in 1..=3 {
            assert_eq!(dag.store().blocks_at_round(round).len(), 4);
        }
    }

    #[test]
    fn produced_blocks_are_valid() {
        let mut dag = builder();
        let refs = dag.add_full_round();
        let committee = dag.setup().committee().clone();
        for reference in refs {
            let block = dag.store().get(&reference).unwrap();
            assert_eq!(block.verify(&committee), Ok(()));
        }
    }

    #[test]
    fn partial_round_producers() {
        let mut dag = builder();
        dag.add_full_round();
        let refs = dag.add_round_producers(&[0, 1, 2]);
        assert_eq!(refs.len(), 3);
        assert_eq!(dag.store().blocks_at_round(2).len(), 3);
        assert_eq!(
            dag.store()
                .authorities_at_round(2)
                .iter()
                .collect::<Vec<_>>(),
            vec![AuthorityIndex(0), AuthorityIndex(1), AuthorityIndex(2)]
        );
    }

    #[test]
    fn equivocations_via_tags() {
        let mut dag = builder();
        dag.add_full_round();
        let refs = dag.add_round(vec![
            BlockSpec::new(0),
            BlockSpec::new(1).with_tag(1),
            BlockSpec::new(1).with_tag(2),
            BlockSpec::new(2),
            BlockSpec::new(3),
        ]);
        assert_eq!(refs.len(), 5);
        assert_ne!(refs[1].digest, refs[2].digest);
        assert_eq!(
            dag.store()
                .blocks_in_slot(mahimahi_types::Slot::new(2, AuthorityIndex(1)))
                .len(),
            2
        );
    }

    #[test]
    fn tips_track_first_equivocation() {
        let mut dag = builder();
        dag.add_full_round();
        let refs = dag.add_round(vec![
            BlockSpec::new(0),
            BlockSpec::new(1).with_tag(1),
            BlockSpec::new(1).with_tag(2),
            BlockSpec::new(2),
            BlockSpec::new(3),
        ]);
        assert_eq!(dag.tip(1), refs[1]);
    }

    #[test]
    #[should_panic(expected = "no block at round")]
    fn extending_a_crashed_author_panics() {
        let mut dag = builder();
        dag.add_full_round();
        dag.add_round_producers(&[0, 1, 2]); // author 3 crashed
                                             // Author 3 cannot produce at round 3: no own block at round 2.
        dag.add_round(vec![BlockSpec::new(3)]);
    }

    #[test]
    fn parent_authors_implicitly_include_self() {
        let mut dag = builder();
        let r1 = dag.add_full_round();
        let refs = dag.add_round(vec![BlockSpec::new(0).with_parent_authors(vec![1, 2, 3])]);
        let block = dag.store().get(&refs[0]).unwrap();
        assert_eq!(block.parents().next(), Some(r1[0]));
        assert_eq!(block.parents().len(), 4);
    }

    #[test]
    fn explicit_parents_reorder_own_first() {
        let mut dag = builder();
        let r1 = dag.add_full_round();
        // Give parents with own block NOT first; builder must fix the order.
        let refs = dag.add_round(vec![
            BlockSpec::new(2).with_explicit_parents(vec![r1[0], r1[1], r1[2], r1[3]])
        ]);
        let block = dag.store().get(&refs[0]).unwrap();
        assert_eq!(block.parents().next(), Some(r1[2]));
        assert_eq!(block.parents().len(), 4);
    }

    #[test]
    fn transactions_are_carried() {
        let mut dag = builder();
        let refs = dag.add_round(vec![BlockSpec::new(0)
            .with_transactions(vec![Transaction::benchmark(7), Transaction::benchmark(8)])]);
        // Round 1 needs a quorum; spec defaults to full previous round, so
        // this single-producer round is still valid.
        let block = dag.store().get(&refs[0]).unwrap();
        assert_eq!(block.transactions().len(), 2);
    }
}
