//! Deterministic execution over the commit stream.
//!
//! Consensus stops at a total order of blocks; a validator must also
//! *execute* that order. [`ExecutionState`] is the contract between the
//! sequencer and any state machine: the engine feeds every
//! [`CommittedSubDag`] — in commit order, exactly once — to
//! [`ExecutionState::apply`], and because the commit sequence is identical
//! at every correct validator, so is the resulting state.
//!
//! # Determinism contract
//!
//! `apply` must be a pure function of the sub-DAG sequence: no clocks, no
//! randomness, no iteration over unordered containers while folding into
//! the root. Two validators that applied the same sequence of sub-DAGs
//! must return byte-identical [`snapshot`](ExecutionState::snapshot)s and
//! equal [`StateRoot`]s — the `state-root-agreement` oracle in
//! `mahimahi-scenarios` enforces exactly this across every matrix cell.
//!
//! # What the root commits to
//!
//! Nothing the commit path calls may cost O(state): the engine signs a
//! root every `checkpoint_interval` decisions and takes a snapshot only
//! when its log or a joining peer needs one. So the root is *not* a hash of
//! the snapshot bytes. The contract is instead:
//!
//! - the root is a function of the state's entries, maintained
//!   incrementally — [`state_root`](ExecutionState::state_root) costs
//!   O(what `apply` touched since the last call), which is why it takes
//!   `&mut self`: the pending marks are flushed when a root is asked for,
//!   once per cut, rather than on every `apply` (the upper tree levels
//!   would otherwise be rehashed for every commit between two cuts);
//! - a snapshot is *canonical*: one state has one encoding, and
//!   [`restore`](ExecutionState::restore) rejects every other byte string,
//!   so two snapshots never restore to one root;
//! - a snapshot is verified by rebuilding: `restore` returns a *new* state
//!   machine, the caller compares its root with the signed one, and only
//!   then replaces the live state.
//!
//! # The reference ledger's root
//!
//! [`BalanceLedger`] is the reference implementation: a toy
//! account-balance machine that credits block authors and transaction
//! accounts, and gives `SlashingHook` real balances to slash. Its root is
//! the root of a Merkle tree of fixed shape over account-key ranges:
//!
//! - **Leaves.** The `u64` key space is cut into 16,384 equal ranges by the
//!   top 14 bits of the account. A leaf is the BLAKE2b-256 hash of the
//!   range's `(account, balance)` pairs in strictly ascending account
//!   order, each as two little-endian `u64`s — exactly the bytes the
//!   snapshot holds for that range.
//! - **Interior.** Seven levels of fan-out four above them (4⁷ = 16,384).
//!   A node is the hash of its four children's hashes: 128 bytes, one
//!   BLAKE2b compression, which is what picks the fan-out — per level of
//!   the tree no fan-out hashes less.
//! - **Domain separation.** Leaves and nodes are hashed under different
//!   BLAKE2b personalization strings, so no leaf content can be passed off
//!   as a node or the reverse; the depth is fixed, so a hash is never
//!   interpreted at two levels.
//! - **Sparseness.** A subtree over no account has a hash that depends on
//!   its level alone. Those eight values are computed at construction; a
//!   node is allocated when a leaf under it first holds an account, so an
//!   empty ledger costs eight hashes and the tree's memory follows the
//!   non-empty leaves, up to the fixed 5,461 nodes (0.8 MB).
//!
//! `apply` sets one bit per touched leaf; `state_root` rehashes those
//! leaves and their ancestors, each once. The ledger stores its accounts
//! the way the tree reads them: one run per leaf, the range's
//! `(account, balance)` pairs in ascending order. Crediting, reading and
//! slashing an account binary-search one run, a touched leaf is hashed
//! from its run with no search, and a snapshot is the runs concatenated in
//! leaf order.
//!
//! **Why not a multiset hash.** Summing or XOR-ing one hash per entry would
//! make every update O(1), but such a root commits to nothing: the set of
//! reachable values is the linear span of the entry hashes, so given a few
//! hundred candidate entries an adversary solves a linear system (XOR) or a
//! generalized-birthday instance (modular sums) for a subset matching *any*
//! target root, and a state-syncing validator would restore the forgery.
//!
//! **Cost, honestly.** The leaf count is fixed, so a cut costs
//! O(touched × (accounts per leaf + depth)): with `N` accounts a touched
//! leaf copies its run of `N / 16,384` pairs into one buffer and hashes
//! it — one compression per eight pairs, nothing searched — and its path
//! at most seven nodes. The two terms meet at 56 accounts per
//! leaf, `N` ≈ 0.9 M; beyond that the cost per touched account rises
//! linearly in `N` (at 64 M accounts a leaf is 64 KB). The wall-clock
//! benchmark ends its episodes at ≤ 0.5 M accounts, below that point. A
//! ledger meant for more would grow the leaf count with the state; this
//! one does not, and picks 16,384 rather than four times as many because
//! the hashes of a populated tree are resident in every validator (0.8 MB
//! against 3 MB) while, up to the benchmark's sizes, either count hashes
//! about the same per cut. The constant matters too: a touched account
//! costs its leaf — two or three compressions at a few hundred thousand
//! accounts — plus most of a node, some 300 bytes hashed where a snapshot
//! holds 16, so a cut that touches more than a few percent of all
//! accounts hashes as much as hashing the snapshot would. What such a cut
//! still saves is everything else a snapshot costs: encoding it, copying
//! it, logging and syncing it.
//!
//! What is left of a cut is that hashing. Measured on one core of a
//! 2-vCPU 2.1 GHz Xeon VM, with 230k–340k accounts and a root every
//! ≈ 4,350 credits, a cut hashes 1.65 MB in 2.9–5.0 ms of CPU (4.2–7.1 ms
//! while the accounts lived in one `BTreeMap` and each touched leaf walked
//! a range of it) and `apply` costs 0.14–0.28 µs per transaction
//! (0.27–0.44). The runs' headers are a fixed 0.4 MB per ledger, and a
//! run's spare capacity takes the place of B-tree node slack: below ≈ 50k
//! accounts the ledger's heap is up to 0.3 MB larger than the map's was,
//! at 320k it is 10 % smaller. [`hashed_bytes`](BalanceLedger::hashed_bytes)
//! counts the bytes every cut hashes, which the engine's tests bound per
//! cut; the `ledger_root` property tests hold the root to the root rebuilt
//! from the snapshot, over runs of one account and of dozens; and a unit
//! test pins the values a fixed history yields.

use crate::sequencer::CommittedSubDag;
use mahimahi_crypto::blake2b::blake2b_256_personalized;
use mahimahi_crypto::Digest;
use mahimahi_types::codec::{CodecError, Decoder, Encoder};
use mahimahi_types::StateRoot;
use std::fmt;

/// A deterministic state machine driven by the commit stream.
///
/// Implementations are folded over every committed sub-DAG in commit
/// order (see the module docs for the determinism contract and for what
/// the root commits to). Every `checkpoint_interval` sequencing decisions
/// the engine signs [`state_root`](ExecutionState::state_root) into a
/// `Checkpoint`; it asks for a [`snapshot`](ExecutionState::snapshot) only
/// at the cuts whose state its log or a state-syncing peer needs, and a
/// validator installing such a cut goes through
/// [`restore`](ExecutionState::restore).
pub trait ExecutionState: Send {
    /// Applies one committed sub-DAG.
    ///
    /// Must be deterministic: equal prior state + equal sub-DAG ⇒ equal
    /// state (and so equal root) at every validator.
    fn apply(&mut self, sub_dag: &CommittedSubDag);

    /// The root of the current state, at a cost proportional to what
    /// `apply` changed since the previous call — never to the state.
    fn state_root(&mut self) -> StateRoot;

    /// The canonical byte encoding of the full state (for the log and for
    /// state-sync). Equal states produce identical bytes. O(state): never
    /// called on an ordinary cut.
    fn snapshot(&self) -> Vec<u8>;

    /// A state machine of this kind rebuilt from `snapshot`, leaving
    /// `self` as it was: the caller checks the rebuilt machine's root
    /// against the one a checkpoint signs before it replaces anything.
    ///
    /// # Errors
    ///
    /// Fails unless the bytes are the canonical encoding of some state.
    fn restore(&self, snapshot: &[u8]) -> Result<Box<dyn ExecutionState>, CodecError>;
}

/// Reward credited to a block's author for every block it lands in the
/// total order.
pub const BLOCK_REWARD: u64 = 1_000;

/// Children per interior node: four 32-byte hashes fill one 128-byte
/// BLAKE2b block.
const FANOUT: usize = 4;
/// Interior levels, the root being level 0; the leaves hang below level
/// `LEVELS - 1`.
const LEVELS: usize = 7;
/// Leaves: `FANOUT^LEVELS` key ranges.
const LEAVES: usize = 1 << (2 * LEVELS);
/// An account's leaf is its top `64 - LEAF_SHIFT` bits.
const LEAF_SHIFT: u32 = 64 - 2 * LEVELS as u32;
/// Bytes one `(account, balance)` pair takes in a snapshot and in a leaf.
const ENTRY_BYTES: usize = 16;

/// One leaf's `(account, balance)` pairs, accounts strictly ascending.
type Run = Vec<(u64, u64)>;

/// The leaf whose key range holds `account`.
fn leaf_of(account: u64) -> usize {
    (account >> LEAF_SHIFT) as usize
}

const LEAF_DOMAIN: &[u8; 16] = b"mahimahi-leaf-v1";
const NODE_DOMAIN: &[u8; 16] = b"mahimahi-node-v1";

/// The hash of an interior node: its children's hashes, one BLAKE2b block.
fn hash_node(children: &[Digest; FANOUT]) -> Digest {
    let mut block = [0u8; FANOUT * Digest::LENGTH];
    for (bytes, child) in block.chunks_exact_mut(Digest::LENGTH).zip(children) {
        bytes.copy_from_slice(child.as_bytes());
    }
    blake2b_256_personalized(NODE_DOMAIN, &block)
}

/// One allocated interior node: its children's hashes, and where the
/// children that are themselves allocated nodes live.
#[derive(Clone)]
struct Node {
    hashes: [Digest; FANOUT],
    /// Slots in [`RangeTree::nodes`]; 0 (the root, nobody's child) where
    /// the subtree holds no account yet. Unused at the lowest interior
    /// level, whose children are leaves.
    children: [u32; FANOUT],
}

/// The ledger's Merkle tree (shape and hashing in the module docs): the
/// allocated interior nodes, and which leaves changed since the root was
/// last computed. It holds no balances — a leaf is hashed from the
/// ledger's run for it.
#[derive(Clone)]
struct RangeTree {
    /// Allocated interior nodes, the root first.
    nodes: Vec<Node>,
    /// `empty[level]`: the hash a level-`level` node holds for a child
    /// with no account under it. The last one is the empty leaf.
    empty: [Digest; LEVELS],
    /// The root as of the last [`Self::refresh`].
    root: Digest,
    /// One bit per leaf touched since then.
    dirty: Vec<u64>,
    /// Where a leaf's pairs are laid out to be hashed (kept for its
    /// capacity).
    scratch: Vec<u8>,
    /// Bytes fed to the hash function by every `refresh` so far.
    hashed_bytes: u64,
}

impl RangeTree {
    fn new() -> Self {
        let mut tree = RangeTree {
            nodes: Vec::new(),
            empty: [Digest::ZERO; LEVELS],
            root: Digest::ZERO,
            dirty: vec![0; LEAVES / 64],
            scratch: Vec::new(),
            hashed_bytes: 0,
        };
        tree.empty[LEVELS - 1] = blake2b_256_personalized(LEAF_DOMAIN, &[]);
        for level in (0..LEVELS - 1).rev() {
            tree.empty[level] = hash_node(&[tree.empty[level + 1]; FANOUT]);
        }
        tree.allocate(0);
        tree.root = hash_node(&tree.nodes[0].hashes);
        tree
    }

    /// Adds a node of `level` over no account; returns its slot. The arena
    /// grows by a fixed step, not by doubling: spare capacity would be
    /// resident in every validator for as long as it runs.
    fn allocate(&mut self, level: usize) -> u32 {
        if self.nodes.len() == self.nodes.capacity() {
            self.nodes.reserve_exact(1024);
        }
        self.nodes.push(Node {
            hashes: [self.empty[level]; FANOUT],
            children: [0; FANOUT],
        });
        u32::try_from(self.nodes.len() - 1).expect("at most 5,461 nodes")
    }

    fn mark(&mut self, account: u64) {
        let leaf = leaf_of(account);
        self.dirty[leaf / 64] |= 1 << (leaf % 64);
    }

    fn hash_leaf(&mut self, run: &[(u64, u64)]) -> Digest {
        self.scratch.clear();
        for (account, balance) in run {
            self.scratch.extend_from_slice(&account.to_le_bytes());
            self.scratch.extend_from_slice(&balance.to_le_bytes());
        }
        self.hashed_bytes += self.scratch.len() as u64;
        blake2b_256_personalized(LEAF_DOMAIN, &self.scratch)
    }

    /// Rehashes the marked leaves and their ancestors; returns the root.
    fn refresh(&mut self, runs: &[Run]) -> Digest {
        let mut leaves = Vec::new();
        for (index, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                leaves.push((index * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        if !leaves.is_empty() {
            self.root = self.rehash(0, 0, &leaves, runs);
        }
        self.root
    }

    /// Rehashes the node in `slot` (of `level`) along the paths to
    /// `leaves` — ascending, all under it — and returns its hash.
    fn rehash(&mut self, slot: usize, level: usize, mut leaves: &[u32], runs: &[Run]) -> Digest {
        let child_of = |leaf: u32| (leaf >> (2 * (LEVELS - 1 - level))) as usize % FANOUT;
        while let Some(&first) = leaves.first() {
            let child = child_of(first);
            let (under_child, rest) =
                leaves.split_at(leaves.partition_point(|&leaf| child_of(leaf) == child));
            let hash = if level == LEVELS - 1 {
                self.hash_leaf(&runs[first as usize])
            } else {
                if self.nodes[slot].children[child] == 0 {
                    self.nodes[slot].children[child] = self.allocate(level + 1);
                }
                let below = self.nodes[slot].children[child] as usize;
                self.rehash(below, level + 1, under_child, runs)
            };
            self.nodes[slot].hashes[child] = hash;
            leaves = rest;
        }
        self.hashed_bytes += (FANOUT * Digest::LENGTH) as u64;
        hash_node(&self.nodes[slot].hashes)
    }
}

/// The reference [`ExecutionState`]: a deterministic account-balance
/// machine.
///
/// Accounts are opaque `u64` identifiers. Every committed block credits
/// its author's account (`u64` of the authority index) with
/// [`BLOCK_REWARD`]; every committed transaction credits the account
/// derived from its digest prefix with its payload length. Balances
/// saturate at `u64::MAX` — saturation is itself deterministic, so two
/// validators saturate identically.
///
/// Accounts are stored as the tree partitions them: one run of pairs per
/// leaf, so an account's balance is a binary search in one short run and a
/// leaf's hash reads one run. The snapshot is the account count followed
/// by the runs concatenated in leaf order — the `(account, balance)` pairs
/// in strictly ascending account order; the root is the Merkle root over
/// those pairs described in the module docs, kept up incrementally.
///
/// Slashing ([`BalanceLedger::slash`]) burns an account's whole balance
/// and is intended for *hooks and operators*, not the consensus path:
/// evidence arrival timing differs across validators, so folding slashes
/// into the consensus root would break state-root agreement.
#[derive(Clone)]
pub struct BalanceLedger {
    /// `runs[leaf]`: the accounts in that leaf's key range.
    runs: Vec<Run>,
    tree: RangeTree,
}

impl BalanceLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        BalanceLedger {
            runs: vec![Run::new(); LEAVES],
            tree: RangeTree::new(),
        }
    }

    /// The ledger a [`snapshot`](ExecutionState::snapshot) encodes.
    ///
    /// # Errors
    ///
    /// Fails unless `bytes` is the one encoding of some ledger: a count,
    /// then exactly that many pairs, accounts strictly ascending (so no
    /// account twice), and nothing after them.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut decoder = Decoder::new(bytes);
        let count = decoder.get_u64()?;
        // The count is checked against the bytes present before anything
        // is sized by it.
        let expected = usize::try_from(count)
            .ok()
            .and_then(|count| count.checked_mul(ENTRY_BYTES));
        if expected != Some(decoder.remaining()) {
            return Err(CodecError::InvalidValue("ledger snapshot length"));
        }
        let mut ledger = BalanceLedger::new();
        let mut last = None;
        for _ in 0..count {
            let account = decoder.get_u64()?;
            let balance = decoder.get_u64()?;
            if last.is_some_and(|last| last >= account) {
                return Err(CodecError::InvalidValue("ledger snapshot order"));
            }
            last = Some(account);
            // Ascending overall, so ascending within each run.
            ledger.runs[leaf_of(account)].push((account, balance));
            ledger.tree.mark(account);
        }
        decoder.finish()?;
        Ok(ledger)
    }

    /// Where `account` is in its run: `Ok` at its index, or `Err` where it
    /// would be inserted.
    fn find(&self, account: u64) -> (usize, Result<usize, usize>) {
        let leaf = leaf_of(account);
        let at = self.runs[leaf].binary_search_by_key(&account, |&(key, _)| key);
        (leaf, at)
    }

    /// The balance of `account` (zero if untouched).
    pub fn balance(&self, account: u64) -> u64 {
        match self.find(account) {
            (leaf, Ok(index)) => self.runs[leaf][index].1,
            (_, Err(_)) => 0,
        }
    }

    /// Number of accounts with recorded balances.
    pub fn accounts(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }

    /// Burns and returns the whole balance of `account`.
    ///
    /// Exposed for `SlashingHook` integrations; deliberately *not* wired
    /// into [`ExecutionState::apply`] (see the type docs).
    pub fn slash(&mut self, account: u64) -> u64 {
        self.tree.mark(account);
        match self.find(account) {
            (leaf, Ok(index)) => self.runs[leaf].remove(index).1,
            (_, Err(_)) => 0,
        }
    }

    /// Bytes every [`state_root`](ExecutionState::state_root) call so far
    /// fed to the hash function, together — the work the root costs, as a
    /// count that repeats exactly.
    pub fn hashed_bytes(&self) -> u64 {
        self.tree.hashed_bytes
    }

    fn credit(&mut self, account: u64, amount: u64) {
        match self.find(account) {
            (leaf, Ok(index)) => {
                let balance = &mut self.runs[leaf][index].1;
                *balance = balance.saturating_add(amount);
            }
            (leaf, Err(index)) => {
                let run = &mut self.runs[leaf];
                // Doubling from one pair rather than `Vec`'s four: while
                // the ledger is small most runs hold one or two.
                if run.len() == run.capacity() {
                    run.reserve_exact(run.len().max(1));
                }
                run.insert(index, (account, amount));
            }
        }
        self.tree.mark(account);
    }

    /// Every `(account, balance)` pair, accounts ascending.
    fn entries(&self) -> impl Iterator<Item = &(u64, u64)> {
        self.runs.iter().flatten()
    }
}

impl Default for BalanceLedger {
    fn default() -> Self {
        BalanceLedger::new()
    }
}

/// Ledgers are equal when their balances are: the tree is derived.
impl PartialEq for BalanceLedger {
    fn eq(&self, other: &Self) -> bool {
        self.runs == other.runs
    }
}

impl Eq for BalanceLedger {}

impl fmt::Debug for BalanceLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let balances = fmt::from_fn(|f| {
            f.debug_map()
                .entries(self.entries().map(|(account, balance)| (account, balance)))
                .finish()
        });
        f.debug_struct("BalanceLedger")
            .field("balances", &balances)
            .finish_non_exhaustive()
    }
}

impl ExecutionState for BalanceLedger {
    fn apply(&mut self, sub_dag: &CommittedSubDag) {
        for block in &sub_dag.blocks {
            self.credit(u64::from(block.author().0), BLOCK_REWARD);
            for transaction in block.transactions() {
                let amount = u64::try_from(transaction.len()).unwrap_or(u64::MAX);
                self.credit(transaction.digest().prefix_u64(), amount);
            }
        }
    }

    fn state_root(&mut self) -> StateRoot {
        StateRoot(self.tree.refresh(&self.runs))
    }

    fn snapshot(&self) -> Vec<u8> {
        let accounts = self.accounts();
        let mut encoder = Encoder::with_capacity(8 + accounts * ENTRY_BYTES);
        encoder.put_u64(u64::try_from(accounts).expect("account count fits u64"));
        for &(account, balance) in self.entries() {
            encoder.put_u64(account);
            encoder.put_u64(balance);
        }
        encoder.into_bytes()
    }

    fn restore(&self, snapshot: &[u8]) -> Result<Box<dyn ExecutionState>, CodecError> {
        Ok(Box::new(BalanceLedger::from_snapshot(snapshot)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_crypto::blake2b::{blake2b_256, Blake2b};
    use mahimahi_dag::DagBuilder;
    use mahimahi_types::{TestCommittee, Transaction};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn sample_sub_dag() -> CommittedSubDag {
        let setup = TestCommittee::new(4, 7);
        let mut dag = DagBuilder::new(setup);
        use mahimahi_dag::BlockSpec;
        dag.add_round(
            (0..4)
                .map(|author| {
                    BlockSpec::new(author)
                        .with_transactions(vec![Transaction::benchmark(author as u64)])
                })
                .collect(),
        );
        let blocks: Vec<Arc<_>> = dag
            .store()
            .iter()
            .filter(|b| b.round() == 1)
            .cloned()
            .collect();
        let leader = blocks.last().unwrap().reference();
        CommittedSubDag {
            position: 0,
            leader,
            blocks,
        }
    }

    /// The snapshot encoding of `entries`, in the order given.
    fn encode(entries: &[(u64, u64)]) -> Vec<u8> {
        let mut encoder = Encoder::new();
        encoder.put_u64(entries.len() as u64);
        for &(account, balance) in entries {
            encoder.put_u64(account);
            encoder.put_u64(balance);
        }
        encoder.into_bytes()
    }

    #[test]
    fn apply_credits_authors_and_transactions() {
        let sub_dag = sample_sub_dag();
        let mut ledger = BalanceLedger::new();
        ledger.apply(&sub_dag);
        for authority in 0..4u64 {
            assert_eq!(ledger.balance(authority), BLOCK_REWARD);
        }
        for block in &sub_dag.blocks {
            for transaction in block.transactions() {
                let account = transaction.digest().prefix_u64();
                assert_eq!(ledger.balance(account), transaction.len() as u64);
            }
        }
        assert_ne!(ledger.state_root(), BalanceLedger::new().state_root());
    }

    #[test]
    fn equal_sequences_give_equal_roots_and_snapshots() {
        let sub_dag = sample_sub_dag();
        let mut a = BalanceLedger::new();
        let mut b = BalanceLedger::new();
        a.apply(&sub_dag);
        b.apply(&sub_dag);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.state_root(), b.state_root());
    }

    #[test]
    fn root_is_the_tree_root_over_the_snapshots_entries() {
        // Rebuilt by hand for a ledger of two accounts in two leaves: the
        // first and the last key range.
        let entries = [(3, 30), (u64::MAX, 7)];
        let mut ledger = BalanceLedger::from_snapshot(&encode(&entries)).unwrap();
        let hash = |domain: &[u8; 16], parts: &[&[u8]]| {
            let mut hasher = Blake2b::new_personalized(32, domain);
            for part in parts {
                hasher.update(part);
            }
            Digest::from_slice(&hasher.finalize()).unwrap()
        };
        let leaf = |pairs: &[(u64, u64)]| {
            let words: Vec<[u8; 8]> = pairs
                .iter()
                .flat_map(|&(account, balance)| [account.to_le_bytes(), balance.to_le_bytes()])
                .collect();
            let parts: Vec<&[u8]> = words.iter().map(|word| &word[..]).collect();
            hash(LEAF_DOMAIN, &parts)
        };
        let node = |children: [Digest; FANOUT]| {
            let parts: Vec<&[u8]> = children.iter().map(|child| &child.as_bytes()[..]).collect();
            hash(NODE_DOMAIN, &parts)
        };
        // Up the two outermost paths; every sibling is an empty subtree.
        let (mut first, mut last, mut empty) =
            (leaf(&entries[..1]), leaf(&entries[1..]), leaf(&[]));
        for _ in 0..LEVELS - 1 {
            first = node([first, empty, empty, empty]);
            last = node([empty, empty, empty, last]);
            empty = node([empty; FANOUT]);
        }
        assert_eq!(
            ledger.state_root(),
            StateRoot(node([first, empty, empty, last]))
        );
        assert_eq!(
            BalanceLedger::new().state_root(),
            StateRoot(node([empty; FANOUT])),
            "the empty ledger's root is the empty tree's"
        );
        // A leaf's content under the node domain is another value: the two
        // can never be passed off as each other.
        let pair = [&3u64.to_le_bytes()[..], &30u64.to_le_bytes()[..]];
        assert_eq!(leaf(&entries[..1]), hash(LEAF_DOMAIN, &pair));
        assert_ne!(leaf(&entries[..1]), hash(NODE_DOMAIN, &pair));
    }

    #[test]
    fn an_empty_ledger_is_built_without_hashing_the_tree() {
        let ledger = BalanceLedger::new();
        assert_eq!(ledger.tree.nodes.len(), 1, "the root alone");
        // One account allocates one path, not the tree.
        let mut ledger = ledger;
        ledger.credit(u64::MAX / 3, 1);
        ledger.state_root();
        assert_eq!(ledger.tree.nodes.len(), LEVELS);
        assert_eq!(
            ledger.hashed_bytes(),
            (ENTRY_BYTES + LEVELS * FANOUT * Digest::LENGTH) as u64
        );
        // Nothing changed: asking again hashes nothing.
        ledger.state_root();
        assert_eq!(
            ledger.hashed_bytes(),
            (ENTRY_BYTES + LEVELS * FANOUT * Digest::LENGTH) as u64
        );
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut ledger = BalanceLedger::new();
        ledger.apply(&sample_sub_dag());
        let snapshot = ledger.snapshot();
        let mut restored = BalanceLedger::from_snapshot(&snapshot).unwrap();
        assert_eq!(restored, ledger);
        assert_eq!(restored.state_root(), ledger.state_root());
        assert_eq!(restored.snapshot(), snapshot);
        // Through the trait: a new machine, the old one untouched.
        let mut rebuilt = BalanceLedger::new().restore(&snapshot).unwrap();
        assert_eq!(rebuilt.state_root(), ledger.state_root());
        // Truncated and trailing-garbage snapshots are rejected.
        assert!(BalanceLedger::from_snapshot(&snapshot[..snapshot.len() - 1]).is_err());
        let mut padded = snapshot.clone();
        padded.push(0);
        assert!(BalanceLedger::from_snapshot(&padded).is_err());

        // Only the canonical encoding restores: one byte string per state.
        let canonical = [(1, 10), (2, 20), (1 << 60, 30)];
        let ledger = BalanceLedger::from_snapshot(&encode(&canonical)).unwrap();
        assert_eq!(
            format!("{ledger:?}"),
            "BalanceLedger { balances: {1: 10, 2: 20, 1152921504606846976: 30}, .. }",
            "one ascending map, whatever the storage"
        );
        let swapped = [(2, 20), (1, 10), (1 << 60, 30)];
        assert!(BalanceLedger::from_snapshot(&encode(&swapped)).is_err());
        let duplicated = [(1, 10), (1, 11), (1 << 60, 30)];
        assert!(BalanceLedger::from_snapshot(&encode(&duplicated)).is_err());
        // A count the bytes cannot hold is refused before it sizes
        // anything: too large, too small, and overflowing.
        for count in [4u64, 2, u64::MAX, u64::MAX / 16 + 1] {
            let mut miscounted = encode(&canonical);
            miscounted[..8].copy_from_slice(&count.to_le_bytes());
            assert!(
                BalanceLedger::from_snapshot(&miscounted).is_err(),
                "{count}"
            );
        }
        assert!(BalanceLedger::from_snapshot(&[]).is_err());
    }

    #[test]
    fn slash_burns_the_whole_balance() {
        let mut ledger = BalanceLedger::new();
        ledger.apply(&sample_sub_dag());
        let before = ledger.state_root();
        assert_eq!(ledger.slash(2), BLOCK_REWARD);
        assert_eq!(ledger.balance(2), 0);
        assert_eq!(ledger.slash(2), 0, "already burned");
        assert_ne!(ledger.state_root(), before, "slashing changes the root");
    }

    /// Roots are what validators of different builds co-sign, so a changed
    /// root or snapshot byte is a flag day. The constants were captured
    /// from the ledger that kept its accounts in one `BTreeMap`; storage
    /// may change, these values may not.
    #[test]
    fn a_fixed_history_has_a_pinned_root_and_snapshot() {
        // Packed runs at both ends of the key space, on both sides of the
        // first leaf boundary (2⁵⁰), then the sample's authors 0–3 (the
        // front and middle of leaf 0) and transactions.
        let start = [
            (0, 5),
            (2, 9),
            (4, 1),
            ((1 << 50) - 1, 2),
            (1 << 50, 3),
            (u64::MAX - 1, 4),
            (u64::MAX, u64::MAX - 1),
        ];
        let sub_dag = sample_sub_dag();
        let mut ledger = BalanceLedger::from_snapshot(&encode(&start)).unwrap();
        ledger.apply(&sub_dag);
        let applied = ledger.state_root();
        assert_eq!(ledger.slash(4), 1);
        assert_eq!(ledger.slash(1 << 50), 3);
        ledger.apply(&sub_dag);
        ledger = BalanceLedger::from_snapshot(&ledger.snapshot()).unwrap();
        ledger.apply(&sub_dag);
        let root = ledger.state_root();
        let snapshot = ledger.snapshot();
        assert_eq!(
            applied.0.to_string(),
            "d23adda1779e8d2ee437c66b91a1501216959562e2703bc64ebe7a5ce951f8d6"
        );
        assert_eq!(
            root.0.to_string(),
            "ce34aaeabbc7633d2cbebfba6a694de3d7cbd30ce44292d2716d8d0f5e712e25"
        );
        assert_eq!(
            blake2b_256(&snapshot).to_string(),
            "801af4694ebef5d3af07d6dd739b2debf726e4cc5c1f74432962e1317acfbe9e"
        );
        assert_eq!(snapshot.len(), 8 + 11 * ENTRY_BYTES);
        assert_eq!(ledger.hashed_bytes(), 4400);
    }

    #[test]
    fn distinct_blocks_fold_into_distinct_roots() {
        // Sanity: different committed content ⇒ different roots (no
        // accidental account collisions in the sample).
        let sub_dag = sample_sub_dag();
        let accounts: HashSet<u64> = sub_dag
            .blocks
            .iter()
            .flat_map(|b| b.transactions())
            .map(|tx| tx.digest().prefix_u64())
            .collect();
        assert_eq!(accounts.len(), 4);
    }
}
