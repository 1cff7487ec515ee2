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
//! therefore equal [`StateRoot`]s — the `state-root-agreement` oracle in
//! `mahimahi-scenarios` enforces exactly this across every matrix cell.
//!
//! The root must commit to the snapshot: `state_root() ==
//! H(snapshot())`. State-sync relies on it — a joining validator verifies
//! a quorum-certified root, then checks the snapshot it downloaded hashes
//! to that root before restoring.
//!
//! [`BalanceLedger`] is the reference implementation: a toy
//! account-balance machine that credits block authors and transaction
//! accounts, and gives `SlashingHook` real balances to slash.

use crate::sequencer::CommittedSubDag;
use mahimahi_crypto::blake2b::blake2b_256;
use mahimahi_types::codec::{CodecError, Decoder, Encoder};
use mahimahi_types::StateRoot;
use std::collections::BTreeMap;

/// A deterministic state machine driven by the commit stream.
///
/// Implementations are folded over every committed sub-DAG in commit
/// order (see the module docs for the determinism contract). The engine
/// checkpoints the machine every `checkpoint_interval` sequencing
/// decisions by hashing [`snapshot`](ExecutionState::snapshot) into a
/// signed `Checkpoint`; a state-syncing validator calls
/// [`restore`](ExecutionState::restore) with a snapshot whose hash
/// matches a quorum-certified root.
pub trait ExecutionState: Send {
    /// Applies one committed sub-DAG.
    ///
    /// Must be deterministic: equal prior state + equal sub-DAG ⇒ equal
    /// state (and so equal root) at every validator.
    fn apply(&mut self, sub_dag: &CommittedSubDag);

    /// The current state root, computed on demand — nothing on the commit
    /// path asks for it. Must equal `H(self.snapshot())`.
    fn state_root(&self) -> StateRoot;

    /// Canonical byte encoding of the full state (for checkpoints and
    /// state-sync). Equal states must produce identical bytes.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the state with a previously captured snapshot.
    ///
    /// # Errors
    ///
    /// Fails (leaving the state unspecified but internally consistent) if
    /// the bytes are not a valid snapshot encoding.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError>;
}

/// Reward credited to a block's author for every block it lands in the
/// total order.
pub const BLOCK_REWARD: u64 = 1_000;

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
/// The root is the BLAKE2b-256 hash of the canonical snapshot encoding
/// (account/balance pairs in ascending account order), so
/// `state_root() == H(snapshot())` as the trait requires.
///
/// Slashing ([`BalanceLedger::slash`]) burns an account's whole balance
/// and is intended for *hooks and operators*, not the consensus path:
/// evidence arrival timing differs across validators, so folding slashes
/// into the consensus root would break state-root agreement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BalanceLedger {
    balances: BTreeMap<u64, u64>,
}

impl BalanceLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        BalanceLedger::default()
    }

    /// The balance of `account` (zero if untouched).
    pub fn balance(&self, account: u64) -> u64 {
        self.balances.get(&account).copied().unwrap_or(0)
    }

    /// Number of accounts with recorded balances.
    pub fn accounts(&self) -> usize {
        self.balances.len()
    }

    /// Burns and returns the whole balance of `account`.
    ///
    /// Exposed for `SlashingHook` integrations; deliberately *not* wired
    /// into [`ExecutionState::apply`] (see the type docs).
    pub fn slash(&mut self, account: u64) -> u64 {
        self.balances.remove(&account).unwrap_or(0)
    }

    fn credit(&mut self, account: u64, amount: u64) {
        let balance = self.balances.entry(account).or_insert(0);
        *balance = balance.saturating_add(amount);
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

    fn state_root(&self) -> StateRoot {
        StateRoot(blake2b_256(&self.snapshot()))
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut encoder = Encoder::new();
        let accounts = u64::try_from(self.balances.len()).expect("account count fits u64");
        encoder.put_u64(accounts);
        for (account, balance) in &self.balances {
            encoder.put_u64(*account);
            encoder.put_u64(*balance);
        }
        encoder.into_bytes()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut decoder = Decoder::new(bytes);
        let count = decoder.get_u64()?;
        let mut balances = BTreeMap::new();
        for _ in 0..count {
            let account = decoder.get_u64()?;
            let balance = decoder.get_u64()?;
            balances.insert(account, balance);
        }
        decoder.finish()?;
        self.balances = balances;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn root_commits_to_snapshot() {
        let mut ledger = BalanceLedger::new();
        ledger.apply(&sample_sub_dag());
        assert_eq!(
            ledger.state_root(),
            StateRoot(blake2b_256(&ledger.snapshot()))
        );
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut ledger = BalanceLedger::new();
        ledger.apply(&sample_sub_dag());
        let snapshot = ledger.snapshot();
        let mut restored = BalanceLedger::new();
        restored.restore(&snapshot).unwrap();
        assert_eq!(restored, ledger);
        assert_eq!(restored.state_root(), ledger.state_root());
        // Truncated and trailing-garbage snapshots are rejected.
        assert!(restored.restore(&snapshot[..snapshot.len() - 1]).is_err());
        let mut padded = snapshot.clone();
        padded.push(0);
        assert!(restored.restore(&padded).is_err());
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
