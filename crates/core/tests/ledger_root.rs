//! Property tests of the reference ledger's incremental Merkle root.
//!
//! The root `BalanceLedger` keeps up across `apply`, `slash` and restores
//! must be the root of the tree over its entries — whatever was marked,
//! flushed or rebuilt along the way — and must tell any two states apart.

use mahimahi_core::{BalanceLedger, CommittedSubDag, ExecutionState};
use mahimahi_dag::{BlockSpec, DagBuilder};
use mahimahi_types::{Block, TestCommittee, Transaction};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// A pool of signed blocks, sixteen transactions each, built once.
fn block_pool() -> &'static [Arc<Block>] {
    static POOL: OnceLock<Vec<Arc<Block>>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut dag = DagBuilder::new(TestCommittee::new(4, 21));
        for round in 0..8u64 {
            let specs = (0..4u32)
                .map(|author| {
                    let first = (round * 4 + u64::from(author)) * 16;
                    let transactions = (first..first + 16).map(Transaction::benchmark).collect();
                    BlockSpec::new(author).with_transactions(transactions)
                })
                .collect();
            dag.add_round(specs);
        }
        dag.store()
            .iter()
            .filter(|block| block.round() > 0)
            .cloned()
            .collect()
    })
}

/// One step of a ledger's life.
#[derive(Debug, Clone)]
enum Step {
    /// Apply the pool's blocks at these indices as one sub-DAG.
    Apply(Vec<usize>),
    /// Slash the account of the pool's `n`-th transaction (or an authority).
    Slash(usize),
    /// Replace the ledger by the one rebuilt from its own snapshot.
    Restore,
    /// Ask for the root mid-way: flushes the marks.
    Root,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => proptest::collection::vec(0usize..32, 1..6).prop_map(Step::Apply),
        2 => (0usize..600).prop_map(Step::Slash),
        1 => Just(Step::Restore),
        2 => Just(Step::Root),
    ]
}

/// The account the ledger credits for the pool's `n`-th transaction; past
/// the transactions, an authority's.
fn account(n: usize) -> u64 {
    let transactions: Vec<&Transaction> = block_pool()
        .iter()
        .flat_map(|block| block.transactions())
        .collect();
    match transactions.get(n) {
        Some(transaction) => transaction.digest().prefix_u64(),
        None => (n % 4) as u64,
    }
}

/// The snapshot encoding of `entries`.
fn encode(entries: &[(u64, u64)]) -> Vec<u8> {
    let mut bytes = (entries.len() as u64).to_le_bytes().to_vec();
    for (account, balance) in entries {
        bytes.extend_from_slice(&account.to_le_bytes());
        bytes.extend_from_slice(&balance.to_le_bytes());
    }
    bytes
}

fn decode(snapshot: &[u8]) -> Vec<(u64, u64)> {
    snapshot[8..]
        .chunks(16)
        .map(|pair| {
            (
                u64::from_le_bytes(pair[..8].try_into().unwrap()),
                u64::from_le_bytes(pair[8..].try_into().unwrap()),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// After any sequence of applies, slashes, restores and intermediate
    /// root reads, the incrementally kept root is the root of a fresh
    /// ledger rebuilt from the snapshot — and changing one balance, adding
    /// one account or removing one changes it.
    #[test]
    fn incremental_root_equals_the_root_rebuilt_from_the_snapshot(
        steps in proptest::collection::vec(step(), 1..24),
        pick in any::<u64>(),
    ) {
        let pool = block_pool();
        let mut ledger = BalanceLedger::new();
        for (position, step) in steps.into_iter().enumerate() {
            match step {
                Step::Apply(indices) => {
                    let blocks: Vec<Arc<Block>> =
                        indices.iter().map(|&index| pool[index].clone()).collect();
                    ledger.apply(&CommittedSubDag {
                        position: position as u64,
                        leader: blocks[0].reference(),
                        blocks,
                    });
                }
                Step::Slash(n) => {
                    ledger.slash(account(n));
                }
                Step::Restore => {
                    ledger = BalanceLedger::from_snapshot(&ledger.snapshot())
                        .map_err(|error| TestCaseError::fail(error.to_string()))?;
                }
                Step::Root => {
                    ledger.state_root();
                }
            }
        }
        let snapshot = ledger.snapshot();
        let root = ledger.state_root();
        let rebuilt = |bytes: &[u8]| {
            BalanceLedger::from_snapshot(bytes)
                .expect("canonical by construction")
                .state_root()
        };
        prop_assert_eq!(root, rebuilt(&snapshot));
        prop_assert_eq!(ledger.state_root(), root);

        let entries = decode(&snapshot);
        // One more account, anywhere in the key space.
        let mut added = entries.clone();
        let mut fresh = pick;
        while added.iter().any(|&(account, _)| account == fresh) {
            fresh = fresh.wrapping_add(1);
        }
        added.push((fresh, 1));
        added.sort_unstable();
        prop_assert_ne!(rebuilt(&encode(&added)), root);
        if !entries.is_empty() {
            let at = (pick % entries.len() as u64) as usize;
            // One balance changed.
            let mut changed = entries.clone();
            changed[at].1 ^= 1;
            prop_assert_ne!(rebuilt(&encode(&changed)), root);
            // One account moved to a key nobody holds.
            let mut moved = entries.clone();
            moved[at].0 = fresh;
            moved.sort_unstable();
            prop_assert_ne!(rebuilt(&encode(&moved)), root);
            // One account removed.
            let mut removed = entries;
            removed.remove(at);
            prop_assert_ne!(rebuilt(&encode(&removed)), root);
        }
    }
}
