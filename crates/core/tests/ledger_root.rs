//! Property tests of the reference ledger's incremental Merkle root.
//!
//! The root `BalanceLedger` keeps up across `apply`, `slash` and restores
//! must be the root of the tree over its entries — whatever was marked,
//! flushed or rebuilt along the way — and must tell any two states apart;
//! and the ledger must hold exactly the balances a plain ordered map would.

use mahimahi_core::{BalanceLedger, CommittedSubDag, ExecutionState, BLOCK_REWARD};
use mahimahi_dag::{BlockSpec, DagBuilder};
use mahimahi_types::{Block, TestCommittee, Transaction};
use proptest::prelude::*;
use std::collections::BTreeMap;
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

/// The first account of the second of the tree's 16,384 key ranges.
const SECOND_LEAF: u64 = 1 << 50;

/// A ledger to start from, packed into the first and the last key range:
/// their outermost accounts, the accounts on both sides of the first
/// boundary, and `first` / `last` more (each value is an account and its
/// balance). Half of the first range's accounts are below 16, among the
/// authors' accounts 0–3, so that crediting an author inserts at the front
/// or in the middle of a run.
fn packed(first: &[u64], last: &[u64]) -> BTreeMap<u64, u64> {
    let mut entries: BTreeMap<u64, u64> =
        [0, 4, SECOND_LEAF - 1, SECOND_LEAF, u64::MAX - 1, u64::MAX]
            .into_iter()
            .map(|account| (account, account ^ 0x5555))
            .collect();
    for &value in first {
        let account = if value % 2 == 0 {
            (value >> 1) % 16
        } else {
            value >> 14
        };
        entries.insert(account, value);
    }
    for &value in last {
        entries.insert(value | !(SECOND_LEAF - 1), value);
    }
    entries
}

/// A model's entries, ascending.
fn pairs(model: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    model
        .iter()
        .map(|(&account, &balance)| (account, balance))
        .collect()
}

/// One step of the life of a packed ledger.
#[derive(Debug, Clone)]
enum PackedStep {
    /// Apply the pool's blocks at these indices as one sub-DAG.
    Apply(Vec<usize>),
    /// Slash an account the ledger holds (the `n`-th, cyclically) or, for
    /// an odd `n`, the account `n`, which it almost surely does not.
    Slash(u64),
    /// Slash every account of the first (`false`) or last (`true`) range.
    Empty(bool),
    /// Replace the ledger by the one rebuilt from its own snapshot.
    Restore,
    /// Ask for the root mid-way: flushes the marks.
    Root,
}

fn packed_step() -> impl Strategy<Value = PackedStep> {
    prop_oneof![
        4 => proptest::collection::vec(0usize..32, 1..6).prop_map(PackedStep::Apply),
        3 => any::<u64>().prop_map(PackedStep::Slash),
        1 => proptest::bool::ANY.prop_map(PackedStep::Empty),
        1 => Just(PackedStep::Restore),
        2 => Just(PackedStep::Root),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Ranges holding many accounts — inserted at their front, middle and
    /// end, slashed down to nothing and refilled — keep the ledger equal to
    /// an ordered map of the same balances, its snapshot strictly
    /// ascending, and its root the root rebuilt from that snapshot.
    #[test]
    fn packed_ranges_match_an_ordered_map_and_the_rebuilt_root(
        first in proptest::collection::vec(any::<u64>(), 1..=64),
        last in proptest::collection::vec(any::<u64>(), 1..=64),
        steps in proptest::collection::vec(packed_step(), 1..24),
    ) {
        let pool = block_pool();
        let mut model = packed(&first, &last);
        let mut ledger = BalanceLedger::from_snapshot(&encode(&pairs(&model)))
            .map_err(|error| TestCaseError::fail(error.to_string()))?;
        let credit = |model: &mut BTreeMap<u64, u64>, account: u64, amount: u64| {
            let balance = model.entry(account).or_insert(0);
            *balance = balance.saturating_add(amount);
        };
        for (position, step) in steps.into_iter().enumerate() {
            match step {
                PackedStep::Apply(indices) => {
                    let blocks: Vec<Arc<Block>> =
                        indices.iter().map(|&index| pool[index].clone()).collect();
                    for block in &blocks {
                        credit(&mut model, u64::from(block.author().0), BLOCK_REWARD);
                        for transaction in block.transactions() {
                            let account = transaction.digest().prefix_u64();
                            credit(&mut model, account, transaction.len() as u64);
                        }
                    }
                    ledger.apply(&CommittedSubDag {
                        position: position as u64,
                        leader: blocks[0].reference(),
                        blocks,
                    });
                }
                PackedStep::Slash(n) => {
                    let nth = (n / 2) as usize % model.len().max(1);
                    let account = match model.keys().nth(nth) {
                        Some(&held) if n % 2 == 0 => held,
                        _ => n,
                    };
                    prop_assert_eq!(ledger.slash(account), model.remove(&account).unwrap_or(0));
                }
                PackedStep::Empty(last_range) => {
                    let range = if last_range {
                        !(SECOND_LEAF - 1)..=u64::MAX
                    } else {
                        0..=SECOND_LEAF - 1
                    };
                    let held: Vec<u64> = model.range(range).map(|(&account, _)| account).collect();
                    for account in held {
                        prop_assert_eq!(ledger.slash(account), model.remove(&account).unwrap_or(0));
                    }
                }
                PackedStep::Restore => {
                    ledger = BalanceLedger::from_snapshot(&ledger.snapshot())
                        .map_err(|error| TestCaseError::fail(error.to_string()))?;
                }
                PackedStep::Root => {
                    ledger.state_root();
                }
            }
        }
        let snapshot = ledger.snapshot();
        let entries = decode(&snapshot);
        prop_assert!(
            entries.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "snapshot accounts not strictly ascending"
        );
        prop_assert_eq!(&entries, &pairs(&model));
        prop_assert_eq!(ledger.accounts(), model.len());
        for (&account, &balance) in &model {
            prop_assert_eq!(ledger.balance(account), balance);
        }
        let rebuilt = BalanceLedger::from_snapshot(&snapshot)
            .map_err(|error| TestCaseError::fail(error.to_string()))?
            .state_root();
        prop_assert_eq!(ledger.state_root(), rebuilt);
    }
}
