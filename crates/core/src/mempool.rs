//! The bounded client-transaction mempool.
//!
//! Production DAG systems treat payload ingestion as a first-class
//! subsystem: Narwhal batches transactions into a certified mempool that
//! Bullshark orders by reference, while Mysticeti includes payloads
//! directly in uncertified DAG blocks under an explicit per-block budget.
//! This reproduction follows the Mysticeti shape — transactions ride in
//! the blocks themselves — so the mempool's job is admission control, not
//! dissemination:
//!
//! - **bounded occupancy**: capacities in transactions *and* bytes
//!   ([`MempoolConfig::capacity_txs`], [`MempoolConfig::capacity_bytes`]);
//!   a full pool answers [`TxVerdict::Full`] instead of growing — the
//!   backpressure signal clients and load generators key off;
//! - **digest-based dedup**: every accepted transaction's content digest is
//!   remembered; resubmissions (client retries, duplicate gossip) come back
//!   as [`TxVerdict::Duplicate`] and are never included twice;
//! - **per-block payload budget**: [`Mempool::next_payload`] drains at most
//!   [`MempoolConfig::max_block_txs`] transactions and
//!   [`MempoolConfig::max_block_bytes`] payload bytes per produced block,
//!   so one burst cannot monopolize a block or blow up its wire size;
//! - **per-client fairness**: pending transactions are held in one FIFO
//!   queue *per client id*, and [`Mempool::next_payload`] drains them with
//!   deficit round-robin (quantum = the block byte budget): each active
//!   client is served in rotation, so a single greedy connection cannot
//!   starve every other client out of block inclusion;
//! - **age-based forwarding**: [`Mempool::take_aged`] pops transactions
//!   that sat unproposed past a cutoff so the engine can hand them to a
//!   peer ([`Envelope::TxForward`]); the digests stay in the dedup set, so
//!   the forwarded transaction can never re-enter this pool and be
//!   proposed as "own" by two validators at once.
//!
//! The pool answers every submission with the receipt vocabulary's own
//! [`TxVerdict`] — what the owning
//! [`ClientLedger`](crate::ingress::ClientLedger) puts in the client's
//! admission receipt. It is transport-free and clock-free, like the engine
//! around it (callers pass in the engine's virtual time): determinism (same
//! submissions ⇒ same payloads) is what lets the recorded-trace replay
//! tests cover the ingestion path end to end.
//!
//! [`Envelope::TxForward`]: mahimahi_types::Envelope::TxForward

use mahimahi_crypto::Digest;
use mahimahi_types::{Transaction, TxVerdict};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Capacity and per-block budget knobs of a [`Mempool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MempoolConfig {
    /// Maximum transactions held pending. Submissions past this bound are
    /// rejected with [`TxVerdict::Full`].
    pub capacity_txs: usize,
    /// Maximum pending payload bytes. Submissions that would exceed it are
    /// rejected with [`TxVerdict::Full`]. A single transaction larger than
    /// this can never be admitted: a client seeing `Full` for the same
    /// transaction across an otherwise-draining pool should give up rather
    /// than retry forever.
    pub capacity_bytes: usize,
    /// Maximum transactions drained into one produced block.
    pub max_block_txs: usize,
    /// Maximum payload bytes drained into one produced block. A single
    /// transaction larger than the budget is still included alone (the
    /// budget bounds batching, it must not wedge the queue). Doubles as
    /// the deficit-round-robin quantum of the per-client fair drain.
    pub max_block_bytes: usize,
}

impl Default for MempoolConfig {
    fn default() -> Self {
        MempoolConfig {
            capacity_txs: 100_000,
            capacity_bytes: 128 * 1024 * 1024,
            max_block_txs: 2_000,
            max_block_bytes: 4 * 1024 * 1024,
        }
    }
}

impl MempoolConfig {
    /// A small pool for unit tests: `capacity` transactions, generous byte
    /// bounds, blocks of at most `max_block_txs` transactions.
    pub fn test(capacity: usize, max_block_txs: usize) -> Self {
        MempoolConfig {
            capacity_txs: capacity,
            capacity_bytes: usize::MAX / 2,
            max_block_txs,
            max_block_bytes: usize::MAX / 2,
        }
    }
}

/// One pending transaction with its admission metadata.
#[derive(Debug)]
struct PoolTx {
    transaction: Transaction,
    /// Opaque client tag (submission/receive time) returned at inclusion.
    tag: u64,
    /// The submitting client id, threaded through to inclusion so commit
    /// notifications can find their way back.
    client: usize,
    /// Engine time at admission — what age-based forwarding keys off.
    enqueued: u64,
    /// Whether [`Mempool::take_aged`] may move this transaction to a peer.
    /// False for transactions that were themselves forwarded here: exactly
    /// one pool owns a transaction at a time, and a second hop could route
    /// it back to its origin, whose dedup set would silently drop it.
    forwardable: bool,
}

/// A bounded transaction pool with digest dedup, per-block payload
/// budgeting, and a deficit-round-robin fair drain across client queues.
/// See the [module docs](self) for the design.
#[derive(Debug, Default)]
pub struct Mempool {
    config: MempoolConfig,
    /// Pending transactions, one FIFO queue per client id.
    queues: BTreeMap<usize, VecDeque<PoolTx>>,
    /// Deficit-round-robin service order over clients with pending
    /// transactions.
    rotation: VecDeque<usize>,
    /// Per-client byte deficits carried between service turns.
    deficits: BTreeMap<usize, usize>,
    /// Total pending transactions (sum over `queues`).
    txs: usize,
    /// Total pending payload bytes (sum over `queues`).
    bytes: usize,
    /// Digests of every transaction ever accepted (pending, in flight,
    /// forwarded, or committed). Grows with the accepted set — replay
    /// protection is retention, exactly like a nonce ledger.
    seen: HashSet<Digest>,
    accepted: u64,
    rejected_duplicate: u64,
    rejected_full: u64,
    forwarded: u64,
    peak_txs: usize,
    peak_bytes: usize,
}

impl Mempool {
    /// An empty pool with the given bounds.
    pub fn new(config: MempoolConfig) -> Self {
        Mempool {
            config,
            ..Mempool::default()
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &MempoolConfig {
        &self.config
    }

    /// Admits one transaction from `client`. `tag` is opaque client
    /// metadata carried alongside (submission time) and returned with the
    /// payload at inclusion; `now` is the engine's virtual time, recorded
    /// for age-based forwarding.
    pub fn submit(
        &mut self,
        transaction: Transaction,
        tag: u64,
        client: usize,
        now: u64,
    ) -> TxVerdict {
        self.admit(transaction, tag, client, now, true)
    }

    /// Admits a transaction forwarded from a peer's pool
    /// (`Envelope::TxForward`). Identical to [`Mempool::submit`] except
    /// the transaction is never forwarded again — one hop only, so
    /// exactly one pool owns it and it cannot bounce back into its
    /// origin's dedup set.
    pub fn submit_forwarded(
        &mut self,
        transaction: Transaction,
        tag: u64,
        client: usize,
        now: u64,
    ) -> TxVerdict {
        self.admit(transaction, tag, client, now, false)
    }

    fn admit(
        &mut self,
        transaction: Transaction,
        tag: u64,
        client: usize,
        now: u64,
        forwardable: bool,
    ) -> TxVerdict {
        let digest = transaction.digest();
        if self.seen.contains(&digest) {
            self.rejected_duplicate += 1;
            return TxVerdict::Duplicate;
        }
        if self.txs >= self.config.capacity_txs
            || self.bytes + transaction.len() > self.config.capacity_bytes
        {
            self.rejected_full += 1;
            return TxVerdict::Full;
        }
        self.seen.insert(digest);
        self.bytes += transaction.len();
        self.txs += 1;
        let queue = self.queues.entry(client).or_default();
        if queue.is_empty() {
            self.rotation.push_back(client);
        }
        queue.push_back(PoolTx {
            transaction,
            tag,
            client,
            enqueued: now,
            forwardable,
        });
        self.accepted += 1;
        self.peak_txs = self.peak_txs.max(self.txs);
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        TxVerdict::Accepted
    }

    /// Drains the next block payload with deficit round-robin across the
    /// active client queues: at most [`MempoolConfig::max_block_txs`]
    /// transactions and [`MempoolConfig::max_block_bytes`] bytes (always
    /// at least one transaction when the pool is non-empty). Each active
    /// client is served at most one quantum (= the block byte budget) per
    /// call and the rotation persists across calls, so sustained load from
    /// one client cannot starve the others. Returns the transactions and
    /// their `(tag, client)` pairs, index-parallel.
    pub fn next_payload(&mut self) -> (Vec<Transaction>, Vec<(u64, usize)>) {
        let mut transactions = Vec::new();
        let mut tags = Vec::new();
        let mut payload_bytes = 0usize;
        let active = self.rotation.len();
        if active == 0 {
            return (transactions, tags);
        }
        // Each service visit grants one quantum of bytes and one equal
        // share of the block's transaction budget; with a single active
        // client this degenerates to the plain FIFO drain.
        let quantum = (self.config.max_block_bytes / active).max(1);
        let tx_share = (self.config.max_block_txs / active).max(1);
        loop {
            let mut took_this_cycle = false;
            let mut turns = self.rotation.len();
            while turns > 0 && transactions.len() < self.config.max_block_txs {
                turns -= 1;
                let Some(client) = self.rotation.pop_front() else {
                    break;
                };
                // Deficits carry over uncapped while the client stays
                // backlogged, so a transaction larger than one quantum is
                // eventually served instead of starving behind smaller
                // clients; an emptied queue drops its credit (classic
                // DRR: nothing accrues while inactive).
                let mut deficit = self
                    .deficits
                    .remove(&client)
                    .unwrap_or(0)
                    .saturating_add(quantum);
                let mut block_full = false;
                let mut took = 0usize;
                let queue = self
                    .queues
                    .get_mut(&client)
                    .expect("rotation entries have queues");
                while transactions.len() < self.config.max_block_txs {
                    let Some(front) = queue.front() else {
                        break;
                    };
                    let len = front.transaction.len();
                    // The budgets never wedge the queue: the block's first
                    // transaction is always included, whatever its size.
                    if !transactions.is_empty() && payload_bytes + len > self.config.max_block_bytes
                    {
                        block_full = true;
                        break;
                    }
                    if !transactions.is_empty() && (deficit < len || took >= tx_share) {
                        break;
                    }
                    let entry = queue.pop_front().expect("peeked front");
                    deficit = deficit.saturating_sub(len);
                    payload_bytes += len;
                    self.bytes -= len;
                    self.txs -= 1;
                    transactions.push(entry.transaction);
                    tags.push((entry.tag, entry.client));
                    took += 1;
                    took_this_cycle = true;
                }
                if self.queues.get(&client).is_some_and(VecDeque::is_empty) {
                    self.queues.remove(&client);
                    self.deficits.remove(&client);
                } else {
                    self.rotation.push_back(client);
                    self.deficits.insert(client, deficit);
                }
                if block_full {
                    return (transactions, tags);
                }
            }
            // Keep cycling while the block has room and progress is being
            // made (leftover budget redistributes to still-backlogged
            // clients); a barren cycle ends the drain.
            if !took_this_cycle
                || transactions.len() >= self.config.max_block_txs
                || self.rotation.is_empty()
            {
                return (transactions, tags);
            }
        }
    }

    /// Pops every pending transaction enqueued at or before `cutoff`, up
    /// to `max`, marking them forwarded. The digests remain in the dedup
    /// set — a forwarded transaction can never be re-admitted here, which
    /// is the exactly-once half of the forwarding contract. Returns
    /// `(transaction, tag, client)` triples in client-id order.
    pub fn take_aged(&mut self, cutoff: u64, max: usize) -> Vec<(Transaction, u64, usize)> {
        let mut taken = Vec::new();
        let clients: Vec<usize> = self.queues.keys().copied().collect();
        for client in clients {
            if taken.len() >= max {
                break;
            }
            let queue = self.queues.get_mut(&client).expect("listed client");
            while taken.len() < max {
                // Per-client FIFO + monotone engine time: the front entry
                // is the oldest of its queue. A non-forwardable front
                // (itself forwarded here) ends the queue's scan — FIFO
                // order is preserved even for the forwarding path.
                match queue.front() {
                    Some(entry) if entry.enqueued <= cutoff && entry.forwardable => {
                        let entry = queue.pop_front().expect("peeked front");
                        self.bytes -= entry.transaction.len();
                        self.txs -= 1;
                        self.forwarded += 1;
                        taken.push((entry.transaction, entry.tag, entry.client));
                    }
                    _ => break,
                }
            }
            if queue.is_empty() {
                self.queues.remove(&client);
                self.rotation.retain(|&active| active != client);
                self.deficits.remove(&client);
            }
        }
        taken
    }

    /// The enqueue time of the oldest pending *forwardable* transaction,
    /// if any — what the engine schedules its next forwarding wake-up
    /// from.
    pub fn oldest_enqueued(&self) -> Option<u64> {
        self.queues
            .values()
            .filter_map(|queue| {
                queue
                    .front()
                    .filter(|entry| entry.forwardable)
                    .map(|entry| entry.enqueued)
            })
            .min()
    }

    /// Pending transactions.
    pub fn len(&self) -> usize {
        self.txs
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.txs == 0
    }

    /// Pending payload bytes.
    pub fn pending_bytes(&self) -> usize {
        self.bytes
    }

    /// Highest pending-transaction count ever observed.
    pub fn peak_txs(&self) -> usize {
        self.peak_txs
    }

    /// Highest pending-byte count ever observed.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Transactions accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Submissions rejected as duplicates so far.
    pub fn rejected_duplicate(&self) -> u64 {
        self.rejected_duplicate
    }

    /// Submissions rejected for capacity so far.
    pub fn rejected_full(&self) -> u64 {
        self.rejected_full
    }

    /// Transactions handed to a peer by age-based forwarding so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

/// A point-in-time accounting of one validator's transaction pipeline,
/// produced by `ValidatorEngine::tx_integrity`.
///
/// For a correct (honest-proposing) validator the pipeline conserves
/// transactions: everything accepted is either still pending in the pool,
/// in flight inside a produced-but-uncommitted own block, forwarded to a
/// peer's pool, or committed —
/// [`TxIntegrityReport::conserves_transactions`]. The `tx-integrity`
/// scenario oracle holds every correct validator to that conservation law,
/// to a zero duplicate-commit count, and to bounded pool occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxIntegrityReport {
    /// Transactions accepted into the pool.
    pub accepted: u64,
    /// Submissions rejected as digest duplicates.
    pub rejected_duplicate: u64,
    /// Submissions rejected for capacity ([`TxVerdict::Full`]).
    pub rejected_full: u64,
    /// Submissions turned away by the per-client token bucket before
    /// admission (`TxVerdict::RateLimited`).
    pub rejected_rate_limited: u64,
    /// Transactions still pending in the pool.
    pub pending: u64,
    /// Transactions drained into own blocks that have not committed yet.
    pub in_flight: u64,
    /// Own accepted transactions that committed.
    pub own_committed: u64,
    /// Accepted transactions handed to a peer by age-based forwarding —
    /// the peer's pool owns their inclusion from then on, so they leave
    /// this validator's pending/in-flight/committed accounting but stay in
    /// the conservation law.
    pub forwarded: u64,
    /// Transactions committed twice across this validator's *own* blocks
    /// — the exactly-once guarantee of the local pipeline (accept → drain
    /// once → include once → commit once); must be zero everywhere,
    /// always. Scoped to own blocks because they are unforgeable: a
    /// Byzantine peer can copy any observed payload into blocks it signs
    /// itself, which is its misbehavior (attributed by the evidence
    /// subsystem), not a defect of this validator's pipeline.
    pub duplicate_committed: u64,
    /// Peak pool occupancy in transactions.
    pub peak_occupancy_txs: u64,
    /// Peak pool occupancy in bytes.
    pub peak_occupancy_bytes: u64,
    /// Configured pool capacity in transactions.
    pub capacity_txs: u64,
    /// Configured pool capacity in bytes.
    pub capacity_bytes: u64,
}

impl TxIntegrityReport {
    /// No accepted transaction was lost: accepted = pending + in flight +
    /// committed + forwarded. Holds for every honest-proposing validator
    /// (Byzantine strategies deliberately build several block variants
    /// over one drain, which double-counts their in-flight tags).
    pub fn conserves_transactions(&self) -> bool {
        self.accepted == self.pending + self.in_flight + self.own_committed + self.forwarded
    }

    /// The pool never outgrew its configured bounds.
    pub fn occupancy_bounded(&self) -> bool {
        self.peak_occupancy_txs <= self.capacity_txs
            && self.peak_occupancy_bytes <= self.capacity_bytes
    }

    /// Every integrity violation in this report, as human-readable
    /// descriptions (empty when the pipeline is sound). One shared
    /// definition of "sound" — the `tx-integrity` scenario oracle and the
    /// simulator's `sustained_wire_load_conserves_every_transaction` both
    /// build on this, so the checks cannot drift apart.
    pub fn violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.duplicate_committed != 0 {
            violations.push(format!(
                "{} accepted transaction(s) committed more than once across own blocks",
                self.duplicate_committed
            ));
        }
        if !self.conserves_transactions() {
            violations.push(format!(
                "transactions lost: accepted {} != pending {} + in-flight {} + committed {} \
                 + forwarded {}",
                self.accepted, self.pending, self.in_flight, self.own_committed, self.forwarded
            ));
        }
        if !self.occupancy_bounded() {
            violations.push(format!(
                "mempool outgrew its bounds: peak {}txs/{}B over capacity {}txs/{}B",
                self.peak_occupancy_txs,
                self.peak_occupancy_bytes,
                self.capacity_txs,
                self.capacity_bytes
            ));
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(id: u64) -> Transaction {
        Transaction::new(id.to_le_bytes().to_vec())
    }

    /// Single-client submission shorthand (client 0, enqueued at `tag`).
    fn put(pool: &mut Mempool, transaction: Transaction, tag: u64) -> TxVerdict {
        pool.submit(transaction, tag, 0, tag)
    }

    #[test]
    fn fifo_order_and_tags_are_preserved() {
        let mut pool = Mempool::new(MempoolConfig::test(10, 2));
        for id in 0..3u64 {
            assert_eq!(put(&mut pool, tx(id), 100 + id), TxVerdict::Accepted);
        }
        let (txs, tags) = pool.next_payload();
        assert_eq!(txs, vec![tx(0), tx(1)]);
        assert_eq!(tags, vec![(100, 0), (101, 0)]);
        let (txs, tags) = pool.next_payload();
        assert_eq!(txs, vec![tx(2)]);
        assert_eq!(tags, vec![(102, 0)]);
        assert!(pool.is_empty());
    }

    #[test]
    fn duplicates_are_rejected_even_after_inclusion() {
        let mut pool = Mempool::new(MempoolConfig::test(10, 10));
        assert_eq!(put(&mut pool, tx(7), 0), TxVerdict::Accepted);
        assert_eq!(put(&mut pool, tx(7), 1), TxVerdict::Duplicate);
        let _ = pool.next_payload();
        // Drained into a block: a retry must still be deduplicated, or the
        // transaction would commit twice.
        assert_eq!(put(&mut pool, tx(7), 2), TxVerdict::Duplicate);
        assert_eq!(pool.rejected_duplicate(), 2);
    }

    #[test]
    fn tx_capacity_bounds_occupancy() {
        let mut pool = Mempool::new(MempoolConfig::test(2, 10));
        assert_eq!(put(&mut pool, tx(0), 0), TxVerdict::Accepted);
        assert_eq!(put(&mut pool, tx(1), 0), TxVerdict::Accepted);
        assert_eq!(put(&mut pool, tx(2), 0), TxVerdict::Full);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.peak_txs(), 2);
        assert_eq!(pool.rejected_full(), 1);
        // Draining frees capacity.
        let _ = pool.next_payload();
        assert_eq!(put(&mut pool, tx(2), 0), TxVerdict::Accepted);
    }

    #[test]
    fn byte_capacity_bounds_occupancy() {
        let config = MempoolConfig {
            capacity_txs: 100,
            capacity_bytes: 20,
            max_block_txs: 100,
            max_block_bytes: 1_000,
        };
        let mut pool = Mempool::new(config);
        assert_eq!(put(&mut pool, tx(0), 0), TxVerdict::Accepted); // 8 bytes
        assert_eq!(put(&mut pool, tx(1), 0), TxVerdict::Accepted); // 16 bytes
        assert_eq!(put(&mut pool, tx(2), 0), TxVerdict::Full); // would be 24
        assert_eq!(pool.pending_bytes(), 16);
        assert_eq!(pool.peak_bytes(), 16);
    }

    #[test]
    fn block_byte_budget_splits_payloads() {
        let config = MempoolConfig {
            capacity_txs: 100,
            capacity_bytes: 10_000,
            max_block_txs: 100,
            max_block_bytes: 20,
        };
        let mut pool = Mempool::new(config);
        for id in 0..4u64 {
            put(&mut pool, tx(id), id);
        }
        // 8-byte transactions, 20-byte budget: two per block.
        let (txs, _) = pool.next_payload();
        assert_eq!(txs.len(), 2);
        let (txs, _) = pool.next_payload();
        assert_eq!(txs.len(), 2);
    }

    #[test]
    fn oversized_transaction_is_included_alone() {
        let config = MempoolConfig {
            capacity_txs: 100,
            capacity_bytes: 10_000,
            max_block_txs: 100,
            max_block_bytes: 10,
        };
        let mut pool = Mempool::new(config);
        put(&mut pool, Transaction::new(vec![1; 64]), 0);
        put(&mut pool, tx(1), 1);
        // Larger than the whole block budget: still drained (alone), never
        // wedged at the head of the queue.
        let (txs, _) = pool.next_payload();
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].len(), 64);
        let (txs, _) = pool.next_payload();
        assert_eq!(txs, vec![tx(1)]);
    }

    #[test]
    fn drain_round_robins_across_clients() {
        // Client 9 floods 50 transactions before clients 1 and 2 submit
        // one each; a 4-transaction block must still include both of the
        // small clients' transactions, not four of the flooder's.
        let mut pool = Mempool::new(MempoolConfig::test(100, 4));
        for id in 0..50u64 {
            pool.submit(tx(id), id, 9, 0);
        }
        pool.submit(tx(100), 100, 1, 0);
        pool.submit(tx(200), 200, 2, 0);
        let (txs, tags) = pool.next_payload();
        assert_eq!(txs.len(), 4);
        let clients: Vec<usize> = tags.iter().map(|&(_, client)| client).collect();
        assert!(clients.contains(&1), "client 1 starved: {clients:?}");
        assert!(clients.contains(&2), "client 2 starved: {clients:?}");
    }

    #[test]
    fn rotation_persists_across_payloads() {
        // Two clients with two transactions each, one-transaction blocks:
        // service alternates instead of draining one client first.
        let mut pool = Mempool::new(MempoolConfig::test(100, 1));
        for id in 0..2u64 {
            pool.submit(tx(id), id, 5, 0);
            pool.submit(tx(10 + id), 10 + id, 6, 0);
        }
        let mut served = Vec::new();
        for _ in 0..4 {
            let (_, tags) = pool.next_payload();
            served.push(tags[0].1);
        }
        assert_eq!(served, vec![5, 6, 5, 6]);
        assert!(pool.is_empty());
    }

    #[test]
    fn take_aged_pops_only_old_transactions_and_keeps_dedup() {
        let mut pool = Mempool::new(MempoolConfig::test(100, 10));
        pool.submit(tx(1), 1, 0, 1_000);
        pool.submit(tx(2), 2, 3, 2_000);
        pool.submit(tx(3), 3, 3, 9_000);
        let aged = pool.take_aged(2_000, 16);
        assert_eq!(aged.len(), 2);
        assert_eq!(aged[0].0, tx(1));
        assert_eq!((aged[0].1, aged[0].2), (1, 0));
        assert_eq!((aged[1].1, aged[1].2), (2, 3));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.forwarded(), 2);
        // Forwarded digests stay seen: re-submission is a duplicate, so
        // the transaction can never be proposed by two pools as "own".
        assert_eq!(pool.submit(tx(1), 9, 7, 9_500), TxVerdict::Duplicate);
        assert_eq!(pool.oldest_enqueued(), Some(9_000));
        // Conservation bookkeeping: accepted = pending + forwarded here.
        assert_eq!(pool.accepted(), 3);
        assert_eq!(pool.len() as u64 + pool.forwarded(), 3);
    }

    #[test]
    fn forwarded_in_transactions_never_forward_again() {
        let mut pool = Mempool::new(MempoolConfig::test(100, 10));
        pool.submit_forwarded(tx(1), 1, 2, 0);
        // One hop only: however stale, a forwarded-in transaction is never
        // moved to yet another pool.
        assert!(pool.take_aged(u64::MAX / 2, 16).is_empty());
        assert_eq!(pool.oldest_enqueued(), None);
        assert_eq!(pool.forwarded(), 0);
        // It is still included in blocks normally.
        let (txs, tags) = pool.next_payload();
        assert_eq!(txs, vec![tx(1)]);
        assert_eq!(tags, vec![(1, 2)]);
    }

    #[test]
    fn integrity_report_checks() {
        let report = TxIntegrityReport {
            accepted: 10,
            rejected_duplicate: 1,
            rejected_full: 2,
            pending: 3,
            in_flight: 3,
            own_committed: 3,
            forwarded: 1,
            duplicate_committed: 0,
            peak_occupancy_txs: 5,
            peak_occupancy_bytes: 100,
            capacity_txs: 8,
            capacity_bytes: 1_000,
            ..TxIntegrityReport::default()
        };
        assert!(report.conserves_transactions());
        assert!(report.occupancy_bounded());
        let lossy = TxIntegrityReport {
            own_committed: 2,
            ..report
        };
        assert!(!lossy.conserves_transactions());
        let overgrown = TxIntegrityReport {
            peak_occupancy_txs: 9,
            ..report
        };
        assert!(!overgrown.occupancy_bounded());
    }
}
