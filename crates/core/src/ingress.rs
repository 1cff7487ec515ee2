//! Client ingress: per-client rate limiting, the receipt and forwarding
//! ledger, and the exactly-once accounting of own transactions.
//!
//! Admission control lives *inside* the sans-I/O engine, not in the
//! drivers, for one reason: determinism. The simulator and the TCP node
//! both feed the same `Input::TxBatchReceived` events; because the token
//! buckets tick on the engine's virtual time (never a wall clock), both
//! drivers enforce byte-identical policy and a recorded trace replays the
//! exact same verdicts.
//!
//! [`ClientLedger`] is the engine's component for everything a client is
//! owed, from the one way in — a transaction batch
//! (`Input::TxBatchReceived`, whether it came over the wire, from the
//! node's local handle or from a simulated client) — to the one way out,
//! `Output::TxReceipt`. It owns the [`Mempool`] outright: the kernel asks
//! it to admit a batch, to hand over the next block payload, and to move
//! aged transactions to a peer, and never touches the pool itself. Beside
//! the pool it holds the two mechanisms below as fields, plus the commit
//! notes, the forwarded-transaction digests, the tags of transactions in
//! own blocks, and the exactly-once digest ledger:
//!
//! - [`IngressPolicy`] — a token bucket per client id, refilled from
//!   engine time at [`IngressConfig::rate_limit_per_client`] transactions
//!   per second up to [`IngressConfig::burst_per_client`]. Committee
//!   members are exempt (the engine checks `from < committee_size` before
//!   consulting the bucket): validator-to-validator traffic — forwarded
//!   transactions, the node's own submission channel — must never be shed
//!   at the edge.
//! - [`IngressReport`] — the receipt/forwarding ledger the
//!   `receipt-integrity` scenario oracle gates on: every received batch
//!   produced exactly one admission receipt, no commit notice fired
//!   without an opened note, and no forwarded transaction was observed
//!   committed more often than it was forwarded.
//!
//! The deficit-round-robin fair queue — the other half of the ingress
//! policy — lives in the [`Mempool`] itself, where the per-client queues
//! are.

use crate::engine::{usize_gauge, Time};
use crate::evidence::EvidencePool;
use crate::mempool::{Mempool, MempoolConfig, TxIntegrityReport};
use mahimahi_crypto::Digest;
use mahimahi_types::{
    AuthorityIndex, Block, BlockRef, Round, Transaction, TxReceipt, TxVerdict, MAX_RECEIPT_TAGS,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Micro-tokens per transaction: integer token-bucket accounting with
/// microsecond refill granularity and no floating point (floats would
/// threaten cross-platform replay determinism).
const TOKEN_SCALE: u64 = 1_000_000;

/// Client-ingress policy knobs of a validator engine. The default is
/// fully permissive — no rate limit, no forwarding — so existing drivers
/// and benchmarks are unaffected until they opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressConfig {
    /// Sustained admission rate per external client, in transactions per
    /// second of engine time. `0` disables rate limiting entirely.
    /// Committee members (peer ids below the committee size) are always
    /// exempt.
    pub rate_limit_per_client: u64,
    /// Token-bucket depth per client, in transactions: the burst a client
    /// may submit instantly before the sustained rate applies. Clamped to
    /// at least 1 when rate limiting is enabled (a zero-depth bucket
    /// would shed everything).
    pub burst_per_client: u64,
    /// Age (microseconds of engine time) after which a transaction still
    /// pending in the mempool is forwarded to a peer's pool
    /// (`Envelope::TxForward`), so a submission to a slow or withholding
    /// validator still reaches a block. `None` disables forwarding.
    pub forward_age: Option<Time>,
    /// Maximum transactions moved per forward frame (bounds the frame
    /// size; the remainder forwards on the next timer).
    pub forward_max: usize,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            rate_limit_per_client: 0,
            burst_per_client: 0,
            forward_age: None,
            forward_max: 512,
        }
    }
}

/// One client's token bucket.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    /// Available credit, in micro-tokens ([`TOKEN_SCALE`] per
    /// transaction).
    credit: u64,
    /// Engine time of the last refill.
    refilled: Time,
}

/// Per-client token buckets over engine time. Deterministic by
/// construction: state advances only on [`IngressPolicy::admit`] calls,
/// whose `now` comes from the engine's virtual clock.
#[derive(Debug, Default)]
pub struct IngressPolicy {
    config: IngressConfig,
    buckets: BTreeMap<usize, TokenBucket>,
}

impl IngressPolicy {
    /// A policy with the given knobs and no per-client state yet.
    pub fn new(config: IngressConfig) -> Self {
        IngressPolicy {
            config,
            buckets: BTreeMap::new(),
        }
    }

    /// Charges one transaction from `client`'s bucket at engine time
    /// `now`. Returns whether the transaction may proceed to admission.
    /// With rate limiting disabled this is always true and allocates
    /// nothing.
    pub fn admit(&mut self, client: usize, now: Time) -> bool {
        let rate = self.config.rate_limit_per_client;
        if rate == 0 {
            return true;
        }
        let depth = self
            .config
            .burst_per_client
            .max(1)
            .saturating_mul(TOKEN_SCALE);
        let bucket = self.buckets.entry(client).or_insert(TokenBucket {
            credit: depth,
            refilled: now,
        });
        // rate is tx/s and time is µs, so micro-tokens accrue at exactly
        // `rate` per microsecond: elapsed × rate, capped at the depth.
        let elapsed = now.saturating_sub(bucket.refilled);
        bucket.refilled = now;
        bucket.credit = bucket
            .credit
            .saturating_add(elapsed.saturating_mul(rate))
            .min(depth);
        if bucket.credit >= TOKEN_SCALE {
            bucket.credit -= TOKEN_SCALE;
            true
        } else {
            false
        }
    }
}

/// The ingress ledger of one validator: receipts, commit notices, and
/// forwarding, as counted by the engine (`ValidatorEngine::ingress_report`).
/// The `receipt-integrity` oracle holds every correct validator to
/// [`IngressReport::violations`] being empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngressReport {
    /// Wire transaction batches received (`Input::TxBatchReceived`).
    pub batches_received: u64,
    /// Admission receipts emitted — must equal `batches_received`: zero
    /// receipt loss is the subsystem's core guarantee.
    pub receipts_emitted: u64,
    /// Batches with at least one accepted transaction, i.e. commit
    /// notifications opened and owed to a client.
    pub notes_opened: u64,
    /// Commit notifications delivered (`TxReceipt::Committed` tags).
    pub commit_notices: u64,
    /// Transactions moved to a peer's pool by age-based forwarding.
    pub forwarded: u64,
    /// Forwarded transactions later observed committed in the sequenced
    /// order (any author's block).
    pub forwarded_committed: u64,
    /// Transactions shed by the per-client token bucket.
    pub rate_limited: u64,
}

impl IngressReport {
    /// Every ingress-ledger violation, as human-readable descriptions
    /// (empty when the subsystem is sound). Shared by the
    /// `receipt-integrity` oracle and the simulator's client tests
    /// (`a_burst_past_capacity_…`, `compliant_zipf_clients_…`).
    pub fn violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.receipts_emitted != self.batches_received {
            violations.push(format!(
                "receipt loss: {} batches received but {} admission receipts emitted",
                self.batches_received, self.receipts_emitted
            ));
        }
        if self.commit_notices > self.notes_opened {
            violations.push(format!(
                "{} commit notices delivered but only {} notes opened",
                self.commit_notices, self.notes_opened
            ));
        }
        if self.forwarded_committed > self.forwarded {
            violations.push(format!(
                "{} forwarded transactions observed committed but only {} forwarded",
                self.forwarded_committed, self.forwarded
            ));
        }
        violations
    }
}

/// How long (engine microseconds) unresolved commit notes and forwarded
/// digests are retained before the periodic sweep drops them — ten
/// minutes, orders of magnitude past any commit latency this repo
/// measures.
const NOTE_RETENTION: Time = 600_000_000;

/// What one validator owes its clients and how it accounts for their
/// transactions: the pool they wait in, admission verdicts, commit
/// notices, one-hop forwarding, and the exactly-once ledger of
/// transactions committed in own blocks.
///
/// The ledger never decides when a block is produced or what commits; the
/// engine tells it what arrived, when it builds a block and what was
/// sequenced, and renders the receipts it hands back.
#[derive(Default)]
pub struct ClientLedger {
    authority: AuthorityIndex,
    committee_size: usize,
    /// The bounded client-transaction pool feeding block production.
    mempool: Mempool,
    /// Per-client token buckets (external clients only; committee peers
    /// are exempt by construction).
    policy: IngressPolicy,
    /// Receipt/forwarding counters (`forwarded` is filled from the pool at
    /// report time).
    counters: IngressReport,
    /// Commit notifications owed to clients: `(batch tag, client)` → how
    /// many accepted transactions of that batch are still unsequenced.
    /// Keys are time-ordered (tags are engine receive times), so stale
    /// entries — batches whose transactions will never all commit here,
    /// e.g. after an equivocating peer got one linearized first — are
    /// pruned from the front by retention.
    notes: BTreeMap<(u64, usize), u64>,
    /// Notes closed since the last [`ClientLedger::take_commit_receipts`],
    /// per client (`BTreeMap`: the receipt emission order is
    /// deterministic).
    closed: BTreeMap<usize, Vec<u64>>,
    /// Digests of transactions forwarded to a peer, with the batch
    /// bookkeeping needed to close their commit notes when any sequenced
    /// block carries them.
    forwarded_out: HashMap<Digest, (u64, usize)>,
    /// Engine time of the last retention sweep.
    last_sweep: Time,
    /// Round-robin cursor over peers for forwarding frames.
    forward_cursor: usize,
    /// `(tag, client)` pairs of transactions in own blocks, resolved at
    /// commit (tags echoed to the submitter, clients used to close their
    /// batches' commit notes).
    own_block_txs: HashMap<BlockRef, Vec<(u64, usize)>>,
    /// Own accepted transactions that committed (tags returned).
    own_committed: u64,
    /// Digests of transactions committed in *own* blocks — the
    /// exactly-once ledger behind `duplicate_committed`. Scoped to own
    /// blocks because they are the unforgeable image of this validator's
    /// mempool drains: a Byzantine peer can always copy an observed
    /// payload into its own blocks (and an equivocator can get its spam
    /// linearized under two conflicting digests), but it cannot sign a
    /// block as this authority. GC'd against the commit frontier (the same
    /// floor as the store) through the round-keyed index below — floored
    /// linearization guarantees nothing below the floor can commit again,
    /// so pruning is exact within the GC window. With GC off the ledger is
    /// retained in full.
    committed_digests: HashSet<Digest>,
    /// Round-keyed index into `committed_digests` (the round of the own
    /// block that committed each digest), enabling frontier GC.
    digests_by_round: BTreeMap<Round, Vec<Digest>>,
    /// Accepted transactions that committed twice across own blocks.
    duplicate_committed: u64,
}

impl ClientLedger {
    /// An empty ledger, over an empty pool, for `authority` in a committee
    /// of `committee_size`.
    pub fn new(
        config: IngressConfig,
        mempool: MempoolConfig,
        authority: AuthorityIndex,
        committee_size: usize,
    ) -> Self {
        ClientLedger {
            authority,
            committee_size,
            mempool: Mempool::new(mempool),
            policy: IngressPolicy::new(config),
            forward_cursor: authority.as_usize() + 1,
            ..ClientLedger::default()
        }
    }

    /// Admits a client batch from `from` into the pool at engine time
    /// `now`. Batches carry no per-transaction tag; the receive time
    /// stands in, turning the receipt tag (and the commit tags) into
    /// client-observed commit latencies. Returns the admission receipt —
    /// exactly one per batch — and whether anything was accepted, in which
    /// case a commit note is opened: the `Committed` receipt fires once
    /// every accepted transaction of the batch is sequenced (locally or at
    /// a forwarding target).
    pub fn admit_batch(
        &mut self,
        from: usize,
        transactions: Vec<Transaction>,
        now: Time,
    ) -> (TxReceipt, bool) {
        self.counters.batches_received += 1;
        // Committee members (forwarding peers, the node's own submission
        // channel) are never rate-limited; only external client
        // connections pay the token bucket.
        let external = from >= self.committee_size;
        let mut accepted = 0;
        let verdicts = transactions
            .into_iter()
            .map(|transaction| {
                if external && !self.policy.admit(from, now) {
                    self.counters.rate_limited += 1;
                    return TxVerdict::RateLimited;
                }
                let verdict = self.mempool.submit(transaction, now, from, now);
                accepted += u64::from(verdict.is_accepted());
                verdict
            })
            .collect();
        if accepted > 0 {
            *self.notes.entry((now, from)).or_insert(0) += accepted;
            self.counters.notes_opened += 1;
        }
        self.counters.receipts_emitted += 1;
        (TxReceipt::Admission { tag: now, verdicts }, accepted > 0)
    }

    /// Admits transactions `from` — a committee peer — moved out of its
    /// pool: digest dedup and capacity apply, the rate limiter does not,
    /// no receipt is owed (the forwarding pool keeps the client
    /// relationship) and nothing is forwarded a second hop.
    pub fn admit_forwarded(&mut self, from: usize, transactions: Vec<Transaction>, now: Time) {
        for transaction in transactions {
            let _ = self.mempool.submit_forwarded(transaction, now, from, now);
        }
    }

    /// Drains the next block payload from the pool (FIFO per client,
    /// bounded in transactions and bytes): the transactions and their
    /// `(tag, client)` pairs, index-parallel.
    pub fn next_payload(&mut self) -> (Vec<Transaction>, Vec<(u64, usize)>) {
        self.mempool.next_payload()
    }

    /// Records the `(tag, client)` pairs of the transactions in an own
    /// block just built, for commit accounting.
    pub fn register_own(&mut self, reference: BlockRef, tags: Vec<(u64, usize)>) {
        self.own_block_txs.insert(reference, tags);
    }

    /// When the oldest pending forwardable transaction falls due (`None`
    /// when forwarding is disabled or nothing is pending).
    pub fn forward_wake(&self) -> Option<Time> {
        let age = self.policy.config.forward_age?;
        Some(self.mempool.oldest_enqueued()?.saturating_add(age))
    }

    /// Moves transactions that sat unproposed past the configured age out
    /// of the pool, returning them with the peer to send them to
    /// (`Envelope::TxForward`): pop from pending (digests stay in the
    /// dedup set), remember each digest so the client's commit note can
    /// close when *any* sequenced block carries it, and rotate the target
    /// peer. One hop, no retry: exactly one pool owns a transaction at a
    /// time, which is what keeps the global commit count at one.
    pub fn forward_aged(
        &mut self,
        evidence: &EvidencePool,
        now: Time,
    ) -> Option<(usize, Vec<Transaction>)> {
        let cutoff = now.saturating_sub(self.policy.config.forward_age?);
        if self.mempool.oldest_enqueued().is_none_or(|t| t > cutoff) {
            return None;
        }
        let peer = self.next_forward_peer(evidence)?;
        let aged = self
            .mempool
            .take_aged(cutoff, self.policy.config.forward_max);
        let mut transactions = Vec::with_capacity(aged.len());
        for (transaction, tag, client) in aged {
            self.forwarded_out
                .insert(transaction.digest(), (tag, client));
            transactions.push(transaction);
        }
        (!transactions.is_empty()).then_some((peer, transactions))
    }

    /// The next forwarding target: round-robin over the committee,
    /// skipping this validator and convicted equivocators. `None` only in
    /// a degenerate single-validator committee.
    fn next_forward_peer(&mut self, evidence: &EvidencePool) -> Option<usize> {
        let n = self.committee_size;
        for _ in 0..n {
            let candidate = self.forward_cursor % n;
            self.forward_cursor = self.forward_cursor.wrapping_add(1);
            if candidate != self.authority.as_usize()
                && !evidence.is_convicted(AuthorityIndex(candidate as u32))
            {
                return Some(candidate);
            }
        }
        None
    }

    /// Accounts one block the commit rule just sequenced: closes the
    /// commit notes of the transactions it carries (own ones, and ones this
    /// validator forwarded) and feeds the exactly-once digest ledger.
    pub fn on_sequenced(&mut self, block: &Block) {
        // Transactions this validator forwarded commit in *other* authors'
        // blocks; spot them by digest to close their batches' commit
        // notes. Gated on the map being non-empty — the digest per
        // committed transaction is only paid when forwarding is live.
        if !self.forwarded_out.is_empty() {
            for transaction in block.transactions() {
                if let Some((tag, client)) = self.forwarded_out.remove(&transaction.digest()) {
                    self.counters.forwarded_committed += 1;
                    self.close_note(tag, client);
                }
            }
        }
        if block.author() != self.authority {
            return;
        }
        for transaction in block.transactions() {
            let digest = transaction.digest();
            if self.committed_digests.insert(digest) {
                self.digests_by_round
                    .entry(block.round())
                    .or_default()
                    .push(digest);
            } else {
                self.duplicate_committed += 1;
            }
        }
        if let Some(mine) = self.own_block_txs.remove(&block.reference()) {
            self.own_committed += usize_gauge(mine.len());
            for (tag, client) in mine {
                self.close_note(tag, client);
            }
        }
    }

    /// Decrements the commit note for `(tag, client)`; a note reaching
    /// zero closes and its tag joins the client's `Committed` receipt.
    fn close_note(&mut self, tag: u64, client: usize) {
        if let Some(remaining) = self.notes.get_mut(&(tag, client)) {
            *remaining = remaining.saturating_sub(1);
            if *remaining == 0 {
                self.notes.remove(&(tag, client));
                self.closed.entry(client).or_default().push(tag);
            }
        }
    }

    /// The commit notifications closed since the last call, as
    /// `(client, receipt)` pairs in client order, chunked under the wire
    /// frame's tag bound. Allocates nothing when no note closed.
    pub fn take_commit_receipts(&mut self) -> Vec<(usize, TxReceipt)> {
        let mut receipts = Vec::new();
        for (client, tags) in std::mem::take(&mut self.closed) {
            self.counters.commit_notices += usize_gauge(tags.len());
            for chunk in tags.chunks(MAX_RECEIPT_TAGS) {
                let tags = chunk.to_vec();
                receipts.push((client, TxReceipt::Committed { tags }));
            }
        }
        receipts
    }

    /// Retention sweep for commit notes and forwarded digests: a batch
    /// whose transactions can never all commit here (e.g. a forwarded
    /// transaction dropped by a crashing peer) must not pin its note
    /// forever. Tags are engine times, so age prunes from the front.
    pub fn sweep(&mut self, now: Time) {
        if now.saturating_sub(self.last_sweep) < NOTE_RETENTION / 10 {
            return;
        }
        self.last_sweep = now;
        let floor = now.saturating_sub(NOTE_RETENTION);
        if floor > 0 {
            self.notes = self.notes.split_off(&(floor, 0));
            self.forwarded_out.retain(|_, &mut (tag, _)| tag >= floor);
        }
    }

    /// Drops digest-ledger entries for own blocks below the GC floor.
    pub fn prune_digests(&mut self, floor: Round) {
        let keep = self.digests_by_round.split_off(&floor);
        for digest in self.digests_by_round.values().flatten() {
            self.committed_digests.remove(digest);
        }
        self.digests_by_round = keep;
    }

    /// Current size of the exactly-once digest ledger.
    pub fn digest_ledger_len(&self) -> usize {
        self.committed_digests.len()
    }

    /// The bounded client-transaction pool (occupancy, rejection counters).
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// The transaction-pipeline accounting over the pool and this ledger.
    pub fn tx_integrity(&self) -> TxIntegrityReport {
        let mempool = &self.mempool;
        TxIntegrityReport {
            accepted: mempool.accepted(),
            rejected_duplicate: mempool.rejected_duplicate(),
            rejected_full: mempool.rejected_full(),
            rejected_rate_limited: self.counters.rate_limited,
            forwarded: mempool.forwarded(),
            pending: usize_gauge(mempool.len()),
            in_flight: self
                .own_block_txs
                .values()
                .map(|tags| usize_gauge(tags.len()))
                .sum(),
            own_committed: self.own_committed,
            duplicate_committed: self.duplicate_committed,
            peak_occupancy_txs: usize_gauge(mempool.peak_txs()),
            peak_occupancy_bytes: usize_gauge(mempool.peak_bytes()),
            capacity_txs: usize_gauge(mempool.config().capacity_txs),
            capacity_bytes: usize_gauge(mempool.config().capacity_bytes),
        }
    }

    /// The receipt/forwarding counters, completed from the pool.
    pub fn ingress_report(&self) -> IngressReport {
        IngressReport {
            forwarded: self.mempool.forwarded(),
            ..self.counters
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limited(rate: u64, burst: u64) -> IngressPolicy {
        IngressPolicy::new(IngressConfig {
            rate_limit_per_client: rate,
            burst_per_client: burst,
            ..IngressConfig::default()
        })
    }

    #[test]
    fn disabled_policy_admits_everything() {
        let mut policy = IngressPolicy::new(IngressConfig::default());
        for i in 0..10_000 {
            assert!(policy.admit(7, i));
        }
    }

    #[test]
    fn burst_then_refill_at_the_sustained_rate() {
        // 10 tx/s, burst of 3: three instant admissions, then one more
        // every 100 ms of engine time.
        let mut policy = limited(10, 3);
        for _ in 0..3 {
            assert!(policy.admit(1, 0));
        }
        assert!(!policy.admit(1, 0));
        assert!(!policy.admit(1, 50_000), "half a refill is not a token");
        assert!(policy.admit(1, 100_000));
        assert!(!policy.admit(1, 100_000));
        // A long idle period refills at most the burst depth.
        for _ in 0..3 {
            assert!(policy.admit(1, 60_000_000));
        }
        assert!(!policy.admit(1, 60_000_000));
    }

    #[test]
    fn buckets_are_independent_per_client() {
        let mut policy = limited(10, 1);
        assert!(policy.admit(1, 0));
        assert!(!policy.admit(1, 0));
        // Client 2's bucket is untouched by client 1's exhaustion.
        assert!(policy.admit(2, 0));
    }

    #[test]
    fn report_violations_catch_receipt_loss_and_overcounting() {
        let sound = IngressReport {
            batches_received: 5,
            receipts_emitted: 5,
            notes_opened: 4,
            commit_notices: 4,
            forwarded: 2,
            forwarded_committed: 2,
            rate_limited: 1,
        };
        assert!(sound.violations().is_empty());
        let lossy = IngressReport {
            receipts_emitted: 4,
            ..sound
        };
        assert_eq!(lossy.violations().len(), 1);
        let phantom = IngressReport {
            commit_notices: 9,
            forwarded_committed: 3,
            ..sound
        };
        assert_eq!(phantom.violations().len(), 2);
    }

    use mahimahi_types::{BlockBuilder, TestCommittee};

    const ME: AuthorityIndex = AuthorityIndex(0);
    const CLIENT: usize = 9;

    fn ledger(config: IngressConfig) -> ClientLedger {
        ClientLedger::new(config, MempoolConfig::test(100_000, 100_000), ME, 4)
    }

    /// A block by `author` at `round` carrying the benchmark transactions
    /// `ids` (never verified here, so it needs no parents).
    fn block(setup: &TestCommittee, author: u32, round: Round, ids: &[u64]) -> Block {
        BlockBuilder::new(AuthorityIndex(author), round)
            .transactions(ids.iter().map(|&id| Transaction::benchmark(id)))
            .build(setup)
    }

    #[test]
    fn ledger_note_closes_exactly_when_its_last_accepted_transaction_is_sequenced() {
        let setup = TestCommittee::new(4, 7);
        let mut ledger = ledger(IngressConfig::default());
        // Three submissions, one a duplicate: two accepted, one note.
        let batch = [1, 2, 1].map(Transaction::benchmark).to_vec();
        let (receipt, accepted) = ledger.admit_batch(CLIENT, batch, 100);
        assert!(accepted);
        let TxReceipt::Admission { tag: 100, verdicts } = receipt else {
            panic!("admission receipt tagged with the receive time");
        };
        assert_eq!(
            verdicts,
            [
                TxVerdict::Accepted,
                TxVerdict::Accepted,
                TxVerdict::Duplicate
            ]
        );
        // The two land in different own blocks.
        let first = block(&setup, 0, 1, &[1]);
        let second = block(&setup, 0, 2, &[2]);
        ledger.register_own(first.reference(), vec![(100, CLIENT)]);
        ledger.register_own(second.reference(), vec![(100, CLIENT)]);
        assert_eq!(ledger.tx_integrity().in_flight, 2);

        ledger.on_sequenced(&first);
        assert_eq!(ledger.tx_integrity().own_committed, 1);
        assert!(ledger.take_commit_receipts().is_empty(), "one still owed");
        // A peer's block with the same payload closes nothing: only own
        // blocks (and forwarded digests) count.
        ledger.on_sequenced(&block(&setup, 1, 2, &[2]));
        assert!(ledger.take_commit_receipts().is_empty());
        ledger.on_sequenced(&second);
        assert_eq!(
            ledger.take_commit_receipts(),
            [(CLIENT, TxReceipt::Committed { tags: vec![100] })]
        );
        assert!(ledger.take_commit_receipts().is_empty(), "delivered once");

        let report = ledger.ingress_report();
        assert_eq!((report.batches_received, report.receipts_emitted), (1, 1));
        assert_eq!((report.notes_opened, report.commit_notices), (1, 1));
        assert!(report.violations().is_empty());
        let integrity = ledger.tx_integrity();
        assert_eq!((integrity.own_committed, integrity.in_flight), (2, 0));
    }

    #[test]
    fn ledger_note_of_a_forwarded_transaction_closes_in_any_authors_block() {
        let setup = TestCommittee::new(4, 7);
        let evidence = EvidencePool::new(setup.committee().clone());
        let mut ledger = ledger(IngressConfig {
            forward_age: Some(1_000),
            ..IngressConfig::default()
        });
        let batch = vec![Transaction::benchmark(5)];
        assert!(ledger.admit_batch(CLIENT, batch, 500).1);
        assert_eq!(ledger.forward_wake(), Some(1_500));
        assert!(ledger.forward_aged(&evidence, 1_499).is_none());
        // Past the age it moves to the next peer in rotation — never self.
        let (peer, moved) = ledger.forward_aged(&evidence, 1_500).expect("aged out");
        assert_eq!((peer, moved.len()), (1, 1));
        assert!(ledger.mempool().is_empty());
        assert_eq!(ledger.forward_wake(), None);

        ledger.on_sequenced(&block(&setup, 2, 3, &[5]));
        assert_eq!(ledger.tx_integrity().own_committed, 0, "not an own block");
        assert_eq!(
            ledger.take_commit_receipts(),
            [(CLIENT, TxReceipt::Committed { tags: vec![500] })]
        );
        assert_eq!(ledger.ingress_report().forwarded_committed, 1);
        assert!(ledger.forwarded_out.is_empty());
    }

    #[test]
    fn ledger_receipts_chunk_at_the_wire_tag_bound() {
        let setup = TestCommittee::new(4, 7);
        let mut ledger = ledger(IngressConfig::default());
        // One single-transaction batch per engine microsecond: as many
        // notes, all closed by one own block.
        let count = MAX_RECEIPT_TAGS as u64 + 5;
        for now in 0..count {
            let batch = vec![Transaction::benchmark(now)];
            assert!(ledger.admit_batch(CLIENT, batch, now).1);
        }
        let ids: Vec<u64> = (0..count).collect();
        let own = block(&setup, 0, 1, &ids);
        ledger.register_own(
            own.reference(),
            (0..count).map(|tag| (tag, CLIENT)).collect(),
        );
        ledger.on_sequenced(&own);
        let receipts = ledger.take_commit_receipts();
        let lengths: Vec<usize> = receipts
            .iter()
            .map(|(client, receipt)| match receipt {
                TxReceipt::Committed { tags } if *client == CLIENT => tags.len(),
                other => panic!("unexpected receipt {other:?}"),
            })
            .collect();
        assert_eq!(lengths, [MAX_RECEIPT_TAGS, 5]);
        assert_eq!(ledger.ingress_report().commit_notices, count);
    }

    #[test]
    fn ledger_retention_sweep_drops_from_the_front_only() {
        let evidence = EvidencePool::new(TestCommittee::new(4, 7).committee().clone());
        let mut ledger = ledger(IngressConfig {
            forward_age: Some(0),
            forward_max: 1,
            ..IngressConfig::default()
        });
        // An old and a recent batch, one transaction of each forwarded.
        let old = 1_000;
        let recent = old + NOTE_RETENTION;
        for (now, id) in [(old, 1), (recent, 2)] {
            let batch = vec![Transaction::benchmark(id)];
            assert!(ledger.admit_batch(CLIENT, batch, now).1);
            assert!(ledger.forward_aged(&evidence, now).is_some());
        }
        assert_eq!(ledger.notes.len(), 2);
        // Too soon after the last sweep (time zero): nothing happens.
        ledger.sweep(NOTE_RETENTION / 10 - 1);
        assert_eq!(ledger.notes.len(), 2);
        // The floor lands between the two: only the old entries go.
        ledger.sweep(recent + 1);
        assert_eq!(
            ledger.notes.keys().copied().collect::<Vec<_>>(),
            [(recent, CLIENT)]
        );
        let kept: Vec<u64> = ledger.forwarded_out.values().map(|&(tag, _)| tag).collect();
        assert_eq!(kept, [recent]);
    }

    #[test]
    fn ledger_digest_ledger_counts_a_duplicate_and_is_pruned_at_the_floor() {
        let setup = TestCommittee::new(4, 7);
        let mut ledger = ledger(IngressConfig::default());
        ledger.on_sequenced(&block(&setup, 0, 1, &[1, 2]));
        ledger.on_sequenced(&block(&setup, 0, 5, &[3]));
        // Peers' blocks never enter the exactly-once ledger.
        ledger.on_sequenced(&block(&setup, 1, 5, &[4]));
        assert_eq!(ledger.digest_ledger_len(), 3);
        assert_eq!(ledger.tx_integrity().duplicate_committed, 0);
        // Transaction 2 commits again in a later own block.
        ledger.on_sequenced(&block(&setup, 0, 6, &[2, 5]));
        assert_eq!(ledger.tx_integrity().duplicate_committed, 1);
        assert_eq!(ledger.digest_ledger_len(), 4);
        // Round 1's digests go with the floor; rounds 5 and 6 stay.
        ledger.prune_digests(5);
        assert_eq!(ledger.digest_ledger_len(), 2);
        assert_eq!(
            ledger.digests_by_round.keys().copied().collect::<Vec<_>>(),
            [5, 6]
        );
    }
}
