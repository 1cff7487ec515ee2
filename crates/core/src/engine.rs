//! The sans-I/O validator core: one event-driven state machine shared by
//! every driver.
//!
//! [`ValidatorEngine`] is the paper's validator — receive blocks, advance
//! rounds, run the commit rule, emit blocks and commits — with every
//! side-effect reified as data. It never touches a socket, a clock, a disk,
//! or a thread: drivers feed it [`Input`]s and carry out the [`Output`]s it
//! returns.
//!
//! # Where each concern lives
//!
//! The engine is a consensus kernel plus three plain components it holds
//! as fields. Each owns its state outright; the kernel routes inputs to
//! them and renders what they hand back as outputs.
//!
//! | concern | file | state it owns | inputs that reach it |
//! |---|---|---|---|
//! | consensus kernel — admission, production, commit rule, linearisation | `engine.rs` (the [`ProposerStrategy`] seam in `engine/proposer.rs`) | local DAG ([`BlockStore`]), [`EvidencePool`], [`CommitSequencer`], proposer strategy, round pacing, unreferenced tips, execution state, commit history | `BlockReceived`, `SyncRequest`, `SyncReply`, `EvidenceReceived`, `TimerFired` |
//! | client ledger — the pool, receipts, forwarding, exactly-once accounting | `ingress.rs` ([`ClientLedger`]) | the bounded transaction pool (`mempool.rs`), token buckets, receipt counters, commit notes, forwarded digests, own-block tags, committed-digest ledger | `TxBatchReceived`, `TxForwardReceived`; every own block built (it hands over the payload); every block sequenced |
//! | checkpoint book — certification and state-sync material | `checkpointing.rs` ([`CheckpointBook`]) | the newest cut stood on, attestations per position inside a fixed window, latest certified position, commit frontier, who asked for state-sync and the one snapshot taken for them | `CheckpointReceived`, `CheckpointRequested`, `CheckpointSyncReceived`; every checkpoint boundary; checkpoint records at recovery |
//! | certified broadcast — Tusk's proposal/ack/certificate pipeline | `certified.rs` ([`CertifiedBroadcast`]) | parked proposals, ack tallies, certified own proposals | `ProposalReceived`, `AckReceived`, `CertificateReceived` — only when [`EngineConfig::certified`]; otherwise the component does not exist and the three are dropped |
//!
//! # Drivers
//!
//! Two drivers share this core:
//!
//! - the **simulator** (`mahimahi-sim`) maps `Broadcast`/`SendTo` onto its
//!   virtual network — each envelope encoded and decoded once, at send —
//!   `WakeAt` onto its event heap, and `Persist` onto an in-memory
//!   write-ahead log per validator;
//! - the **TCP node** (`mahimahi-node`) maps `Broadcast`/`SendTo` onto the
//!   length-prefixed transport, `Persist` onto its write-ahead log, and
//!   `Committed` onto the application channel.
//!
//! A client transaction has one way in and one way out, in both: a batch
//! enters as [`Input::TxBatchReceived`] — `from` is the wire client's
//! connection id, or the validator's own index for the local client (the
//! node's handle, the simulator's open-loop clients) — and is answered through [`Output::TxReceipt`], which every
//! driver reads: an `Admission` at once, a `Committed` when the batch is
//! sequenced. Each tag of a `Committed` receipt is the batch's receive
//! time, so `now − tag` is the client-observed commit latency — the one
//! quantity the simulator's latency column and the wall-clock benchmark
//! both report.
//!
//! The two that persist follow one rule, stated at
//! [`WalRecord::is_durable`], and recover through one entry point,
//! [`ValidatorEngine::restore`].
//!
//! # Cuts and snapshots
//!
//! Every [`EngineConfig::checkpoint_interval`] sequencing decisions the
//! engine signs a *cut* — position, frontier, execution root, sequencer
//! resume digest — broadcasts it and surfaces it as
//! [`Output::CheckpointProduced`]. Signing reads the incrementally kept
//! root and costs O(what changed since the last cut); an ordinary cut is
//! neither persisted nor snapshotted. It needs no durability: the cut is a
//! function of the committed prefix, so a restarted validator re-derives
//! and re-signs the identical bytes — there is nothing to equivocate on.
//!
//! The state behind a cut is encoded (`ExecutionState::snapshot`, O(state))
//! only at the cuts where someone needs it, and both triggers are functions
//! of the engine's inputs, so traces still replay byte for byte:
//!
//! - **the log**, when the encoded bytes of the blocks sequenced since the
//!   last persisted snapshot reach [`SNAPSHOT_BLOCK_BYTES_RATIO`] times
//!   that snapshot's size. Such a cut emits
//!   [`Output::Persist`]`(`[`WalRecord::Checkpoint`]`)` ahead of its
//!   broadcast, and the driver's log marks what it subsumes. The rule reads
//!   the committed sequence alone, so correct validators snapshot the same
//!   cuts;
//! - **a joiner**, when a committee member sent
//!   [`Input::CheckpointRequested`] since the last response: the next cut's
//!   snapshot goes to the [`CheckpointBook`], and the
//!   [`Envelope::CheckpointResponse`] leaves when that cut has its quorum.
//!
//! # Determinism contract
//!
//! `handle` is a pure function of the engine's construction parameters
//! (committee provisioning, committer, configuration, strategy) and the
//! sequence of [`Input`]s handled so far. The engine never reads a wall
//! clock — time only enters through [`Input::TimerFired`] — and never uses
//! randomness or iteration over unordered containers to decide an output.
//! Consequently a recorded input trace replayed into a freshly constructed
//! engine reproduces the exact output sequence of the original run, byte
//! for byte; `tests/driver_equivalence.rs` (a live TCP run's traces) and
//! `tests/engine_proptest.rs` (arbitrary traces) enforce this. Anything that
//! would break the contract (sockets, `Instant::now`, thread scheduling)
//! belongs in a driver, not here.
//!
//! # Example
//!
//! ```
//! use mahimahi_core::engine::{EngineConfig, Input, Output, ValidatorEngine};
//! use mahimahi_core::{Committer, CommitterOptions};
//! use mahimahi_types::{AuthorityIndex, Envelope, TestCommittee};
//!
//! let setup = TestCommittee::new(4, 7);
//! let committer = Committer::new(setup.committee().clone(), CommitterOptions::default());
//! let mut engine = ValidatorEngine::honest(
//!     EngineConfig::new(AuthorityIndex(0), setup),
//!     Box::new(committer),
//! );
//! // Genesis already holds a quorum: the first timer produces round 1.
//! let outputs = engine.handle(Input::TimerFired { now: 0 });
//! assert!(matches!(&outputs[..], [Output::Persist(_), Output::Broadcast(Envelope::Block(b))]
//!     if b.round() == 1));
//! ```

use mahimahi_crypto::blake2b::blake2b_256;
use mahimahi_crypto::{CoinSecret, Keypair};
use mahimahi_dag::{BlockStore, InsertResult};
use mahimahi_types::{
    AuthorityIndex, AuthoritySet, Block, BlockRef, Checkpoint, CodecError, Committee, Decode,
    Decoder, Encode, Encoder, Envelope, EquivocationProof, Round, Slot, StateRoot, TestCommittee,
    Transaction, TxReceipt, Verified,
};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

use crate::admission;
use crate::certified::CertifiedBroadcast;
use crate::checkpointing::CheckpointBook;
use crate::evidence::EvidencePool;
use crate::execution::{BalanceLedger, ExecutionState};
use crate::ingress::{ClientLedger, IngressConfig, IngressReport};
use crate::mempool::{Mempool, MempoolConfig, TxIntegrityReport};
use crate::protocol::ProtocolCommitter;
use crate::sequencer::{CommitDecision, CommitSequencer, CommittedSubDag, SequencerSnapshot};
use crate::telemetry::{NoopSink, TelemetrySink};
use mahimahi_telemetry::Stage;

mod proposer;
pub use proposer::{HonestProposer, ProposeCtx, ProposerStrategy, Route};

/// Engine time in microseconds. The engine is clock-free: this is whatever
/// monotonic microsecond counter the driver feeds through
/// [`Input::TimerFired`] (virtual time in the simulator, `Instant`-derived
/// elapsed time in the node).
pub type Time = u64;

/// An event fed into the engine by a driver.
#[derive(Debug, Clone)]
pub enum Input {
    /// A block arrived (best-effort dissemination).
    BlockReceived {
        /// The sending peer (synchronizer requests go back to it).
        from: usize,
        /// The received block.
        block: Arc<Block>,
    },
    /// Certified pipeline: a proposal awaiting acknowledgement.
    ProposalReceived {
        /// The proposing peer.
        from: usize,
        /// The proposed block.
        block: Arc<Block>,
    },
    /// Certified pipeline: an acknowledgement of an own proposal.
    AckReceived {
        /// The sending peer.
        from: usize,
        /// The acknowledged block.
        reference: BlockRef,
        /// The acknowledging validator.
        voter: AuthorityIndex,
    },
    /// Certified pipeline: a certificate releasing a block into the DAG.
    CertificateReceived {
        /// The sending peer.
        from: usize,
        /// The certified block's reference.
        reference: BlockRef,
        /// Signatures aggregated in the certificate.
        signatures: usize,
    },
    /// Synchronizer: a peer asks for the listed blocks.
    SyncRequest {
        /// The requesting peer.
        from: usize,
        /// The requested block references.
        references: Vec<BlockRef>,
    },
    /// Synchronizer: blocks answering an earlier request.
    SyncReply {
        /// The responding peer.
        from: usize,
        /// The delivered blocks.
        blocks: Vec<Arc<Block>>,
    },
    /// A gossiped equivocation proof.
    EvidenceReceived {
        /// The gossiping peer.
        from: usize,
        /// The (untrusted, re-verified) proof.
        proof: EquivocationProof,
    },
    /// A client transaction batch arrived — the only way a client
    /// transaction enters: an [`Envelope::TxBatch`] frame off the wire, or
    /// the driver's local client submitting under the validator's own
    /// index. Every transaction is submitted to the bounded mempool tagged
    /// with the engine's current time, and the batch is answered through
    /// [`Output::TxReceipt`] — admission verdicts at once, a commit notice
    /// carrying that tag later — so the tag doubles as a client-observed
    /// commit-latency probe. Enqueue-only: inclusion happens at the next
    /// production, driven by a timer or message input, so batch
    /// submissions do not fragment across blocks.
    TxBatchReceived {
        /// The submitting client connection, or the validator's own index
        /// for its local client (a committee member — never rate-limited).
        from: usize,
        /// The batched transaction payloads.
        transactions: Vec<Transaction>,
    },
    /// A peer forwarded transactions that sat unproposed in its pool past
    /// its forwarding age ([`Envelope::TxForward`]). Plain mempool
    /// admission — digest dedup and capacity apply, the rate limiter does
    /// not (the sender is a committee member), and no receipt is emitted
    /// (the forwarding pool keeps the client relationship). Forwarded
    /// transactions are never forwarded a second hop.
    TxForwardReceived {
        /// The forwarding peer.
        from: usize,
        /// The moved transaction payloads.
        transactions: Vec<Transaction>,
    },
    /// A receipt frame observed on the wire ([`Envelope::TxReceipt`]).
    /// Receipts address clients, not validators — the engine ignores the
    /// input; it exists so [`Input::from_envelope`] stays total.
    TxReceiptReceived {
        /// The sending peer.
        from: usize,
        /// The receipt payload.
        receipt: TxReceipt,
    },
    /// A peer's signed execution checkpoint arrived (broadcast at every
    /// checkpoint boundary). The signature is verified inline; matching
    /// attestations accumulate toward quorum certification.
    CheckpointReceived {
        /// The sending peer.
        from: usize,
        /// The (untrusted, re-verified) checkpoint.
        checkpoint: Checkpoint,
    },
    /// State-sync: a peer asks for the latest quorum-certified checkpoint
    /// plus the snapshots it certifies.
    CheckpointRequested {
        /// The requesting peer.
        from: usize,
    },
    /// State-sync: a checkpoint payload answering an earlier request — a
    /// quorum of matching checkpoints plus the execution and sequencer
    /// snapshots they certify. Adopted only after full verification.
    CheckpointSyncReceived {
        /// The responding peer.
        from: usize,
        /// The claimed quorum of matching attestations.
        checkpoints: Vec<Checkpoint>,
        /// Execution snapshot hashing to the certified state root.
        execution: Vec<u8>,
        /// Sequencer snapshot hashing to the certified resume digest.
        resume: Vec<u8>,
    },
    /// The driver's clock advanced to `now`. The only way time enters the
    /// engine; drivers send it before delivering messages and whenever a
    /// previously emitted [`Output::WakeAt`] falls due.
    TimerFired {
        /// Current driver time (microseconds, monotone).
        now: Time,
    },
}

impl Input {
    /// Maps a decoded wire message onto the corresponding input.
    pub fn from_envelope(from: usize, envelope: Envelope) -> Input {
        match envelope {
            Envelope::Block(block) => Input::BlockReceived { from, block },
            Envelope::Proposal(block) => Input::ProposalReceived { from, block },
            Envelope::Ack { reference, voter } => Input::AckReceived {
                from,
                reference,
                voter,
            },
            Envelope::Certificate {
                reference,
                signatures,
            } => Input::CertificateReceived {
                from,
                reference,
                signatures,
            },
            Envelope::Request(references) => Input::SyncRequest { from, references },
            Envelope::Response(blocks) => Input::SyncReply { from, blocks },
            Envelope::Evidence(proof) => Input::EvidenceReceived { from, proof },
            Envelope::TxBatch(transactions) => Input::TxBatchReceived { from, transactions },
            Envelope::TxForward(transactions) => Input::TxForwardReceived { from, transactions },
            Envelope::TxReceipt(receipt) => Input::TxReceiptReceived { from, receipt },
            Envelope::Checkpoint(checkpoint) => Input::CheckpointReceived { from, checkpoint },
            Envelope::CheckpointRequest => Input::CheckpointRequested { from },
            Envelope::CheckpointResponse {
                checkpoints,
                execution,
                resume,
            } => Input::CheckpointSyncReceived {
                from,
                checkpoints,
                execution,
                resume,
            },
        }
    }
}

/// An effect the engine asks its driver to carry out.
#[derive(Debug)]
pub enum Output {
    /// Send `Envelope` to every other validator.
    Broadcast(Envelope),
    /// Send `Envelope` to one peer.
    SendTo(usize, Envelope),
    /// A leader slot committed; the sub-DAG extends the total order.
    Committed(CommittedSubDag),
    /// Append the record to durable storage. Drivers without persistence
    /// (the simulator) drop this; the others sync it before their next
    /// send when [`WalRecord::is_durable`] says so.
    Persist(WalRecord),
    /// Call back with [`Input::TimerFired`] no later than the given time.
    WakeAt(Time),
    /// A new authority was convicted of equivocation (fired once per
    /// author, after the proof was verified, recorded, and persisted).
    Convicted(EquivocationProof),
    /// A client-ingress receipt to render back to the submitter:
    /// per-transaction admission verdicts for every received batch
    /// ([`Input::TxBatchReceived`]) — backpressure (a duplicate, a pool at
    /// capacity, an exhausted token bucket) surfaces here — and later the
    /// commit notification once all accepted transactions of a batch are
    /// sequenced. The TCP node frames it down the client's connection (or
    /// its local handle's channel when `peer` is its own index); the
    /// simulator keeps the ones addressed to clients outside the committee
    /// and turns its local clients' `Committed` receipts into latency
    /// samples.
    TxReceipt {
        /// The client/peer id the receipt addresses (the batch's `from`).
        peer: usize,
        /// The receipt payload.
        receipt: TxReceipt,
    },
    /// A checkpoint boundary was crossed: the engine signed and broadcast
    /// the cut. Only a cut whose snapshot the log needs is also persisted —
    /// its [`Output::Persist`] then precedes this in the same batch; every
    /// other cut can be signed again from the committed prefix. Surfaced so
    /// drivers can gauge checkpoint progress; no action required.
    CheckpointProduced(Checkpoint),
}

/// One durable log record, as emitted through [`Output::Persist`] and
/// replayed through [`ValidatorEngine::restore`] at recovery.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A block that entered (or produced by) this validator.
    Block(Arc<Block>),
    /// A verified equivocation conviction.
    Evidence(EquivocationProof),
    /// A checkpoint with the snapshots it attests — the recovery cut,
    /// written at the cuts the log-size rule picks (see the module docs)
    /// and when a cut is adopted from a quorum.
    /// Once this record is durable, every block *below* the snapshot's GC
    /// floor is redundant for recovery: restart restores the snapshots
    /// and re-sequences only the trailing rounds, which is what makes WAL
    /// truncation below the checkpointed frontier safe (see
    /// `mahimahi-node`).
    Checkpoint {
        /// The signed attestation of the cut.
        checkpoint: Checkpoint,
        /// Execution snapshot whose rebuilt state has the checkpoint's
        /// state root.
        execution: Vec<u8>,
        /// Sequencer snapshot hashing to the checkpoint's resume digest.
        resume: Vec<u8>,
    },
}

impl WalRecord {
    /// The first byte of a block record. The record is this tag followed
    /// by the block's encoding — the same bytes as the block's
    /// [`Envelope::Block`] frame, whose tag is also 1 — so a log can write
    /// a block record as this byte and the block's retained bytes
    /// ([`Block::as_bytes`]) without encoding or copying the block.
    pub const BLOCK_TAG: u8 = 1;

    /// Whether this record must reach stable storage before anything the
    /// engine emitted after it leaves the validator — **durability before
    /// dissemination**, the one persistence rule every driver with a log
    /// follows. The engine always emits a record's [`Output::Persist`]
    /// ahead of the [`Output::Broadcast`]/[`Output::SendTo`] that depends
    /// on it; a driver upholds the rule by syncing its log between
    /// appending a durable record and its next send.
    ///
    /// Durable are: this validator's *own blocks* (a restart that forgot a
    /// round it already broadcast would produce it again under different
    /// parents — accidental equivocation), *evidence* (conviction gossip is
    /// flood-once: a lost conviction is not re-sent) and *checkpoint
    /// records* (the log below the cut is truncated on the strength of this
    /// record). Peers' blocks can be fetched again through the
    /// synchronizer, so they ride the next sync. A cut that produced no
    /// record needs no rule: it is never logged, and losing it loses
    /// nothing — the same committed prefix signs the same cut again.
    pub fn is_durable(&self, authority: AuthorityIndex) -> bool {
        !matches!(self, WalRecord::Block(block) if block.author() != authority)
    }
}

const WAL_TAG_EVIDENCE: u8 = 2;
const WAL_TAG_CHECKPOINT: u8 = 3;

impl Encode for WalRecord {
    fn encode(&self, encoder: &mut Encoder) {
        match self {
            WalRecord::Block(block) => {
                encoder.put_u8(WalRecord::BLOCK_TAG);
                block.as_ref().encode(encoder);
            }
            WalRecord::Evidence(proof) => {
                encoder.put_u8(WAL_TAG_EVIDENCE);
                proof.encode(encoder);
            }
            WalRecord::Checkpoint {
                checkpoint,
                execution,
                resume,
            } => {
                encoder.put_u8(WAL_TAG_CHECKPOINT);
                checkpoint.encode(encoder);
                encoder.put_var_bytes(execution);
                encoder.put_var_bytes(resume);
            }
        }
    }
}

impl Decode for WalRecord {
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match decoder.get_u8()? {
            WalRecord::BLOCK_TAG => Ok(WalRecord::Block(Block::decode(decoder)?.into_arc())),
            WAL_TAG_EVIDENCE => Ok(WalRecord::Evidence(EquivocationProof::decode(decoder)?)),
            WAL_TAG_CHECKPOINT => Ok(WalRecord::Checkpoint {
                checkpoint: Checkpoint::decode(decoder)?,
                execution: decoder.get_var_bytes()?.to_vec(),
                resume: decoder.get_var_bytes()?.to_vec(),
            }),
            _ => Err(CodecError::InvalidValue("wal record tag")),
        }
    }
}

/// Static parameters of a [`ValidatorEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The authority this engine runs as.
    pub authority: AuthorityIndex,
    /// The public committee: every member's verifying key and the coin's
    /// public parameters.
    pub committee: Committee,
    /// This authority's signing key (blocks and checkpoints).
    pub keypair: Keypair,
    /// This authority's share of the global perfect coin, embedded in
    /// every block it produces.
    pub coin_secret: CoinSecret,
    /// Whether blocks require certification (consistent broadcast) before
    /// entering the DAG (Tusk).
    pub certified: bool,
    /// Mempool bounds and per-block payload budget: pool capacity in
    /// transactions and bytes, and the `max_block_txs`/`max_block_bytes`
    /// drained into each produced block. See [`MempoolConfig`].
    pub mempool: MempoolConfig,
    /// Client-ingress policy: per-client token-bucket rate limiting and
    /// age-based mempool forwarding. Fully permissive by default. See
    /// [`IngressConfig`].
    pub ingress: IngressConfig,
    /// How long to keep collecting previous-round blocks after the quorum
    /// arrived before producing the next round. Real implementations pace
    /// rounds this way so that far-region blocks stay referenced; advancing
    /// at the instant of quorum starves the slowest regions and (with short
    /// waves) skips their leader slots. 0 disables the wait.
    pub inclusion_wait: Time,
    /// Minimum spacing between produced rounds (localhost clusters would
    /// otherwise spin thousands of rounds per second). 0 disables pacing.
    pub min_round_interval: Time,
    /// Garbage-collection depth: blocks more than this many rounds below
    /// the commit frontier are deterministically excluded from commits and
    /// periodically dropped from memory. `None` disables GC.
    pub gc_depth: Option<u64>,
    /// Produce no block with round ≥ this (crash-fault modelling; `None`
    /// never halts).
    pub halt_from_round: Option<Round>,
    /// Sign and emit a `Checkpoint` every this many sequencing decisions
    /// (commits *and* skips); 0 disables checkpointing.
    ///
    /// The boundary is pinned to the decision count — which every correct
    /// validator agrees on — so all of them checkpoint the same cuts and
    /// their attestations aggregate into quorum certificates. The cuts the
    /// log-size rule picks (see the module docs) also persist a
    /// [`WalRecord::Checkpoint`] carrying the execution and sequencer
    /// snapshots: once that record is durable, the write-ahead log may be
    /// truncated below the snapshot's GC floor (recovery restores the
    /// snapshots and re-sequences only the trailing rounds).
    pub checkpoint_interval: u64,
}

impl EngineConfig {
    /// An uncertified configuration with no pacing, no GC, and the default
    /// block capacity — the base every driver specializes. Takes the public
    /// committee and `authority`'s own secrets from `setup`; the other
    /// members' secrets are dropped.
    pub fn new(authority: AuthorityIndex, setup: TestCommittee) -> Self {
        EngineConfig {
            authority,
            committee: setup.committee().clone(),
            keypair: setup.keypair(authority).clone(),
            coin_secret: setup.coin_secret(authority).clone(),
            certified: false,
            mempool: MempoolConfig::default(),
            ingress: IngressConfig::default(),
            inclusion_wait: 0,
            min_round_interval: 0,
            gc_depth: None,
            halt_from_round: None,
            checkpoint_interval: 32,
        }
    }
}

/// The log takes a snapshot at the first cut where the encoded bytes of the
/// blocks sequenced since its last one reach this many times that
/// snapshot's size. The bound it buys: every snapshot but the newest is
/// followed by sixteen times its size in blocks, so all snapshots together
/// stay under 1/16 of the block bytes logged plus the newest one — and
/// under the 1/8 aimed at even while the state grows by another 1/16 of
/// the block bytes between two of them (a 16-byte account per 256 bytes of
/// block). What it costs: a restart replays at most that much log above
/// the snapshot. Measured against the last snapshot rather than the live
/// state so that the rule always fires, and needs no O(1) size from
/// `ExecutionState`; counted in block bytes, not transaction bytes, so an
/// idle cluster's empty blocks still compact.
pub const SNAPSHOT_BLOCK_BYTES_RATIO: u64 = 16;

/// The snapshot cadence of one engine's log (see
/// [`SNAPSHOT_BLOCK_BYTES_RATIO`]).
#[derive(Default)]
struct SnapshotCadence {
    /// Encoded bytes of the blocks sequenced since the last snapshot this
    /// engine persisted, adopted or restored.
    block_bytes_since: u64,
    /// Size of that snapshot, both encodings; 0 before the first.
    last_bytes: u64,
}

impl SnapshotCadence {
    fn due(&self) -> bool {
        self.block_bytes_since >= SNAPSHOT_BLOCK_BYTES_RATIO.saturating_mul(self.last_bytes)
    }

    /// Restarts the count at a snapshot of the given encodings.
    fn taken(&mut self, execution: &[u8], resume: &[u8]) {
        self.block_bytes_since = 0;
        self.last_bytes = usize_gauge(execution.len() + resume.len());
    }
}

/// What this engine has sequenced so far.
#[derive(Default)]
struct CommitHistory {
    /// The committed leader sequence (`None` = skipped slot), for safety
    /// checking across validators. Cleared when a checkpoint is installed:
    /// the log then covers only post-checkpoint decisions.
    log: Vec<Option<BlockRef>>,
    committed_slots: u64,
    skipped_slots: u64,
    sequenced_blocks: u64,
    /// Transactions committed, across all authors.
    committed_transactions: u64,
}

impl CommitHistory {
    fn record(&mut self, decision: &CommitDecision) {
        match decision {
            CommitDecision::Skip(..) => {
                self.skipped_slots += 1;
                self.log.push(None);
            }
            CommitDecision::Commit(sub_dag) => {
                self.log.push(Some(sub_dag.leader));
                self.committed_slots += 1;
                self.sequenced_blocks += usize_gauge(sub_dag.blocks.len());
                for block in &sub_dag.blocks {
                    self.committed_transactions += usize_gauge(block.transactions().len());
                }
            }
        }
    }
}

/// The transport-free, clock-free validator state machine.
///
/// See the [module docs](crate::engine) for what lives where, the driver
/// contract and the determinism guarantee.
pub struct ValidatorEngine {
    config: EngineConfig,
    store: BlockStore,
    evidence: EvidencePool,
    sequencer: CommitSequencer<Box<dyn ProtocolCommitter>>,
    /// The [`BlockStore::version`] the commit rule last ran on, or `None`
    /// when it has to run on the next input regardless (before the first,
    /// and after the sequencer jumped to a cut). The rule is a function of
    /// the DAG and the sequencer's position, and a run on an unchanged pair
    /// decides nothing new — so `commit` skips it.
    decided_at: Option<u64>,
    strategy: Option<Box<dyn ProposerStrategy>>,
    /// Driver time, advanced only by [`Input::TimerFired`].
    now: Time,
    /// Last round this validator produced a block for.
    round: Round,
    /// When the quorum for advancing past `round` was first observed.
    quorum_since: Option<Time>,
    /// When the last block was produced (round pacing); `None` before the
    /// first production so start-up is never delayed.
    last_production: Option<Time>,
    /// Messages built but deliberately held back (slow-proposer pacing):
    /// (release time, message), in release order.
    pending_out: VecDeque<(Time, Envelope)>,
    /// Blocks in the local DAG that no stored block references yet —
    /// candidates for the next block's parent list.
    unreferenced: BTreeSet<BlockRef>,
    /// The deterministic state machine folded over the commit stream.
    execution: Box<dyn ExecutionState>,
    history: CommitHistory,
    cadence: SnapshotCadence,
    clients: ClientLedger,
    checkpoints: CheckpointBook,
    /// `Some` exactly when [`EngineConfig::certified`].
    certified: Option<CertifiedBroadcast>,
    /// Record-only stage observer (default: [`NoopSink`]). Never consulted
    /// for decisions — see [`crate::telemetry`] for the contract.
    telemetry: Arc<dyn TelemetrySink>,
}

impl ValidatorEngine {
    /// Creates the engine with an explicit [`ProposerStrategy`].
    pub fn new(
        config: EngineConfig,
        committer: Box<dyn ProtocolCommitter>,
        strategy: Box<dyn ProposerStrategy>,
    ) -> Self {
        let committee = config.committee.clone();
        let mut sequencer = CommitSequencer::new(committer);
        if let Some(depth) = config.gc_depth {
            sequencer = sequencer.with_gc_depth(depth);
        }
        sequencer.set_checkpoint_interval(config.checkpoint_interval);
        ValidatorEngine {
            store: BlockStore::new(committee.size(), committee.quorum_threshold()),
            evidence: EvidencePool::new(committee.clone()),
            sequencer,
            decided_at: None,
            strategy: Some(strategy),
            now: 0,
            round: 0,
            quorum_since: None,
            last_production: None,
            pending_out: VecDeque::new(),
            unreferenced: Block::all_genesis(committee.size())
                .iter()
                .map(Block::reference)
                .collect(),
            execution: Box::new(BalanceLedger::new()),
            history: CommitHistory::default(),
            cadence: SnapshotCadence::default(),
            clients: ClientLedger::new(
                config.ingress,
                config.mempool,
                config.authority,
                committee.size(),
            ),
            certified: config
                .certified
                .then(|| CertifiedBroadcast::new(config.authority, committee.quorum_threshold())),
            checkpoints: CheckpointBook::new(
                committee,
                config.authority,
                config.checkpoint_interval,
            ),
            telemetry: Arc::new(NoopSink),
            config,
        }
    }

    /// Attaches a record-only telemetry sink (default: [`NoopSink`]). The
    /// sink observes commit-path stage boundaries — apply, sequencing,
    /// execution, receipt emission — with durations derived from the
    /// driver-fed clock; it can never change an output (the sink-
    /// equivalence proptest holds the engine to that).
    pub fn set_telemetry(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.telemetry = sink;
    }

    /// Replaces the execution state machine (default: [`BalanceLedger`]).
    /// Must be called before the first input — swapping mid-run would
    /// desync the state root from the committed prefix.
    pub fn with_execution(mut self, execution: Box<dyn ExecutionState>) -> Self {
        self.execution = execution;
        self
    }

    /// Creates the engine with the protocol-faithful [`HonestProposer`].
    pub fn honest(config: EngineConfig, committer: Box<dyn ProtocolCommitter>) -> Self {
        ValidatorEngine::new(config, committer, Box::new(HonestProposer))
    }

    /// Verifies one input with [`admission::verify`], then applies it
    /// through [`ValidatorEngine::handle_verified`], returning the effects
    /// for the driver to perform, in order. An input that fails
    /// verification yields no outputs and changes nothing — what a driver
    /// that drops it in its own verify stage observes. See the module docs
    /// for the determinism contract.
    pub fn handle(&mut self, input: Input) -> Vec<Output> {
        match admission::verify(&self.config.committee, input) {
            Some(input) => self.handle_verified(input),
            None => Vec::new(),
        }
    }

    /// Applies an input that passed [`admission::verify`] — in the
    /// driver's verify stage, or in [`ValidatorEngine::handle`] — and
    /// returns the effects for the driver to perform, in order. Nothing the
    /// witness covers is checked again: the blocks it carries go into the
    /// store as they are.
    pub fn handle_verified(&mut self, input: Verified<Input>) -> Vec<Output> {
        let input = input.into_inner();
        // Timer ticks are the driver's clock feed, not commit-path work;
        // everything else is an applied item.
        if !matches!(input, Input::TimerFired { .. }) {
            self.telemetry.record_stage(Stage::EngineApplied, 0);
        }
        let mut outputs = Vec::new();
        match input {
            Input::TxBatchReceived {
                from: peer,
                transactions,
            } => {
                if transactions.is_empty() {
                    return outputs; // cannot arrive via the wire codec
                }
                // Enqueue-only: returns ahead of `advance`, so a run of
                // batches lands in one block at the next production.
                let (receipt, accepted) = self.clients.admit_batch(peer, transactions, self.now);
                if accepted {
                    self.arm_forward_timer(&mut outputs);
                }
                outputs.push(Output::TxReceipt { peer, receipt });
                return outputs;
            }
            Input::TxForwardReceived { from, transactions } => {
                self.clients.admit_forwarded(from, transactions, self.now);
                return outputs;
            }
            Input::TxReceiptReceived { .. } => {
                // Receipts address clients; a validator observing one on
                // its wire ignores it.
                return outputs;
            }
            Input::TimerFired { now } => {
                self.now = self.now.max(now);
            }
            Input::BlockReceived { from, block } => {
                self.accept_block(block, from, &mut outputs);
            }
            message @ (Input::ProposalReceived { .. }
            | Input::AckReceived { .. }
            | Input::CertificateReceived { .. }) => {
                if !self.on_certified_message(message, &mut outputs) {
                    return outputs;
                }
            }
            Input::SyncRequest { from, references } => {
                let blocks: Vec<Arc<Block>> = references
                    .iter()
                    .filter_map(|reference| self.store.get(reference).cloned())
                    .collect();
                if !blocks.is_empty() {
                    outputs.push(Output::SendTo(from, Envelope::Response(blocks)));
                }
                // Evidence catch-up: a peer driving the synchronizer is
                // repairing gaps (e.g. restarting after an outage) and may
                // have missed the one-shot conviction gossip; piggyback
                // this validator's convictions so culprit sets converge
                // even for validators that were down when proofs flooded.
                for (_, proof) in self.evidence.iter() {
                    outputs.push(Output::SendTo(from, Envelope::Evidence(proof.clone())));
                }
            }
            Input::SyncReply { from, blocks } => {
                for block in blocks {
                    self.accept_block(block, from, &mut outputs);
                }
            }
            Input::EvidenceReceived { proof, .. } => {
                self.ingest_evidence(proof, &mut outputs);
            }
            // The checkpoint book checks the signature, after its window
            // test: whether one is worth checking depends on this
            // validator's state, which `admission::verify` does not see.
            Input::CheckpointReceived { checkpoint, .. } => {
                self.checkpoints.ingest(checkpoint);
                self.answer_state_sync(&mut outputs);
            }
            // Remembered, not answered: the next cut is taken with a
            // snapshot, and the response leaves when it has its quorum.
            Input::CheckpointRequested { from } => self.checkpoints.request(from),
            Input::CheckpointSyncReceived {
                checkpoints,
                execution,
                resume,
                ..
            } => {
                self.adopt_checkpoint(checkpoints, execution, resume, &mut outputs);
            }
        }
        self.advance(&mut outputs);
        // Forwarding runs after advance: anything production could drain
        // into an own block stays local; only what this validator cannot
        // propose (halted, paced out) moves to a peer.
        if let Some((peer, transactions)) = self.clients.forward_aged(&self.evidence, self.now) {
            outputs.push(Output::SendTo(peer, Envelope::TxForward(transactions)));
        }
        self.arm_forward_timer(&mut outputs);
        self.commit(&mut outputs);
        outputs
    }

    // ------------------------------------------------------------------
    // Recovery (used by the drivers before the first `handle`).

    /// Replays one record of this validator's own durable log: no outputs,
    /// no gossip. Returns whether the record was valid and took effect — a
    /// block that verifies, a proof that convicts, a checkpoint ahead of
    /// the local sequence whose snapshots match the roots it signs.
    pub fn restore(&mut self, record: WalRecord) -> bool {
        match record {
            WalRecord::Block(block) => self.restore_block(block),
            WalRecord::Evidence(proof) => self.restore_evidence(proof),
            WalRecord::Checkpoint {
                checkpoint,
                execution,
                resume,
            } => self.restore_checkpoint(checkpoint, execution, resume),
        }
    }

    /// Re-inserts a block from durable storage. Log bytes are untrusted,
    /// so the block is verified here, directly: invalid blocks are
    /// skipped. Own blocks advance the produced-round watermark even when
    /// their ancestry is still missing (a torn log tail must not cause
    /// accidental equivocation). Evidence surfaced by replayed conflicts
    /// is convicted silently.
    fn restore_block(&mut self, block: Arc<Block>) -> bool {
        if block.verify(&self.config.committee).is_err() {
            return false;
        }
        if block.author() == self.config.authority {
            self.round = self.round.max(block.round());
        }
        self.admit(block);
        for proof in self.store.take_equivocation_evidence() {
            let _ = self.evidence.submit(proof);
        }
        true
    }

    /// Re-submits a persisted conviction.
    fn restore_evidence(&mut self, proof: EquivocationProof) -> bool {
        self.evidence.submit(proof).is_ok()
    }

    /// Restores a persisted checkpoint: installed if its snapshots match
    /// the signed roots and it advances the local sequence. No quorum is
    /// required — the record came from this validator's own durable log.
    /// Nothing is archived: the snapshot stays in the log it came from.
    fn restore_checkpoint(
        &mut self,
        checkpoint: Checkpoint,
        execution: Vec<u8>,
        resume: Vec<u8>,
    ) -> bool {
        if !self.install_cut(&checkpoint, &execution, &resume) {
            return false;
        }
        self.checkpoints.stand_on(checkpoint, false);
        true
    }

    // ------------------------------------------------------------------
    // Accessors.

    /// The authority this engine runs as.
    pub fn authority(&self) -> AuthorityIndex {
        self.config.authority
    }

    fn committee(&self) -> &Committee {
        &self.config.committee
    }

    /// The local DAG.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The evidence pool (verified convictions, slashing hooks).
    pub fn evidence(&self) -> &EvidencePool {
        &self.evidence
    }

    /// The authorities this engine has convicted of equivocation, in index
    /// order.
    pub fn convicted(&self) -> Vec<AuthorityIndex> {
        self.evidence.convicted()
    }

    /// Last produced round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The bounded client-transaction pool (occupancy, rejection counters).
    pub fn mempool(&self) -> &Mempool {
        self.clients.mempool()
    }

    /// A point-in-time accounting of the transaction pipeline: accepted vs
    /// pending vs in-flight vs committed, rejection counters, duplicate
    /// commits, and peak pool occupancy. The `tx-integrity` scenario
    /// oracle holds every correct validator to
    /// [`TxIntegrityReport::conserves_transactions`],
    /// [`TxIntegrityReport::occupancy_bounded`], and a zero
    /// `duplicate_committed` count.
    pub fn tx_integrity(&self) -> TxIntegrityReport {
        self.clients.tx_integrity()
    }

    /// A point-in-time accounting of the client-ingress subsystem:
    /// receipts emitted per batch received, commit notices against opened
    /// notes, and forwarding counters. The `receipt-integrity` scenario
    /// oracle holds every correct validator to
    /// [`IngressReport::violations`] being empty.
    pub fn ingress_report(&self) -> IngressReport {
        self.clients.ingress_report()
    }

    /// The committed leader sequence so far (`None` entries are skipped
    /// slots). Any two honest validators' logs must be prefix-consistent —
    /// the safety property of Lemmas 5–7.
    pub fn commit_log(&self) -> &[Option<BlockRef>] {
        &self.history.log
    }

    /// Committed leader slots so far.
    pub fn committed_slots(&self) -> u64 {
        self.history.committed_slots
    }

    /// Skipped leader slots so far.
    pub fn skipped_slots(&self) -> u64 {
        self.history.skipped_slots
    }

    /// Blocks linearized into the total order so far.
    pub fn sequenced_blocks(&self) -> u64 {
        self.history.sequenced_blocks
    }

    /// Transactions committed (across all authors) so far.
    pub fn committed_transactions(&self) -> u64 {
        self.history.committed_transactions
    }

    /// The execution state root after every sub-DAG committed so far. Two
    /// correct validators with equal commit logs report equal roots — the
    /// `state-root-agreement` oracle's invariant.
    /// Takes `&mut self` because the root is kept incrementally (see
    /// [`ExecutionState::state_root`]).
    pub fn state_root(&mut self) -> StateRoot {
        self.execution.state_root()
    }

    /// Size in bytes of the last snapshot that went to this engine's log
    /// — taken at a cut, adopted or restored; 0 before the first.
    pub fn last_snapshot_bytes(&self) -> u64 {
        self.cadence.last_bytes
    }

    /// The newest cut this engine stands on — signed, adopted or restored
    /// — if any.
    pub fn latest_checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoints.latest()
    }

    /// The sequence position of `commit_log()[0]`: zero normally, the
    /// checkpoint position after a state-sync adoption (the log then
    /// covers only post-checkpoint decisions). Every decision the
    /// sequencer hands out is logged, so the base is whatever the log does
    /// not cover.
    pub fn commit_log_base(&self) -> u64 {
        self.sequencer.sequenced_slots() - usize_gauge(self.history.log.len())
    }

    /// Current size of the committed-digest exactly-once ledger (bounded
    /// by frontier GC when `gc_depth` is set; see `tests/engine_proptest`).
    pub fn committed_digest_ledger_len(&self) -> usize {
        self.clients.digest_ledger_len()
    }

    // ------------------------------------------------------------------
    // Internals.

    /// The one place a block joins the local DAG: inserts it and, for
    /// every block that became available (the block itself and any
    /// waiters it released), maintains the unreferenced-tips set. Returns
    /// the ancestors still missing — empty unless the block was buffered.
    /// Duplicates, blocks below the GC floor and out-of-range authors
    /// (which verification already rejected) change nothing.
    fn admit(&mut self, block: Arc<Block>) -> Vec<BlockRef> {
        match self.store.insert(block) {
            Ok(InsertResult::Inserted(admitted)) => {
                for reference in admitted {
                    if let Some(block) = self.store.get(&reference) {
                        for parent in block.parents() {
                            self.unreferenced.remove(&parent);
                        }
                    }
                    self.unreferenced.insert(reference);
                }
                Vec::new()
            }
            Ok(InsertResult::Pending(missing)) => missing,
            _ => Vec::new(),
        }
    }

    /// Persists and inserts a block, driving the synchronizer on gaps.
    /// The block is trusted: a peer's came out of a [`Verified`] input
    /// (invalid ones were discarded there, as the paper discards them), and
    /// an own Tusk proposal was built and signed here.
    fn accept_block(&mut self, block: Arc<Block>, from: usize, outputs: &mut Vec<Output>) {
        // Persist before acting: recovery must see everything acted on.
        outputs.push(Output::Persist(WalRecord::Block(block.clone())));
        let missing = self.admit(block);
        if missing.is_empty() {
            self.harvest_evidence(outputs);
        } else {
            outputs.push(Output::SendTo(from, Envelope::Request(missing)));
        }
    }

    /// The certified pipeline's three wire messages. Returns `false` when
    /// the message was dropped without effect: this engine runs
    /// uncertified (see [`crate::certified`] for why it must then neither
    /// buffer, ack, nor act), or the message concerns a round below the GC
    /// floor — a late ack for a pruned own proposal must not re-open a
    /// tally and mint a second certificate, and a proposal parked there
    /// could never be released.
    fn on_certified_message(&mut self, message: Input, outputs: &mut Vec<Output>) -> bool {
        let Some(certified) = &mut self.certified else {
            return false;
        };
        let floor = self.store.gc_cutoff();
        match message {
            Input::ProposalReceived { from, block } if block.round() >= floor => {
                let reference = certified.park(block);
                let voter = self.config.authority;
                outputs.push(Output::SendTo(from, Envelope::Ack { reference, voter }));
            }
            Input::AckReceived {
                from,
                reference,
                voter,
            } if reference.round >= floor => {
                let Some(signatures) = certified.on_ack(reference, voter) else {
                    return true;
                };
                let proposal = certified.release(&reference);
                let certificate = Envelope::Certificate {
                    reference,
                    signatures,
                };
                let mut strategy = self.strategy.take().expect("strategy present");
                let routes = strategy.route_certificate(certificate, reference);
                self.strategy = Some(strategy);
                self.apply_routes(routes, outputs);
                // Apply the certificate locally.
                if let Some(block) = proposal {
                    self.accept_block(block, from, outputs);
                }
            }
            Input::CertificateReceived {
                from, reference, ..
            } if reference.round >= floor => {
                if let Some(block) = certified.release(&reference) {
                    self.accept_block(block, from, outputs);
                } else if !self.store.contains(&reference) {
                    // Certificate outran the proposal: fetch the block.
                    outputs.push(Output::SendTo(from, Envelope::Request(vec![reference])));
                }
            }
            _ => return false,
        }
        true
    }

    /// Collects proofs the store emitted at admission, convicting locally
    /// and gossiping each *new* conviction once.
    fn harvest_evidence(&mut self, outputs: &mut Vec<Output>) {
        for proof in self.store.take_equivocation_evidence() {
            self.ingest_evidence(proof, outputs);
        }
    }

    /// Convicts through the evidence pool; first-time convictions are
    /// persisted, re-broadcast (flood-once gossip), and surfaced to the
    /// driver. Invalid proofs from untrusted peers are dropped.
    fn ingest_evidence(&mut self, proof: EquivocationProof, outputs: &mut Vec<Output>) {
        if self.evidence.submit(proof.clone()) == Ok(true) {
            outputs.push(Output::Persist(WalRecord::Evidence(proof.clone())));
            outputs.push(Output::Broadcast(Envelope::Evidence(proof.clone())));
            outputs.push(Output::Convicted(proof));
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints and state-sync.

    /// Verifies and adopts a state-sync payload: a position strictly ahead
    /// of the local sequence (the cheap check, before any signature is
    /// verified), a quorum of matching valid attestations, and snapshots
    /// matching the certified roots — for the execution state the tree
    /// root only. On success the execution and sequencer state jump to the
    /// cut, and the checkpoint is persisted so a later restart recovers
    /// from it instead of genesis.
    fn adopt_checkpoint(
        &mut self,
        checkpoints: Vec<Checkpoint>,
        execution: Vec<u8>,
        resume: Vec<u8>,
        outputs: &mut Vec<Output>,
    ) {
        if !checkpoints
            .first()
            .is_some_and(|first| self.is_ahead(first))
        {
            return;
        }
        let Some(first) = self.checkpoints.verify_quorum(&checkpoints).cloned() else {
            return;
        };
        if !self.install_cut(&first, &execution, &resume) {
            return;
        }
        self.checkpoints.stand_on(first.clone(), true);
        outputs.push(Output::Persist(WalRecord::Checkpoint {
            checkpoint: first,
            execution,
            resume,
        }));
    }

    /// Whether `checkpoint` attests a cut beyond what is sequenced here.
    fn is_ahead(&self, checkpoint: &Checkpoint) -> bool {
        checkpoint.position() > self.sequencer.sequenced_slots()
    }

    /// Jumps the execution and sequencer state to a cut (shared by
    /// state-sync adoption and WAL recovery), if it is ahead of the local
    /// sequence and [`CheckpointBook::verify_cut`] accepts its snapshots.
    /// The state is rebuilt from the snapshot beside the live one, which is
    /// replaced only after the rebuilt root matched the signed one — the
    /// tree root, the one commitment a cut signs.
    fn install_cut(&mut self, checkpoint: &Checkpoint, execution: &[u8], resume: &[u8]) -> bool {
        if !self.is_ahead(checkpoint) {
            return false;
        }
        let Ok(mut state) = self.execution.restore(execution) else {
            return false;
        };
        let root = state.state_root();
        let Some(snapshot) = CheckpointBook::verify_cut(checkpoint, root, resume) else {
            return false;
        };
        if self.sequencer.restore(&snapshot).is_err() {
            return false;
        }
        self.decided_at = None;
        self.execution = state;
        self.cadence.taken(execution, resume);
        self.history.log.clear();
        // Everything below the snapshot's floor is outside any future
        // sub-DAG: compact it away.
        if let Some(depth) = self.config.gc_depth {
            self.compact_below(snapshot.gc_floor(depth));
        }
        true
    }

    /// Signs and broadcasts the cut for a boundary the sequencer just
    /// crossed, with a snapshot only if the log or a joiner needs one (see
    /// the module docs). Called from `commit` with the execution state
    /// exactly at the boundary.
    fn emit_checkpoint(&mut self, snapshot: SequencerSnapshot, outputs: &mut Vec<Output>) {
        let resume = snapshot.to_bytes_vec();
        let checkpoint = self.checkpoints.sign_own(
            &self.config.keypair,
            snapshot.position,
            self.execution.state_root(),
            blake2b_256(&resume),
        );
        let for_log = self.cadence.due();
        let for_joiner = self.checkpoints.snapshot_wanted();
        if for_log || for_joiner {
            let execution = self.execution.snapshot();
            if for_joiner {
                self.checkpoints
                    .archive(snapshot.position, execution.clone(), resume.clone());
            }
            if for_log {
                self.cadence.taken(&execution, &resume);
                // Durability before dissemination, like blocks and evidence.
                outputs.push(Output::Persist(WalRecord::Checkpoint {
                    checkpoint: checkpoint.clone(),
                    execution,
                    resume,
                }));
            }
        }
        outputs.push(Output::Broadcast(Envelope::Checkpoint(checkpoint.clone())));
        outputs.push(Output::CheckpointProduced(checkpoint));
        // The own attestation may be the one that completes a quorum.
        self.answer_state_sync(outputs);
    }

    /// Sends the state-sync payload to everyone owed it, once the cut
    /// archived for them has its quorum.
    fn answer_state_sync(&mut self, outputs: &mut Vec<Output>) {
        if let Some((requesters, response)) = self.checkpoints.take_response() {
            for peer in requesters.iter() {
                outputs.push(Output::SendTo(peer.as_usize(), response.clone()));
            }
        }
    }

    /// Drops everything held for rounds below `floor` — the one place
    /// floor compaction happens: the store, the tips, the sequencer's
    /// emitted set, the exactly-once digest ledger and the certified
    /// pipeline's maps.
    fn compact_below(&mut self, floor: Round) {
        self.store.compact(floor);
        self.sequencer.forget_emitted_below(floor);
        self.unreferenced
            .retain(|reference| reference.round >= floor);
        self.clients.prune_digests(floor);
        if let Some(certified) = &mut self.certified {
            certified.compact_below(floor);
        }
    }

    /// Schedules the forwarding timer for the oldest pending forwardable
    /// transaction (no-op when forwarding is disabled or nothing is
    /// pending).
    fn arm_forward_timer(&self, outputs: &mut Vec<Output>) {
        if let Some(due) = self.clients.forward_wake() {
            outputs.push(Output::WakeAt(due));
        }
    }

    /// Produces blocks while the previous round holds a quorum and the
    /// pacing gates (inclusion wait, round interval) are open; releases
    /// paced messages that came due.
    fn advance(&mut self, outputs: &mut Vec<Output>) {
        // Release deliberately-delayed messages that have come due
        // (slow-proposer pacing), and re-arm the wake-up for the rest.
        while self
            .pending_out
            .front()
            .is_some_and(|&(release, _)| release <= self.now)
        {
            let (_, envelope) = self.pending_out.pop_front().expect("checked front");
            outputs.push(Output::Broadcast(envelope));
        }
        if let Some(&(release, _)) = self.pending_out.front() {
            outputs.push(Output::WakeAt(release));
        }
        loop {
            let next = self.round + 1;
            if self.config.halt_from_round.is_some_and(|halt| next >= halt) {
                break;
            }
            let quorum = self.committee().quorum_threshold();
            let present = self.store.authorities_at_round(self.round).len();
            if present < quorum {
                self.quorum_since = None;
                break;
            }
            // For certified protocols the own previous block must itself be
            // certified (in store) before extending it; after recovery the
            // own block may also still be pending missing ancestry.
            if self.round > 0
                && self
                    .store
                    .blocks_in_slot(Slot::new(self.round, self.config.authority))
                    .is_empty()
            {
                break;
            }
            // Round pacing (the node's localhost throttle).
            if self.config.min_round_interval > 0 {
                if let Some(last) = self.last_production {
                    let ready_at = last + self.config.min_round_interval;
                    if self.now < ready_at {
                        outputs.push(Output::WakeAt(ready_at));
                        break;
                    }
                }
            }
            // Post-quorum inclusion wait — skipped once every validator's
            // block is already here (nothing left to wait for).
            if present < self.committee().size() && self.config.inclusion_wait > 0 {
                let since = *self.quorum_since.get_or_insert(self.now);
                let ready_at = since + self.config.inclusion_wait;
                if self.now < ready_at {
                    outputs.push(Output::WakeAt(ready_at));
                    break;
                }
            }
            self.quorum_since = None;
            self.produce(next, outputs);
            self.round = next;
            self.last_production = Some(self.now);
        }
    }

    /// Builds and disseminates the block for `round` through the strategy.
    fn produce(&mut self, round: Round, outputs: &mut Vec<Output>) {
        // Parents: own previous block first, then every block of the
        // previous round, then older unreferenced tips (straggler
        // support). Blocks authored by convicted equivocators are shunned
        // (beyond the mandatory own-chain link): referencing a proven liar
        // only lends its forks weight. One exception keeps blocks valid —
        // the parent list must still span a quorum of previous-round
        // authors (the block-validity rule every peer checks), so when the
        // only quorum available runs through convicted authors, just
        // enough of their blocks are re-admitted. Without the floor the
        // produced block would be dropped by every peer and the DAG would
        // stall the moment a conviction lands mid-outage.
        let authority = self.config.authority;
        let own_previous = self
            .store
            .blocks_in_slot(Slot::new(round - 1, authority))
            .first()
            .map(|block| block.reference())
            .expect("own chain extends round by round");
        let mut parents = vec![own_previous];
        let mut seen: HashSet<BlockRef> = parents.iter().copied().collect();
        let mut previous_round_authors = AuthoritySet::new();
        previous_round_authors.insert(authority);
        let mut shunned: Vec<BlockRef> = Vec::new();
        for block in self.store.blocks_at_round(round - 1) {
            let reference = block.reference();
            if reference.author != authority && self.evidence.is_convicted(reference.author) {
                shunned.push(reference);
                continue;
            }
            if seen.insert(reference) {
                parents.push(reference);
                previous_round_authors.insert(reference.author);
            }
        }
        let quorum = self.committee().quorum_threshold();
        for reference in shunned {
            if previous_round_authors.len() >= quorum {
                break;
            }
            if previous_round_authors.insert(reference.author) {
                seen.insert(reference);
                parents.push(reference);
            }
        }
        for &reference in &self.unreferenced {
            if reference.author != authority && self.evidence.is_convicted(reference.author) {
                continue;
            }
            if reference.round < round - 1 && seen.insert(reference) {
                parents.push(reference);
            }
        }

        // Pull the next budgeted payload from the client ledger's pool
        // (FIFO, bounded in transactions and bytes).
        let (transactions, tags) = self.clients.next_payload();

        let mut strategy = self.strategy.take().expect("strategy present");
        let mut ctx = ProposeCtx {
            engine: self,
            round,
            parents,
            transactions,
            tags,
            routes: Vec::new(),
            persists: Vec::new(),
        };
        strategy.propose(&mut ctx);
        let ProposeCtx {
            routes, persists, ..
        } = ctx;
        self.strategy = Some(strategy);
        // Durability before dissemination (crash recovery resumes from the
        // produced block, preventing accidental equivocation).
        for record in persists {
            outputs.push(Output::Persist(record));
        }
        self.apply_routes(routes, outputs);
        // Own inserts can complete a buffered conflicting pair through the
        // waiter chain; collect whatever the store emitted.
        self.harvest_evidence(outputs);
    }

    fn apply_routes(&mut self, routes: Vec<Route>, outputs: &mut Vec<Output>) {
        for route in routes {
            match route {
                Route::Broadcast(envelope) => outputs.push(Output::Broadcast(envelope)),
                Route::Send(peer, envelope) => outputs.push(Output::SendTo(peer, envelope)),
                Route::Delay(release, envelope) => {
                    self.pending_out.push_back((release, envelope));
                    outputs.push(Output::WakeAt(release));
                }
            }
        }
    }

    /// Runs the commit rule, emitting sub-DAGs and the commit receipts
    /// they close, folding every commit into the execution state, signing
    /// checkpoints at boundary crossings, then compacting once the GC floor
    /// moved far enough. Allocates nothing when nothing commits.
    ///
    /// The rule itself ([`CommitSequencer::try_commit`]) runs only when the
    /// DAG or the sequencer changed since its last run (see `decided_at`):
    /// most inputs — timer ticks, duplicates, blocks still missing
    /// ancestors — admit nothing, and asking again could only answer "no
    /// new decision". Everything after the rule runs on every input.
    fn commit(&mut self, outputs: &mut Vec<Output>) {
        let version = self.store.version();
        let decisions = if self.decided_at == Some(version) {
            Vec::new()
        } else {
            self.decided_at = Some(version);
            self.sequencer.try_commit(&self.store)
        };
        // Boundary snapshots captured during try_commit, oldest first; the
        // snapshot at position `p` is emitted after the decision at
        // `p − 1` has been executed, so the signed state root describes
        // exactly the cut the snapshot does.
        let mut boundaries = self
            .sequencer
            .take_boundary_snapshots()
            .into_iter()
            .peekable();
        for decision in decisions {
            let position = decision.position();
            self.history.record(&decision);
            if let CommitDecision::Commit(sub_dag) = decision {
                self.checkpoints.set_frontier(sub_dag.leader);
                self.cadence.block_bytes_since += sub_dag
                    .blocks
                    .iter()
                    .map(|block| usize_gauge(block.serialized_size()))
                    .sum::<u64>();
                self.execution.apply(&sub_dag);
                // Execution is synchronous inside commit(): the honest
                // zero keeps the stage populated for the wiring day it
                // moves off-path.
                self.telemetry.record_stage(Stage::Executed, 0);
                for block in &sub_dag.blocks {
                    self.clients.on_sequenced(block);
                }
                outputs.push(Output::Committed(sub_dag));
            }
            while boundaries
                .peek()
                .is_some_and(|snapshot| snapshot.position.checked_sub(1) == Some(position))
            {
                let snapshot = boundaries.next().expect("peeked");
                self.emit_checkpoint(snapshot, outputs);
            }
        }
        debug_assert!(boundaries.peek().is_none(), "unpaired boundary snapshot");
        // Deliver the commit notifications closed by this sweep.
        for (peer, receipt) in self.clients.take_commit_receipts() {
            if let TxReceipt::Committed { tags } = &receipt {
                // Tags are batch receive times (engine clock), so the
                // delta is the submit→linearize latency of each batch.
                for &tag in tags {
                    self.telemetry
                        .record_stage(Stage::Sequenced, self.now.saturating_sub(tag));
                }
            }
            // The receipt leaves with this output batch; the driver owns
            // any further queueing, so the engine's share is zero.
            self.telemetry.record_stage(Stage::ReceiptSent, 0);
            outputs.push(Output::TxReceipt { peer, receipt });
        }
        self.clients.sweep(self.now);
        // Periodic garbage collection once the frontier moved far enough
        // past the last cutoff.
        if self.config.gc_depth.is_some() {
            let floor = self.sequencer.gc_floor();
            if floor >= self.store.gc_cutoff() + 64 {
                self.compact_below(floor);
            }
        }
    }
}

/// Checked `usize → u64` for the engine's gauges: lossless on every
/// supported platform, and a compile-visible assertion (instead of a
/// silent `as` wraparound) anywhere that ever stops being true.
pub(crate) fn usize_gauge(value: usize) -> u64 {
    u64::try_from(value).expect("usize gauge fits u64")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::committer::{Committer, CommitterOptions};
    use mahimahi_crypto::Digest;
    use mahimahi_dag::DagBuilder;
    use mahimahi_types::{BlockBuilder, TxVerdict};
    use std::collections::HashMap;

    fn engine(authority: u32, certified: bool) -> ValidatorEngine {
        let setup = TestCommittee::new(4, 7);
        let committee = setup.committee().clone();
        let mut config = EngineConfig::new(AuthorityIndex(authority), setup);
        config.certified = certified;
        config.mempool = MempoolConfig::test(10_000, 100);
        ValidatorEngine::honest(
            config,
            Box::new(Committer::new(committee, CommitterOptions::mahi_mahi_5(2))),
        )
    }

    fn broadcast_blocks(outputs: &[Output]) -> Vec<Arc<Block>> {
        outputs
            .iter()
            .filter_map(|output| match output {
                Output::Broadcast(Envelope::Block(block)) => Some(block.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn produces_round_one_at_startup() {
        let mut engine = engine(0, false);
        let outputs = engine.handle(Input::TimerFired { now: 0 });
        assert_eq!(engine.round(), 1);
        let blocks = broadcast_blocks(&outputs);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].round(), 1);
        // Durability precedes dissemination.
        assert!(matches!(
            &outputs[..],
            [Output::Persist(WalRecord::Block(_)), Output::Broadcast(_)]
        ));
    }

    #[test]
    fn halted_engine_produces_nothing() {
        let setup = TestCommittee::new(4, 7);
        let committee = setup.committee().clone();
        let mut config = EngineConfig::new(AuthorityIndex(0), setup);
        config.halt_from_round = Some(0);
        let mut engine = ValidatorEngine::honest(
            config,
            Box::new(Committer::new(committee, CommitterOptions::default())),
        );
        assert!(engine.handle(Input::TimerFired { now: 0 }).is_empty());
        assert_eq!(engine.round(), 0);
    }

    /// Decides like the committer it wraps, counting how often it is asked.
    struct CountingCommitter {
        inner: Committer,
        calls: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl ProtocolCommitter for CountingCommitter {
        fn committee(&self) -> &Committee {
            self.inner.committee()
        }

        fn name(&self) -> &'static str {
            "counting"
        }

        fn try_decide(
            &self,
            store: &BlockStore,
            from_round: Round,
        ) -> Vec<crate::status::LeaderStatus> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.try_decide(store, from_round)
        }
    }

    #[test]
    fn the_commit_rule_is_consulted_only_by_inputs_that_admit_a_block() {
        let setup = TestCommittee::new(4, 7);
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut engine = ValidatorEngine::honest(
            EngineConfig::new(AuthorityIndex(0), setup.clone()),
            Box::new(CountingCommitter {
                inner: Committer::new(setup.committee().clone(), CommitterOptions::default()),
                calls: Arc::clone(&calls),
            }),
        );
        let consulted = || calls.load(std::sync::atomic::Ordering::Relaxed);

        // The first tick produces round 1: the own block joins the DAG.
        engine.handle(Input::TimerFired { now: 0 });
        assert_eq!(engine.round(), 1);
        assert_eq!(consulted(), 1);
        // Ticks without a round-1 quorum admit nothing.
        for now in 1..5 {
            engine.handle(Input::TimerFired { now });
        }
        assert_eq!(consulted(), 1);

        // A peer's round-1 block joins the DAG.
        let mut dag = DagBuilder::new(setup);
        let round_one = dag.add_full_round();
        let block = dag.store().get(&round_one[1]).unwrap().clone();
        engine.handle(Input::BlockReceived {
            from: 1,
            block: block.clone(),
        });
        assert_eq!(consulted(), 2);

        // Its duplicate does not, nor does a block still missing ancestors.
        engine.handle(Input::BlockReceived { from: 2, block });
        let round_two = dag.add_full_round();
        let orphan = dag.store().get(&round_two[2]).unwrap().clone();
        let outputs = engine.handle(Input::BlockReceived {
            from: 2,
            block: orphan,
        });
        assert!(outputs
            .iter()
            .any(|output| matches!(output, Output::SendTo(2, Envelope::Request(_)))));
        assert_eq!(consulted(), 2);
    }

    #[test]
    fn transactions_flow_into_blocks_with_tags_returned_at_commit() {
        let mut engines: Vec<ValidatorEngine> = (0..4).map(|a| engine(a, false)).collect();
        let mut inflight: VecDeque<(usize, Arc<Block>)> = VecDeque::new();
        for engine in engines.iter_mut() {
            let from = engine.authority().as_usize();
            let outputs = engine.handle(Input::TimerFired { now: 555 });
            inflight.extend(broadcast_blocks(&outputs).into_iter().map(|b| (from, b)));
        }
        // The local client submits under the validator's own index; the
        // batch is tagged with the engine's receive time.
        let mut receipts: Vec<TxReceipt> = Vec::new();
        let mut inbox = |outputs: &[Output]| {
            for output in outputs {
                if let Output::TxReceipt { peer: 0, receipt } = output {
                    receipts.push(receipt.clone());
                }
            }
        };
        inbox(&engines[0].handle(Input::TxBatchReceived {
            from: 0,
            transactions: vec![Transaction::benchmark(9)],
        }));
        assert_eq!(engines[0].mempool().len(), 1);
        // Flood-deliver every broadcast block (up to a round horizon) so
        // validator 0's round-2 block commits; the batch tag must come back
        // in a Committed receipt on engine 0.
        while let Some((from, block)) = inflight.pop_front() {
            if block.round() > 12 {
                continue; // bound the lockstep flood
            }
            for (to, engine) in engines.iter_mut().enumerate() {
                if to == from {
                    continue;
                }
                let outputs = engine.handle(Input::BlockReceived {
                    from,
                    block: block.clone(),
                });
                if to == 0 {
                    inbox(&outputs);
                }
                inflight.extend(broadcast_blocks(&outputs).into_iter().map(|b| (to, b)));
            }
        }
        assert_eq!(engines[0].mempool().len(), 0, "transaction included");
        assert!(engines[0].committed_transactions() > 0);
        assert_eq!(
            receipts,
            [
                TxReceipt::Admission {
                    tag: 555,
                    verdicts: vec![TxVerdict::Accepted]
                },
                TxReceipt::Committed { tags: vec![555] },
            ],
            "one admission, then the batch tag returned exactly once"
        );
        // The transaction pipeline conserved the submission: accepted 1,
        // committed 1, nothing pending or in flight, no duplicate commits.
        let integrity = engines[0].tx_integrity();
        assert_eq!(integrity.accepted, 1);
        assert_eq!(integrity.own_committed, 1);
        assert!(integrity.conserves_transactions(), "{integrity:?}");
        assert_eq!(integrity.duplicate_committed, 0);
        assert!(integrity.occupancy_bounded());
    }

    #[test]
    fn mempool_backpressure_surfaces_as_outputs() {
        let setup = TestCommittee::new(4, 7);
        let committee = setup.committee().clone();
        let mut config = EngineConfig::new(AuthorityIndex(0), setup);
        config.mempool = MempoolConfig::test(2, 100);
        let mut engine = ValidatorEngine::honest(
            config,
            Box::new(Committer::new(committee, CommitterOptions::mahi_mahi_5(2))),
        );
        let mut submit = |now, id| {
            engine.handle(Input::TimerFired { now });
            let outputs = engine.handle(Input::TxBatchReceived {
                from: 0,
                transactions: vec![Transaction::benchmark(id)],
            });
            match &outputs[..] {
                [Output::TxReceipt {
                    peer: 0,
                    receipt: TxReceipt::Admission { tag, verdicts },
                }] if *tag == now => verdicts.clone(),
                other => panic!("expected one admission receipt, got {other:?}"),
            }
        };
        // The first two submissions fill the pool (round 1 was produced
        // before either arrived, and round 2 needs a quorum).
        for id in 0..2 {
            assert_eq!(submit(id, id), [TxVerdict::Accepted]);
        }
        // A digest resubmission is a Duplicate, a fresh one overflows.
        assert_eq!(submit(9, 0), [TxVerdict::Duplicate]);
        assert_eq!(submit(10, 2), [TxVerdict::Full]);
        let integrity = engine.tx_integrity();
        assert_eq!(integrity.accepted, 2);
        assert_eq!(integrity.rejected_duplicate, 1);
        assert_eq!(integrity.rejected_full, 1);
        assert_eq!(integrity.peak_occupancy_txs, 2);
    }

    #[test]
    fn wire_batches_enter_the_mempool_tagged_with_receive_time() {
        let mut engine = engine(0, false);
        engine.handle(Input::TimerFired { now: 42 });
        let outputs = engine.handle(Input::TxBatchReceived {
            from: 7,
            transactions: vec![Transaction::benchmark(1), Transaction::benchmark(2)],
        });
        assert!(matches!(
            &outputs[..],
            [Output::TxReceipt {
                peer: 7,
                receipt: TxReceipt::Admission { tag: 42, verdicts },
            }] if verdicts[..] == [TxVerdict::Accepted, TxVerdict::Accepted]
        ));
        assert_eq!(engine.mempool().len(), 2);
        // A duplicate inside a later batch earns a Duplicate verdict under
        // the engine's receive time.
        let outputs = engine.handle(Input::TxBatchReceived {
            from: 7,
            transactions: vec![Transaction::benchmark(2)],
        });
        assert!(matches!(
            &outputs[..],
            [Output::TxReceipt {
                peer: 7,
                receipt: TxReceipt::Admission { tag: 42, verdicts },
            }] if verdicts[..] == [TxVerdict::Duplicate]
        ));
        // Exactly one admission receipt per batch; only the first batch
        // opened a commit note (the second accepted nothing).
        let report = engine.ingress_report();
        assert_eq!(report.batches_received, 2);
        assert_eq!(report.receipts_emitted, 2);
        assert_eq!(report.notes_opened, 1);
        assert!(report.violations().is_empty());
    }

    #[test]
    fn external_clients_pay_the_token_bucket_but_committee_peers_do_not() {
        let setup = TestCommittee::new(4, 7);
        let committee = setup.committee().clone();
        let mut config = EngineConfig::new(AuthorityIndex(0), setup);
        config.mempool = MempoolConfig::test(10_000, 100);
        config.ingress.rate_limit_per_client = 1;
        config.ingress.burst_per_client = 1;
        let mut engine = ValidatorEngine::honest(
            config,
            Box::new(Committer::new(committee, CommitterOptions::mahi_mahi_5(2))),
        );
        // An external client (id past the committee) gets one burst token;
        // the second transaction of the same instant is shed.
        let outputs = engine.handle(Input::TxBatchReceived {
            from: 9,
            transactions: vec![Transaction::benchmark(1), Transaction::benchmark(2)],
        });
        assert!(matches!(
            &outputs[..],
            [Output::TxReceipt {
                peer: 9,
                receipt: TxReceipt::Admission { verdicts, .. },
            }] if verdicts[..] == [TxVerdict::Accepted, TxVerdict::RateLimited]
        ));
        // Another client's bucket is independent...
        let outputs = engine.handle(Input::TxBatchReceived {
            from: 10,
            transactions: vec![Transaction::benchmark(3)],
        });
        assert!(matches!(
            &outputs[..],
            [Output::TxReceipt { receipt: TxReceipt::Admission { verdicts, .. }, .. }]
                if verdicts[..] == [TxVerdict::Accepted]
        ));
        // ...and committee peers are exempt entirely, whatever the volume.
        let outputs = engine.handle(Input::TxBatchReceived {
            from: 1,
            transactions: (10u64..20).map(Transaction::benchmark).collect(),
        });
        assert!(matches!(
            &outputs[..],
            [Output::TxReceipt { receipt: TxReceipt::Admission { verdicts, .. }, .. }]
                if verdicts.iter().all(|v| v.is_accepted())
        ));
        let integrity = engine.tx_integrity();
        assert_eq!(integrity.rejected_rate_limited, 1);
        assert_eq!(engine.ingress_report().rate_limited, 1);
        assert!(integrity.conserves_transactions(), "{integrity:?}");
    }

    #[test]
    fn aged_transactions_forward_and_commit_notes_close_remotely() {
        let setup = TestCommittee::new(4, 7);
        let mut engines: Vec<ValidatorEngine> = (0..4)
            .map(|a| {
                let committee = setup.committee().clone();
                let mut config = EngineConfig::new(AuthorityIndex(a), setup.clone());
                config.mempool = MempoolConfig::test(10_000, 100);
                config.ingress.forward_age = Some(1_000);
                if a == 0 {
                    // The withholding entry point: listens and sequences
                    // but never produces a block of its own.
                    config.halt_from_round = Some(1);
                }
                ValidatorEngine::honest(
                    config,
                    Box::new(Committer::new(committee, CommitterOptions::mahi_mahi_5(2))),
                )
            })
            .collect();

        // A client batch lands on the withholding validator: the wake-up
        // for the forwarding window precedes the admission receipt.
        let outputs = engines[0].handle(Input::TxBatchReceived {
            from: 9,
            transactions: vec![Transaction::benchmark(1)],
        });
        assert!(matches!(
            outputs[..],
            [Output::WakeAt(1_000), Output::TxReceipt { peer: 9, .. }]
        ));

        // Past the window the transaction moves to a peer's pool.
        let outputs = engines[0].handle(Input::TimerFired { now: 2_000 });
        let (peer, forward) = outputs
            .iter()
            .find_map(|output| match output {
                Output::SendTo(peer, envelope @ Envelope::TxForward(_)) => {
                    Some((*peer, envelope.clone()))
                }
                _ => None,
            })
            .expect("aged transaction forwards");
        let integrity = engines[0].tx_integrity();
        assert_eq!(integrity.forwarded, 1);
        assert!(integrity.conserves_transactions(), "{integrity:?}");
        engines[peer].handle(Input::from_envelope(0, forward));

        // Flood the DAG: validators 1..3 drive rounds (0 only listens).
        let mut receipts = Vec::new();
        let mut inflight: VecDeque<(usize, Envelope)> = VecDeque::new();
        for engine in engines.iter_mut() {
            let from = engine.authority().as_usize();
            for output in engine.handle(Input::TimerFired { now: 2_000 }) {
                if let Output::Broadcast(envelope) = output {
                    inflight.push_back((from, envelope));
                }
            }
        }
        while let Some((from, envelope)) = inflight.pop_front() {
            if let Envelope::Block(block) = &envelope {
                if block.round() > 14 {
                    continue;
                }
            }
            for (to, engine) in engines.iter_mut().enumerate() {
                if to == from {
                    continue;
                }
                for output in engine.handle(Input::from_envelope(from, envelope.clone())) {
                    match output {
                        Output::Broadcast(envelope) => inflight.push_back((to, envelope)),
                        Output::TxReceipt { peer, receipt } if to == 0 => {
                            receipts.push((peer, receipt));
                        }
                        _ => {}
                    }
                }
            }
        }
        // The withholding validator observed the forwarded transaction
        // commit in a peer's block and closed the client's note: the
        // Committed receipt carries the original batch tag.
        assert!(
            receipts.iter().any(|(peer, receipt)| *peer == 9
                && matches!(receipt, TxReceipt::Committed { tags } if tags[..] == [0])),
            "no commit notice for the forwarded batch: {receipts:?}"
        );
        let report = engines[0].ingress_report();
        assert_eq!(report.forwarded_committed, 1);
        assert_eq!(report.commit_notices, 1);
        assert!(report.violations().is_empty(), "{report:?}");
    }

    /// Asserts that none of `bad` got into `engine`: none was persisted
    /// by `outputs`, inserted into the store, or buffered there to wait
    /// for its parents.
    fn assert_turned_away(engine: &ValidatorEngine, outputs: &[Output], bad: &[Arc<Block>]) {
        for block in bad {
            assert!(!engine.store().contains(&block.reference()), "{block:?}");
            assert!(!outputs.iter().any(|output| matches!(output,
                Output::Persist(WalRecord::Block(persisted)) if persisted.digest() == block.digest())));
        }
        assert_eq!(engine.store().pending_count(), 0, "a bad block is buffered");
    }

    /// Authority `author`'s valid round-1 block over `setup`'s genesis.
    fn round_one_block(setup: &TestCommittee, author: usize) -> Arc<Block> {
        let mut dag = DagBuilder::new(setup.clone());
        let round_one = dag.add_full_round();
        dag.store().get(&round_one[author]).unwrap().clone()
    }

    #[test]
    fn handle_turns_away_blocks_that_fail_verification() {
        let setup = TestCommittee::new(4, 7);
        let mut engine = engine(0, false);
        for block in BlockBuilder::failing_verification(&setup, AuthorityIndex(3)) {
            let outputs = engine.handle(Input::BlockReceived {
                from: 3,
                block: block.clone(),
            });
            assert!(outputs.is_empty(), "{outputs:?}");
            assert_turned_away(&engine, &outputs, &[block]);
        }
        let good = round_one_block(&setup, 3);
        engine.handle(Input::BlockReceived {
            from: 3,
            block: good.clone(),
        });
        assert!(engine.store().contains(&good.reference()));
    }

    #[test]
    fn a_sync_reply_admits_its_valid_blocks_and_no_bad_one() {
        let setup = TestCommittee::new(4, 7);
        let valid = [round_one_block(&setup, 1), round_one_block(&setup, 2)];
        let [stale, bad_coin] = BlockBuilder::failing_verification(&setup, AuthorityIndex(3));
        let mut engine = engine(0, false);
        let outputs = engine.handle(Input::SyncReply {
            from: 3,
            blocks: vec![
                valid[0].clone(),
                stale.clone(),
                valid[1].clone(),
                bad_coin.clone(),
            ],
        });
        for block in &valid {
            assert!(engine.store().contains(&block.reference()));
        }
        assert_turned_away(&engine, &outputs, &[stale, bad_coin]);
    }

    #[test]
    fn a_tusk_proposal_that_fails_verification_is_never_certified_into_the_store() {
        let setup = TestCommittee::new(4, 7);
        let mut engine = engine(0, true);
        for block in BlockBuilder::failing_verification(&setup, AuthorityIndex(3)) {
            let reference = block.reference();
            let mut outputs = engine.handle(Input::ProposalReceived {
                from: 3,
                block: block.clone(),
            });
            assert!(
                outputs.is_empty(),
                "a bad proposal earns no ack: {outputs:?}"
            );
            outputs.extend(engine.handle(Input::CertificateReceived {
                from: 3,
                reference,
                signatures: 3,
            }));
            assert_turned_away(&engine, &outputs, &[block]);
        }
        // A valid proposal is acked, and its certificate inserts it.
        let good = round_one_block(&setup, 3);
        let outputs = engine.handle(Input::ProposalReceived {
            from: 3,
            block: good.clone(),
        });
        assert!(outputs
            .iter()
            .any(|output| matches!(output, Output::SendTo(3, Envelope::Ack { .. }))));
        engine.handle(Input::CertificateReceived {
            from: 3,
            reference: good.reference(),
            signatures: 3,
        });
        assert!(engine.store().contains(&good.reference()));
    }

    #[test]
    fn certified_engine_waits_for_certificate() {
        let mut engine = engine(0, true);
        let outputs = engine.handle(Input::TimerFired { now: 0 });
        let proposal = match &outputs[..] {
            [Output::Broadcast(Envelope::Proposal(block))] => block.clone(),
            other => panic!("expected proposal broadcast, got {other:?}"),
        };
        // Not in the DAG yet: the round counter advanced but the store has
        // no round-1 block until the certificate forms.
        assert_eq!(engine.store().blocks_at_round(1).len(), 0);
        let reference = proposal.reference();
        let more = engine.handle(Input::AckReceived {
            from: 1,
            reference,
            voter: AuthorityIndex(1),
        });
        assert!(more.is_empty());
        let more = engine.handle(Input::AckReceived {
            from: 2,
            reference,
            voter: AuthorityIndex(2),
        });
        assert!(more
            .iter()
            .any(|output| matches!(output, Output::Broadcast(Envelope::Certificate { .. }))));
        assert_eq!(engine.store().blocks_at_round(1).len(), 1);
    }

    #[test]
    fn uncertified_engine_drops_certified_pipeline_messages() {
        // A TCP peer can always put Proposal/Ack/Certificate frames on the
        // shared wire; an uncertified engine must not buffer, ack, or act
        // on them (unbounded pending_proposals / spoofed ack quorums).
        let mut engine = engine(0, false);
        engine.handle(Input::TimerFired { now: 0 });
        let own = engine.store().blocks_at_round(1)[0].clone();
        let reference = own.reference();
        assert!(engine
            .handle(Input::ProposalReceived {
                from: 1,
                block: own
            })
            .is_empty());
        assert!(engine
            .handle(Input::AckReceived {
                from: 1,
                reference,
                voter: AuthorityIndex(1),
            })
            .is_empty());
        assert!(engine
            .handle(Input::AckReceived {
                from: 2,
                reference,
                voter: AuthorityIndex(2),
            })
            .is_empty());
        assert!(engine
            .handle(Input::CertificateReceived {
                from: 1,
                reference,
                signatures: 3,
            })
            .is_empty());
    }

    #[test]
    fn missing_ancestry_triggers_synchronizer() {
        let setup = TestCommittee::new(4, 7);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_round();
        let r2 = dag.add_full_round();
        let block = dag.store().get(&r2[1]).unwrap().clone();

        let mut engine = engine(0, false);
        let outputs = engine.handle(Input::BlockReceived { from: 1, block });
        assert!(outputs.iter().any(|output| matches!(output,
            Output::SendTo(1, Envelope::Request(references)) if !references.is_empty())));
    }

    #[test]
    fn sync_requests_answered_with_blocks_and_convictions() {
        let mut engine = engine(0, false);
        engine.handle(Input::TimerFired { now: 0 });
        let own = engine
            .store()
            .blocks_at_round(1)
            .first()
            .map(|block| block.reference())
            .unwrap();
        let outputs = engine.handle(Input::SyncRequest {
            from: 3,
            references: vec![own],
        });
        assert!(
            matches!(&outputs[..], [Output::SendTo(3, Envelope::Response(blocks))]
                if blocks.len() == 1)
        );
    }

    #[test]
    fn evidence_is_persisted_gossiped_and_surfaced_once() {
        let setup = TestCommittee::new(4, 7);
        let proof = conflicting_pair(&setup, 2);
        let mut engine = engine(0, false);
        // Produce round 1 first so the evidence handle emits nothing else.
        engine.handle(Input::TimerFired { now: 0 });
        let outputs = engine.handle(Input::EvidenceReceived {
            from: 1,
            proof: proof.clone(),
        });
        assert!(matches!(
            &outputs[..],
            [
                Output::Persist(WalRecord::Evidence(_)),
                Output::Broadcast(Envelope::Evidence(_)),
                Output::Convicted(_),
            ]
        ));
        assert_eq!(engine.convicted(), vec![AuthorityIndex(2)]);
        // A second proof against the same author is deduplicated silently.
        let again = engine.handle(Input::EvidenceReceived { from: 3, proof });
        assert!(again.is_empty());
    }

    fn conflicting_pair(setup: &TestCommittee, author: u32) -> EquivocationProof {
        EquivocationProof::synthetic(setup, AuthorityIndex(author))
    }

    #[test]
    fn convicted_authors_are_excluded_from_parent_selection() {
        // Validator 0 convicts authority 2, then sees all four round-1
        // blocks before producing round 2 (the inclusion wait holds
        // production open): the convicted author's block must be in the
        // store yet absent from the parent list.
        let setup = TestCommittee::new(4, 7);
        let committee = setup.committee().clone();
        let proof = conflicting_pair(&setup, 2);
        let mut config = EngineConfig::new(AuthorityIndex(0), setup.clone());
        config.inclusion_wait = 1_000;
        let mut engine = ValidatorEngine::honest(
            config,
            Box::new(Committer::new(committee, CommitterOptions::mahi_mahi_5(2))),
        );
        // Round 1 production happens before the conviction (genesis is
        // complete, so the wait does not apply).
        engine.handle(Input::TimerFired { now: 0 });
        engine.handle(Input::EvidenceReceived { from: 1, proof });
        assert_eq!(engine.convicted(), vec![AuthorityIndex(2)]);

        // Deliver the peers' round-1 blocks (including the culprit's).
        let mut dag = DagBuilder::new(setup.clone());
        let r1 = dag.add_full_round();
        let mut produced = Vec::new();
        for reference in &r1 {
            if reference.author == AuthorityIndex(0) {
                continue; // own round-1 block was produced locally
            }
            let block = dag.store().get(reference).unwrap().clone();
            let outputs = engine.handle(Input::BlockReceived {
                from: reference.author.as_usize(),
                block,
            });
            produced.extend(broadcast_blocks(&outputs));
        }
        // All four present: production fired without waiting further…
        assert_eq!(engine.round(), 2);
        assert_eq!(produced.len(), 1);
        let block = &produced[0];
        assert_eq!(block.round(), 2);
        // …with a quorum of honest parents and no reference to the
        // convicted equivocator.
        assert!(
            block
                .parents()
                .all(|parent| parent.author != AuthorityIndex(2)),
            "convicted author referenced: {block:?}"
        );
        assert_eq!(block.parents().len(), 3);
        assert!(block.verify(setup.committee()).is_ok());
        // The culprit's block is in the store (admission is unchanged —
        // only parent selection shuns it).
        assert_eq!(engine.store().blocks_at_round(1).len(), 4);
    }

    #[test]
    fn parent_quorum_floor_readmits_convicted_blocks_when_unavoidable() {
        // Only the convicted author and one honest peer are present at
        // round 1: shunning the culprit outright would make the produced
        // block invalid (parent quorum < 2f + 1) and stall the DAG, so
        // exactly enough convicted blocks are re-admitted.
        let setup = TestCommittee::new(4, 7);
        let committee = setup.committee().clone();
        let proof = conflicting_pair(&setup, 2);
        let mut engine = ValidatorEngine::honest(
            EngineConfig::new(AuthorityIndex(0), setup.clone()),
            Box::new(Committer::new(committee, CommitterOptions::mahi_mahi_5(2))),
        );
        engine.handle(Input::TimerFired { now: 0 });
        engine.handle(Input::EvidenceReceived { from: 1, proof });

        let mut dag = DagBuilder::new(setup.clone());
        let r1 = dag.add_full_round();
        let mut produced = Vec::new();
        for reference in &r1 {
            // Deliver only authorities 1 and 2 (2 is convicted): quorum
            // completes with the culprit as its third member.
            if !matches!(reference.author.0, 1 | 2) {
                continue;
            }
            let block = dag.store().get(reference).unwrap().clone();
            let outputs = engine.handle(Input::BlockReceived {
                from: reference.author.as_usize(),
                block,
            });
            produced.extend(broadcast_blocks(&outputs));
        }
        assert_eq!(engine.round(), 2, "the floor must keep the DAG live");
        assert_eq!(produced.len(), 1);
        let block = &produced[0];
        assert!(
            block
                .parents()
                .any(|parent| parent.author == AuthorityIndex(2)),
            "the validity floor re-admits the convicted parent"
        );
        assert!(block.verify(setup.committee()).is_ok());
    }

    #[test]
    fn restore_round_trips_blocks_and_evidence() {
        let setup = TestCommittee::new(4, 7);
        let proof = conflicting_pair(&setup, 3);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(2);

        let mut engine = engine(0, false);
        for block in dag.store().iter() {
            if block.round() > 0 {
                engine.restore_block(block.clone());
            }
        }
        engine.restore_evidence(proof);
        assert_eq!(engine.round(), 2, "own produced round recovered");
        assert_eq!(engine.store().highest_round(), 2);
        assert_eq!(engine.convicted(), vec![AuthorityIndex(3)]);
    }

    #[test]
    fn wal_records_round_trip() {
        let setup = TestCommittee::new(4, 7);
        let block = Block::genesis(AuthorityIndex(1)).into_arc();
        let records = vec![
            WalRecord::Block(block.clone()),
            WalRecord::Evidence(conflicting_pair(&setup, 1)),
        ];
        for record in records {
            let bytes = record.to_bytes_vec();
            let decoded = WalRecord::from_bytes_exact(&bytes).unwrap();
            match (&record, &decoded) {
                (WalRecord::Block(a), WalRecord::Block(b)) => {
                    assert_eq!(a.reference(), b.reference());
                }
                (WalRecord::Evidence(a), WalRecord::Evidence(b)) => assert_eq!(a, b),
                _ => panic!("record kind changed in round trip"),
            }
        }
        assert!(WalRecord::from_bytes_exact(&[7]).is_err());
    }

    #[test]
    fn inclusion_wait_paces_production() {
        let setup = TestCommittee::new(4, 7);
        let committee = setup.committee().clone();
        let mut config = EngineConfig::new(AuthorityIndex(0), setup.clone());
        config.inclusion_wait = 1_000;
        let mut engine = ValidatorEngine::honest(
            config,
            Box::new(Committer::new(committee, CommitterOptions::mahi_mahi_5(2))),
        );
        // Genesis is complete (all four present): round 1 comes instantly.
        engine.handle(Input::TimerFired { now: 0 });
        assert_eq!(engine.round(), 1);
        // Deliver only a quorum (not all) of round-1 peers: the engine
        // must wait out the inclusion window before producing round 2.
        let mut dag = DagBuilder::new(setup);
        let r1 = dag.add_full_round();
        let mut outputs = Vec::new();
        for reference in r1.iter().filter(|r| r.author.0 != 0).take(2) {
            let block = dag.store().get(reference).unwrap().clone();
            outputs = engine.handle(Input::BlockReceived {
                from: reference.author.as_usize(),
                block,
            });
        }
        assert_eq!(engine.round(), 1, "must wait for the inclusion window");
        assert!(outputs
            .iter()
            .any(|output| matches!(output, Output::WakeAt(1_000))));
        let outputs = engine.handle(Input::TimerFired { now: 1_000 });
        assert_eq!(engine.round(), 2);
        assert_eq!(broadcast_blocks(&outputs).len(), 1);
    }

    fn engine_with_interval(authority: u32, interval: u64) -> ValidatorEngine {
        let setup = TestCommittee::new(4, 7);
        let committee = setup.committee().clone();
        let mut config = EngineConfig::new(AuthorityIndex(authority), setup);
        config.mempool = MempoolConfig::test(10_000, 100);
        config.checkpoint_interval = interval;
        ValidatorEngine::honest(
            config,
            Box::new(Committer::new(committee, CommitterOptions::mahi_mahi_5(2))),
        )
    }

    /// A lockstep fabric for broadcasts (blocks, checkpoints, evidence):
    /// every one is delivered to every other engine until nothing is in
    /// flight. It can be run again to a further horizon, with inputs fed by
    /// hand in between.
    #[derive(Default)]
    struct Flood {
        inflight: VecDeque<(usize, Envelope)>,
        /// Blocks above the last horizon, delivered when it is raised.
        held: Vec<(usize, Envelope)>,
        /// An engine that peers' attestations are kept from, and the ones
        /// kept from it so far.
        withhold_checkpoints_to: Option<usize>,
        withheld: Vec<(usize, Envelope)>,
        /// Every `CheckpointProduced` per engine, in order.
        produced: Vec<Vec<Checkpoint>>,
        /// Every `Persist(WalRecord::Checkpoint)` per engine, in order.
        snapshots: Vec<Vec<WalRecord>>,
        /// Every `SendTo` as `(from, to, envelope)`; not delivered.
        sent: Vec<(usize, usize, Envelope)>,
    }

    impl Flood {
        /// Delivers until quiescent, holding back blocks above
        /// `round_horizon`.
        fn run(&mut self, engines: &mut [ValidatorEngine], round_horizon: Round) {
            self.inflight.extend(self.held.drain(..));
            for to in 0..engines.len() {
                self.feed(engines, to, Input::TimerFired { now: 0 });
            }
            while let Some((from, envelope)) = self.inflight.pop_front() {
                if matches!(&envelope, Envelope::Block(block) if block.round() > round_horizon) {
                    self.held.push((from, envelope));
                    continue;
                }
                for to in (0..engines.len()).filter(|&to| to != from) {
                    if matches!(envelope, Envelope::Checkpoint(_))
                        && self.withhold_checkpoints_to == Some(to)
                    {
                        self.withheld.push((from, envelope.clone()));
                        continue;
                    }
                    self.feed(engines, to, Input::from_envelope(from, envelope.clone()));
                }
            }
        }

        /// Hands `input` to engine `to` and renders what it answers.
        fn feed(&mut self, engines: &mut [ValidatorEngine], to: usize, input: Input) {
            self.produced.resize(engines.len(), Vec::new());
            self.snapshots.resize(engines.len(), Vec::new());
            for output in engines[to].handle(input) {
                match output {
                    Output::Broadcast(envelope) => self.inflight.push_back((to, envelope)),
                    Output::SendTo(peer, envelope) => self.sent.push((to, peer, envelope)),
                    Output::CheckpointProduced(checkpoint) => self.produced[to].push(checkpoint),
                    Output::Persist(record @ WalRecord::Checkpoint { .. }) => {
                        self.snapshots[to].push(record);
                    }
                    _ => {}
                }
            }
        }

        /// The state-sync responses sent so far: sender, receiver, payload.
        fn responses(&self) -> Vec<(usize, usize, SyncPayload)> {
            self.sent
                .iter()
                .filter_map(|(from, to, envelope)| match envelope {
                    Envelope::CheckpointResponse {
                        checkpoints,
                        execution,
                        resume,
                    } => {
                        let payload = (checkpoints.clone(), execution.clone(), resume.clone());
                        Some((*from, *to, payload))
                    }
                    _ => None,
                })
                .collect()
        }
    }

    /// What a state-sync response carries: the quorum, the execution
    /// snapshot, the sequencer snapshot.
    type SyncPayload = (Vec<Checkpoint>, Vec<u8>, Vec<u8>);

    /// Floods four fresh engines (interval 4) to round 12, has authority 3
    /// ask engine 0 for state-sync, floods on until the response left, and
    /// returns what it carried.
    fn state_sync_response() -> SyncPayload {
        let mut engines: Vec<ValidatorEngine> =
            (0..4).map(|a| engine_with_interval(a, 4)).collect();
        let mut flood = Flood::default();
        flood.run(&mut engines, 12);
        assert!(engines[0]
            .handle(Input::CheckpointRequested { from: 3 })
            .is_empty());
        flood.run(&mut engines, 20);
        let (from, to, payload) = flood
            .responses()
            .pop()
            .expect("the request is answered once the next cut has its quorum");
        assert_eq!((from, to), (0, 3));
        payload
    }

    #[test]
    fn checkpoints_are_emitted_certified_and_agree() {
        let setup = TestCommittee::new(4, 7);
        let mut engines: Vec<ValidatorEngine> =
            (0..4).map(|a| engine_with_interval(a, 4)).collect();
        let mut flood = Flood::default();
        flood.run(&mut engines, 12);

        // Every validator reached at least one boundary, every signature
        // verifies, and positions land exactly on multiples of the
        // interval.
        let mut by_position: HashMap<u64, Checkpoint> = HashMap::new();
        for (validator, checkpoints) in flood.produced.iter().enumerate() {
            assert!(
                !checkpoints.is_empty(),
                "validator {validator} produced no checkpoint"
            );
            for checkpoint in checkpoints {
                assert_eq!(checkpoint.authority(), AuthorityIndex(validator as u32));
                assert_eq!(checkpoint.position() % 4, 0);
                assert!(checkpoint.verify(setup.committee()).is_ok());
                // Execution determinism: any two validators' checkpoints
                // at the same position attest the same cut and root.
                match by_position.get(&checkpoint.position()) {
                    Some(existing) => assert!(
                        existing.attests_same(checkpoint),
                        "diverging checkpoints at position {}",
                        checkpoint.position()
                    ),
                    None => {
                        by_position.insert(checkpoint.position(), checkpoint.clone());
                    }
                }
            }
        }
        // Gossiped attestations certified a quorum at every engine.
        // Attestations below the certified cut tell nothing: they are gone.
        // Nobody asked for state-sync: no snapshot is held.
        for engine in &mut engines {
            let certified = engine
                .checkpoints
                .latest_certified()
                .unwrap_or_else(|| panic!("no certified checkpoint at {:?}", engine.authority()));
            assert!(certified > 4, "several positions certified in turn");
            assert_eq!(engine.checkpoints.collected().first(), Some(&certified));
            assert_eq!(engine.checkpoints.archived(), None);
            assert_ne!(engine.state_root(), StateRoot::genesis());
            // The newest cut signs the current root of a prefix that ends
            // on it, or an older one: never a root this engine cannot
            // reproduce.
            let latest = engine.latest_checkpoint().expect("signed").clone();
            if engine.sequencer.sequenced_slots() == latest.position() {
                assert_eq!(engine.state_root(), latest.state_root());
            }
        }
    }

    /// An [`ExecutionState`] double over the reference ledger that counts
    /// the O(state) calls and the bytes the root hashes. Rebuilt states
    /// share the counters.
    #[derive(Clone, Default)]
    struct CountingLedger {
        ledger: BalanceLedger,
        snapshots: Arc<std::sync::atomic::AtomicU64>,
        hashed_bytes: Arc<std::sync::atomic::AtomicU64>,
    }

    impl ExecutionState for CountingLedger {
        fn apply(&mut self, sub_dag: &CommittedSubDag) {
            self.ledger.apply(sub_dag);
        }

        fn state_root(&mut self) -> StateRoot {
            let before = self.ledger.hashed_bytes();
            let root = self.ledger.state_root();
            self.hashed_bytes.fetch_add(
                self.ledger.hashed_bytes() - before,
                std::sync::atomic::Ordering::Relaxed,
            );
            root
        }

        fn snapshot(&self) -> Vec<u8> {
            self.snapshots
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.ledger.snapshot()
        }

        fn restore(&self, snapshot: &[u8]) -> Result<Box<dyn ExecutionState>, CodecError> {
            Ok(Box::new(CountingLedger {
                ledger: BalanceLedger::from_snapshot(snapshot)?,
                ..self.clone()
            }))
        }
    }

    fn count(counter: &std::sync::atomic::AtomicU64) -> u64 {
        counter.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Four engines (interval 4) over [`CountingLedger`]s, each with
    /// counters of its own and recovered from a log that held the cut at
    /// position 4 over a ledger of `accounts` accounts — the way a large
    /// state arrives. Also returns that ledger's snapshot. Sixteen times
    /// its size is more than the tests below ever sequence, so the log asks
    /// for no snapshot in them.
    fn preloaded_engines(accounts: u64) -> (Vec<ValidatorEngine>, Vec<CountingLedger>, Vec<u8>) {
        // Spread over every key range: an odd multiplier permutes `u64`.
        let mut keys: Vec<u64> = (1..=accounts)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        keys.sort_unstable();
        let mut encoder = Encoder::new();
        encoder.put_u64(accounts);
        for account in keys {
            encoder.put_u64(account);
            encoder.put_u64(1);
        }
        let execution = encoder.into_bytes();
        let state_root = BalanceLedger::from_snapshot(&execution)
            .expect("canonical")
            .state_root();
        let resume = SequencerSnapshot {
            position: 4,
            next_round: 1,
            consumed_in_round: 0,
            emitted: Vec::new(),
        };
        let setup = TestCommittee::new(4, 7);
        let counters: Vec<CountingLedger> = (0..4).map(|_| CountingLedger::default()).collect();
        let engines = counters
            .iter()
            .zip(0..)
            .map(|(counter, authority)| {
                let mut engine =
                    engine_with_interval(authority, 4).with_execution(Box::new(counter.clone()));
                let checkpoint = Checkpoint::sign(
                    AuthorityIndex(authority),
                    4,
                    BlockRef::default(),
                    state_root,
                    resume.digest(),
                    setup.keypair(AuthorityIndex(authority)),
                );
                assert!(engine.restore(WalRecord::Checkpoint {
                    checkpoint,
                    execution: execution.clone(),
                    resume: resume.to_bytes_vec(),
                }));
                // Building the tree once is O(state), and is not counted.
                counter
                    .hashed_bytes
                    .store(0, std::sync::atomic::Ordering::Relaxed);
                engine
            })
            .collect();
        (engines, counters, execution)
    }

    /// The acceptance test of "checkpoints in O(change)": a ledger of
    /// 100,000 accounts crosses ten cuts without one `snapshot()` call, and
    /// what the ten roots hash follows the accounts the commits touched —
    /// the four authors — not the ledger. Counts, not timings: they repeat
    /// exactly.
    #[test]
    fn ordinary_cuts_read_no_snapshot_and_hash_what_changed() {
        let run = || {
            let (mut engines, counters, execution) = preloaded_engines(100_000);
            let mut flood = Flood::default();
            flood.run(&mut engines, 30);
            let cuts = flood.produced[0].len() as u64;
            assert!(cuts >= 10, "only {cuts} cuts crossed");
            assert!(flood.snapshots.iter().all(Vec::is_empty));
            for counter in &counters {
                assert_eq!(
                    count(&counter.snapshots),
                    0,
                    "an ordinary cut took a snapshot"
                );
            }
            (
                cuts,
                count(&counters[0].hashed_bytes),
                execution.len() as u64,
            )
        };
        let (cuts, hashed, ledger_bytes) = run();
        // Every commit credits the four authors, all in the first key
        // range: per cut one leaf — theirs and the half a dozen preloaded
        // pairs that share it — and its seven ancestors. The ledger is
        // 1.6 MB; ten roots over its bytes would hash sixteen.
        let per_cut = hashed / cuts;
        assert!(
            per_cut <= 16 * 16 + 7 * 128,
            "{per_cut} bytes hashed per cut"
        );
        assert!(hashed < ledger_bytes / 100);
        assert_eq!(
            run(),
            (cuts, hashed, ledger_bytes),
            "the counts repeat exactly"
        );
    }

    #[test]
    fn state_sync_is_served_on_demand_from_the_next_cut() {
        let (mut engines, counters, _) = preloaded_engines(2_000);
        let mut flood = Flood::default();
        flood.run(&mut engines, 12);
        let certified = engines[0]
            .checkpoints
            .latest_certified()
            .expect("certified");
        assert_eq!(count(&counters[0].snapshots), 0, "nobody asked");

        // A request from outside the committee costs nothing, ever.
        engines[0].handle(Input::CheckpointRequested { from: 4 });
        engines[0].handle(Input::CheckpointRequested { from: 1 << 20 });
        // Two members ask, one of them twice: remembered, not answered —
        // the certified cut behind them carries no snapshot.
        for from in [3, 2, 3] {
            let outputs = engines[0].handle(Input::CheckpointRequested { from });
            assert!(outputs.is_empty(), "{outputs:?}");
        }
        assert_eq!(count(&counters[0].snapshots), 0);

        // The next cut takes one snapshot for all of them, and the
        // response leaves when that cut has its quorum.
        flood.run(&mut engines, 14);
        let responses = flood.responses();
        let served: Vec<(usize, usize)> = responses.iter().map(|r| (r.0, r.1)).collect();
        assert_eq!(served, [(0, 2), (0, 3)], "one response per member owed");
        assert_eq!(count(&counters[0].snapshots), 1, "one snapshot, shared");
        let (_, _, (checkpoints, execution, resume)) = responses.into_iter().next().unwrap();
        let position = checkpoints[0].position();
        assert!(position > certified, "a cut taken after the request");
        assert_eq!(position % 4, 0);
        assert_eq!(
            engines[0].checkpoints.archived(),
            None,
            "served and dropped"
        );
        // A snapshot taken for a joiner is not persisted: the log's
        // cadence is the log's alone.
        assert!(flood.snapshots[0].is_empty());
        // Later cuts owe nobody anything.
        flood.run(&mut engines, 24);
        assert_eq!(count(&counters[0].snapshots), 1);
        assert_eq!(flood.responses().len(), 2);
        for counter in &counters[1..] {
            assert_eq!(count(&counter.snapshots), 0, "only the engine asked pays");
        }

        // The joiner adopts the payload and stands on the same root.
        let mut joiner = engine_with_interval(3, 4);
        let outputs = joiner.handle(Input::CheckpointSyncReceived {
            from: 0,
            checkpoints: checkpoints.clone(),
            execution,
            resume,
        });
        assert!(
            outputs
                .iter()
                .any(|output| matches!(output, Output::Persist(WalRecord::Checkpoint { .. }))),
            "adoption must persist the checkpoint for crash recovery"
        );
        assert_eq!(joiner.commit_log_base(), position);
        assert_eq!(joiner.state_root(), checkpoints[0].state_root());
        assert_eq!(joiner.latest_checkpoint(), Some(&checkpoints[0]));
    }

    #[test]
    fn a_second_request_while_one_is_pending_costs_no_second_snapshot() {
        let (mut engines, counters, _) = preloaded_engines(2_000);
        let mut flood = Flood::default();
        flood.run(&mut engines, 12);
        flood.feed(&mut engines, 0, Input::CheckpointRequested { from: 3 });
        // Engine 0 crosses the next cuts without hearing its peers'
        // attestations: the snapshot it takes at the first stays pending,
        // and the cuts after it take none.
        let crossed = flood.produced[0].len();
        flood.withhold_checkpoints_to = Some(0);
        flood.run(&mut engines, 18);
        assert!(flood.produced[0].len() >= crossed + 2, "two more cuts");
        let pending = flood.produced[0][crossed].position();
        assert_eq!(engines[0].checkpoints.archived(), Some(pending));
        assert_eq!(count(&counters[0].snapshots), 1, "one cut, one snapshot");
        assert!(flood.responses().is_empty(), "no quorum, no response");
        // A second member asks while that one is pending: no new snapshot,
        // and — once the quorum arrives — both are served from it.
        flood.feed(&mut engines, 0, Input::CheckpointRequested { from: 2 });
        assert_eq!(count(&counters[0].snapshots), 1);
        for (from, attestation) in std::mem::take(&mut flood.withheld) {
            flood.feed(&mut engines, 0, Input::from_envelope(from, attestation));
        }
        let served: Vec<(usize, usize, u64)> = flood
            .responses()
            .iter()
            .map(|(from, to, payload)| (*from, *to, payload.0[0].position()))
            .collect();
        assert_eq!(served, [(0, 2, pending), (0, 3, pending)]);
        assert_eq!(count(&counters[0].snapshots), 1);
    }

    #[test]
    fn checkpoint_response_bootstraps_a_fresh_engine() {
        let (checkpoints, execution, resume) = state_sync_response();
        let certified = checkpoints[0].position();

        let mut joiner = engine_with_interval(3, 4);
        let outputs = joiner.handle(Input::from_envelope(
            0,
            Envelope::CheckpointResponse {
                checkpoints,
                execution,
                resume,
            },
        ));
        assert!(
            outputs
                .iter()
                .any(|output| matches!(output, Output::Persist(WalRecord::Checkpoint { .. }))),
            "adoption must persist the checkpoint for crash recovery"
        );
        assert_eq!(joiner.commit_log_base(), certified);
        assert!(joiner.commit_log().is_empty(), "no replayed prefix");
        let checkpoint = joiner.latest_checkpoint().expect("adopted").clone();
        assert_eq!(checkpoint.position(), certified);
        assert_eq!(joiner.state_root(), checkpoint.state_root());
        // The adopted cut is certified here too, and holds no copy of the
        // snapshot: the joiner's log has it.
        assert_eq!(joiner.checkpoints.latest_certified(), Some(certified));
        assert_eq!(joiner.checkpoints.archived(), None);
    }

    #[test]
    fn checkpoint_adoption_rejects_tampered_or_underquorum_responses() {
        let (checkpoints, execution, resume) = state_sync_response();

        // Under-quorum: a single attestation must not be adopted.
        let mut joiner = engine_with_interval(3, 4);
        joiner.handle(Input::CheckpointSyncReceived {
            from: 0,
            checkpoints: checkpoints[..1].to_vec(),
            execution: execution.clone(),
            resume: resume.clone(),
        });
        assert!(joiner.latest_checkpoint().is_none());

        // Tampered execution snapshot: the state rebuilt from it no longer
        // has the quorum-certified root.
        let before = joiner.state_root();
        let mut tampered = execution.clone();
        *tampered.last_mut().unwrap() ^= 0xff;
        joiner.handle(Input::CheckpointSyncReceived {
            from: 0,
            checkpoints: checkpoints.clone(),
            execution: tampered,
            resume: resume.clone(),
        });
        assert!(joiner.latest_checkpoint().is_none());
        assert_eq!(joiner.commit_log_base(), 0);
        assert_eq!(
            joiner.state_root(),
            before,
            "the live state was not touched"
        );

        // A quorum signing the hash of the bytes — the commitment of logs
        // written before the tree root — is a peer's word, not this
        // validator's own log: refused.
        let setup = TestCommittee::new(4, 7);
        let legacy: Vec<Checkpoint> = checkpoints
            .iter()
            .map(|checkpoint| {
                Checkpoint::sign(
                    checkpoint.authority(),
                    checkpoint.position(),
                    checkpoint.leader(),
                    StateRoot(blake2b_256(&execution)),
                    checkpoint.resume_digest(),
                    setup.keypair(checkpoint.authority()),
                )
            })
            .collect();
        joiner.handle(Input::CheckpointSyncReceived {
            from: 0,
            checkpoints: legacy,
            execution: execution.clone(),
            resume: resume.clone(),
        });
        assert!(joiner.latest_checkpoint().is_none());

        // The untampered response is adopted by the same engine.
        joiner.handle(Input::CheckpointSyncReceived {
            from: 0,
            checkpoints,
            execution,
            resume,
        });
        assert!(joiner.latest_checkpoint().is_some());
    }

    #[test]
    fn restore_checkpoint_round_trips_through_the_wal_record() {
        let (checkpoints, execution, resume) = state_sync_response();
        let checkpoint = checkpoints[0].clone();

        // Own-WAL restore: no quorum needed, but the snapshots must match
        // the signed roots.
        let mut recovered = engine_with_interval(0, 4);
        assert!(recovered.restore_checkpoint(
            checkpoint.clone(),
            execution.clone(),
            resume.clone()
        ));
        assert_eq!(recovered.state_root(), checkpoint.state_root());
        assert_eq!(recovered.commit_log_base(), checkpoint.position());
        assert_eq!(recovered.latest_checkpoint(), Some(&checkpoint));
        assert_eq!(
            recovered.checkpoints.archived(),
            None,
            "the snapshot stays in the log it came from"
        );

        let mut fresh = engine_with_interval(0, 4);
        let mut bad = execution.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        assert!(!fresh.restore_checkpoint(checkpoint.clone(), bad, resume.clone()));
        let mut bad_resume = resume.clone();
        bad_resume[0] ^= 0xff;
        assert!(!fresh.restore_checkpoint(checkpoint.clone(), execution.clone(), bad_resume));
        // Not the canonical encoding of the state: refused even though the
        // entries are the same.
        let mut swapped = execution.clone();
        let (first, second) = swapped[8..40].split_at_mut(16);
        first.swap_with_slice(second);
        assert!(!fresh.restore_checkpoint(checkpoint.clone(), swapped, resume.clone()));
        assert_eq!(fresh.commit_log_base(), 0, "rejected restores are no-ops");
    }

    #[test]
    fn checkpoint_interval_zero_disables_cuts_and_snapshots() {
        let counter = CountingLedger::default();
        let mut engines: Vec<ValidatorEngine> = (0..4)
            .map(|a| engine_with_interval(a, 0).with_execution(Box::new(counter.clone())))
            .collect();
        engines[0].handle(Input::CheckpointRequested { from: 3 });
        let mut flood = Flood::default();
        flood.run(&mut engines, 12);
        assert!(engines[0].committed_slots() > 0);
        assert!(flood.produced.iter().all(Vec::is_empty));
        assert!(flood.snapshots.iter().all(Vec::is_empty));
        assert!(flood.responses().is_empty());
        assert_eq!(count(&counter.snapshots), 0);
    }

    #[test]
    fn durable_records_are_own_blocks_evidence_and_checkpoints() {
        let setup = TestCommittee::new(4, 7);
        let me = AuthorityIndex(1);
        let own = WalRecord::Block(Block::genesis(me).into_arc());
        let peer = WalRecord::Block(Block::genesis(AuthorityIndex(2)).into_arc());
        let evidence = WalRecord::Evidence(conflicting_pair(&setup, 3));
        let checkpoint = WalRecord::Checkpoint {
            checkpoint: CheckpointBook::new(setup.committee().clone(), me, 4).sign_own(
                setup.keypair(me),
                4,
                StateRoot::genesis(),
                Digest::ZERO,
            ),
            execution: Vec::new(),
            resume: Vec::new(),
        };
        assert!(own.is_durable(me));
        assert!(!peer.is_durable(me), "refetchable: rides the next sync");
        assert!(peer.is_durable(AuthorityIndex(2)), "own is relative");
        assert!(evidence.is_durable(me));
        assert!(checkpoint.is_durable(me));
    }

    /// Like [`flood`], for the certified pipeline: also delivers `SendTo`
    /// (acks, sync traffic), and calls `observe` after every input engine 0
    /// handled.
    fn flood_certified(
        engines: &mut [ValidatorEngine],
        round_horizon: Round,
        mut observe: impl FnMut(&mut ValidatorEngine, &mut VecDeque<(usize, usize, Envelope)>),
    ) {
        let mut inflight: VecDeque<(usize, usize, Envelope)> = VecDeque::new();
        let route = |from: usize, outputs: Vec<Output>, inflight: &mut VecDeque<_>| {
            for output in outputs {
                match output {
                    Output::Broadcast(envelope) => {
                        for to in (0..4).filter(|&to| to != from) {
                            inflight.push_back((from, to, envelope.clone()));
                        }
                    }
                    Output::SendTo(to, envelope) => inflight.push_back((from, to, envelope)),
                    _ => {}
                }
            }
        };
        for (from, engine) in engines.iter_mut().enumerate() {
            route(
                from,
                engine.handle(Input::TimerFired { now: 0 }),
                &mut inflight,
            );
        }
        while let Some((from, to, envelope)) = inflight.pop_front() {
            if matches!(&envelope, Envelope::Proposal(block) if block.round() > round_horizon) {
                continue;
            }
            let outputs = engines[to].handle(Input::from_envelope(from, envelope));
            route(to, outputs, &mut inflight);
            if to == 0 {
                observe(&mut engines[0], &mut inflight);
            }
        }
    }

    /// A validly signed round-`round` proposal by authority 1 whose
    /// parents (a quorum at `round − 1`) no engine holds: it verifies, so
    /// it is parked and acked, but it can never be certified.
    fn junk_proposal(setup: &TestCommittee, round: Round) -> Arc<Block> {
        let parents = [1, 0, 2]
            .map(|author| BlockRef {
                round: round - 1,
                author: AuthorityIndex(author),
                digest: Digest::ZERO,
            })
            .to_vec();
        BlockBuilder::new(AuthorityIndex(1), round)
            .parents(parents)
            .transaction(Transaction::benchmark(round))
            .build(setup)
            .into_arc()
    }

    #[test]
    fn certified_maps_plateau_under_gc_and_ignore_messages_below_the_floor() {
        const GC_DEPTH: u64 = 16;
        let setup = TestCommittee::new(4, 7);
        let mut engines: Vec<ValidatorEngine> = (0..4)
            .map(|a| {
                let mut config = EngineConfig::new(AuthorityIndex(a), setup.clone());
                config.certified = true;
                config.gc_depth = Some(GC_DEPTH);
                let committee = setup.committee().clone();
                let committer = Committer::new(committee, CommitterOptions::mahi_mahi_5(2));
                ValidatorEngine::honest(config, Box::new(committer))
            })
            .collect();

        let mut first_own = None;
        let mut junk_round = 0;
        let mut peak = [0usize; 3];
        flood_certified(&mut engines, 600, |engine, inflight| {
            let own = engine
                .store()
                .blocks_in_slot(Slot::new(1, AuthorityIndex(0)));
            first_own = first_own.or(own.first().map(|block| block.reference()));
            // Each round, peer 1 parks a valid proposal no certificate will
            // ever release; the ack it earns opens a tally at engine 1 that
            // never reaches a quorum.
            if engine.round() > junk_round {
                junk_round = engine.round();
                let junk = junk_proposal(&setup, junk_round);
                inflight.push_back((1, 0, Envelope::Proposal(junk)));
            }
            let sizes = engine.certified.as_ref().expect("certified").sizes();
            for (peak, size) in peak.iter_mut().zip(sizes) {
                *peak = (*peak).max(size);
            }
        });

        assert!(engines[0].round() >= 500, "round {}", engines[0].round());
        // The store compacts every 64 rounds of floor movement: several
        // prunes happened, and each map only ever held the window above
        // the last cutoff — not one entry per round of the run.
        let cutoff = engines[0].store().gc_cutoff();
        assert!(cutoff >= 5 * 64, "cutoff {cutoff}");
        let window = 64 + GC_DEPTH as usize + 32;
        assert!(peak.iter().all(|&held| held <= window), "{peak:?}");
        assert!(peak[0] > 64 && peak[2] > 64, "the test must fill the maps");
        let acks_at_peer = engines[1].certified.as_ref().expect("certified").sizes()[1];
        assert!((1..=window).contains(&acks_at_peer), "{acks_at_peer}");

        // A full quorum of late acks for the long-pruned first own
        // proposal: no tally re-opens, no second certificate is minted.
        let stale = first_own.expect("round 1 was certified");
        assert!(stale.round < cutoff);
        let before = engines[0].certified.as_ref().expect("certified").sizes();
        for voter in 1..4 {
            let outputs = engines[0].handle(Input::AckReceived {
                from: voter,
                reference: stale,
                voter: AuthorityIndex(voter as u32),
            });
            assert!(outputs.is_empty(), "{outputs:?}");
        }
        // Nor is anything parked or fetched below the floor.
        let block = junk_proposal(&setup, 2);
        let reference = block.reference();
        assert!(engines[0]
            .handle(Input::ProposalReceived { from: 1, block })
            .is_empty());
        assert!(engines[0]
            .handle(Input::CertificateReceived {
                from: 1,
                reference,
                signatures: 3,
            })
            .is_empty());
        let after = engines[0].certified.as_ref().expect("certified").sizes();
        assert_eq!(before, after);
    }
}
