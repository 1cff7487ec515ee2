//! Block production's strategy seam: the engine decides *when* a block is
//! produced and *what goes in*; a [`ProposerStrategy`] decides how many
//! variants to build and who receives which, through a [`ProposeCtx`].

use mahimahi_types::{
    AuthorityIndex, AuthoritySet, Block, BlockBuilder, BlockRef, Envelope, Round, Transaction,
};
use std::sync::Arc;

use super::{Time, ValidatorEngine, WalRecord};

/// Where a strategy wants a message to go.
#[derive(Debug)]
pub enum Route {
    /// To every other validator, now.
    Broadcast(Envelope),
    /// To one peer, now.
    Send(usize, Envelope),
    /// To every other validator, but not before `release` (slow-proposer
    /// pacing; the engine queues the message and emits the wake-up).
    Delay(Time, Envelope),
}

/// How produced blocks are built and disseminated.
///
/// The engine computes *when* to produce (quorum, pacing, inclusion wait)
/// and *what goes in* (parents, transactions); the strategy decides how
/// many variants to build and who receives which. [`HonestProposer`] builds
/// one block and broadcasts it — the only strategy real deployments run.
/// The simulator's Byzantine strategies (equivocators, withholding leaders,
/// slow proposers) live in `mahimahi-sim` and implement this trait, so
/// attack behavior composes with the shared core instead of forking it.
pub trait ProposerStrategy: Send {
    /// Builds and routes the block(s) for the round described by `ctx`.
    ///
    /// Implementations must leave the own chain extendable: admit exactly
    /// one variant locally ([`ProposeCtx::admit_own`]) or, under a
    /// certified DAG, register exactly one proposal
    /// ([`ProposeCtx::register_proposal`]).
    fn propose(&mut self, ctx: &mut ProposeCtx<'_>);

    /// Routes a certificate just formed for an own proposal (certified
    /// DAGs). The default broadcasts it.
    fn route_certificate(&mut self, certificate: Envelope, reference: BlockRef) -> Vec<Route> {
        let _ = reference;
        vec![Route::Broadcast(certificate)]
    }
}

/// The protocol-faithful strategy: one block, broadcast to everyone
/// (proposal first under a certified DAG).
#[derive(Debug, Default)]
pub struct HonestProposer;

impl ProposerStrategy for HonestProposer {
    fn propose(&mut self, ctx: &mut ProposeCtx<'_>) {
        let block = ctx.build(None);
        if ctx.certified() {
            ctx.register_proposal(block.clone());
            ctx.broadcast(Envelope::Proposal(block));
        } else {
            ctx.admit_own(block.clone());
            ctx.broadcast(Envelope::Block(block));
        }
    }
}

/// The build-and-route context handed to a [`ProposerStrategy`] for one
/// production.
pub struct ProposeCtx<'a> {
    pub(super) engine: &'a mut ValidatorEngine,
    pub(super) round: Round,
    pub(super) parents: Vec<BlockRef>,
    pub(super) transactions: Vec<Transaction>,
    pub(super) tags: Vec<(u64, usize)>,
    pub(super) routes: Vec<Route>,
    pub(super) persists: Vec<WalRecord>,
}

impl ProposeCtx<'_> {
    /// The round being produced.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The engine's current time (for pacing strategies).
    pub fn now(&self) -> Time {
        self.engine.now
    }

    /// The producing authority.
    pub fn authority(&self) -> AuthorityIndex {
        self.engine.config.authority
    }

    /// Committee size `n`.
    pub fn committee_size(&self) -> usize {
        self.engine.committee().size()
    }

    /// Whether blocks require certification before entering the DAG.
    pub fn certified(&self) -> bool {
        self.engine.certified.is_some()
    }

    /// Builds one signed variant of this round's block over the engine's
    /// parents and drained transactions. `tag` appends one extra marker
    /// transaction, letting equivocation strategies mint conflicting
    /// variants. Every built variant is registered for own-transaction
    /// commit accounting.
    pub fn build(&mut self, tag: Option<u64>) -> Arc<Block> {
        let config = &self.engine.config;
        let mut builder = BlockBuilder::new(config.authority, self.round)
            .parents(self.parents.clone())
            .transactions(self.transactions.iter().cloned());
        if let Some(tag) = tag {
            builder = builder.transaction(Transaction::new(tag.to_le_bytes().to_vec()));
        }
        let block = builder
            .build_with(&config.keypair, &config.coin_secret)
            .into_arc();
        self.engine
            .clients
            .register_own(block.reference(), self.tags.clone());
        block
    }

    /// Admits `block` into the local DAG as this validator's block of the
    /// round and schedules its persistence.
    pub fn admit_own(&mut self, block: Arc<Block>) {
        self.persists.push(WalRecord::Block(block.clone()));
        self.engine.admit(block);
    }

    /// Registers `block` as a pending own proposal (certified pipeline):
    /// it enters the DAG only once a certificate forms; the own
    /// acknowledgement is counted immediately. Meaningless — and ignored —
    /// on an uncertified engine.
    pub fn register_proposal(&mut self, block: Arc<Block>) {
        if let Some(certified) = &mut self.engine.certified {
            certified.register_own(block);
        }
    }

    // --------------------------------------------------------------
    // Read-only views of the live consensus state, for adaptive
    // strategies that pick victims from what the DAG actually shows
    // instead of a precomputed schedule.

    /// Authorities with a block at `round` in the local DAG (allocation-free
    /// bitset copy).
    pub fn authorities_at_round(&self, round: Round) -> AuthoritySet {
        self.engine.store.authorities_at_round(round)
    }

    /// Authorities convicted through the evidence pool.
    pub fn convicted(&self) -> AuthoritySet {
        self.engine.evidence.convicted_set()
    }

    /// The quorum threshold `2f + 1`.
    pub fn quorum_threshold(&self) -> usize {
        self.engine.committee().quorum_threshold()
    }

    /// Routes `envelope` to every other validator.
    pub fn broadcast(&mut self, envelope: Envelope) {
        self.routes.push(Route::Broadcast(envelope));
    }

    /// Routes `envelope` to one peer.
    pub fn send(&mut self, peer: usize, envelope: Envelope) {
        self.routes.push(Route::Send(peer, envelope));
    }

    /// Routes `envelope` to every other validator no earlier than
    /// `release`.
    pub fn delay_broadcast(&mut self, release: Time, envelope: Envelope) {
        self.routes.push(Route::Delay(release, envelope));
    }
}
