//! The Mahi-Mahi committer — the paper's primary contribution.
//!
//! Mahi-Mahi interprets an uncertified DAG through overlapping *waves*
//! (Section 2.3): every round `R` starts a wave `Propose(R)`, `Boost…`,
//! `Vote(R + w − 2)`, `Certify(R + w − 1)`, where the wave length `w` is 5
//! (maximum asynchronous resilience), 4 (the latency-optimized
//! configuration), or 3 (safe but not live; Appendix C note). The global
//! perfect coin opened in the Certify round retroactively elects `ℓ` leader
//! slots per Propose round, and two decision rules classify each slot:
//!
//! - the **direct decision rule** (Section 3.2, step 2): commit a slot block
//!   with `2f + 1` certificates; skip a slot no block of which can ever be
//!   certified;
//! - the **indirect decision rule** (step 3): resolve a stuck slot through
//!   the earliest non-skipped *anchor* slot of a later wave.
//!
//! [`Committer::try_decide`] implements Algorithm 1's `TryDecide`;
//! [`CommitSequencer`] implements `ExtendCommitSequence` (steps 4–5),
//! producing the totally-ordered block sequence.
//!
//! # Example
//!
//! ```
//! use mahimahi_types::TestCommittee;
//! use mahimahi_dag::DagBuilder;
//! use mahimahi_core::{Committer, CommitterOptions, CommitSequencer, CommitDecision};
//!
//! let setup = TestCommittee::new(4, 7);
//! let committee = setup.committee().clone();
//! let mut dag = DagBuilder::new(setup);
//! dag.add_full_rounds(8);
//!
//! let committer = Committer::new(committee, CommitterOptions::default());
//! let mut sequencer = CommitSequencer::new(committer);
//! let decisions = sequencer.try_commit(dag.store());
//! // With a full DAG every decided slot commits.
//! assert!(decisions.iter().all(|d| matches!(d, CommitDecision::Commit(_))));
//! assert!(!decisions.is_empty());
//! ```

pub mod admission;
pub mod certified;
pub mod checkpointing;
mod committer;
mod decider;
mod election;
pub mod engine;
mod evidence;
pub mod execution;
pub mod ingress;
pub mod mempool;
mod protocol;
mod sequencer;
mod status;
pub mod telemetry;

pub use admission::{AdmissionConfig, AdmissionPipeline};
pub use committer::{Committer, CommitterOptions};
pub use election::{CoinElector, FixedElector, LeaderElector};
pub use engine::{
    EngineConfig, HonestProposer, Input, Output, ProposeCtx, ProposerStrategy, Route,
    ValidatorEngine, WalRecord,
};
pub use evidence::{EvidencePool, RecordingSlashingHook, SlashingHook};
pub use execution::{BalanceLedger, ExecutionState, BLOCK_REWARD};
pub use ingress::{ClientLedger, IngressConfig, IngressPolicy, IngressReport};
pub use mempool::{Mempool, MempoolConfig, TxIntegrityReport};
pub use protocol::ProtocolCommitter;
pub use sequencer::{CommitDecision, CommitSequencer, CommittedSubDag, SequencerSnapshot};
pub use status::LeaderStatus;
pub use telemetry::{NoopSink, TelemetrySink};
