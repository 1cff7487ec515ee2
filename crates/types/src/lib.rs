//! Core protocol types for the Mahi-Mahi reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! - [`AuthorityIndex`] and [`Round`] identify positions in the DAG;
//! - [`Committee`] describes the validator set (`n = 3f + 1`, quorums);
//! - [`Block`] is the single message type of the protocol (Section 2.3 of
//!   the paper): a signed vertex carrying transactions, parent references,
//!   and a share of the global perfect coin;
//! - [`BlockRef`] is the hash reference linking blocks into the DAG;
//! - [`EquivocationProof`] packages two conflicting signed blocks by the
//!   same author and round as self-contained, transferable slashing
//!   evidence;
//! - [`Envelope`] is the transport-agnostic message vocabulary every
//!   validator driver (simulator, TCP node, test harnesses) speaks;
//! - [`codec`] provides the deterministic binary wire format used by the
//!   WAL and the TCP transport.
//!
//! # Example
//!
//! ```
//! use mahimahi_types::TestCommittee;
//!
//! let setup = TestCommittee::new(4, 7);
//! let committee = setup.committee();
//! assert_eq!(committee.size(), 4);
//! assert_eq!(committee.f(), 1);
//! assert_eq!(committee.quorum_threshold(), 3);
//! ```

pub mod block;
pub mod checkpoint;
pub mod codec;
pub mod committee;
pub mod dense;
pub mod envelope;
pub mod evidence;
pub mod ids;
pub mod receipt;
pub mod transaction;
pub mod verified;

pub use block::{Block, BlockBuilder, BlockRef, Parents, ValidationError};
pub use checkpoint::{Checkpoint, CheckpointError, StateRoot};
pub use codec::{CodecError, Decode, Decoder, Encode, Encoder};
pub use committee::{Committee, TestCommittee};
pub use dense::{
    AuthoritySet, CommitteeMap, DigestKeyHasher, DigestKeyed, InvalidAuthority,
    MAX_DENSE_AUTHORITIES,
};
pub use envelope::{Envelope, MAX_BATCH_TXS, MAX_TX_WIRE_BYTES};
pub use evidence::{EquivocationProof, EvidenceError};
pub use ids::{AuthorityIndex, Round, Slot};
pub use receipt::{TxReceipt, TxVerdict, MAX_RECEIPT_TAGS};
pub use transaction::Transaction;
pub use verified::Verified;
