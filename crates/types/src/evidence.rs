//! Fault-attribution evidence.
//!
//! An uncertified DAG *tolerates* equivocation by construction (the commit
//! rule commits at most one block per slot, Lemma 2), but tolerating
//! misbehavior is not the same as attributing it. Two signed blocks by the
//! same author at the same round with different digests are a
//! self-contained, transferable proof of equivocation: anyone holding the
//! committee's public keys can check both signatures and convict the
//! author, no trust in the reporter required. Production DAG systems
//! (Mysticeti, Bullshark deployments) expose exactly this evidence for
//! slashing; [`EquivocationProof`] is this workspace's equivalent.
//!
//! The proof is *canonical*: the block with the smaller digest is always
//! stored first, so two validators that observe the same conflicting pair
//! build byte-identical proofs and deduplication works across nodes.

use std::error::Error as StdError;
use std::fmt;
use std::sync::Arc;

use crate::block::{Block, BlockRef, ValidationError};
use crate::codec::{CodecError, Decode, Decoder, Encode, Encoder};
use crate::committee::Committee;
use crate::ids::{AuthorityIndex, Round, Slot};

/// Reasons a pair of blocks fails to form (or verify as) an
/// [`EquivocationProof`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvidenceError {
    /// The two blocks have different authors: not an equivocation.
    AuthorMismatch(AuthorityIndex, AuthorityIndex),
    /// The two blocks occupy different rounds: not an equivocation.
    RoundMismatch(Round, Round),
    /// The two blocks are the same block (identical digest).
    IdenticalBlocks(BlockRef),
    /// One of the blocks fails validation against the committee, so the
    /// proof does not demonstrate misbehavior by a committee member.
    InvalidBlock(ValidationError),
}

impl fmt::Display for EvidenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvidenceError::AuthorMismatch(a, b) => {
                write!(f, "blocks by different authors {a} and {b}")
            }
            EvidenceError::RoundMismatch(a, b) => {
                write!(f, "blocks from different rounds {a} and {b}")
            }
            EvidenceError::IdenticalBlocks(reference) => {
                write!(f, "both blocks are {reference}: no conflict")
            }
            EvidenceError::InvalidBlock(error) => {
                write!(f, "block fails validation: {error}")
            }
        }
    }
}

impl StdError for EvidenceError {}

/// A self-contained proof that an authority equivocated: two signed blocks
/// with the same `(author, round)` but different content digests.
///
/// Construction ([`EquivocationProof::new`]) checks the *structural*
/// conflict (same slot, distinct digests); [`EquivocationProof::verify`]
/// additionally validates both blocks against the committee — signatures,
/// parent structure, coin shares — making the proof safe to act on (slash)
/// even when relayed by an untrusted peer.
///
/// # Example
///
/// ```
/// use mahimahi_types::{AuthorityIndex, Block, BlockBuilder, EquivocationProof, TestCommittee, Transaction};
///
/// let setup = TestCommittee::new(4, 7);
/// let genesis = Block::all_genesis(4);
/// let mut parents = vec![genesis[1].reference()];
/// parents.extend(genesis.iter().map(Block::reference).filter(|r| r.author.0 != 1));
/// let one = BlockBuilder::new(AuthorityIndex(1), 1)
///     .parents(parents.clone())
///     .transaction(Transaction::benchmark(1))
///     .build(&setup)
///     .into_arc();
/// let two = BlockBuilder::new(AuthorityIndex(1), 1)
///     .parents(parents)
///     .transaction(Transaction::benchmark(2))
///     .build(&setup)
///     .into_arc();
///
/// let proof = EquivocationProof::new(one, two).expect("conflicting pair");
/// assert_eq!(proof.author(), AuthorityIndex(1));
/// assert!(proof.verify(setup.committee()).is_ok());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct EquivocationProof {
    /// The conflicting block with the smaller digest (canonical order).
    first: Arc<Block>,
    /// The conflicting block with the larger digest.
    second: Arc<Block>,
}

impl EquivocationProof {
    /// Assembles a proof from two conflicting blocks, normalizing their
    /// order so equal conflicts build equal proofs on every node.
    ///
    /// # Errors
    ///
    /// Returns an [`EvidenceError`] if the blocks do not share an author and
    /// round or do not actually conflict (same digest). Block *validity* is
    /// deliberately not checked here — detection sites (the DAG store) only
    /// hold pre-validated blocks; untrusted proofs are checked with
    /// [`EquivocationProof::verify`].
    pub fn new(a: Arc<Block>, b: Arc<Block>) -> Result<Self, EvidenceError> {
        if a.author() != b.author() {
            return Err(EvidenceError::AuthorMismatch(a.author(), b.author()));
        }
        if a.round() != b.round() {
            return Err(EvidenceError::RoundMismatch(a.round(), b.round()));
        }
        if a.digest() == b.digest() {
            return Err(EvidenceError::IdenticalBlocks(a.reference()));
        }
        let (first, second) = if a.digest().as_bytes() <= b.digest().as_bytes() {
            (a, b)
        } else {
            (b, a)
        };
        Ok(EquivocationProof { first, second })
    }

    /// The convicted authority.
    pub fn author(&self) -> AuthorityIndex {
        self.first.author()
    }

    /// The round both blocks occupy.
    pub fn round(&self) -> Round {
        self.first.round()
    }

    /// The slot both blocks occupy.
    pub fn slot(&self) -> Slot {
        self.first.slot()
    }

    /// The conflicting block with the smaller digest.
    pub fn first(&self) -> &Arc<Block> {
        &self.first
    }

    /// The conflicting block with the larger digest.
    pub fn second(&self) -> &Arc<Block> {
        &self.second
    }

    /// Stable identity of the conflict: the ordered pair of references.
    pub fn id(&self) -> (BlockRef, BlockRef) {
        (self.first.reference(), self.second.reference())
    }

    /// Full, self-contained verification against the committee: the blocks
    /// conflict structurally *and* both are valid signed blocks, so the
    /// author provably signed contradictory messages.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition as an [`EvidenceError`].
    pub fn verify(&self, committee: &Committee) -> Result<(), EvidenceError> {
        if self.first.author() != self.second.author() {
            return Err(EvidenceError::AuthorMismatch(
                self.first.author(),
                self.second.author(),
            ));
        }
        if self.first.round() != self.second.round() {
            return Err(EvidenceError::RoundMismatch(
                self.first.round(),
                self.second.round(),
            ));
        }
        if self.first.digest() == self.second.digest() {
            return Err(EvidenceError::IdenticalBlocks(self.first.reference()));
        }
        self.first
            .verify(committee)
            .map_err(EvidenceError::InvalidBlock)?;
        self.second
            .verify(committee)
            .map_err(EvidenceError::InvalidBlock)?;
        Ok(())
    }

    /// Total serialized size in bytes (bandwidth model).
    pub fn serialized_size(&self) -> usize {
        self.encoded_len()
    }

    /// Test support: a genuine conviction — two conflicting, validly
    /// signed round-1 blocks by `author` over `setup`'s genesis. Used
    /// across the workspace's test suites to exercise evidence paths
    /// without hand-rolling the pair in every crate.
    #[doc(hidden)]
    pub fn synthetic(setup: &crate::committee::TestCommittee, author: AuthorityIndex) -> Self {
        use crate::block::BlockBuilder;
        use crate::transaction::Transaction;
        let genesis = Block::all_genesis(setup.committee().size());
        let build = |tag: u64| {
            let mut parents = vec![genesis[author.as_usize()].reference()];
            parents.extend(
                genesis
                    .iter()
                    .map(Block::reference)
                    .filter(|reference| reference.author != author),
            );
            BlockBuilder::new(author, 1)
                .parents(parents)
                .transaction(Transaction::benchmark(tag))
                .build(setup)
                .into_arc()
        };
        EquivocationProof::new(build(1), build(2)).expect("distinct tags conflict")
    }
}

impl fmt::Display for EquivocationProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Equivocation(v{}, round {}, {} vs {})",
            self.author().0,
            self.round(),
            self.first.reference(),
            self.second.reference()
        )
    }
}

impl fmt::Debug for EquivocationProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl Encode for EquivocationProof {
    fn encode(&self, encoder: &mut Encoder) {
        self.first.encode(encoder);
        self.second.encode(encoder);
    }

    fn encoded_len(&self) -> usize {
        self.first.encoded_len() + self.second.encoded_len()
    }
}

impl Decode for EquivocationProof {
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let first = Block::decode(decoder)?.into_arc();
        let second = Block::decode(decoder)?.into_arc();
        // Re-impose the structural invariants: a decoded proof must be a
        // genuine canonical conflict, not merely two blocks.
        if first.author() != second.author() || first.round() != second.round() {
            return Err(CodecError::InvalidValue("equivocation proof slot"));
        }
        if first.digest() == second.digest() {
            return Err(CodecError::InvalidValue("equivocation proof digests"));
        }
        if first.digest().as_bytes() > second.digest().as_bytes() {
            return Err(CodecError::InvalidValue("equivocation proof order"));
        }
        Ok(EquivocationProof { first, second })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use crate::committee::TestCommittee;
    use crate::transaction::Transaction;

    fn setup() -> TestCommittee {
        TestCommittee::new(4, 5)
    }

    fn parents_for(author: u32) -> Vec<BlockRef> {
        let genesis = Block::all_genesis(4);
        let mut parents = vec![genesis[author as usize].reference()];
        parents.extend(
            genesis
                .iter()
                .map(Block::reference)
                .filter(|reference| reference.author.0 != author),
        );
        parents
    }

    fn tagged_block(setup: &TestCommittee, author: u32, tag: u64) -> Arc<Block> {
        BlockBuilder::new(AuthorityIndex(author), 1)
            .parents(parents_for(author))
            .transaction(Transaction::benchmark(tag))
            .build(setup)
            .into_arc()
    }

    #[test]
    fn conflicting_pair_forms_a_verifying_proof() {
        let setup = setup();
        let one = tagged_block(&setup, 2, 1);
        let two = tagged_block(&setup, 2, 2);
        let proof = EquivocationProof::new(one.clone(), two.clone()).unwrap();
        assert_eq!(proof.author(), AuthorityIndex(2));
        assert_eq!(proof.round(), 1);
        assert_eq!(proof.slot(), one.slot());
        assert_eq!(proof.verify(setup.committee()), Ok(()));
    }

    #[test]
    fn proof_order_is_canonical() {
        let setup = setup();
        let one = tagged_block(&setup, 1, 1);
        let two = tagged_block(&setup, 1, 2);
        let forward = EquivocationProof::new(one.clone(), two.clone()).unwrap();
        let backward = EquivocationProof::new(two, one).unwrap();
        assert_eq!(forward, backward);
        assert_eq!(forward.id(), backward.id());
        assert!(forward.first().digest().as_bytes() <= forward.second().digest().as_bytes());
    }

    #[test]
    fn mismatched_pairs_rejected() {
        let setup = setup();
        let one = tagged_block(&setup, 0, 1);
        let other_author = tagged_block(&setup, 1, 1);
        assert!(matches!(
            EquivocationProof::new(one.clone(), other_author),
            Err(EvidenceError::AuthorMismatch(..))
        ));
        assert!(matches!(
            EquivocationProof::new(one.clone(), one.clone()),
            Err(EvidenceError::IdenticalBlocks(_))
        ));
        let genesis = Block::genesis(AuthorityIndex(0)).into_arc();
        assert!(matches!(
            EquivocationProof::new(one, genesis),
            Err(EvidenceError::RoundMismatch(1, 0))
        ));
    }

    #[test]
    fn tampered_block_fails_verification() {
        let setup = setup();
        let honest = tagged_block(&setup, 3, 1);
        // Sign the second block with the wrong keypair: structurally a
        // conflict, but not provably misbehavior by authority 3.
        let forged = BlockBuilder::new(AuthorityIndex(3), 1)
            .parents(parents_for(3))
            .transaction(Transaction::benchmark(2))
            .build_with(
                setup.keypair(AuthorityIndex(0)),
                setup.coin_secret(AuthorityIndex(3)),
            )
            .into_arc();
        let proof = EquivocationProof::new(honest, forged).unwrap();
        assert!(matches!(
            proof.verify(setup.committee()),
            Err(EvidenceError::InvalidBlock(
                ValidationError::InvalidSignature
            ))
        ));
    }

    #[test]
    fn proof_round_trips_through_codec() {
        let setup = setup();
        let proof =
            EquivocationProof::new(tagged_block(&setup, 2, 1), tagged_block(&setup, 2, 2)).unwrap();
        let bytes = proof.to_bytes_vec();
        assert_eq!(bytes.len(), proof.encoded_len());
        let decoded = EquivocationProof::from_bytes_exact(&bytes).unwrap();
        assert_eq!(decoded, proof);
        assert_eq!(decoded.verify(setup.committee()), Ok(()));
    }

    #[test]
    fn decode_rejects_non_conflicting_pairs() {
        let setup = setup();
        let block = tagged_block(&setup, 0, 1);
        // Same block twice: structurally not a conflict.
        let mut encoder = Encoder::new();
        block.encode(&mut encoder);
        block.encode(&mut encoder);
        assert!(EquivocationProof::from_bytes_exact(&encoder.into_bytes()).is_err());
        // Conflicting pair in the wrong (non-canonical) order.
        let other = tagged_block(&setup, 0, 2);
        let proof = EquivocationProof::new(block, other).unwrap();
        let mut encoder = Encoder::new();
        proof.second().encode(&mut encoder);
        proof.first().encode(&mut encoder);
        assert!(EquivocationProof::from_bytes_exact(&encoder.into_bytes()).is_err());
    }
}
