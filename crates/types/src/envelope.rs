//! The wire-agnostic message vocabulary of the protocol.
//!
//! Both validator drivers — the deterministic simulator and the TCP node —
//! exchange exactly these messages. The sans-I/O validator engine
//! (`mahimahi-core`) consumes and emits [`Envelope`]s without knowing how
//! they travel: both drivers serialize them with the codec below, the
//! simulator once per send into its virtual network, the node into frames
//! over TCP. Keeping one enum here (rather than a
//! per-driver message type) is what guarantees the drivers cannot drift
//! apart in what they can say.
//!
//! Uncertified protocols (Mahi-Mahi, Cordial Miners) use only
//! [`Envelope::Block`], [`Envelope::Request`], [`Envelope::Response`], and
//! [`Envelope::Evidence`]. Tusk's certified pipeline adds the
//! consistent-broadcast triple [`Envelope::Proposal`] → [`Envelope::Ack`] →
//! [`Envelope::Certificate`].

use crate::block::{Block, BlockRef};
use crate::checkpoint::Checkpoint;
use crate::codec::{CodecError, Decode, Decoder, Encode, Encoder};
use crate::evidence::EquivocationProof;
use crate::ids::AuthorityIndex;
use crate::receipt::TxReceipt;
use crate::transaction::Transaction;
use std::sync::Arc;

/// Maximum transactions accepted in one [`Envelope::TxBatch`] frame.
/// Larger batches are rejected structurally at decode, before any copy of
/// their payload reaches the mempool.
pub const MAX_BATCH_TXS: usize = 16_384;

/// Maximum wire size of a single transaction payload (1 MiB). A frame
/// carrying a larger transaction is rejected at decode.
pub const MAX_TX_WIRE_BYTES: usize = 1024 * 1024;

/// Maximum checkpoints accepted in one [`Envelope::CheckpointResponse`]
/// frame — a full quorum never needs more than the committee size, and no
/// supported committee exceeds this.
pub const MAX_RESPONSE_CHECKPOINTS: usize = 1024;

/// One protocol message, independent of transport.
#[derive(Debug, Clone)]
pub enum Envelope {
    /// Best-effort block dissemination (uncertified DAGs).
    Block(Arc<Block>),
    /// Certified pipeline step 1: a block awaiting acknowledgements.
    Proposal(Arc<Block>),
    /// Certified pipeline step 2: a signed acknowledgement back to the
    /// author.
    Ack {
        /// The acknowledged block.
        reference: BlockRef,
        /// The acknowledging validator.
        voter: AuthorityIndex,
    },
    /// Certified pipeline step 3: the certificate releasing the block into
    /// the DAG. Carries the number of aggregated signatures (the
    /// simulator's CPU model charges per signature).
    Certificate {
        /// The certified block's reference (recipients hold the proposal).
        reference: BlockRef,
        /// Signatures aggregated in the certificate.
        signatures: usize,
    },
    /// Synchronizer: ask the peer for missing blocks.
    Request(Vec<BlockRef>),
    /// Synchronizer: blocks answering an [`Envelope::Request`].
    Response(Vec<Arc<Block>>),
    /// Fault attribution: a self-contained equivocation proof, gossiped so
    /// every honest validator converges on the same culprit set.
    Evidence(EquivocationProof),
    /// Client ingress: a batch of transactions submitted for inclusion.
    /// Structurally validated at decode — non-empty, at most
    /// [`MAX_BATCH_TXS`] transactions, each at most [`MAX_TX_WIRE_BYTES`]
    /// bytes. The receiving validator's mempool applies admission control
    /// (dedup, capacity) on top.
    TxBatch(Vec<Transaction>),
    /// Checkpointing: one validator's signed attestation of the execution
    /// state at an agreed cut of the commit sequence, gossiped every
    /// `checkpoint_interval` sequencing decisions. Receivers collect these
    /// per position; a quorum of matching attestations certifies the cut.
    Checkpoint(Checkpoint),
    /// State-sync step 1: ask a peer for its latest quorum-certified
    /// checkpoint (a joining or long-offline validator's first message).
    CheckpointRequest,
    /// State-sync step 2: the latest certified cut — a quorum of matching
    /// [`Envelope::Checkpoint`] attestations plus the execution and
    /// sequencer-resume snapshots whose hashes they certify. The receiver
    /// verifies every signature and both hashes before adopting.
    CheckpointResponse {
        /// Quorum of checkpoints attesting the same cut.
        checkpoints: Vec<Checkpoint>,
        /// Canonical execution-state snapshot (hashes to the state root).
        execution: Vec<u8>,
        /// Canonical sequencer resume snapshot (hashes to the resume
        /// digest).
        resume: Vec<u8>,
    },
    /// Client ingress acknowledgement: per-transaction admission verdicts
    /// for a received [`Envelope::TxBatch`], or the later notification that
    /// a batch's accepted transactions all committed. Sent from a validator
    /// back down the submitting client's connection.
    TxReceipt(TxReceipt),
    /// Validator→validator mempool forwarding: transactions that sat
    /// unproposed past the configured age at the sender, handed to a peer
    /// so any entry point eventually reaches a block. Digest-deduplicated
    /// at the receiver exactly like a client batch, and *removed* from the
    /// sender's pending pool, so a forwarded transaction is never proposed
    /// as "own" by two pools at once. Structurally validated at decode with
    /// the same bounds as [`Envelope::TxBatch`].
    TxForward(Vec<Transaction>),
}

/// Also the tag of a block record in the validator's write-ahead log, so a
/// `Block` frame and a block's log record are the same bytes.
const TAG_BLOCK: u8 = 1;
const TAG_REQUEST: u8 = 2;
const TAG_RESPONSE: u8 = 3;
const TAG_PROPOSAL: u8 = 4;
const TAG_ACK: u8 = 5;
const TAG_CERTIFICATE: u8 = 6;
const TAG_EVIDENCE: u8 = 7;
const TAG_TX_BATCH: u8 = 8;
const TAG_CHECKPOINT: u8 = 9;
const TAG_CHECKPOINT_REQUEST: u8 = 10;
const TAG_CHECKPOINT_RESPONSE: u8 = 11;
const TAG_TX_RECEIPT: u8 = 12;
const TAG_TX_FORWARD: u8 = 13;

impl Encode for Envelope {
    fn encode(&self, encoder: &mut Encoder) {
        match self {
            Envelope::Block(block) => {
                encoder.put_u8(TAG_BLOCK);
                block.as_ref().encode(encoder);
            }
            Envelope::Proposal(block) => {
                encoder.put_u8(TAG_PROPOSAL);
                block.as_ref().encode(encoder);
            }
            Envelope::Ack { reference, voter } => {
                encoder.put_u8(TAG_ACK);
                reference.encode(encoder);
                encoder.put_u32(voter.0);
            }
            Envelope::Certificate {
                reference,
                signatures,
            } => {
                encoder.put_u8(TAG_CERTIFICATE);
                reference.encode(encoder);
                encoder.put_u32(u32::try_from(*signatures).expect("signature count fits u32"));
            }
            Envelope::Request(references) => {
                encoder.put_u8(TAG_REQUEST);
                references.encode(encoder);
            }
            Envelope::Response(blocks) => {
                encoder.put_u8(TAG_RESPONSE);
                encoder.put_u32(u32::try_from(blocks.len()).expect("block count fits u32"));
                for block in blocks {
                    block.as_ref().encode(encoder);
                }
            }
            Envelope::Evidence(proof) => {
                encoder.put_u8(TAG_EVIDENCE);
                proof.encode(encoder);
            }
            Envelope::TxBatch(transactions) => {
                encoder.put_u8(TAG_TX_BATCH);
                encoder.put_u32(u32::try_from(transactions.len()).expect("batch count fits u32"));
                for transaction in transactions {
                    encoder.put_var_bytes(transaction.as_bytes());
                }
            }
            Envelope::Checkpoint(checkpoint) => {
                encoder.put_u8(TAG_CHECKPOINT);
                checkpoint.encode(encoder);
            }
            Envelope::CheckpointRequest => {
                encoder.put_u8(TAG_CHECKPOINT_REQUEST);
            }
            Envelope::CheckpointResponse {
                checkpoints,
                execution,
                resume,
            } => {
                encoder.put_u8(TAG_CHECKPOINT_RESPONSE);
                checkpoints.encode(encoder);
                encoder.put_var_bytes(execution);
                encoder.put_var_bytes(resume);
            }
            Envelope::TxReceipt(receipt) => {
                encoder.put_u8(TAG_TX_RECEIPT);
                receipt.encode(encoder);
            }
            Envelope::TxForward(transactions) => {
                encoder.put_u8(TAG_TX_FORWARD);
                encoder.put_u32(u32::try_from(transactions.len()).expect("batch count fits u32"));
                for transaction in transactions {
                    encoder.put_var_bytes(transaction.as_bytes());
                }
            }
        }
    }
}

impl Decode for Envelope {
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match decoder.get_u8()? {
            TAG_BLOCK => Ok(Envelope::Block(Block::decode(decoder)?.into_arc())),
            TAG_PROPOSAL => Ok(Envelope::Proposal(Block::decode(decoder)?.into_arc())),
            TAG_ACK => Ok(Envelope::Ack {
                reference: BlockRef::decode(decoder)?,
                voter: AuthorityIndex(decoder.get_u32()?),
            }),
            TAG_CERTIFICATE => Ok(Envelope::Certificate {
                reference: BlockRef::decode(decoder)?,
                signatures: decoder.get_u32()? as usize,
            }),
            TAG_REQUEST => Ok(Envelope::Request(Vec::<BlockRef>::decode(decoder)?)),
            TAG_RESPONSE => {
                let count = decoder.get_u32()? as usize;
                let mut blocks = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    blocks.push(Block::decode(decoder)?.into_arc());
                }
                Ok(Envelope::Response(blocks))
            }
            TAG_EVIDENCE => Ok(Envelope::Evidence(EquivocationProof::decode(decoder)?)),
            TAG_TX_BATCH => Ok(Envelope::TxBatch(decode_tx_list(decoder)?)),
            TAG_CHECKPOINT => Ok(Envelope::Checkpoint(Checkpoint::decode(decoder)?)),
            TAG_CHECKPOINT_REQUEST => Ok(Envelope::CheckpointRequest),
            TAG_CHECKPOINT_RESPONSE => {
                let checkpoints = Vec::<Checkpoint>::decode(decoder)?;
                if checkpoints.len() > MAX_RESPONSE_CHECKPOINTS {
                    return Err(CodecError::LengthOverflow(checkpoints.len() as u64));
                }
                let execution = decoder.get_var_bytes()?.to_vec();
                let resume = decoder.get_var_bytes()?.to_vec();
                Ok(Envelope::CheckpointResponse {
                    checkpoints,
                    execution,
                    resume,
                })
            }
            TAG_TX_RECEIPT => Ok(Envelope::TxReceipt(TxReceipt::decode(decoder)?)),
            TAG_TX_FORWARD => Ok(Envelope::TxForward(decode_tx_list(decoder)?)),
            _ => Err(CodecError::InvalidValue("envelope tag")),
        }
    }
}

/// Decodes the shared transaction-list body of [`Envelope::TxBatch`] and
/// [`Envelope::TxForward`] with full structural validation: non-empty, at
/// most [`MAX_BATCH_TXS`] transactions, each at most [`MAX_TX_WIRE_BYTES`]
/// bytes.
fn decode_tx_list(decoder: &mut Decoder<'_>) -> Result<Vec<Transaction>, CodecError> {
    let count = decoder.get_u32()? as usize;
    if count == 0 {
        return Err(CodecError::InvalidValue("empty tx batch"));
    }
    if count > MAX_BATCH_TXS {
        return Err(CodecError::LengthOverflow(count as u64));
    }
    let mut transactions = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let payload = decoder.get_var_bytes()?;
        if payload.len() > MAX_TX_WIRE_BYTES {
            return Err(CodecError::LengthOverflow(payload.len() as u64));
        }
        // Copied out, one buffer per transaction: a pending transaction
        // must pin only its own bytes, which are what the mempool counts.
        transactions.push(Transaction::new(payload.to_vec()));
    }
    Ok(transactions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::committee::TestCommittee;

    fn conflicting_pair(setup: &TestCommittee, author: u32) -> EquivocationProof {
        EquivocationProof::synthetic(setup, AuthorityIndex(author))
    }

    fn sample_checkpoint(setup: &TestCommittee, authority: u32) -> Checkpoint {
        use crate::checkpoint::StateRoot;
        use mahimahi_crypto::blake2b::blake2b_256;
        let authority = AuthorityIndex(authority);
        Checkpoint::sign(
            authority,
            32,
            Block::genesis(AuthorityIndex(0)).reference(),
            StateRoot(blake2b_256(b"state")),
            blake2b_256(b"resume"),
            setup.keypair(authority),
        )
    }

    #[test]
    fn all_variants_round_trip() {
        let setup = TestCommittee::new(4, 11);
        let genesis = Block::genesis(AuthorityIndex(1)).into_arc();
        let messages = vec![
            Envelope::Block(genesis.clone()),
            Envelope::Proposal(genesis.clone()),
            Envelope::Ack {
                reference: genesis.reference(),
                voter: AuthorityIndex(2),
            },
            Envelope::Certificate {
                reference: genesis.reference(),
                signatures: 3,
            },
            Envelope::Request(vec![genesis.reference()]),
            Envelope::Response(vec![genesis.clone()]),
            Envelope::Evidence(conflicting_pair(&setup, 1)),
            Envelope::TxBatch(vec![
                Transaction::benchmark(1),
                Transaction::new(vec![9; 3]),
            ]),
            Envelope::Checkpoint(sample_checkpoint(&setup, 0)),
            Envelope::CheckpointRequest,
            Envelope::CheckpointResponse {
                checkpoints: vec![
                    sample_checkpoint(&setup, 0),
                    sample_checkpoint(&setup, 1),
                    sample_checkpoint(&setup, 2),
                ],
                execution: vec![1, 2, 3],
                resume: vec![4, 5],
            },
            Envelope::TxReceipt(TxReceipt::Admission {
                tag: 77,
                verdicts: vec![
                    crate::receipt::TxVerdict::Accepted,
                    crate::receipt::TxVerdict::RateLimited,
                ],
            }),
            Envelope::TxReceipt(TxReceipt::Committed { tags: vec![77, 91] }),
            Envelope::TxForward(vec![
                Transaction::benchmark(3),
                Transaction::new(vec![8; 5]),
            ]),
        ];
        for message in messages {
            let bytes = message.to_bytes_vec();
            let decoded = Envelope::from_bytes_exact(&bytes).unwrap();
            match (&message, &decoded) {
                (Envelope::Block(a), Envelope::Block(b))
                | (Envelope::Proposal(a), Envelope::Proposal(b)) => {
                    assert_eq!(a.reference(), b.reference());
                }
                (
                    Envelope::Ack {
                        reference: a,
                        voter: x,
                    },
                    Envelope::Ack {
                        reference: b,
                        voter: y,
                    },
                ) => {
                    assert_eq!((a, x), (b, y));
                }
                (
                    Envelope::Certificate {
                        reference: a,
                        signatures: x,
                    },
                    Envelope::Certificate {
                        reference: b,
                        signatures: y,
                    },
                ) => {
                    assert_eq!((a, x), (b, y));
                }
                (Envelope::Request(a), Envelope::Request(b)) => assert_eq!(a, b),
                (Envelope::Response(a), Envelope::Response(b)) => {
                    assert_eq!(a.len(), b.len());
                    assert_eq!(a[0].reference(), b[0].reference());
                }
                (Envelope::Evidence(a), Envelope::Evidence(b)) => assert_eq!(a, b),
                (Envelope::TxBatch(a), Envelope::TxBatch(b))
                | (Envelope::TxForward(a), Envelope::TxForward(b)) => assert_eq!(a, b),
                (Envelope::TxReceipt(a), Envelope::TxReceipt(b)) => assert_eq!(a, b),
                (Envelope::Checkpoint(a), Envelope::Checkpoint(b)) => assert_eq!(a, b),
                (Envelope::CheckpointRequest, Envelope::CheckpointRequest) => {}
                (
                    Envelope::CheckpointResponse {
                        checkpoints: a,
                        execution: x,
                        resume: p,
                    },
                    Envelope::CheckpointResponse {
                        checkpoints: b,
                        execution: y,
                        resume: q,
                    },
                ) => {
                    assert_eq!((a, x, p), (b, y, q));
                }
                _ => panic!("variant changed in round trip"),
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(Envelope::from_bytes_exact(&[0]).is_err());
        assert!(Envelope::from_bytes_exact(&[14]).is_err());
        assert!(Envelope::from_bytes_exact(&[255]).is_err());
    }

    #[test]
    fn tx_forward_shares_tx_batch_structural_validation() {
        // Empty forward frames are rejected like empty batches.
        let mut encoder = Encoder::new();
        encoder.put_u8(TAG_TX_FORWARD);
        encoder.put_u32(0);
        assert!(matches!(
            Envelope::from_bytes_exact(&encoder.into_bytes()),
            Err(CodecError::InvalidValue("empty tx batch"))
        ));
        // An oversized forwarded transaction is rejected at decode.
        let mut encoder = Encoder::new();
        encoder.put_u8(TAG_TX_FORWARD);
        encoder.put_u32(1);
        encoder.put_var_bytes(&vec![0u8; MAX_TX_WIRE_BYTES + 1]);
        assert!(matches!(
            Envelope::from_bytes_exact(&encoder.into_bytes()),
            Err(CodecError::LengthOverflow(_))
        ));
    }

    #[test]
    fn truncated_envelope_rejected() {
        let genesis = Block::genesis(AuthorityIndex(1)).into_arc();
        let bytes = Envelope::Block(genesis).to_bytes_vec();
        assert!(Envelope::from_bytes_exact(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn tx_batch_structural_validation_at_decode() {
        // Empty batches are rejected: the tag must not be usable as a
        // zero-cost keep-alive that still walks the ingress path.
        let mut encoder = Encoder::new();
        encoder.put_u8(TAG_TX_BATCH);
        encoder.put_u32(0);
        assert!(matches!(
            Envelope::from_bytes_exact(&encoder.into_bytes()),
            Err(CodecError::InvalidValue("empty tx batch"))
        ));
        // Oversized batch counts are rejected before any allocation of
        // that magnitude.
        let mut encoder = Encoder::new();
        encoder.put_u8(TAG_TX_BATCH);
        encoder.put_u32(MAX_BATCH_TXS as u32 + 1);
        assert!(matches!(
            Envelope::from_bytes_exact(&encoder.into_bytes()),
            Err(CodecError::LengthOverflow(_)) | Err(CodecError::UnexpectedEnd)
        ));
        // A single transaction above the wire cap is rejected.
        let mut encoder = Encoder::new();
        encoder.put_u8(TAG_TX_BATCH);
        encoder.put_u32(1);
        encoder.put_var_bytes(&vec![0u8; MAX_TX_WIRE_BYTES + 1]);
        assert!(matches!(
            Envelope::from_bytes_exact(&encoder.into_bytes()),
            Err(CodecError::LengthOverflow(_))
        ));
        // The boundary case passes.
        let batch = Envelope::TxBatch(vec![Transaction::new(vec![7; 128])]);
        let decoded = Envelope::from_bytes_exact(&batch.to_bytes_vec()).unwrap();
        assert!(matches!(decoded, Envelope::TxBatch(txs) if txs.len() == 1));
    }

    #[test]
    fn forged_evidence_is_rejected_at_decode() {
        // EquivocationProof::decode structurally re-validates: two blocks
        // that do not conflict must not decode into a proof.
        let setup = TestCommittee::new(4, 11);
        let proof = conflicting_pair(&setup, 2);
        let mut encoder = Encoder::new();
        encoder.put_u8(TAG_EVIDENCE);
        // Same block twice: author/round match but digests are equal.
        proof.first().as_ref().encode(&mut encoder);
        proof.first().as_ref().encode(&mut encoder);
        assert!(Envelope::from_bytes_exact(&encoder.into_bytes()).is_err());
    }
}
