//! Messages exchanged between simulated validators, plus the bandwidth
//! model that prices them.
//!
//! The simulator speaks the workspace-wide wire vocabulary directly:
//! its messages are [`mahimahi_types::Envelope`]s, the same enum the TCP
//! node serializes over its transport, and they cross the virtual network
//! as what a recipient decodes from their bytes. Every envelope a validator
//! sends is encoded and decoded once, at send ([`over_the_wire`]), and the
//! decoded input is verified there too, once, by
//! `mahimahi_core::admission::verify`; all recipients of a broadcast apply
//! the same verified value, and a frame the decoder or the verifier
//! rejects is dropped at send, the way the node drops a torn frame or a
//! forged block. Bytes in flight are immutable and decoding and verifying
//! are pure functions, so doing each once per send runs the same program
//! as doing it once per delivery, and it holds one decoded copy per send
//! instead of one per recipient. On the 192-cell matrix (release build, 2 vCPUs) decoding per
//! delivery took no less time (139 and 142 s; at send, 115–142 s) and
//! peaked at 816–826 MB against 559–586 MB; an earlier prototype without
//! the logs measured +28 % time and 3× the resident set.
//!
//! The network model still prices the envelope, not its bytes: the size
//! and round accounting it needs lives here as the [`WireModel`] extension
//! trait, which bills synthetic transactions at their configured wire size.
//!
//! Uncertified protocols (Mahi-Mahi, Cordial Miners) use only
//! [`Envelope::Block`], [`Envelope::Request`], [`Envelope::Response`], and
//! [`Envelope::Evidence`]. Tusk's certified pipeline adds the
//! consistent-broadcast triple [`Envelope::Proposal`] → [`Envelope::Ack`]
//! → [`Envelope::Certificate`].

use mahimahi_types::{Block, Decode, Encode, Envelope};

/// Size/round accounting over [`Envelope`] for the simulated network
/// (bandwidth model and adversary visibility).
pub trait WireModel {
    /// Serialized size in bytes, for the bandwidth model.
    ///
    /// Block payloads are accounted at `tx_wire_size` bytes per transaction
    /// (the simulator carries 8-byte synthetic transactions in memory but
    /// charges full wire size).
    fn wire_size(&self, tx_wire_size: usize) -> usize;

    /// The DAG round this message concerns (0 for control traffic) — what
    /// the adversary is allowed to observe.
    fn round(&self) -> u64;
}

impl WireModel for Envelope {
    fn wire_size(&self, tx_wire_size: usize) -> usize {
        match self {
            Envelope::Block(block) | Envelope::Proposal(block) => {
                block_wire_size(block, tx_wire_size)
            }
            Envelope::Ack { .. } => 64,
            Envelope::Certificate { signatures, .. } => 44 + 16 * signatures,
            Envelope::Request(refs) => 16 + 44 * refs.len(),
            Envelope::Response(blocks) => {
                16 + blocks
                    .iter()
                    .map(|block| block_wire_size(block, tx_wire_size))
                    .sum::<usize>()
            }
            Envelope::Evidence(proof) => {
                16 + block_wire_size(proof.first(), tx_wire_size)
                    + block_wire_size(proof.second(), tx_wire_size)
            }
            Envelope::TxBatch(transactions) | Envelope::TxForward(transactions) => {
                16 + transactions.len() * tx_wire_size
            }
            // Receipt frames are tiny: a kind byte, a tag or two, and one
            // verdict byte per transaction.
            Envelope::TxReceipt(receipt) => 16 + receipt.encoded_len(),
            // Checkpoint attestation: encoded size (no transactions).
            Envelope::Checkpoint(checkpoint) => checkpoint.encoded_len(),
            Envelope::CheckpointRequest => 16,
            Envelope::CheckpointResponse {
                checkpoints,
                execution,
                resume,
            } => {
                16 + checkpoints.iter().map(Encode::encoded_len).sum::<usize>()
                    + execution.len()
                    + resume.len()
            }
        }
    }

    fn round(&self) -> u64 {
        match self {
            Envelope::Block(block) | Envelope::Proposal(block) => block.round(),
            Envelope::Ack { reference, .. } | Envelope::Certificate { reference, .. } => {
                reference.round
            }
            Envelope::Request(_)
            | Envelope::Response(_)
            | Envelope::TxBatch(_)
            | Envelope::TxForward(_)
            | Envelope::TxReceipt(_)
            | Envelope::Checkpoint(_)
            | Envelope::CheckpointRequest
            | Envelope::CheckpointResponse { .. } => 0,
            Envelope::Evidence(proof) => proof.round(),
        }
    }
}

/// What a recipient decodes from `message`'s wire bytes, or `None` for a
/// frame the decoder rejects.
pub(crate) fn over_the_wire(message: &Envelope) -> Option<Envelope> {
    Envelope::from_bytes_exact(&message.to_bytes_vec()).ok()
}

/// Wire size of a block with transactions inflated to their configured
/// benchmark size.
pub fn block_wire_size(block: &Block, tx_wire_size: usize) -> usize {
    let actual: usize = block.transactions().iter().map(|tx| tx.len()).sum();
    let billed = block.transactions().len() * tx_wire_size;
    block.serialized_size() - actual + billed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_types::AuthorityIndex;

    #[test]
    fn wire_sizes_scale_with_content() {
        let genesis = Block::genesis(AuthorityIndex(0)).into_arc();
        let block_size = Envelope::Block(genesis.clone()).wire_size(512);
        assert!(block_size > 0);
        let ack = Envelope::Ack {
            reference: genesis.reference(),
            voter: AuthorityIndex(1),
        };
        assert!(ack.wire_size(512) < block_size * 10);
        let cert = Envelope::Certificate {
            reference: genesis.reference(),
            signatures: 7,
        };
        assert_eq!(cert.wire_size(512), 44 + 112);
    }

    #[test]
    fn rounds_reported_to_adversary() {
        let genesis = Block::genesis(AuthorityIndex(0)).into_arc();
        assert_eq!(WireModel::round(&Envelope::Block(genesis.clone())), 0);
        assert_eq!(WireModel::round(&Envelope::Request(vec![])), 0);
        assert_eq!(
            WireModel::round(&Envelope::Ack {
                reference: genesis.reference(),
                voter: AuthorityIndex(1)
            }),
            0
        );
    }

    #[test]
    fn transaction_inflation() {
        use mahimahi_types::{BlockBuilder, TestCommittee, Transaction};
        let setup = TestCommittee::new(4, 1);
        let genesis = Block::all_genesis(4);
        let mut parents = vec![genesis[0].reference()];
        parents.extend(genesis[1..].iter().map(Block::reference));
        let block = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(parents)
            .transactions((0..10u64).map(|i| Transaction::new(i.to_le_bytes().to_vec())))
            .build(&setup);
        let real = block.serialized_size();
        let billed = block_wire_size(&block, 512);
        assert_eq!(billed, real - 10 * 8 + 10 * 512);
    }

    #[test]
    fn sim_messages_are_wire_envelopes() {
        // The simulator's message type is literally the node's wire enum:
        // anything the sim can say round-trips through the codec.
        let genesis = Block::genesis(AuthorityIndex(2)).into_arc();
        let decoded = over_the_wire(&Envelope::Block(genesis.clone())).unwrap();
        assert!(matches!(decoded, Envelope::Block(b) if b.reference() == genesis.reference()));
    }
}
