//! Client-ingress receipts: the acknowledgement vocabulary of the
//! transaction submission path.
//!
//! PR 5's ingress was fire-and-forget: a client wrote an
//! [`Envelope::TxBatch`] and learned about rejection only by timeout. A
//! [`TxReceipt`] closes the loop in two steps:
//!
//! 1. **Admission** — emitted synchronously for every received batch: the
//!    batch tag (the engine's receive time, which doubles as the commit
//!    correlation key) plus one [`TxVerdict`] per transaction, in
//!    submission order;
//! 2. **Committed** — emitted later, once every accepted transaction of
//!    the tagged batch has been sequenced into the total order (locally or
//!    at a peer the transaction was forwarded to).
//!
//! The receipt is transport-agnostic like every other [`Envelope`]
//! payload: the TCP node frames it back down the client's connection, and
//! the simulator keeps it where it leaves the committee (its local clients'
//! `Committed` receipts become latency samples).
//!
//! [`Envelope::TxBatch`]: crate::envelope::Envelope::TxBatch
//! [`Envelope`]: crate::envelope::Envelope

use crate::codec::{CodecError, Decode, Decoder, Encode, Encoder};

/// Maximum batch tags carried by one [`TxReceipt::Committed`] frame.
pub const MAX_RECEIPT_TAGS: usize = 4096;

/// The admission outcome of a single transaction within a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxVerdict {
    /// Accepted into the mempool; a `Committed` receipt follows once the
    /// transaction is sequenced.
    Accepted,
    /// A transaction with the same digest was already accepted (replay
    /// protection); the earlier submission's lifecycle continues.
    Duplicate,
    /// The mempool is at capacity; resubmit after backing off.
    Full,
    /// The per-client token bucket is exhausted; resubmit after backing
    /// off. Only external clients are rate-limited, never committee peers.
    RateLimited,
}

impl TxVerdict {
    /// Whether the transaction entered the pool.
    pub fn is_accepted(self) -> bool {
        matches!(self, TxVerdict::Accepted)
    }

    fn tag(self) -> u8 {
        match self {
            TxVerdict::Accepted => 0,
            TxVerdict::Duplicate => 1,
            TxVerdict::Full => 2,
            TxVerdict::RateLimited => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            0 => Ok(TxVerdict::Accepted),
            1 => Ok(TxVerdict::Duplicate),
            2 => Ok(TxVerdict::Full),
            3 => Ok(TxVerdict::RateLimited),
            _ => Err(CodecError::InvalidValue("tx verdict")),
        }
    }
}

/// A receipt frame sent from a validator back to a submitting client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxReceipt {
    /// Per-transaction admission verdicts for one batch. `tag` is the
    /// engine's receive time for the batch — the key under which the later
    /// [`TxReceipt::Committed`] notification arrives.
    Admission {
        /// The batch tag (engine receive time, microseconds).
        tag: u64,
        /// One verdict per submitted transaction, in submission order.
        verdicts: Vec<TxVerdict>,
    },
    /// Every accepted transaction of each tagged batch has been sequenced
    /// into the committed total order.
    Committed {
        /// Tags of the completed batches, ascending.
        tags: Vec<u64>,
    },
}

impl TxReceipt {
    /// The number of accepted verdicts (0 for `Committed` frames).
    pub fn accepted(&self) -> usize {
        match self {
            TxReceipt::Admission { verdicts, .. } => {
                verdicts.iter().filter(|v| v.is_accepted()).count()
            }
            TxReceipt::Committed { .. } => 0,
        }
    }
}

const KIND_ADMISSION: u8 = 0;
const KIND_COMMITTED: u8 = 1;

impl Encode for TxReceipt {
    fn encode(&self, encoder: &mut Encoder) {
        match self {
            TxReceipt::Admission { tag, verdicts } => {
                encoder.put_u8(KIND_ADMISSION);
                encoder.put_u64(*tag);
                encoder.put_u32(u32::try_from(verdicts.len()).expect("verdict count fits u32"));
                for verdict in verdicts {
                    encoder.put_u8(verdict.tag());
                }
            }
            TxReceipt::Committed { tags } => {
                encoder.put_u8(KIND_COMMITTED);
                encoder.put_u32(u32::try_from(tags.len()).expect("tag count fits u32"));
                for tag in tags {
                    encoder.put_u64(*tag);
                }
            }
        }
    }
}

impl Decode for TxReceipt {
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match decoder.get_u8()? {
            KIND_ADMISSION => {
                let tag = decoder.get_u64()?;
                let count = decoder.get_u32()? as usize;
                if count == 0 {
                    return Err(CodecError::InvalidValue("empty receipt"));
                }
                if count > crate::envelope::MAX_BATCH_TXS {
                    return Err(CodecError::LengthOverflow(count as u64));
                }
                let mut verdicts = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    verdicts.push(TxVerdict::from_tag(decoder.get_u8()?)?);
                }
                Ok(TxReceipt::Admission { tag, verdicts })
            }
            KIND_COMMITTED => {
                let count = decoder.get_u32()? as usize;
                if count == 0 {
                    return Err(CodecError::InvalidValue("empty receipt"));
                }
                if count > MAX_RECEIPT_TAGS {
                    return Err(CodecError::LengthOverflow(count as u64));
                }
                let mut tags = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    tags.push(decoder.get_u64()?);
                }
                Ok(TxReceipt::Committed { tags })
            }
            _ => Err(CodecError::InvalidValue("receipt kind")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receipts_round_trip() {
        let receipts = [
            TxReceipt::Admission {
                tag: 12_345,
                verdicts: vec![
                    TxVerdict::Accepted,
                    TxVerdict::Duplicate,
                    TxVerdict::Full,
                    TxVerdict::RateLimited,
                ],
            },
            TxReceipt::Committed {
                tags: vec![1, 99, u64::MAX],
            },
        ];
        for receipt in receipts {
            let bytes = receipt.to_bytes_vec();
            assert_eq!(TxReceipt::from_bytes_exact(&bytes).unwrap(), receipt);
        }
    }

    #[test]
    fn malformed_receipts_rejected() {
        // Unknown kind byte.
        assert!(TxReceipt::from_bytes_exact(&[9]).is_err());
        // Unknown verdict byte inside an otherwise valid admission frame.
        let mut encoder = Encoder::new();
        encoder.put_u8(KIND_ADMISSION);
        encoder.put_u64(1);
        encoder.put_u32(1);
        encoder.put_u8(7);
        assert!(TxReceipt::from_bytes_exact(&encoder.into_bytes()).is_err());
        // Empty verdict and tag lists carry no information.
        let mut encoder = Encoder::new();
        encoder.put_u8(KIND_ADMISSION);
        encoder.put_u64(1);
        encoder.put_u32(0);
        assert!(TxReceipt::from_bytes_exact(&encoder.into_bytes()).is_err());
        let mut encoder = Encoder::new();
        encoder.put_u8(KIND_COMMITTED);
        encoder.put_u32(0);
        assert!(TxReceipt::from_bytes_exact(&encoder.into_bytes()).is_err());
        // Oversized counts are rejected before allocation.
        let mut encoder = Encoder::new();
        encoder.put_u8(KIND_COMMITTED);
        encoder.put_u32(MAX_RECEIPT_TAGS as u32 + 1);
        assert!(matches!(
            TxReceipt::from_bytes_exact(&encoder.into_bytes()),
            Err(CodecError::LengthOverflow(_)) | Err(CodecError::UnexpectedEnd)
        ));
    }

    #[test]
    fn accepted_counts_accepted_verdicts_only() {
        let receipt = TxReceipt::Admission {
            tag: 0,
            verdicts: vec![
                TxVerdict::Accepted,
                TxVerdict::RateLimited,
                TxVerdict::Accepted,
            ],
        };
        assert_eq!(receipt.accepted(), 2);
        assert_eq!(TxReceipt::Committed { tags: vec![1] }.accepted(), 0);
    }
}
