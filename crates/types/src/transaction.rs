//! Client transactions.

use mahimahi_crypto::blake2b::blake2b_256;
use mahimahi_crypto::Digest;
use std::fmt;

/// An opaque client transaction.
///
/// The paper's benchmarks use arbitrary 512-byte payloads; the protocol
/// never interprets transaction contents, it only orders them.
///
/// # Example
///
/// ```
/// use mahimahi_types::Transaction;
///
/// let tx = Transaction::new(vec![1, 2, 3]);
/// assert_eq!(tx.len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Transaction(Vec<u8>);

impl Transaction {
    /// The payload size used throughout the paper's benchmarks.
    pub const BENCHMARK_SIZE: usize = 512;

    /// Wraps a payload.
    pub fn new(payload: Vec<u8>) -> Self {
        Transaction(payload)
    }

    /// Creates a benchmark-style transaction: `BENCHMARK_SIZE` bytes whose
    /// prefix encodes `id` so every transaction is unique and traceable.
    pub fn benchmark(id: u64) -> Self {
        let mut payload = vec![0u8; Self::BENCHMARK_SIZE];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        Transaction(payload)
    }

    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The content digest of the transaction.
    pub fn digest(&self) -> Digest {
        blake2b_256(&self.0)
    }

    /// Reads back the identifier written by [`Transaction::benchmark`].
    ///
    /// Returns `None` for payloads shorter than 8 bytes.
    pub fn benchmark_id(&self) -> Option<u64> {
        let bytes: [u8; 8] = self.0.get(..8)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }
}

impl From<Vec<u8>> for Transaction {
    fn from(payload: Vec<u8>) -> Self {
        Transaction(payload)
    }
}

impl AsRef<[u8]> for Transaction {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Transaction({} bytes)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_transactions_have_paper_size() {
        let tx = Transaction::benchmark(99);
        assert_eq!(tx.len(), 512);
        assert_eq!(tx.benchmark_id(), Some(99));
    }

    #[test]
    fn distinct_ids_give_distinct_digests() {
        assert_ne!(
            Transaction::benchmark(1).digest(),
            Transaction::benchmark(2).digest()
        );
    }

    #[test]
    fn empty_transaction() {
        let tx = Transaction::new(vec![]);
        assert!(tx.is_empty());
        assert_eq!(tx.benchmark_id(), None);
    }

    #[test]
    fn digest_is_stable() {
        let tx = Transaction::new(vec![7; 32]);
        assert_eq!(tx.digest(), Transaction::new(vec![7; 32]).digest());
    }
}
