//! Client transactions.

use mahimahi_crypto::blake2b::blake2b_256;
use mahimahi_crypto::Digest;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// An opaque client transaction.
///
/// The paper's benchmarks use arbitrary 512-byte payloads; the protocol
/// never interprets transaction contents, it only orders them.
///
/// A transaction is a view: a shared buffer, the range of it that is the
/// payload, and the payload's digest once someone has asked for it. A
/// transaction decoded from a block points into the block's own bytes, so
/// decoding a block allocates nothing per transaction, and it carries its
/// digest from the start, because the block's digest is built from it
/// (see [the block module](crate::block)); one built with
/// [`Transaction::new`] owns a buffer of its own. The digest is computed
/// at most once per view and travels with its clones, so the validator
/// hashes a payload where its bytes first arrive and every later reader —
/// mempool dedup, receipt accounting, execution — reads the carried value.
/// Equality, ordering and hashing look at the payload bytes only.
///
/// # Example
///
/// ```
/// use mahimahi_types::Transaction;
///
/// let tx = Transaction::new(vec![1, 2, 3]);
/// assert_eq!(tx.len(), 3);
/// ```
#[derive(Clone)]
pub struct Transaction {
    buffer: Arc<Vec<u8>>,
    offset: u32,
    len: u32,
    digest: OnceLock<Digest>,
}

impl Transaction {
    /// The payload size used throughout the paper's benchmarks.
    pub const BENCHMARK_SIZE: usize = 512;

    /// Wraps a payload. Nothing is copied and nothing is hashed.
    ///
    /// # Panics
    ///
    /// Panics if the payload is 4 GiB or longer (the wire format's
    /// length prefixes are `u32`).
    pub fn new(payload: Vec<u8>) -> Self {
        let len = u32::try_from(payload.len()).expect("transaction fits in u32 bytes");
        Transaction {
            buffer: Arc::new(payload),
            offset: 0,
            len,
            digest: OnceLock::new(),
        }
    }

    /// The transaction whose payload is `buffer[offset..offset + len]`.
    /// The caller guarantees the range lies inside the buffer, and that the
    /// buffer (a block's encoding) is below 4 GiB.
    pub(crate) fn view(buffer: &Arc<Vec<u8>>, offset: usize, len: usize) -> Self {
        debug_assert!(offset + len <= buffer.len());
        Transaction {
            buffer: Arc::clone(buffer),
            offset: u32::try_from(offset).expect("block encodings are below 4 GiB"),
            len: u32::try_from(len).expect("block encodings are below 4 GiB"),
            digest: OnceLock::new(),
        }
    }

    /// The same payload at `buffer[offset..]`, keeping the digest if it is
    /// known: a block built over pending transactions re-points them into
    /// its own encoding without hashing any of them again.
    pub(crate) fn moved_to(&self, buffer: &Arc<Vec<u8>>, offset: usize) -> Self {
        let moved = Transaction::view(buffer, offset, self.len());
        debug_assert_eq!(moved.as_bytes(), self.as_bytes());
        if let Some(digest) = self.digest.get() {
            let _ = moved.digest.set(*digest);
        }
        moved
    }

    /// Creates a benchmark-style transaction: `BENCHMARK_SIZE` bytes whose
    /// prefix encodes `id` so every transaction is unique and traceable.
    pub fn benchmark(id: u64) -> Self {
        let mut payload = vec![0u8; Self::BENCHMARK_SIZE];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        Transaction::new(payload)
    }

    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        let start = self.offset as usize;
        &self.buffer[start..start + self.len as usize]
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The content digest of the transaction: BLAKE2b-256 of the payload,
    /// computed on first use and carried from then on (see the type docs).
    pub fn digest(&self) -> Digest {
        *self.digest.get_or_init(|| blake2b_256(self.as_bytes()))
    }

    /// The digest if it has been computed, without computing it: whether
    /// [`Transaction::digest`] would read a carried value or hash.
    pub fn carried_digest(&self) -> Option<Digest> {
        self.digest.get().copied()
    }

    /// Reads back the identifier written by [`Transaction::benchmark`].
    ///
    /// Returns `None` for payloads shorter than 8 bytes.
    pub fn benchmark_id(&self) -> Option<u64> {
        let bytes: [u8; 8] = self.as_bytes().get(..8)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }
}

impl Default for Transaction {
    fn default() -> Self {
        Transaction::new(Vec::new())
    }
}

impl From<Vec<u8>> for Transaction {
    fn from(payload: Vec<u8>) -> Self {
        Transaction::new(payload)
    }
}

impl AsRef<[u8]> for Transaction {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Transaction {}

impl PartialOrd for Transaction {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Transaction {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Transaction {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Transaction({} bytes)", self.len)
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
        assert_eq!(tx, Transaction::default());
    }

    #[test]
    fn digest_is_stable() {
        let tx = Transaction::new(vec![7; 32]);
        assert_eq!(tx.digest(), Transaction::new(vec![7; 32]).digest());
    }

    #[test]
    fn views_compare_hash_and_digest_by_their_payload_alone() {
        use std::collections::hash_map::DefaultHasher;
        let buffer = Arc::new(b"..payload..".to_vec());
        let view = Transaction::view(&buffer, 2, 7);
        let owned = Transaction::new(b"payload".to_vec());
        assert_eq!(view.as_bytes(), b"payload");
        assert_eq!(view, owned);
        assert_eq!(view.cmp(&owned), Ordering::Equal);
        let hash = |tx: &Transaction| {
            let mut hasher = DefaultHasher::new();
            tx.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(hash(&view), hash(&owned));
        // The same hash a `Vec<u8>` payload had, so nothing keyed on it moves.
        let mut hasher = DefaultHasher::new();
        b"payload".to_vec().hash(&mut hasher);
        assert_eq!(hash(&view), hasher.finish());
        assert_eq!(view.digest(), blake2b_256(b"payload"));
        assert!(Transaction::benchmark(1) < Transaction::benchmark(2));
    }

    #[test]
    fn a_digest_is_carried_by_clones_and_moves() {
        let tx = Transaction::benchmark(5);
        assert_eq!(tx.carried_digest(), None, "construction hashes nothing");
        let digest = tx.digest();
        let clone = tx.clone();
        assert_eq!(clone.carried_digest(), Some(digest));
        let mut bytes = vec![0xee; 3];
        bytes.extend_from_slice(tx.as_bytes());
        let moved = tx.moved_to(&Arc::new(bytes), 3);
        assert_eq!(moved.carried_digest(), Some(digest));
        assert_eq!(moved, tx);
    }

    #[test]
    fn a_view_is_no_larger_than_its_buffer_pointer_range_and_digest() {
        // Pays for the carried digest with the payload's own heap block: a
        // `Vec<u8>` payload is 24 bytes plus a heap chunk of its own.
        assert!(std::mem::size_of::<Transaction>() <= 56);
    }
}
