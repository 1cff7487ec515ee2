//! 32-byte content digests.

use std::fmt;

use crate::{hex_decode, hex_encode};

/// A 32-byte BLAKE2b-256 digest identifying a block, transaction, or other
/// content-addressed object.
///
/// # Example
///
/// ```
/// use mahimahi_crypto::blake2b::blake2b_256;
///
/// let digest = blake2b_256(b"hello");
/// assert_eq!(digest.to_string().len(), 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The number of bytes in a digest.
    pub const LENGTH: usize = 32;

    /// The all-zero digest, used as a placeholder for genesis content.
    pub const ZERO: Digest = Digest([0; 32]);

    /// Wraps raw digest bytes.
    pub const fn new(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// Builds a digest from a byte slice, returning `None` unless the slice
    /// is exactly 32 bytes long.
    pub fn from_slice(slice: &[u8]) -> Option<Self> {
        let bytes: [u8; 32] = slice.try_into().ok()?;
        Some(Digest(bytes))
    }

    /// Parses a digest from 64 hex characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        Self::from_slice(&hex_decode(s)?)
    }

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest and returns its bytes.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Returns the first 8 bytes interpreted as a little-endian integer.
    ///
    /// Useful for cheap pseudo-random decisions derived from content, e.g.
    /// deterministic tie-breaking.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("8-byte prefix"))
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", hex_encode(&self.0))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Eight hex chars are enough to disambiguate in logs.
        write!(f, "Digest({}…)", &hex_encode(&self.0)[..8])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_hex() {
        let digest = Digest::new([7; 32]);
        let hex = digest.to_string();
        assert_eq!(Digest::from_hex(&hex), Some(digest));
    }

    #[test]
    fn from_slice_rejects_wrong_length() {
        assert!(Digest::from_slice(&[0; 31]).is_none());
        assert!(Digest::from_slice(&[0; 33]).is_none());
        assert!(Digest::from_slice(&[0; 32]).is_some());
    }

    #[test]
    fn prefix_u64_reads_little_endian() {
        let mut bytes = [0u8; 32];
        bytes[0] = 1;
        assert_eq!(Digest::new(bytes).prefix_u64(), 1);
        bytes[7] = 1;
        assert_eq!(Digest::new(bytes).prefix_u64(), 1 | (1 << 56),);
    }

    #[test]
    fn debug_is_nonempty_and_short() {
        let repr = format!("{:?}", Digest::ZERO);
        assert!(repr.contains("Digest"));
        assert!(repr.len() < 64);
    }

    #[test]
    fn zero_digest_is_default() {
        assert_eq!(Digest::default(), Digest::ZERO);
    }
}
