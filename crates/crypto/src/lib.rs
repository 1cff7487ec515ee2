//! Cryptographic substrate for the Mahi-Mahi reproduction.
//!
//! The Mahi-Mahi paper relies on three cryptographic building blocks:
//!
//! 1. a collision-resistant hash (the authors use `blake2`) — reimplemented
//!    from scratch in [`blake2b`] against RFC 7693 test vectors;
//! 2. digital signatures on blocks (the authors use `ed25519-consensus`) —
//!    provided by [`schnorr`], a Schnorr signature scheme over a toy
//!    61-bit safe-prime group (structurally faithful, *not* secure at these
//!    parameter sizes; see the crate-level security note below);
//! 3. a *global perfect coin* built from an adaptively-secure threshold
//!    signature — provided by [`coin`], a threshold PRF (BLS-style
//!    "Shamir in the exponent" with Chaum–Pedersen share validity proofs)
//!    over the same group.
//!
//! # Security note
//!
//! This crate exists to reproduce a systems paper, not to protect value.
//! The discrete-log group is 61 bits wide so that exponentiation costs
//! nanoseconds and simulations with hundreds of validators stay fast. A real
//! deployment would swap [`group`] for Ristretto/BLS12-381; every consumer
//! interacts only through the `sign`/`verify`/`combine` interfaces, so the
//! protocol logic above is oblivious to the substitution.
//!
//! # Example
//!
//! ```
//! use mahimahi_crypto::{blake2b::blake2b_256, schnorr::Keypair};
//!
//! let digest = blake2b_256(b"mahi-mahi");
//! let keypair = Keypair::from_seed(7);
//! let signature = keypair.sign(digest.as_bytes());
//! assert!(keypair.public().verify(digest.as_bytes(), &signature).is_ok());
//! ```

pub mod blake2b;
pub mod coin;
pub mod digest;
pub mod dleq;
pub mod group;
pub mod schnorr;
pub mod shamir;

pub use coin::{CoinDealer, CoinPublic, CoinSecret, CoinShare, CoinValue};
pub use digest::Digest;
pub use group::{GroupElement, Scalar};
pub use schnorr::{Keypair, PublicKey, SecretKey, Signature};

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A signature failed verification against the given public key.
    InvalidSignature,
    /// A coin share's discrete-log equality proof failed to verify.
    InvalidCoinShare,
    /// Fewer shares were supplied than the reconstruction threshold.
    InsufficientShares {
        /// The reconstruction threshold.
        needed: usize,
        /// How many distinct shares were supplied.
        got: usize,
    },
    /// Two shares for the same share index were supplied.
    DuplicateShare(u64),
    /// A serialized group element or scalar was out of range.
    InvalidEncoding,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::InvalidSignature => write!(f, "signature verification failed"),
            CryptoError::InvalidCoinShare => write!(f, "coin share proof verification failed"),
            CryptoError::InsufficientShares { needed, got } => {
                write!(f, "insufficient coin shares: needed {needed}, got {got}")
            }
            CryptoError::DuplicateShare(index) => {
                write!(f, "duplicate share for index {index}")
            }
            CryptoError::InvalidEncoding => write!(f, "invalid field or group encoding"),
        }
    }
}

impl StdError for CryptoError {}

/// Encodes bytes as lowercase hex. Used by `Debug`/`Display` impls and tests.
pub fn hex_encode(bytes: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0xf) as usize] as char);
    }
    out
}

/// Decodes a lowercase or uppercase hex string into bytes.
///
/// Returns `None` when the input has odd length or contains a non-hex digit.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let bytes = [0u8, 1, 0xab, 0xcd, 0xff];
        let encoded = hex_encode(&bytes);
        assert_eq!(encoded, "0001abcdff");
        assert_eq!(hex_decode(&encoded).unwrap(), bytes);
    }

    #[test]
    fn hex_decode_rejects_odd_length() {
        assert!(hex_decode("abc").is_none());
    }

    #[test]
    fn hex_decode_rejects_non_hex() {
        assert!(hex_decode("zz").is_none());
    }

    #[test]
    fn hex_decode_accepts_uppercase() {
        assert_eq!(hex_decode("AB").unwrap(), vec![0xab]);
    }

    #[test]
    fn errors_display() {
        let errors: Vec<CryptoError> = vec![
            CryptoError::InvalidSignature,
            CryptoError::InvalidCoinShare,
            CryptoError::InsufficientShares { needed: 3, got: 2 },
            CryptoError::DuplicateShare(7),
            CryptoError::InvalidEncoding,
        ];
        for error in errors {
            assert!(!error.to_string().is_empty());
        }
    }
}
