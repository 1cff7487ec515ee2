//! Schnorr signatures over the toy group, standing in for the
//! `ed25519-consensus` signatures of the paper's implementation.
//!
//! The construction is the standard one: a deterministic nonce
//! `k = H(sk ‖ m)`, commitment `R = g^k`, challenge `e = H(R ‖ pk ‖ m)`, and
//! response `s = k + e·x`. Verification checks `g^s = R · pk^e` using only
//! public data, so unlike a MAC-based simulation the full asymmetric code
//! path (including batch verification) is exercised.

use rand::Rng;
use std::fmt;

use crate::group::{GroupElement, Scalar};
use crate::CryptoError;

const SIGN_DOMAIN: &[u8] = b"mahimahi-schnorr-v1";
const NONCE_DOMAIN: &[u8] = b"mahimahi-schnorr-nonce-v1";

/// A Schnorr secret key (a scalar).
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey(Scalar);

impl SecretKey {
    /// Samples a fresh secret key.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let x = Scalar::random(rng);
            if x != Scalar::ZERO {
                return SecretKey(x);
            }
        }
    }

    /// Derives a secret key deterministically from a 64-bit seed.
    ///
    /// Committee setup in tests and simulations uses per-authority seeds so
    /// that every run is reproducible.
    pub fn from_seed(seed: u64) -> Self {
        let x = Scalar::hash_to_scalar(&[b"mahimahi-sk-seed", &seed.to_le_bytes()]);
        if x == Scalar::ZERO {
            // Astronomically unlikely; fall back to a fixed non-zero scalar.
            SecretKey(Scalar::ONE)
        } else {
            SecretKey(x)
        }
    }

    /// Returns the corresponding public key `g^x`.
    pub fn public(&self) -> PublicKey {
        PublicKey(GroupElement::generator().pow(self.0))
    }

    fn scalar(&self) -> Scalar {
        self.0
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(<redacted>)")
    }
}

/// A Schnorr public key (`g^x`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PublicKey(GroupElement);

impl PublicKey {
    /// Returns the underlying group element.
    pub fn element(&self) -> GroupElement {
        self.0
    }

    /// Serializes the key to 8 bytes.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_bytes()
    }

    /// Deserializes a key, validating subgroup membership.
    pub fn from_bytes(bytes: &[u8; 8]) -> Option<Self> {
        GroupElement::from_bytes(bytes).map(PublicKey)
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when verification fails.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let e = challenge(&signature.commitment, self, message);
        let lhs = GroupElement::generator().pow(signature.response);
        let rhs = signature.commitment.mul(self.0.pow(e));
        if lhs == rhs {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({})", self.0.value())
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0.value())
    }
}

/// A Schnorr signature `(R, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    commitment: GroupElement,
    response: Scalar,
}

impl Signature {
    /// Byte length of a serialized signature.
    pub const LENGTH: usize = 16;

    /// Serializes the signature to 16 bytes (commitment ‖ response).
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.commitment.to_bytes());
        out[8..].copy_from_slice(&self.response.value().to_le_bytes());
        out
    }

    /// Deserializes a signature, validating the commitment's subgroup
    /// membership and the response's range.
    pub fn from_bytes(bytes: &[u8; 16]) -> Option<Self> {
        let commitment = GroupElement::from_bytes(bytes[..8].try_into().expect("8 bytes"))?;
        let raw = u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes"));
        if raw >= crate::group::ORDER_Q {
            return None;
        }
        Some(Signature {
            commitment,
            response: Scalar::new(raw),
        })
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature(R={}, s={})",
            self.commitment.value(),
            self.response.value()
        )
    }
}

/// A secret/public key pair.
///
/// # Example
///
/// ```
/// use mahimahi_crypto::schnorr::Keypair;
///
/// let keypair = Keypair::from_seed(3);
/// let signature = keypair.sign(b"block contents");
/// keypair.public().verify(b"block contents", &signature)?;
/// # Ok::<(), mahimahi_crypto::CryptoError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
}

impl Keypair {
    /// Samples a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let secret = SecretKey::generate(rng);
        let public = secret.public();
        Keypair { secret, public }
    }

    /// Derives a key pair deterministically from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let secret = SecretKey::from_seed(seed);
        let public = secret.public();
        Keypair { secret, public }
    }

    /// Returns the public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Signs `message` with a deterministic nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let sk_bytes = self.secret.scalar().value().to_le_bytes();
        let k = Scalar::hash_to_scalar(&[NONCE_DOMAIN, &sk_bytes, message]);
        // k = 0 would leak the key through s = e·x; remap deterministically.
        let k = if k == Scalar::ZERO { Scalar::ONE } else { k };
        let commitment = GroupElement::generator().pow(k);
        let e = challenge(&commitment, &self.public, message);
        let response = k + e * self.secret.scalar();
        Signature {
            commitment,
            response,
        }
    }
}

fn challenge(commitment: &GroupElement, public: &PublicKey, message: &[u8]) -> Scalar {
    Scalar::hash_to_scalar(&[
        SIGN_DOMAIN,
        &commitment.to_bytes(),
        &public.to_bytes(),
        message,
    ])
}

/// Verifies a batch of `(message, public key, signature)` triples.
///
/// Cheaper than verifying one-by-one for large batches because the generator
/// side collapses into a single exponentiation of the summed responses,
/// randomized with per-item weights to prevent cross-item cancellation.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidSignature`] if any triple fails; batch
/// verification does not identify *which* one (callers fall back to serial
/// verification to locate offenders).
pub fn batch_verify(items: &[(&[u8], PublicKey, Signature)]) -> Result<(), CryptoError> {
    if items.is_empty() {
        return Ok(());
    }
    // Deterministic weights derived from the whole batch; an adversary
    // cannot choose signatures as a function of the weights because the
    // weights depend on the signatures. The transcript is compressed to
    // one digest first so deriving n weights hashes the batch once, not n
    // times (the seed is O(n) bytes — hashing it per index made large
    // batches quadratic).
    let mut weight_seed = Vec::new();
    for (message, public, signature) in items {
        weight_seed.extend_from_slice(&signature.to_bytes());
        weight_seed.extend_from_slice(&public.to_bytes());
        weight_seed.extend_from_slice(&(message.len() as u64).to_le_bytes());
        weight_seed.extend_from_slice(message);
    }
    let transcript = crate::blake2b::blake2b_256(&weight_seed);

    let mut response_sum = Scalar::ZERO;
    let mut rhs = GroupElement::IDENTITY;
    for (index, (message, public, signature)) in items.iter().enumerate() {
        let weight = Scalar::hash_to_scalar(&[
            b"mahimahi-batch-weight",
            transcript.as_bytes(),
            &(index as u64).to_le_bytes(),
        ]);
        let e = challenge(&signature.commitment, public, message);
        response_sum += weight * signature.response;
        rhs = rhs
            .mul(signature.commitment.pow(weight))
            .mul(public.element().pow(weight * e));
    }
    if GroupElement::generator().pow(response_sum) == rhs {
        Ok(())
    } else {
        Err(CryptoError::InvalidSignature)
    }
}

/// Verifies a batch of `(message, public key, signature)` triples and, on
/// failure, names the offenders.
///
/// The fast path is the multi-scalar [`batch_verify`] check: one combined
/// equation for the whole batch. Only when that rejects does the function
/// fall back to per-item verification, attributing the failure to the
/// specific indices whose signatures do not verify. A valid batch therefore
/// pays a single combined check; a poisoned batch pays one combined check
/// plus one serial pass.
///
/// # Errors
///
/// Returns the sorted indices of every item that fails individual
/// verification. The list is never empty: if the combined check rejects but
/// every item verifies individually (a weight collision, astronomically
/// unlikely), the per-item result is authoritative and the batch is
/// accepted.
pub fn batch_verify_attributed(items: &[(&[u8], PublicKey, Signature)]) -> Result<(), Vec<usize>> {
    if batch_verify(items).is_ok() {
        return Ok(());
    }
    let culprits: Vec<usize> = items
        .iter()
        .enumerate()
        .filter(|(_, (message, public, signature))| public.verify(message, signature).is_err())
        .map(|(index, _)| index)
        .collect();
    if culprits.is_empty() {
        // The combined equation rejected but every item verifies serially:
        // the serial pass is ground truth.
        Ok(())
    } else {
        Err(culprits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sign_verify_round_trip() {
        let keypair = Keypair::from_seed(42);
        let signature = keypair.sign(b"hello");
        assert!(keypair.public().verify(b"hello", &signature).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let keypair = Keypair::from_seed(42);
        let signature = keypair.sign(b"hello");
        assert_eq!(
            keypair.public().verify(b"world", &signature),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let alice = Keypair::from_seed(1);
        let bob = Keypair::from_seed(2);
        let signature = alice.sign(b"hello");
        assert_eq!(
            bob.public().verify(b"hello", &signature),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn signatures_are_deterministic() {
        let keypair = Keypair::from_seed(9);
        assert_eq!(keypair.sign(b"m"), keypair.sign(b"m"));
        assert_ne!(keypair.sign(b"m"), keypair.sign(b"n"));
    }

    #[test]
    fn seeded_keys_are_distinct_and_stable() {
        let a = Keypair::from_seed(0);
        let b = Keypair::from_seed(1);
        assert_ne!(a.public(), b.public());
        assert_eq!(Keypair::from_seed(0).public(), a.public());
    }

    #[test]
    fn signature_round_trips_through_bytes() {
        let keypair = Keypair::from_seed(5);
        let signature = keypair.sign(b"payload");
        let bytes = signature.to_bytes();
        assert_eq!(Signature::from_bytes(&bytes), Some(signature));
    }

    #[test]
    fn signature_from_bytes_rejects_out_of_range_response() {
        let keypair = Keypair::from_seed(5);
        let mut bytes = keypair.sign(b"payload").to_bytes();
        bytes[8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Signature::from_bytes(&bytes), None);
    }

    #[test]
    fn public_key_round_trips_through_bytes() {
        let keypair = Keypair::from_seed(11);
        let bytes = keypair.public().to_bytes();
        assert_eq!(PublicKey::from_bytes(&bytes), Some(*keypair.public()));
    }

    #[test]
    fn generated_keys_sign_and_verify() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let keypair = Keypair::generate(&mut rng);
            let signature = keypair.sign(b"x");
            assert!(keypair.public().verify(b"x", &signature).is_ok());
        }
    }

    #[test]
    fn batch_verify_accepts_valid_batch() {
        let keypairs: Vec<_> = (0..8).map(Keypair::from_seed).collect();
        let messages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 10]).collect();
        let items: Vec<(&[u8], PublicKey, Signature)> = keypairs
            .iter()
            .zip(&messages)
            .map(|(kp, m)| (m.as_slice(), *kp.public(), kp.sign(m)))
            .collect();
        assert!(batch_verify(&items).is_ok());
    }

    #[test]
    fn batch_verify_rejects_one_bad_signature() {
        let keypairs: Vec<_> = (0..8).map(Keypair::from_seed).collect();
        let messages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 10]).collect();
        let mut items: Vec<(&[u8], PublicKey, Signature)> = keypairs
            .iter()
            .zip(&messages)
            .map(|(kp, m)| (m.as_slice(), *kp.public(), kp.sign(m)))
            .collect();
        // Swap one signature for a signature over a different message.
        items[3].2 = keypairs[3].sign(b"tampered");
        assert_eq!(batch_verify(&items), Err(CryptoError::InvalidSignature));
    }

    #[test]
    fn batch_verify_empty_is_ok() {
        assert!(batch_verify(&[]).is_ok());
        assert!(batch_verify_attributed(&[]).is_ok());
    }

    #[test]
    fn attributed_batch_accepts_valid_batch() {
        let keypairs: Vec<_> = (0..8).map(Keypair::from_seed).collect();
        let messages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 10]).collect();
        let items: Vec<(&[u8], PublicKey, Signature)> = keypairs
            .iter()
            .zip(&messages)
            .map(|(kp, m)| (m.as_slice(), *kp.public(), kp.sign(m)))
            .collect();
        assert!(batch_verify_attributed(&items).is_ok());
    }

    #[test]
    fn attributed_batch_names_the_culprits() {
        let keypairs: Vec<_> = (0..8).map(Keypair::from_seed).collect();
        let messages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 10]).collect();
        let mut items: Vec<(&[u8], PublicKey, Signature)> = keypairs
            .iter()
            .zip(&messages)
            .map(|(kp, m)| (m.as_slice(), *kp.public(), kp.sign(m)))
            .collect();
        items[2].2 = keypairs[2].sign(b"tampered");
        items[6].2 = keypairs[0].sign(&messages[6]); // wrong signer
        assert_eq!(batch_verify_attributed(&items), Err(vec![2, 6]));
    }

    #[test]
    fn attributed_batch_rejects_all_invalid() {
        let keypairs: Vec<_> = (0..4).map(Keypair::from_seed).collect();
        let items: Vec<(&[u8], PublicKey, Signature)> = keypairs
            .iter()
            .map(|kp| (b"claimed".as_slice(), *kp.public(), kp.sign(b"actual")))
            .collect();
        assert_eq!(batch_verify_attributed(&items), Err(vec![0, 1, 2, 3]));
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let secret = SecretKey::from_seed(1);
        assert_eq!(format!("{secret:?}"), "SecretKey(<redacted>)");
    }
}
