//! Chaum–Pedersen discrete-log-equality proofs.
//!
//! A coin share `σ_i = h_r^{s_i}` is only useful if other validators can
//! check it without knowing `s_i`. The prover shows that
//! `log_g(pk_i) = log_{h_r}(σ_i)` — i.e. the same exponent links the
//! long-term public share key and the per-round coin share — with the
//! standard non-interactive (Fiat–Shamir) Chaum–Pedersen protocol.

use crate::group::{GroupElement, Scalar};
use crate::CryptoError;

const DLEQ_DOMAIN: &[u8] = b"mahimahi-dleq-v1";

/// A non-interactive proof that `log_{base_a}(a) == log_{base_b}(b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DleqProof {
    challenge: Scalar,
    response: Scalar,
}

impl DleqProof {
    /// Proves knowledge of `exponent` such that `a = base_a^exponent` and
    /// `b = base_b^exponent`.
    ///
    /// The commitment nonce is derived deterministically from the witness and
    /// the statement, so proving is deterministic (no RNG required) without
    /// compromising zero-knowledge against parties ignorant of the witness.
    pub fn prove(
        base_a: GroupElement,
        a: GroupElement,
        base_b: GroupElement,
        b: GroupElement,
        exponent: Scalar,
    ) -> Self {
        let w = Scalar::hash_to_scalar(&[
            b"mahimahi-dleq-nonce",
            &exponent.value().to_le_bytes(),
            &base_a.to_bytes(),
            &a.to_bytes(),
            &base_b.to_bytes(),
            &b.to_bytes(),
        ]);
        let w = if w == Scalar::ZERO { Scalar::ONE } else { w };
        let commit_a = base_a.pow(w);
        let commit_b = base_b.pow(w);
        let challenge = Self::challenge(base_a, a, base_b, b, commit_a, commit_b);
        let response = w + challenge * exponent;
        DleqProof {
            challenge,
            response,
        }
    }

    /// Verifies the proof against the statement.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidCoinShare`] when the proof does not
    /// verify.
    pub fn verify(
        &self,
        base_a: GroupElement,
        a: GroupElement,
        base_b: GroupElement,
        b: GroupElement,
    ) -> Result<(), CryptoError> {
        // Recompute the commitments: A = base_a^z · a^{-c}, B = base_b^z · b^{-c}.
        let commit_a = base_a
            .pow(self.response)
            .mul(a.pow(self.challenge).inverse());
        let commit_b = base_b
            .pow(self.response)
            .mul(b.pow(self.challenge).inverse());
        let expected = Self::challenge(base_a, a, base_b, b, commit_a, commit_b);
        if expected == self.challenge {
            Ok(())
        } else {
            Err(CryptoError::InvalidCoinShare)
        }
    }

    /// Serializes the proof to 16 bytes (challenge ‖ response).
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.challenge.value().to_le_bytes());
        out[8..].copy_from_slice(&self.response.value().to_le_bytes());
        out
    }

    /// Deserializes a proof, validating scalar ranges.
    pub fn from_bytes(bytes: &[u8; 16]) -> Option<Self> {
        let challenge = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let response = u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes"));
        if challenge >= crate::group::ORDER_Q || response >= crate::group::ORDER_Q {
            return None;
        }
        Some(DleqProof {
            challenge: Scalar::new(challenge),
            response: Scalar::new(response),
        })
    }

    fn challenge(
        base_a: GroupElement,
        a: GroupElement,
        base_b: GroupElement,
        b: GroupElement,
        commit_a: GroupElement,
        commit_b: GroupElement,
    ) -> Scalar {
        Scalar::hash_to_scalar(&[
            DLEQ_DOMAIN,
            &base_a.to_bytes(),
            &a.to_bytes(),
            &base_b.to_bytes(),
            &b.to_bytes(),
            &commit_a.to_bytes(),
            &commit_b.to_bytes(),
        ])
    }
}

/// One statement of a DLEQ batch: the proof plus the four public group
/// elements it speaks about (`log_{base_a}(a) == log_{base_b}(b)`).
pub type DleqStatement = (
    GroupElement,
    GroupElement,
    GroupElement,
    GroupElement,
    DleqProof,
);

/// Verifies a batch of DLEQ statements and, on failure, names the offenders.
///
/// Chaum–Pedersen proofs in challenge form do **not** admit a multi-scalar
/// collapse: recomputing each Fiat–Shamir challenge requires the per-item
/// commitments individually, so every proof is checked on its own. Batching
/// still pays off for callers because shared per-batch work (e.g. deriving
/// the per-round coin base) is hoisted out of the loop and failures are
/// attributed in one pass instead of ad-hoc caller-side retries.
///
/// # Errors
///
/// Returns the sorted indices of every statement whose proof fails.
pub fn batch_verify_attributed(statements: &[DleqStatement]) -> Result<(), Vec<usize>> {
    let culprits: Vec<usize> = statements
        .iter()
        .enumerate()
        .filter(|(_, (base_a, a, base_b, b, proof))| {
            proof.verify(*base_a, *a, *base_b, *b).is_err()
        })
        .map(|(index, _)| index)
        .collect();
    if culprits.is_empty() {
        Ok(())
    } else {
        Err(culprits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(
        exponent: u64,
        round: u64,
    ) -> (
        GroupElement,
        GroupElement,
        GroupElement,
        GroupElement,
        Scalar,
    ) {
        let x = Scalar::new(exponent);
        let g = GroupElement::generator();
        let h = GroupElement::hash_to_group(&[b"round", &round.to_le_bytes()]);
        (g, g.pow(x), h, h.pow(x), x)
    }

    #[test]
    fn proves_and_verifies() {
        let (g, pk, h, sigma, x) = setup(31337, 5);
        let proof = DleqProof::prove(g, pk, h, sigma, x);
        assert!(proof.verify(g, pk, h, sigma).is_ok());
    }

    #[test]
    fn rejects_wrong_share() {
        let (g, pk, h, _, x) = setup(31337, 5);
        let wrong_sigma = h.pow(Scalar::new(999));
        let proof = DleqProof::prove(g, pk, h, wrong_sigma, x);
        // The proof was built over an inconsistent statement: verification of
        // the equality must fail because log_g(pk) != log_h(wrong_sigma).
        assert_eq!(
            proof.verify(g, pk, h, wrong_sigma),
            Err(CryptoError::InvalidCoinShare)
        );
    }

    #[test]
    fn rejects_statement_swap() {
        let (g, pk, h, sigma, x) = setup(42, 9);
        let proof = DleqProof::prove(g, pk, h, sigma, x);
        let (g2, pk2, h2, sigma2, _) = setup(43, 9);
        assert_eq!(
            proof.verify(g2, pk2, h2, sigma2),
            Err(CryptoError::InvalidCoinShare)
        );
    }

    #[test]
    fn rejects_tampered_proof() {
        let (g, pk, h, sigma, x) = setup(7, 1);
        let proof = DleqProof::prove(g, pk, h, sigma, x);
        let tampered = DleqProof {
            challenge: proof.challenge + Scalar::ONE,
            response: proof.response,
        };
        assert_eq!(
            tampered.verify(g, pk, h, sigma),
            Err(CryptoError::InvalidCoinShare)
        );
    }

    #[test]
    fn proof_is_deterministic() {
        let (g, pk, h, sigma, x) = setup(1001, 2);
        assert_eq!(
            DleqProof::prove(g, pk, h, sigma, x),
            DleqProof::prove(g, pk, h, sigma, x)
        );
    }

    #[test]
    fn batched_statements_attribute_failures() {
        let statements: Vec<DleqStatement> = (0..5u64)
            .map(|i| {
                let (g, pk, h, sigma, x) = setup(100 + i, 4);
                (g, pk, h, sigma, DleqProof::prove(g, pk, h, sigma, x))
            })
            .collect();
        assert!(batch_verify_attributed(&statements).is_ok());

        let mut poisoned = statements.clone();
        poisoned[1].3 = poisoned[2].3; // sigma from a different statement
        poisoned[4].1 = poisoned[0].1;
        assert_eq!(batch_verify_attributed(&poisoned), Err(vec![1, 4]));
        assert!(batch_verify_attributed(&[]).is_ok());
    }

    #[test]
    fn different_rounds_produce_different_proofs() {
        let (g, pk, h1, sigma1, x) = setup(1001, 2);
        let (_, _, h2, sigma2, _) = setup(1001, 3);
        let p1 = DleqProof::prove(g, pk, h1, sigma1, x);
        let p2 = DleqProof::prove(g, pk, h2, sigma2, x);
        assert_ne!(p1, p2);
        // Cross-verification must fail.
        assert!(p1.verify(g, pk, h2, sigma2).is_err());
        assert!(p2.verify(g, pk, h1, sigma1).is_err());
    }
}
