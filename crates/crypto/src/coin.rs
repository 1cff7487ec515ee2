//! The global perfect coin (threshold PRF).
//!
//! The paper instantiates its coin with an adaptively-secure threshold BLS
//! signature: each block in the Certify round carries a coin share, and any
//! `2f + 1` shares reconstruct an unpredictable per-round value that elects
//! the round's leader slots *after the fact* (Section 2.3, Section 3.1).
//!
//! This module implements the same shape as a threshold PRF over the toy
//! group: a dealer Shamir-shares a master secret `s`; validator `i` holds
//! `s_i` and publishes a coin share `σ_i = h_r^{s_i}` for round `r`, where
//! `h_r` hashes the round into the group; shares carry Chaum–Pedersen
//! validity proofs against the registered share keys `g^{s_i}`; combining
//! `2f + 1` valid shares with Lagrange coefficients in the exponent yields
//! `h_r^s`, which is hashed into the [`CoinValue`].
//!
//! The paper performs distributed key generation asynchronously
//! (references \[1,2,20,21,30\] in its bibliography); we substitute a trusted
//! dealer, which is orthogonal to the consensus path being reproduced.

use rand::Rng;

use crate::blake2b::blake2b_256_parts;
use crate::dleq::DleqProof;
use crate::group::{GroupElement, Scalar};
use crate::shamir::{self, Share};
use crate::CryptoError;

const COIN_BASE_DOMAIN: &[u8] = b"mahimahi-coin-base-v1";
const COIN_VALUE_DOMAIN: &[u8] = b"mahimahi-coin-value-v1";

/// Returns the per-round base point `h_r` that coin shares are computed on.
pub fn round_base(round: u64) -> GroupElement {
    GroupElement::hash_to_group(&[COIN_BASE_DOMAIN, &round.to_le_bytes()])
}

/// Trusted dealer for coin setup.
#[derive(Debug)]
pub struct CoinDealer;

impl CoinDealer {
    /// Deals a coin for `total` validators with reconstruction `threshold`
    /// (the protocol uses `threshold = 2f + 1`).
    ///
    /// Returns one [`CoinSecret`] per validator plus the shared
    /// [`CoinPublic`] parameters.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero or exceeds `total`.
    pub fn deal<R: Rng + ?Sized>(
        total: usize,
        threshold: usize,
        rng: &mut R,
    ) -> (Vec<CoinSecret>, CoinPublic) {
        let master = Scalar::random(rng);
        let shares = shamir::share_secret(master, threshold, total, rng);
        let share_keys = shares
            .iter()
            .map(|share| GroupElement::generator().pow(share.value))
            .collect();
        let secrets = shares
            .into_iter()
            .map(|share| CoinSecret { share })
            .collect();
        (
            secrets,
            CoinPublic {
                threshold,
                share_keys,
            },
        )
    }

    /// Deterministic variant of [`CoinDealer::deal`] for reproducible
    /// simulations: all randomness is derived from `seed`.
    pub fn deal_seeded(total: usize, threshold: usize, seed: u64) -> (Vec<CoinSecret>, CoinPublic) {
        // A tiny deterministic splittable generator built on the hash; avoids
        // pulling a specific RNG into the public API.
        struct HashRng {
            seed: u64,
            counter: u64,
        }
        impl rand::RngCore for HashRng {
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.counter += 1;
                let digest = blake2b_256_parts(&[
                    b"mahimahi-coin-dealer-rng",
                    &self.seed.to_le_bytes(),
                    &self.counter.to_le_bytes(),
                ]);
                digest.prefix_u64()
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                for chunk in dest.chunks_mut(8) {
                    let word = self.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&word[..chunk.len()]);
                }
            }
            fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
                self.fill_bytes(dest);
                Ok(())
            }
        }
        let mut rng = HashRng { seed, counter: 0 };
        Self::deal(total, threshold, &mut rng)
    }
}

/// A validator's long-term coin secret.
#[derive(Clone, PartialEq, Eq)]
pub struct CoinSecret {
    share: Share,
}

impl CoinSecret {
    /// The zero-based authority index this secret belongs to.
    pub fn index(&self) -> u64 {
        self.share.index
    }

    /// Produces this validator's coin share for `round`, including the
    /// validity proof.
    pub fn share_for_round(&self, round: u64) -> CoinShare {
        let base = round_base(round);
        let sigma = base.pow(self.share.value);
        let proof = DleqProof::prove(
            GroupElement::generator(),
            GroupElement::generator().pow(self.share.value),
            base,
            sigma,
            self.share.value,
        );
        CoinShare {
            index: self.share.index,
            sigma,
            proof,
        }
    }
}

impl std::fmt::Debug for CoinSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoinSecret(index={}, <redacted>)", self.share.index)
    }
}

/// Public coin parameters: the reconstruction threshold and each validator's
/// registered share key `g^{s_i}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinPublic {
    threshold: usize,
    share_keys: Vec<GroupElement>,
}

impl CoinPublic {
    /// The number of distinct valid shares required to open the coin.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The number of validators the coin was dealt to.
    pub fn total(&self) -> usize {
        self.share_keys.len()
    }

    /// Verifies that `share` is a valid coin share for `round` from the
    /// validator it claims to come from.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidCoinShare`] if the index is out of range or the
    /// proof fails.
    pub fn verify_share(&self, round: u64, share: &CoinShare) -> Result<(), CryptoError> {
        let key = self
            .share_keys
            .get(share.index as usize)
            .ok_or(CryptoError::InvalidCoinShare)?;
        share.proof.verify(
            GroupElement::generator(),
            *key,
            round_base(round),
            share.sigma,
        )
    }

    /// Verifies a batch of coin shares for one round, naming the offenders.
    ///
    /// [`CoinPublic::verify_share`] rederives the per-round base point
    /// `h_r` on every call; here it is hashed once for the whole batch and
    /// the proofs are checked through
    /// [`dleq::batch_verify_attributed`](crate::dleq::batch_verify_attributed).
    /// Shares with an out-of-range index are reported as culprits alongside
    /// proof failures.
    ///
    /// # Errors
    ///
    /// Returns the sorted indices (positions in `shares`, not authority
    /// indexes) of every share that fails.
    pub fn verify_shares(&self, round: u64, shares: &[CoinShare]) -> Result<(), Vec<usize>> {
        let base = round_base(round);
        let generator = GroupElement::generator();
        let mut culprits = Vec::new();
        let mut statements = Vec::with_capacity(shares.len());
        let mut positions = Vec::with_capacity(shares.len());
        for (position, share) in shares.iter().enumerate() {
            match self.share_keys.get(share.index as usize) {
                Some(key) => {
                    statements.push((generator, *key, base, share.sigma, share.proof));
                    positions.push(position);
                }
                None => culprits.push(position),
            }
        }
        if let Err(failed) = crate::dleq::batch_verify_attributed(&statements) {
            culprits.extend(failed.into_iter().map(|index| positions[index]));
        }
        if culprits.is_empty() {
            Ok(())
        } else {
            culprits.sort_unstable();
            Err(culprits)
        }
    }

    /// Combines at least `threshold` distinct valid shares into the round's
    /// coin value.
    ///
    /// Shares are verified before use; the combination uses the first
    /// `threshold` shares in index order (any valid subset yields the same
    /// value — this is tested exhaustively for small committees).
    ///
    /// # Errors
    ///
    /// - [`CryptoError::InsufficientShares`] with fewer than `threshold`
    ///   distinct shares;
    /// - [`CryptoError::DuplicateShare`] on repeated indexes;
    /// - [`CryptoError::InvalidCoinShare`] if any used share fails
    ///   verification.
    pub fn combine(&self, round: u64, shares: &[CoinShare]) -> Result<CoinValue, CryptoError> {
        let mut sorted: Vec<&CoinShare> = shares.iter().collect();
        sorted.sort_by_key(|share| share.index);
        for window in sorted.windows(2) {
            if window[0].index == window[1].index {
                return Err(CryptoError::DuplicateShare(window[0].index));
            }
        }
        if sorted.len() < self.threshold {
            return Err(CryptoError::InsufficientShares {
                needed: self.threshold,
                got: sorted.len(),
            });
        }
        sorted.truncate(self.threshold);
        for share in &sorted {
            self.verify_share(round, share)?;
        }
        let xs: Vec<Scalar> = sorted
            .iter()
            .map(|share| Scalar::new(share.index + 1))
            .collect();
        let mut combined = GroupElement::IDENTITY;
        for (i, share) in sorted.iter().enumerate() {
            let lambda = shamir::lagrange_coefficient_at_zero(&xs, i);
            combined = combined.mul(share.sigma.pow(lambda));
        }
        let digest = blake2b_256_parts(&[
            COIN_VALUE_DOMAIN,
            &round.to_le_bytes(),
            &combined.to_bytes(),
        ]);
        Ok(CoinValue {
            round,
            bytes: digest.into_bytes(),
        })
    }
}

/// One validator's coin share for a round, with its validity proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoinShare {
    index: u64,
    sigma: GroupElement,
    proof: DleqProof,
}

impl CoinShare {
    /// Byte length of a serialized coin share.
    pub const LENGTH: usize = 32;

    /// The authority index that produced this share.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The share's group element `h_r^{s_i}`.
    pub fn sigma(&self) -> GroupElement {
        self.sigma
    }

    /// Serializes the share to 32 bytes (index ‖ sigma ‖ proof).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..8].copy_from_slice(&self.index.to_le_bytes());
        out[8..16].copy_from_slice(&self.sigma.to_bytes());
        out[16..].copy_from_slice(&self.proof.to_bytes());
        out
    }

    /// Deserializes a share, validating group membership and scalar ranges.
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let index = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let sigma = GroupElement::from_bytes(bytes[8..16].try_into().expect("8 bytes"))?;
        let proof = DleqProof::from_bytes(bytes[16..].try_into().expect("16 bytes"))?;
        Some(CoinShare {
            index,
            sigma,
            proof,
        })
    }
}

/// The opened coin value for a round.
///
/// Deterministically elects the round's leader slots (Algorithm 2 line 15:
/// `l ← c + leaderOffset mod committee size`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoinValue {
    round: u64,
    bytes: [u8; 32],
}

impl CoinValue {
    /// The round this value opens.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Raw entropy bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// The base leader index `c` for a committee of `committee_size`.
    pub fn base_leader(&self, committee_size: usize) -> u64 {
        assert!(committee_size > 0, "committee cannot be empty");
        u64::from_le_bytes(self.bytes[..8].try_into().expect("8 bytes")) % committee_size as u64
    }

    /// The authority filling leader slot `leader_offset` of the round
    /// (`(c + leader_offset) mod committee_size`).
    pub fn leader_slot(&self, leader_offset: usize, committee_size: usize) -> u64 {
        (self.base_leader(committee_size) + leader_offset as u64) % committee_size as u64
    }

    /// Constructs a coin value directly from bytes (test/adversary use).
    pub fn from_bytes(round: u64, bytes: [u8; 32]) -> Self {
        CoinValue { round, bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dealt(n: usize, threshold: usize) -> (Vec<CoinSecret>, CoinPublic) {
        CoinDealer::deal_seeded(n, threshold, 42)
    }

    #[test]
    fn shares_verify() {
        let (secrets, public) = dealt(4, 3);
        for secret in &secrets {
            let share = secret.share_for_round(7);
            assert!(public.verify_share(7, &share).is_ok());
        }
    }

    #[test]
    fn share_for_wrong_round_rejected() {
        let (secrets, public) = dealt(4, 3);
        let share = secrets[0].share_for_round(7);
        assert_eq!(
            public.verify_share(8, &share),
            Err(CryptoError::InvalidCoinShare)
        );
    }

    #[test]
    fn batched_share_verification_matches_per_share() {
        let (secrets, public) = dealt(4, 3);
        let mut shares: Vec<CoinShare> = secrets.iter().map(|s| s.share_for_round(7)).collect();
        assert!(public.verify_shares(7, &shares).is_ok());
        assert!(public.verify_shares(7, &[]).is_ok());

        // Poison one share with a wrong-round sigma and one with an
        // out-of-range index: both must be named.
        shares[1] = secrets[1].share_for_round(8);
        shares[3].index = 17;
        assert_eq!(public.verify_shares(7, &shares), Err(vec![1, 3]));
        for (position, share) in shares.iter().enumerate() {
            assert_eq!(
                public.verify_share(7, share).is_ok(),
                ![1, 3].contains(&position)
            );
        }
    }

    #[test]
    fn any_threshold_subset_combines_to_same_value() {
        let (secrets, public) = dealt(4, 3);
        let shares: Vec<CoinShare> = secrets.iter().map(|s| s.share_for_round(5)).collect();
        let mut values = Vec::new();
        for a in 0..4 {
            for b in (a + 1)..4 {
                for c in (b + 1)..4 {
                    let subset = [shares[a], shares[b], shares[c]];
                    values.push(public.combine(5, &subset).unwrap());
                }
            }
        }
        for value in &values {
            assert_eq!(value, &values[0]);
        }
    }

    #[test]
    fn extra_shares_do_not_change_the_value() {
        let (secrets, public) = dealt(7, 5);
        let shares: Vec<CoinShare> = secrets.iter().map(|s| s.share_for_round(9)).collect();
        let with_five = public.combine(9, &shares[..5]).unwrap();
        let with_seven = public.combine(9, &shares).unwrap();
        assert_eq!(with_five, with_seven);
    }

    #[test]
    fn different_rounds_produce_different_values() {
        let (secrets, public) = dealt(4, 3);
        let value5 = public
            .combine(
                5,
                &secrets
                    .iter()
                    .map(|s| s.share_for_round(5))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let value6 = public
            .combine(
                6,
                &secrets
                    .iter()
                    .map(|s| s.share_for_round(6))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert_ne!(value5.as_bytes(), value6.as_bytes());
    }

    #[test]
    fn insufficient_shares_error() {
        let (secrets, public) = dealt(4, 3);
        let shares: Vec<CoinShare> = secrets[..2].iter().map(|s| s.share_for_round(5)).collect();
        assert_eq!(
            public.combine(5, &shares),
            Err(CryptoError::InsufficientShares { needed: 3, got: 2 })
        );
    }

    #[test]
    fn duplicate_share_error() {
        let (secrets, public) = dealt(4, 3);
        let share = secrets[0].share_for_round(5);
        let shares = [share, share, secrets[1].share_for_round(5)];
        assert_eq!(
            public.combine(5, &shares),
            Err(CryptoError::DuplicateShare(0))
        );
    }

    #[test]
    fn forged_share_rejected_in_combine() {
        let (secrets, public) = dealt(4, 3);
        let mut shares: Vec<CoinShare> = secrets.iter().map(|s| s.share_for_round(5)).collect();
        // Replace sigma with a random element, keeping the (now stale) proof.
        shares[0].sigma = GroupElement::generator().pow(Scalar::new(12345));
        assert_eq!(
            public.combine(5, &shares[..3]),
            Err(CryptoError::InvalidCoinShare)
        );
    }

    #[test]
    fn share_from_unknown_index_rejected() {
        let (secrets, public) = dealt(4, 3);
        let mut share = secrets[0].share_for_round(5);
        share.index = 17;
        assert_eq!(
            public.verify_share(5, &share),
            Err(CryptoError::InvalidCoinShare)
        );
    }

    #[test]
    fn leader_slots_are_in_range_and_sequential() {
        let (secrets, public) = dealt(4, 3);
        let shares: Vec<CoinShare> = secrets.iter().map(|s| s.share_for_round(11)).collect();
        let value = public.combine(11, &shares[..3]).unwrap();
        let base = value.base_leader(4);
        assert!(base < 4);
        for offset in 0..4 {
            assert_eq!(value.leader_slot(offset, 4), (base + offset as u64) % 4);
        }
    }

    #[test]
    fn dealing_is_deterministic_per_seed() {
        let (a_secrets, a_public) = CoinDealer::deal_seeded(4, 3, 1);
        let (b_secrets, b_public) = CoinDealer::deal_seeded(4, 3, 1);
        let (c_secrets, _) = CoinDealer::deal_seeded(4, 3, 2);
        assert_eq!(a_public, b_public);
        assert_eq!(
            a_secrets[0].share_for_round(3),
            b_secrets[0].share_for_round(3)
        );
        assert_ne!(
            a_secrets[0].share_for_round(3),
            c_secrets[0].share_for_round(3)
        );
    }

    #[test]
    fn random_rng_dealing_works() {
        let mut rng = StdRng::seed_from_u64(77);
        let (secrets, public) = CoinDealer::deal(10, 7, &mut rng);
        let shares: Vec<CoinShare> = secrets.iter().map(|s| s.share_for_round(1)).collect();
        assert!(public.combine(1, &shares[3..10]).is_ok());
    }

    #[test]
    fn coin_secret_debug_redacts() {
        let (secrets, _) = dealt(4, 3);
        let repr = format!("{:?}", secrets[0]);
        assert!(repr.contains("redacted"));
    }

    #[test]
    fn leader_distribution_is_roughly_uniform() {
        // Sanity: over many rounds the base leader hits every authority.
        let (secrets, public) = dealt(4, 3);
        let mut counts = [0usize; 4];
        for round in 0..200 {
            let shares: Vec<CoinShare> = secrets.iter().map(|s| s.share_for_round(round)).collect();
            let value = public.combine(round, &shares[..3]).unwrap();
            counts[value.base_leader(4) as usize] += 1;
        }
        for count in counts {
            assert!(count > 20, "distribution skew: {counts:?}");
        }
    }
}
