//! The validator set and its quorum arithmetic.

use mahimahi_crypto::coin::{CoinDealer, CoinPublic, CoinSecret};
use mahimahi_crypto::schnorr::{Keypair, PublicKey};

use crate::ids::AuthorityIndex;

/// The static validator set of an epoch.
///
/// The paper assumes `n = 3f + 1` validators of which at most `f` are
/// Byzantine (Section 2.1). The committee exposes the two thresholds the
/// protocol uses everywhere: the *quorum* threshold `2f + 1` and the
/// *validity* threshold `f + 1`.
///
/// # Example
///
/// ```
/// use mahimahi_types::TestCommittee;
///
/// let committee = TestCommittee::new(10, 0).committee().clone();
/// assert_eq!(committee.f(), 3);
/// assert_eq!(committee.quorum_threshold(), 7);
/// assert_eq!(committee.validity_threshold(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Committee {
    /// Signing keys, indexed by [`AuthorityIndex`].
    public_keys: Vec<PublicKey>,
    /// Public parameters of the global perfect coin.
    coin_public: CoinPublic,
}

impl Committee {
    /// Builds a committee from per-authority public keys and the coin's
    /// public parameters.
    ///
    /// # Panics
    ///
    /// Panics if the committee is empty or if the coin was dealt for a
    /// different committee size or a threshold other than `2f + 1`.
    pub fn new(public_keys: Vec<PublicKey>, coin_public: CoinPublic) -> Self {
        assert!(!public_keys.is_empty(), "committee cannot be empty");
        assert_eq!(
            coin_public.total(),
            public_keys.len(),
            "coin dealt for a different committee size"
        );
        let f = (public_keys.len() - 1) / 3;
        assert_eq!(
            coin_public.threshold(),
            2 * f + 1,
            "coin threshold must equal the quorum threshold 2f + 1"
        );
        Committee {
            public_keys,
            coin_public,
        }
    }

    /// The committee size `n`.
    pub fn size(&self) -> usize {
        self.public_keys.len()
    }

    /// The maximum number of Byzantine validators `f = ⌊(n − 1) / 3⌋`.
    pub fn f(&self) -> usize {
        (self.size() - 1) / 3
    }

    /// The quorum threshold `2f + 1`.
    pub fn quorum_threshold(&self) -> usize {
        2 * self.f() + 1
    }

    /// The validity threshold `f + 1` (at least one honest validator).
    pub fn validity_threshold(&self) -> usize {
        self.f() + 1
    }

    /// Whether `authority` is a member.
    pub fn exists(&self, authority: AuthorityIndex) -> bool {
        authority.as_usize() < self.size()
    }

    /// The signing key of `authority`, or `None` for non-members.
    pub fn public_key(&self, authority: AuthorityIndex) -> Option<&PublicKey> {
        self.public_keys.get(authority.as_usize())
    }

    /// The coin's public parameters.
    pub fn coin_public(&self) -> &CoinPublic {
        &self.coin_public
    }

    /// Iterates over all authority indexes.
    pub fn authorities(&self) -> impl Iterator<Item = AuthorityIndex> + '_ {
        (0..self.size()).map(AuthorityIndex::from)
    }
}

/// A fully-provisioned test committee: the public [`Committee`] plus every
/// validator's secrets.
///
/// Production deployments provision each validator with only its own
/// [`Keypair`] and [`CoinSecret`]; simulations and tests need all of them in
/// one place. All material derives deterministically from `seed`.
#[derive(Debug, Clone)]
pub struct TestCommittee {
    committee: Committee,
    keypairs: Vec<Keypair>,
    coin_secrets: Vec<CoinSecret>,
}

impl TestCommittee {
    /// Provisions a committee of `size` validators from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize, seed: u64) -> Self {
        assert!(size > 0, "committee cannot be empty");
        let keypairs: Vec<Keypair> = (0..size as u64)
            .map(|index| Keypair::from_seed(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index))
            .collect();
        let f = (size - 1) / 3;
        let (coin_secrets, coin_public) = CoinDealer::deal_seeded(size, 2 * f + 1, seed);
        let committee = Committee::new(
            keypairs.iter().map(|kp| *kp.public()).collect(),
            coin_public,
        );
        TestCommittee {
            committee,
            keypairs,
            coin_secrets,
        }
    }

    /// The public committee description.
    pub fn committee(&self) -> &Committee {
        &self.committee
    }

    /// The signing keypair of `authority`.
    ///
    /// # Panics
    ///
    /// Panics if `authority` is not a member.
    pub fn keypair(&self, authority: AuthorityIndex) -> &Keypair {
        &self.keypairs[authority.as_usize()]
    }

    /// The coin secret of `authority`.
    ///
    /// # Panics
    ///
    /// Panics if `authority` is not a member.
    pub fn coin_secret(&self, authority: AuthorityIndex) -> &CoinSecret {
        &self.coin_secrets[authority.as_usize()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_follow_n_equals_3f_plus_1() {
        for (n, f) in [(1, 0), (4, 1), (7, 2), (10, 3), (13, 4), (50, 16)] {
            let committee = TestCommittee::new(n, 1).committee().clone();
            assert_eq!(committee.size(), n);
            assert_eq!(committee.f(), f);
            assert_eq!(committee.quorum_threshold(), 2 * f + 1);
            assert_eq!(committee.validity_threshold(), f + 1);
        }
    }

    #[test]
    fn membership() {
        let committee = TestCommittee::new(4, 2).committee().clone();
        assert!(committee.exists(AuthorityIndex(0)));
        assert!(committee.exists(AuthorityIndex(3)));
        assert!(!committee.exists(AuthorityIndex(4)));
        assert!(committee.public_key(AuthorityIndex(4)).is_none());
    }

    #[test]
    fn authorities_iterates_in_order() {
        let committee = TestCommittee::new(4, 2).committee().clone();
        let all: Vec<_> = committee.authorities().collect();
        assert_eq!(
            all,
            vec![
                AuthorityIndex(0),
                AuthorityIndex(1),
                AuthorityIndex(2),
                AuthorityIndex(3)
            ]
        );
    }

    #[test]
    fn setup_is_deterministic() {
        let a = TestCommittee::new(4, 9);
        let b = TestCommittee::new(4, 9);
        assert_eq!(a.committee(), b.committee());
        let c = TestCommittee::new(4, 10);
        assert_ne!(a.committee(), c.committee());
    }

    #[test]
    fn keys_are_distinct() {
        let setup = TestCommittee::new(10, 1);
        let mut keys: Vec<_> = (0..10)
            .map(|i| *setup.keypair(AuthorityIndex(i)).public())
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 10);
    }

    #[test]
    fn coin_secrets_match_committee_coin() {
        let setup = TestCommittee::new(4, 3);
        let committee = setup.committee();
        let shares: Vec<_> = (0..4)
            .map(|i| setup.coin_secret(AuthorityIndex(i)).share_for_round(7))
            .collect();
        for share in &shares {
            assert!(committee.coin_public().verify_share(7, share).is_ok());
        }
        assert!(committee.coin_public().combine(7, &shares[..3]).is_ok());
    }

    #[test]
    #[should_panic(expected = "different committee size")]
    fn mismatched_coin_size_panics() {
        let keys: Vec<PublicKey> = (0..4).map(|i| *Keypair::from_seed(i).public()).collect();
        let (_, coin_public) = CoinDealer::deal_seeded(7, 5, 1);
        let _ = Committee::new(keys, coin_public);
    }

    #[test]
    #[should_panic(expected = "quorum threshold")]
    fn mismatched_coin_threshold_panics() {
        let keys: Vec<PublicKey> = (0..4).map(|i| *Keypair::from_seed(i).public()).collect();
        let (_, coin_public) = CoinDealer::deal_seeded(4, 2, 1);
        let _ = Committee::new(keys, coin_public);
    }
}
