//! Shamir secret sharing over the scalar field, used by the threshold coin.
//!
//! The paper's coin requires that any `2f + 1` validators can reconstruct the
//! per-round randomness while `2f` cannot. The dealer samples a polynomial of
//! degree `threshold - 1` whose constant term is the master secret and hands
//! validator `i` the evaluation at `x = i + 1`.

use rand::Rng;

use crate::group::Scalar;
use crate::CryptoError;

/// One share of a Shamir-shared secret: the evaluation of the dealer's
/// polynomial at `x = index + 1` (indexes are zero-based authority indexes,
/// shifted so that `x = 0`, the secret itself, is never dealt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// The zero-based share index (authority index).
    pub index: u64,
    /// The polynomial evaluation `P(index + 1)`.
    pub value: Scalar,
}

impl Share {
    /// The field point this share was evaluated at.
    pub fn x(&self) -> Scalar {
        Scalar::new(self.index + 1)
    }
}

/// A polynomial over the scalar field, stored by coefficients
/// (constant term first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Polynomial {
    coefficients: Vec<Scalar>,
}

impl Polynomial {
    /// Samples a random polynomial of the given `degree` with the supplied
    /// constant term.
    pub fn random<R: Rng + ?Sized>(degree: usize, constant: Scalar, rng: &mut R) -> Self {
        let mut coefficients = Vec::with_capacity(degree + 1);
        coefficients.push(constant);
        for _ in 0..degree {
            coefficients.push(Scalar::random(rng));
        }
        Polynomial { coefficients }
    }

    /// The polynomial's degree (number of coefficients minus one).
    pub fn degree(&self) -> usize {
        self.coefficients.len() - 1
    }

    /// Evaluates the polynomial at `x` (Horner's method).
    pub fn evaluate(&self, x: Scalar) -> Scalar {
        let mut acc = Scalar::ZERO;
        for &coefficient in self.coefficients.iter().rev() {
            acc = acc * x + coefficient;
        }
        acc
    }
}

/// Splits `secret` into `total` shares such that any `threshold` reconstruct
/// it and fewer reveal nothing.
///
/// # Panics
///
/// Panics if `threshold` is zero or exceeds `total`.
pub fn share_secret<R: Rng + ?Sized>(
    secret: Scalar,
    threshold: usize,
    total: usize,
    rng: &mut R,
) -> Vec<Share> {
    assert!(threshold >= 1, "threshold must be at least 1");
    assert!(threshold <= total, "threshold cannot exceed share count");
    let polynomial = Polynomial::random(threshold - 1, secret, rng);
    (0..total as u64)
        .map(|index| Share {
            index,
            value: polynomial.evaluate(Scalar::new(index + 1)),
        })
        .collect()
}

/// Computes the Lagrange coefficient `λ_i` for interpolating at `x = 0` from
/// the share points `xs`, for the point at position `i`.
///
/// `λ_i = Π_{j ≠ i} x_j / (x_j − x_i)`.
pub fn lagrange_coefficient_at_zero(xs: &[Scalar], i: usize) -> Scalar {
    let mut numerator = Scalar::ONE;
    let mut denominator = Scalar::ONE;
    for (j, &xj) in xs.iter().enumerate() {
        if j == i {
            continue;
        }
        numerator *= xj;
        denominator *= xj - xs[i];
    }
    numerator
        * denominator
            .inverse()
            .expect("share points are distinct and non-zero")
}

/// Reconstructs the secret from exactly `threshold` distinct shares.
///
/// # Errors
///
/// Returns [`CryptoError::InsufficientShares`] if fewer than `threshold`
/// shares are supplied, and [`CryptoError::DuplicateShare`] if two shares
/// carry the same index. Extra shares beyond `threshold` are ignored (the
/// first `threshold` in index order are used).
pub fn reconstruct_secret(shares: &[Share], threshold: usize) -> Result<Scalar, CryptoError> {
    let mut sorted: Vec<Share> = shares.to_vec();
    sorted.sort_by_key(|share| share.index);
    for window in sorted.windows(2) {
        if window[0].index == window[1].index {
            return Err(CryptoError::DuplicateShare(window[0].index));
        }
    }
    if sorted.len() < threshold {
        return Err(CryptoError::InsufficientShares {
            needed: threshold,
            got: sorted.len(),
        });
    }
    sorted.truncate(threshold);
    let xs: Vec<Scalar> = sorted.iter().map(Share::x).collect();
    let mut secret = Scalar::ZERO;
    for (i, share) in sorted.iter().enumerate() {
        secret += lagrange_coefficient_at_zero(&xs, i) * share.value;
    }
    Ok(secret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reconstructs_from_exactly_threshold_shares() {
        let mut rng = StdRng::seed_from_u64(3);
        let secret = Scalar::new(123456);
        let shares = share_secret(secret, 3, 7, &mut rng);
        assert_eq!(reconstruct_secret(&shares[..3], 3).unwrap(), secret);
        assert_eq!(reconstruct_secret(&shares[2..5], 3).unwrap(), secret);
        assert_eq!(reconstruct_secret(&shares[4..], 3).unwrap(), secret);
    }

    #[test]
    fn any_subset_of_threshold_shares_agrees() {
        let mut rng = StdRng::seed_from_u64(4);
        let secret = Scalar::new(987);
        let shares = share_secret(secret, 3, 5, &mut rng);
        for a in 0..5 {
            for b in (a + 1)..5 {
                for c in (b + 1)..5 {
                    let subset = [shares[a], shares[b], shares[c]];
                    assert_eq!(reconstruct_secret(&subset, 3).unwrap(), secret);
                }
            }
        }
    }

    #[test]
    fn too_few_shares_fail() {
        let mut rng = StdRng::seed_from_u64(5);
        let shares = share_secret(Scalar::new(1), 4, 7, &mut rng);
        assert_eq!(
            reconstruct_secret(&shares[..3], 4),
            Err(CryptoError::InsufficientShares { needed: 4, got: 3 })
        );
    }

    #[test]
    fn duplicate_shares_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let shares = share_secret(Scalar::new(1), 2, 3, &mut rng);
        let duplicated = [shares[0], shares[0], shares[1]];
        assert_eq!(
            reconstruct_secret(&duplicated, 2),
            Err(CryptoError::DuplicateShare(0))
        );
    }

    #[test]
    fn wrong_share_changes_secret() {
        let mut rng = StdRng::seed_from_u64(7);
        let secret = Scalar::new(55);
        let mut shares = share_secret(secret, 2, 3, &mut rng);
        shares[0].value += Scalar::ONE;
        assert_ne!(reconstruct_secret(&shares[..2], 2).unwrap(), secret);
    }

    #[test]
    fn threshold_one_is_the_secret_everywhere() {
        let mut rng = StdRng::seed_from_u64(8);
        let secret = Scalar::new(42);
        let shares = share_secret(secret, 1, 4, &mut rng);
        for share in shares {
            assert_eq!(share.value, secret);
        }
    }

    #[test]
    fn polynomial_evaluation_matches_manual() {
        // P(x) = 3 + 2x + x^2
        let polynomial = Polynomial {
            coefficients: vec![Scalar::new(3), Scalar::new(2), Scalar::new(1)],
        };
        assert_eq!(polynomial.degree(), 2);
        assert_eq!(polynomial.evaluate(Scalar::new(0)), Scalar::new(3));
        assert_eq!(polynomial.evaluate(Scalar::new(1)), Scalar::new(6));
        assert_eq!(polynomial.evaluate(Scalar::new(10)), Scalar::new(123));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        let _ = share_secret(Scalar::new(1), 0, 3, &mut rng);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_above_total_panics() {
        let mut rng = StdRng::seed_from_u64(10);
        let _ = share_secret(Scalar::new(1), 4, 3, &mut rng);
    }

    proptest! {
        #[test]
        fn prop_reconstruction(secret in 0u64.., threshold in 1usize..6, extra in 0usize..4) {
            let total = threshold + extra;
            let mut rng = StdRng::seed_from_u64(secret.wrapping_mul(31));
            let secret = Scalar::new(secret);
            let shares = share_secret(secret, threshold, total, &mut rng);
            prop_assert_eq!(reconstruct_secret(&shares, threshold).unwrap(), secret);
        }
    }
}
