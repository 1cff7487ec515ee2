//! Toy discrete-log group: the order-`q` subgroup of `Z_p^*` for the safe
//! prime `p = 2q + 1` with `p ≈ 2^61`.
//!
//! All higher-level primitives (Schnorr signatures, Chaum–Pedersen proofs,
//! the threshold coin) are expressed over [`GroupElement`] and [`Scalar`],
//! exactly as they would be over an elliptic-curve group. The parameters are
//! deliberately small — see the crate-level security note.

use rand::Rng;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::blake2b::blake2b_256_parts;

/// The safe prime `p = 2q + 1` (62 bits).
pub const MODULUS_P: u64 = 2_305_843_009_213_699_919;
/// The prime group order `q = (p - 1) / 2` (61 bits).
pub const ORDER_Q: u64 = 1_152_921_504_606_849_959;
/// A generator of the order-`q` subgroup (`2^2 mod p`; squares generate the
/// subgroup of quadratic residues, which has prime order `q`).
pub const GENERATOR: u64 = 4;

#[inline]
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

#[inline]
fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc: u64 = 1;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// An element of the scalar field `Z_q` (exponents of the group).
///
/// # Example
///
/// ```
/// use mahimahi_crypto::group::Scalar;
///
/// let a = Scalar::new(5);
/// let b = a.inverse().expect("5 is invertible");
/// assert_eq!(a * b, Scalar::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Scalar(u64);

impl Scalar {
    /// The additive identity.
    pub const ZERO: Scalar = Scalar(0);
    /// The multiplicative identity.
    pub const ONE: Scalar = Scalar(1);

    /// Reduces `value` modulo `q`.
    pub const fn new(value: u64) -> Self {
        Scalar(value % ORDER_Q)
    }

    /// Returns the canonical representative in `[0, q)`.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Samples a uniformly random scalar.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling avoids modulo bias.
        loop {
            let candidate: u64 = rng.gen();
            if candidate < ORDER_Q {
                return Scalar(candidate);
            }
        }
    }

    /// Reduces 16 bytes of hash output modulo `q` (negligible bias:
    /// 2^128 ≫ q²).
    pub fn from_bytes_wide(bytes: &[u8; 16]) -> Self {
        Scalar((u128::from_le_bytes(*bytes) % ORDER_Q as u128) as u64)
    }

    /// Hashes domain-separated parts to a scalar.
    pub fn hash_to_scalar(parts: &[&[u8]]) -> Self {
        let digest = blake2b_256_parts(parts);
        let wide: [u8; 16] = digest.as_bytes()[..16].try_into().expect("16-byte prefix");
        Scalar::from_bytes_wide(&wide)
    }

    /// Raises the scalar to `exp` modulo `q`.
    pub fn pow(self, exp: u64) -> Self {
        Scalar(pow_mod(self.0, exp, ORDER_Q))
    }

    /// Multiplicative inverse, or `None` for zero.
    pub fn inverse(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            // Fermat: a^(q-2) = a^-1 mod q for prime q.
            Some(Scalar(pow_mod(self.0, ORDER_Q - 2, ORDER_Q)))
        }
    }
}

impl Add for Scalar {
    type Output = Scalar;
    fn add(self, rhs: Scalar) -> Scalar {
        let (sum, overflow) = self.0.overflowing_add(rhs.0);
        if overflow || sum >= ORDER_Q {
            Scalar(sum.wrapping_sub(ORDER_Q))
        } else {
            Scalar(sum)
        }
    }
}

impl AddAssign for Scalar {
    fn add_assign(&mut self, rhs: Scalar) {
        *self = *self + rhs;
    }
}

impl Sub for Scalar {
    type Output = Scalar;
    fn sub(self, rhs: Scalar) -> Scalar {
        if self.0 >= rhs.0 {
            Scalar(self.0 - rhs.0)
        } else {
            Scalar(self.0 + (ORDER_Q - rhs.0))
        }
    }
}

impl SubAssign for Scalar {
    fn sub_assign(&mut self, rhs: Scalar) {
        *self = *self - rhs;
    }
}

impl Mul for Scalar {
    type Output = Scalar;
    fn mul(self, rhs: Scalar) -> Scalar {
        Scalar(mul_mod(self.0, rhs.0, ORDER_Q))
    }
}

impl MulAssign for Scalar {
    fn mul_assign(&mut self, rhs: Scalar) {
        *self = *self * rhs;
    }
}

impl Neg for Scalar {
    type Output = Scalar;
    fn neg(self) -> Scalar {
        Scalar::ZERO - self
    }
}

impl From<u64> for Scalar {
    fn from(value: u64) -> Self {
        Scalar::new(value)
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({})", self.0)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An element of the order-`q` subgroup of `Z_p^*`.
///
/// # Example
///
/// ```
/// use mahimahi_crypto::group::{GroupElement, Scalar};
///
/// let g = GroupElement::generator();
/// let x = Scalar::new(42);
/// let y = Scalar::new(17);
/// assert_eq!(g.pow(x).pow(y), g.pow(x * y));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupElement(u64);

impl GroupElement {
    /// The group identity.
    pub const IDENTITY: GroupElement = GroupElement(1);

    /// Returns the fixed subgroup generator.
    pub const fn generator() -> Self {
        GroupElement(GENERATOR)
    }

    /// Interprets `value` as a group element if it lies in the subgroup.
    ///
    /// Membership test: `v^q mod p == 1` and `v != 0`.
    pub fn from_canonical(value: u64) -> Option<Self> {
        if value == 0 || value >= MODULUS_P {
            return None;
        }
        if pow_mod(value, ORDER_Q, MODULUS_P) == 1 {
            Some(GroupElement(value))
        } else {
            None
        }
    }

    /// Returns the canonical representative in `[1, p)`.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The group operation (modular multiplication).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: GroupElement) -> GroupElement {
        GroupElement(mul_mod(self.0, rhs.0, MODULUS_P))
    }

    /// Exponentiation by a scalar.
    pub fn pow(self, exp: Scalar) -> GroupElement {
        GroupElement(pow_mod(self.0, exp.value(), MODULUS_P))
    }

    /// The inverse element.
    pub fn inverse(self) -> GroupElement {
        GroupElement(pow_mod(self.0, MODULUS_P - 2, MODULUS_P))
    }

    /// Hashes domain-separated parts into the subgroup (as `g^H(parts)`).
    pub fn hash_to_group(parts: &[&[u8]]) -> GroupElement {
        GroupElement::generator().pow(Scalar::hash_to_scalar(parts))
    }

    /// Serializes the element as 8 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }

    /// Deserializes an element, validating subgroup membership.
    pub fn from_bytes(bytes: &[u8; 8]) -> Option<Self> {
        GroupElement::from_canonical(u64::from_le_bytes(*bytes))
    }
}

impl Mul for GroupElement {
    type Output = GroupElement;
    fn mul(self, rhs: GroupElement) -> GroupElement {
        GroupElement::mul(self, rhs)
    }
}

impl fmt::Debug for GroupElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GroupElement({})", self.0)
    }
}

impl fmt::Display for GroupElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameters_are_consistent() {
        assert_eq!(MODULUS_P, 2 * ORDER_Q + 1);
        // Generator is in the subgroup and non-trivial.
        assert_eq!(pow_mod(GENERATOR, ORDER_Q, MODULUS_P), 1);
        assert_ne!(GENERATOR, 1);
    }

    #[test]
    fn generator_has_order_q() {
        let g = GroupElement::generator();
        assert_eq!(g.pow(Scalar::new(ORDER_Q)), GroupElement::IDENTITY);
        assert_ne!(g.pow(Scalar::new(1)), GroupElement::IDENTITY);
    }

    #[test]
    fn scalar_field_axioms_spot_check() {
        let a = Scalar::new(123_456_789);
        let b = Scalar::new(ORDER_Q - 5);
        let c = Scalar::new(987_654_321);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!((a * b) * c, a * (b * c));
        assert_eq!(a * (b + c), a * b + a * c);
        assert_eq!(a + (-a), Scalar::ZERO);
        assert_eq!(a - a, Scalar::ZERO);
    }

    #[test]
    fn scalar_inverse() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let a = Scalar::random(&mut rng);
            if a == Scalar::ZERO {
                continue;
            }
            assert_eq!(a * a.inverse().unwrap(), Scalar::ONE);
        }
        assert_eq!(Scalar::ZERO.inverse(), None);
    }

    #[test]
    fn group_element_round_trip() {
        let g = GroupElement::generator().pow(Scalar::new(999));
        assert_eq!(GroupElement::from_bytes(&g.to_bytes()), Some(g));
    }

    #[test]
    fn from_canonical_rejects_non_members() {
        // 2 is a generator of the full group Z_p^*, not the subgroup of
        // quadratic residues (2 is a non-residue mod this p since p ≡ 7 mod 8
        // would make it a residue; verify dynamically instead).
        let two_in_subgroup = pow_mod(2, ORDER_Q, MODULUS_P) == 1;
        assert_eq!(GroupElement::from_canonical(2).is_some(), two_in_subgroup);
        assert!(GroupElement::from_canonical(0).is_none());
        assert!(GroupElement::from_canonical(MODULUS_P).is_none());
    }

    #[test]
    fn inverse_element() {
        let x = GroupElement::generator().pow(Scalar::new(31337));
        assert_eq!(x.mul(x.inverse()), GroupElement::IDENTITY);
    }

    #[test]
    fn hash_to_group_is_deterministic_and_in_subgroup() {
        let a = GroupElement::hash_to_group(&[b"round", &7u64.to_le_bytes()]);
        let b = GroupElement::hash_to_group(&[b"round", &7u64.to_le_bytes()]);
        assert_eq!(a, b);
        assert!(GroupElement::from_canonical(a.value()).is_some());
        let c = GroupElement::hash_to_group(&[b"round", &8u64.to_le_bytes()]);
        assert_ne!(a, c);
    }

    #[test]
    fn hash_to_scalar_distributes() {
        // Not a statistical test, just that distinct inputs map to distinct
        // outputs for a handful of cases.
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..100 {
            let s = Scalar::hash_to_scalar(&[b"x", &i.to_le_bytes()]);
            assert!(seen.insert(s.value()));
        }
    }

    proptest! {
        #[test]
        fn prop_scalar_add_commutes(a in 0u64..ORDER_Q, b in 0u64..ORDER_Q) {
            prop_assert_eq!(Scalar::new(a) + Scalar::new(b), Scalar::new(b) + Scalar::new(a));
        }

        #[test]
        fn prop_scalar_mul_commutes(a in 0u64..ORDER_Q, b in 0u64..ORDER_Q) {
            prop_assert_eq!(Scalar::new(a) * Scalar::new(b), Scalar::new(b) * Scalar::new(a));
        }

        #[test]
        fn prop_sub_is_add_neg(a in 0u64..ORDER_Q, b in 0u64..ORDER_Q) {
            let (a, b) = (Scalar::new(a), Scalar::new(b));
            prop_assert_eq!(a - b, a + (-b));
        }

        #[test]
        fn prop_exponent_laws(x in 0u64..ORDER_Q, y in 0u64..ORDER_Q) {
            let g = GroupElement::generator();
            let (x, y) = (Scalar::new(x), Scalar::new(y));
            prop_assert_eq!(g.pow(x).mul(g.pow(y)), g.pow(x + y));
            prop_assert_eq!(g.pow(x).pow(y), g.pow(x * y));
        }
    }
}
