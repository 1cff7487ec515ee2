//! Verification witnesses.
//!
//! Input handling is split into a stateless *verify* stage (signatures,
//! coin-share proofs, structural checks — embarrassingly parallel) and a
//! sequential *apply* stage (the deterministic engine core). [`Verified`]
//! is the type-level receipt passed between the two: holding a
//! `Verified<T>` means the expensive checks on `T` already ran and passed,
//! so the apply stage does not run them again.
//!
//! The wrapper is deliberately minimal: it adds no runtime state, and the
//! only way to construct one is [`Verified::vouch`]. Outside tests the one
//! call is in `mahimahi_core::admission::verify`, the one verifier of peer
//! input, so an apply stage that takes a `Verified` sees only what that
//! function passed.

use std::fmt;
use std::ops::Deref;

/// A witness that `T` passed the verify stage.
///
/// # Example
///
/// ```
/// use mahimahi_types::Verified;
///
/// // ... after checking the value ...
/// let witness = Verified::vouch(42u64);
/// assert_eq!(*witness, 42);
/// assert_eq!(witness.into_inner(), 42);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Verified<T>(T);

impl<T> Verified<T> {
    /// Wraps a value the caller has just verified.
    ///
    /// This is a *promise*, not a check: call it only at a point where the
    /// relevant validation (signature, proof, structural) has succeeded.
    /// Keeping the constructor explicit — rather than a blanket `From` —
    /// makes every discharge site greppable.
    pub fn vouch(value: T) -> Self {
        Verified(value)
    }

    /// Borrows the verified value.
    pub fn get(&self) -> &T {
        &self.0
    }

    /// Unwraps the verified value.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> Deref for Verified<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: fmt::Debug> fmt::Debug for Verified<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Verified(")?;
        self.0.fmt(f)?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_is_transparent() {
        let witness = Verified::vouch(String::from("checked"));
        assert_eq!(witness.get(), "checked");
        assert_eq!(witness.len(), 7); // via Deref
        assert_eq!(witness.into_inner(), "checked");
    }

    #[test]
    fn debug_marks_the_witness() {
        let repr = format!("{:?}", Verified::vouch(5u8));
        assert_eq!(repr, "Verified(5)");
    }
}
