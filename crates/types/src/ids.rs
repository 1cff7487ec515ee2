//! Identifiers for positions in the DAG.

use std::fmt;

/// Implements `Debug` by forwarding to `Display` (log-friendly identifiers).
macro_rules! fmt_debug_as_display {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Display::fmt(self, f)
        }
    };
}

/// A logical round number of the DAG (the paper's `R`).
///
/// Round 0 holds the genesis blocks; honest validators propose exactly one
/// block per round from round 1 onward.
pub type Round = u64;

/// The zero-based index of a validator within a [`Committee`].
///
/// The paper writes validators as `v0, v1, …`; an `AuthorityIndex` is that
/// subscript. Indexes are compact so that per-authority state can live in
/// vectors.
///
/// [`Committee`]: crate::committee::Committee
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AuthorityIndex(pub u32);

impl AuthorityIndex {
    /// Validated construction: the index must fall inside a committee of
    /// `committee_size` authorities.
    ///
    /// Wire-facing ingestion paths use this instead of the unchecked `From`
    /// conversions so an out-of-committee id is rejected at the boundary,
    /// before it can index any committee-dense structure.
    ///
    /// # Example
    ///
    /// ```
    /// use mahimahi_types::AuthorityIndex;
    ///
    /// assert_eq!(AuthorityIndex::checked(3, 4), Ok(AuthorityIndex(3)));
    /// assert!(AuthorityIndex::checked(4, 4).is_err());
    /// ```
    pub fn checked(
        index: u64,
        committee_size: usize,
    ) -> Result<Self, crate::dense::InvalidAuthority> {
        if index < committee_size as u64 {
            Ok(AuthorityIndex(index as u32))
        } else {
            Err(crate::dense::InvalidAuthority {
                index,
                committee_size,
            })
        }
    }

    /// Returns the index as a `usize` for vector indexing.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns the index as a `u64` (coin arithmetic).
    pub fn as_u64(self) -> u64 {
        self.0 as u64
    }
}

impl From<u32> for AuthorityIndex {
    fn from(value: u32) -> Self {
        AuthorityIndex(value)
    }
}

impl From<usize> for AuthorityIndex {
    fn from(value: usize) -> Self {
        AuthorityIndex(u32::try_from(value).expect("authority index fits in u32"))
    }
}

impl fmt::Display for AuthorityIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for AuthorityIndex {
    fmt_debug_as_display!();
}

/// A leader slot: the `(validator, round)` tuple of Section 3.1.
///
/// A slot may be empty (the validator never produced a block), contain one
/// block, or — for Byzantine validators — several equivocating blocks. The
/// decision rules classify slots as commit or skip.
///
/// # Example
///
/// ```
/// use mahimahi_types::{AuthorityIndex, Slot};
///
/// let slot = Slot::new(4, AuthorityIndex(2));
/// assert_eq!(slot.to_string(), "S(v2,4)");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Slot {
    /// The round of the slot.
    pub round: Round,
    /// The validator owning the slot.
    pub authority: AuthorityIndex,
}

impl Slot {
    /// Creates a slot for `authority` at `round`.
    pub fn new(round: Round, authority: AuthorityIndex) -> Self {
        Slot { round, authority }
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S({},{})", self.authority, self.round)
    }
}

impl fmt::Debug for Slot {
    fmt_debug_as_display!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authority_display() {
        assert_eq!(AuthorityIndex(3).to_string(), "v3");
        assert_eq!(format!("{:?}", AuthorityIndex(3)), "v3");
    }

    #[test]
    fn authority_conversions() {
        let authority = AuthorityIndex::from(5usize);
        assert_eq!(authority.as_usize(), 5);
        assert_eq!(authority.as_u64(), 5);
        assert_eq!(AuthorityIndex::from(5u32), authority);
    }

    #[test]
    fn slot_ordering_is_round_major() {
        let early = Slot::new(1, AuthorityIndex(3));
        let late = Slot::new(2, AuthorityIndex(0));
        assert!(early < late);
    }

    #[test]
    fn slot_display() {
        assert_eq!(Slot::new(7, AuthorityIndex(1)).to_string(), "S(v1,7)");
    }
}
