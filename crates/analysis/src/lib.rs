//! Closed-form models from the paper's latency analysis (Appendix C).
//!
//! The paper derives the probability that a round elects at least one
//! directly-committable leader slot under each network model:
//!
//! - **Lemma 13** (`w = 5`, asynchronous model): at least `2f + 1` of the
//!   `3f + 1` round-`r` blocks can be directly committed, so with `ℓ`
//!   coin-elected slots the failure probability is hypergeometric:
//!   `P(no direct commit) = C(f, ℓ) / C(3f+1, ℓ)` (and zero once `ℓ > f`).
//! - **Lemma 16** (`w = 4`, asynchronous model): only one block is
//!   guaranteed committable, giving `p⋆ = ℓ / (3f + 1)` (and 1 when
//!   `ℓ = 3f + 1`).
//! - **Lemma 17/18** (`w = 4`, random network model): every block is a vote
//!   for every block two rounds below with probability at least
//!   `1 − (3f+1)² (1 − p)^{2f+1}` where `p = (2f+1)/(3f+1)`, so direct
//!   commits happen with high probability every round.
//!
//! These functions are checked against Monte-Carlo simulation by the
//! `commit_probability` binary of the `bench` crate.

/// Binomial coefficient `C(n, k)` as `f64` (exact for the committee sizes
/// involved; stable up to n ≈ 170).
pub fn binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut result = 1.0f64;
    for i in 0..k {
        result *= (n - i) as f64 / (i + 1) as f64;
    }
    result
}

/// Lemma 13: probability that a round directly commits at least one slot in
/// the `w = 5` configuration under the asynchronous model, with `f` faults
/// and `leaders` slots per round.
///
/// # Panics
///
/// Panics if `leaders` is zero or exceeds `3f + 1`.
pub fn direct_commit_probability_w5(f: u64, leaders: u64) -> f64 {
    let n = 3 * f + 1;
    assert!(leaders >= 1 && leaders <= n, "leaders out of range");
    if leaders > f {
        return 1.0;
    }
    1.0 - binomial(f, leaders) / binomial(n, leaders)
}

/// Lemma 16: probability that a round directly commits at least one slot in
/// the `w = 4` configuration under the asynchronous model.
///
/// # Panics
///
/// Panics if `leaders` is zero or exceeds `3f + 1`.
pub fn direct_commit_probability_w4_async(f: u64, leaders: u64) -> f64 {
    let n = 3 * f + 1;
    assert!(leaders >= 1 && leaders <= n, "leaders out of range");
    leaders as f64 / n as f64
}

/// Lemma 17: upper bound on the probability that *some* round-`r` block is
/// unreachable from *some* round-`r+2` block in the random network model —
/// the failure probability of the `w = 4` every-slot-commits argument.
pub fn w4_random_unreachable_bound(f: u64) -> f64 {
    let n = (3 * f + 1) as f64;
    let p = (2 * f + 1) as f64 / n;
    n * n * (1.0 - p).powi((2 * f + 1) as i32)
}

/// Expected number of rounds between direct commits given a per-round
/// success probability `p` (geometric distribution mean `1/p`).
///
/// # Panics
///
/// Panics unless `0 < p ≤ 1`.
pub fn expected_rounds_between_direct_commits(p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "probability out of range");
    1.0 / p
}

/// Expected end-to-end commit latency in *message delays* for a transaction
/// under each protocol, in the common case (no faults):
///
/// - a transaction waits on average half a round for inclusion;
/// - Mahi-Mahi commits the including block after `w` delays when the block
///   lands in (or is covered by) a committed slot of its round — with
///   multiple leaders and slot coverage the common case is direct;
/// - Cordial Miners commits once per 5-round wave, adding an average
///   `(wave − 1) / 2` rounds of wait for the wave boundary;
/// - Tusk commits once per 3-certified-round wave at 3 delays per round,
///   adding the same boundary wait in certified rounds.
pub fn expected_commit_delays(protocol: ProtocolModel) -> f64 {
    match protocol {
        ProtocolModel::MahiMahi { wave_length } => 0.5 + wave_length as f64,
        ProtocolModel::CordialMiners { wave_length } => {
            let boundary_wait = (wave_length - 1) as f64 / 2.0;
            0.5 + boundary_wait + wave_length as f64
        }
        ProtocolModel::Tusk => {
            let boundary_wait = 1.0; // (3 − 1) / 2 certified rounds
            3.0 * (0.5 + boundary_wait + 3.0)
        }
    }
}

/// Protocol shapes for [`expected_commit_delays`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolModel {
    /// Mahi-Mahi with the given wave length (4 or 5).
    MahiMahi {
        /// Rounds per wave.
        wave_length: u64,
    },
    /// Cordial Miners with the given wave length (5 in the paper).
    CordialMiners {
        /// Rounds per wave.
        wave_length: u64,
    },
    /// Tusk (3 certified rounds per wave, 3 delays each).
    Tusk,
}

/// The asymptotic bound from Lemma 17 decays exponentially; this helper
/// reports the committee size at which the bound drops below `target`.
pub fn committee_size_for_bound(target: f64) -> u64 {
    for f in 1..200 {
        if w4_random_unreachable_bound(f) < target {
            return 3 * f + 1;
        }
    }
    601
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(4, 2), 6.0);
        assert_eq!(binomial(10, 0), 1.0);
        assert_eq!(binomial(10, 10), 1.0);
        assert_eq!(binomial(5, 7), 0.0);
        assert_eq!(binomial(31, 3), 4495.0);
    }

    #[test]
    fn lemma_13_small_committee() {
        // f = 1 (n = 4): ℓ = 1 → 1 − C(1,1)/C(4,1) = 3/4; ℓ ≥ 2 → 1.
        assert!((direct_commit_probability_w5(1, 1) - 0.75).abs() < 1e-12);
        assert_eq!(direct_commit_probability_w5(1, 2), 1.0);
        assert_eq!(direct_commit_probability_w5(1, 4), 1.0);
    }

    #[test]
    fn lemma_13_ten_nodes() {
        // f = 3 (n = 10): ℓ = 1 → 1 − 3/10 = 0.7;
        // ℓ = 2 → 1 − C(3,2)/C(10,2) = 1 − 3/45; ℓ = 3 → 1 − 1/120.
        assert!((direct_commit_probability_w5(3, 1) - 0.7).abs() < 1e-12);
        assert!((direct_commit_probability_w5(3, 2) - (1.0 - 3.0 / 45.0)).abs() < 1e-12);
        assert!((direct_commit_probability_w5(3, 3) - (1.0 - 1.0 / 120.0)).abs() < 1e-12);
        assert_eq!(direct_commit_probability_w5(3, 4), 1.0);
    }

    #[test]
    fn lemma_16_matches_closed_form() {
        assert!((direct_commit_probability_w4_async(3, 2) - 0.2).abs() < 1e-12);
        assert_eq!(direct_commit_probability_w4_async(1, 4), 1.0);
        assert!((direct_commit_probability_w4_async(16, 1) - 1.0 / 49.0).abs() < 1e-12);
    }

    #[test]
    fn lemma_17_bound_decays_with_committee_size() {
        let small = w4_random_unreachable_bound(1);
        let medium = w4_random_unreachable_bound(3);
        let large = w4_random_unreachable_bound(16);
        assert!(small > medium && medium > large);
        assert!(large < 1e-6, "f=16 bound {large}");
    }

    #[test]
    fn geometric_expectation() {
        assert_eq!(expected_rounds_between_direct_commits(1.0), 1.0);
        assert_eq!(expected_rounds_between_direct_commits(0.25), 4.0);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn geometric_rejects_zero() {
        let _ = expected_rounds_between_direct_commits(0.0);
    }

    #[test]
    fn delay_model_ordering_matches_the_paper() {
        let mm4 = expected_commit_delays(ProtocolModel::MahiMahi { wave_length: 4 });
        let mm5 = expected_commit_delays(ProtocolModel::MahiMahi { wave_length: 5 });
        let cm = expected_commit_delays(ProtocolModel::CordialMiners { wave_length: 5 });
        let tusk = expected_commit_delays(ProtocolModel::Tusk);
        assert!(mm4 < mm5 && mm5 < cm && cm < tusk);
        // Roughly the paper's ratios: Tusk ≈ 3× Mahi-Mahi-5, CM between.
        assert!(tusk / mm5 > 2.0);
        assert!(cm / mm5 > 1.3 && cm / mm5 < 2.5);
    }

    #[test]
    fn committee_size_for_tight_bound_is_reasonable() {
        let size = committee_size_for_bound(0.01);
        assert!(size <= 31, "bound met by n = {size}");
    }
}
