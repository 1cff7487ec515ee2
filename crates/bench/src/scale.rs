//! Committee-scale hot-path measurements: per-block admission and per-vote
//! quorum tally at n ∈ {4, 10, 50}.
//!
//! Its one consumer is the `committee_scale` gate binary (which writes
//! `bench-results/committee_scale.json` and enforces the CI gate). The
//! claim under test is the dense-indexing refactor: per-block cost must
//! stay near-flat as the committee grows because every per-message
//! structure is O(1) or a fixed-width bitset, and block references are
//! hashed with the digest-keyed mixer instead of SipHash.

use mahimahi_dag::{BlockStore, DagBuilder};
use mahimahi_types::{AuthorityIndex, AuthoritySet, Block, TestCommittee};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The committee sizes the scale row measures (the paper's smallest and
/// largest deployments plus the mid-size scale row).
const SCALE_COMMITTEES: [usize; 3] = [4, 10, 50];

/// The CI gate: per-block admission at n = 50 within this factor of n = 4.
pub const ADMISSION_RATIO_BUDGET: f64 = 3.0;

/// One committee size's measured per-block and per-vote costs.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Committee size.
    pub committee_size: usize,
    /// Mean nanoseconds to admit one block (full genesis parentage) into a
    /// fresh store, amortized over a complete proposal round.
    pub admission_per_block_ns: f64,
    /// Mean nanoseconds per vote of an `AuthoritySet` quorum tally.
    pub tally_per_vote_ns: f64,
}

/// `2f + 1` for `n = 3f + 1` committees (unit stake).
fn quorum(committee_size: usize) -> usize {
    2 * (committee_size - 1) / 3 + 1
}

/// One full proposal round (round 1, complete genesis parentage).
fn proposal_round(committee_size: usize) -> Vec<Arc<Block>> {
    let mut dag = DagBuilder::new(TestCommittee::new(committee_size, 5));
    dag.add_full_rounds(1);
    dag.store()
        .blocks_at_round(1)
        .into_iter()
        .cloned()
        .collect()
}

/// Mean nanoseconds per routine call with a fresh input per call.
fn mean_nanos<I, S: FnMut() -> I, R: FnMut(I)>(mut setup: S, mut routine: R) -> f64 {
    routine(setup());
    let budget = Duration::from_millis(60);
    let mut total = Duration::ZERO;
    let mut iterations = 0u64;
    while total < budget && iterations < 100_000 {
        let input = setup();
        let started = Instant::now();
        routine(input);
        total += started.elapsed();
        iterations += 1;
    }
    total.as_nanos() as f64 / iterations.max(1) as f64
}

/// Measures both hot paths at one committee size.
fn measure(committee_size: usize) -> ScalePoint {
    let blocks = proposal_round(committee_size);
    let per_round = mean_nanos(
        || BlockStore::new(committee_size, quorum(committee_size)),
        |mut store| {
            for block in &blocks {
                black_box(store.insert(Arc::clone(block)).unwrap());
            }
        },
    );
    let threshold = quorum(committee_size);
    let per_tally = mean_nanos(
        || (),
        |()| {
            let mut votes = AuthoritySet::new();
            let mut reached = 0usize;
            for voter in 0..committee_size {
                votes.insert(AuthorityIndex(voter as u32));
                if votes.len() >= threshold {
                    reached += 1;
                }
            }
            black_box((votes, reached));
        },
    );
    ScalePoint {
        committee_size,
        admission_per_block_ns: per_round / committee_size as f64,
        tally_per_vote_ns: per_tally / committee_size as f64,
    }
}

/// Measures every committee size of the scale row (n = 4, 10, 50).
pub fn measure_all() -> Vec<ScalePoint> {
    SCALE_COMMITTEES.iter().map(|&n| measure(n)).collect()
}

/// The n = 50 / n = 4 per-block admission growth factor.
pub fn admission_ratio(points: &[ScalePoint]) -> f64 {
    let at = |n: usize| {
        points
            .iter()
            .find(|p| p.committee_size == n)
            .expect("measured committee size")
            .admission_per_block_ns
    };
    at(50) / at(4)
}

/// The scale points as one JSON document (offline workspace: no serializer).
pub fn scale_json(points: &[ScalePoint]) -> String {
    let rows = points
        .iter()
        .map(|p| {
            format!(
                "{{\"committee_size\":{},\"admission_per_block_ns\":{:.1},\
                 \"tally_per_vote_ns\":{:.1}}}",
                p.committee_size, p.admission_per_block_ns, p.tally_per_vote_ns
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    format!(
        "{{\n  \"suite\": \"committee-scale\",\n  \"admission_n50_over_n4\": {:.2},\n  \
         \"budget\": {:.1},\n  \"points\": [\n    {}\n  ]\n}}\n",
        admission_ratio(points),
        ADMISSION_RATIO_BUDGET,
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_matches_3f_plus_1_committees() {
        assert_eq!(quorum(4), 3);
        assert_eq!(quorum(10), 7);
        assert_eq!(quorum(50), 33);
    }

    #[test]
    fn scale_json_carries_every_point_and_the_ratio() {
        let points = vec![
            ScalePoint {
                committee_size: 4,
                admission_per_block_ns: 100.0,
                tally_per_vote_ns: 10.0,
            },
            ScalePoint {
                committee_size: 10,
                admission_per_block_ns: 120.0,
                tally_per_vote_ns: 9.0,
            },
            ScalePoint {
                committee_size: 50,
                admission_per_block_ns: 190.0,
                tally_per_vote_ns: 8.0,
            },
        ];
        assert!((admission_ratio(&points) - 1.9).abs() < 1e-9);
        let json = scale_json(&points);
        assert!(json.contains("\"admission_n50_over_n4\": 1.90"));
        assert!(json.contains("\"committee_size\":50"));
    }
}
