//! Propagation-delay models.

use rand::Rng;

use crate::time::{self, Time};

/// A model of one-way propagation delay between two nodes.
pub trait LatencyModel: Send + Sync {
    /// Samples the one-way delay for a message `from → to`.
    fn sample<R: Rng + ?Sized>(&self, from: usize, to: usize, rng: &mut R) -> Time
    where
        Self: Sized;

    /// The mean one-way delay `from → to` (used by analytical models).
    fn mean(&self, from: usize, to: usize) -> Time;
}

/// Uniform delay in `[min, max]`, independent of endpoints. Used by unit
/// tests and the pure-asynchrony experiments.
#[derive(Debug, Clone, Copy)]
pub struct UniformLatency {
    min: Time,
    max: Time,
}

impl UniformLatency {
    /// Creates a uniform model over `[min, max]` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: Time, max: Time) -> Self {
        assert!(min <= max, "empty latency interval");
        UniformLatency { min, max }
    }
}

impl LatencyModel for UniformLatency {
    fn sample<R: Rng + ?Sized>(&self, _from: usize, _to: usize, rng: &mut R) -> Time {
        rng.gen_range(self.min..=self.max)
    }

    fn mean(&self, _from: usize, _to: usize) -> Time {
        (self.min + self.max) / 2
    }
}

/// The five AWS regions of the paper's evaluation (Section 5.1), with the
/// one-way delay matrix between them in milliseconds.
///
/// Values are half the publicly reported inter-region round-trip times
/// (cloudping-style measurements), rounded; intra-region delay is ~1 ms.
/// Absolute accuracy is not required — the figures compare protocols on the
/// *same* substrate.
pub const AWS_REGIONS: [(&str, [f64; 5]); 5] = [
    ("us-east-2 (Ohio)", [1.0, 25.0, 117.0, 97.0, 47.0]),
    ("us-west-2 (Oregon)", [25.0, 1.0, 138.0, 72.0, 68.0]),
    ("af-south-1 (Cape Town)", [117.0, 138.0, 2.0, 134.0, 74.0]),
    ("ap-east-1 (Hong Kong)", [97.0, 72.0, 134.0, 1.0, 88.0]),
    ("eu-south-1 (Milan)", [47.0, 68.0, 74.0, 88.0, 1.0]),
];

/// Geo-replicated delay model: nodes are assigned round-robin to the five
/// AWS regions (as the paper distributes validators "as equally as
/// possible") and delays follow the region matrix plus multiplicative and
/// exponential-tail jitter.
#[derive(Debug, Clone)]
pub struct GeoLatency {
    /// `region[i]` = region index of node `i`.
    assignment: Vec<usize>,
    /// Mean one-way delay between regions, microseconds.
    matrix: [[Time; 5]; 5],
    /// Multiplicative jitter half-width (e.g. 0.05 → ±5%).
    jitter: f64,
    /// Mean of the additive exponential tail, microseconds.
    tail_mean: Time,
}

impl GeoLatency {
    /// Creates the paper's five-region WAN for `nodes` validators.
    pub fn aws(nodes: usize) -> Self {
        let assignment = (0..nodes).map(|i| i % AWS_REGIONS.len()).collect();
        let mut matrix = [[0; 5]; 5];
        for (i, (_, row)) in AWS_REGIONS.iter().enumerate() {
            for (j, &ms) in row.iter().enumerate() {
                matrix[i][j] = time::from_millis_f64(ms);
            }
        }
        GeoLatency {
            assignment,
            matrix,
            jitter: 0.05,
            tail_mean: time::from_millis(2),
        }
    }

    /// Overrides the jitter parameters (for sensitivity experiments).
    pub fn with_jitter(mut self, jitter: f64, tail_mean: Time) -> Self {
        self.jitter = jitter;
        self.tail_mean = tail_mean;
        self
    }

    /// The region index of `node`.
    pub fn region_of(&self, node: usize) -> usize {
        self.assignment[node]
    }

    /// The region display name of `node`.
    pub fn region_name(&self, node: usize) -> &'static str {
        AWS_REGIONS[self.assignment[node]].0
    }
}

impl LatencyModel for GeoLatency {
    fn sample<R: Rng + ?Sized>(&self, from: usize, to: usize, rng: &mut R) -> Time {
        let base = self.matrix[self.assignment[from]][self.assignment[to]] as f64;
        // Multiplicative jitter uniform in [1 − j, 1 + j].
        let factor = 1.0 + self.jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        // Additive exponential tail via inverse transform (occasional slow
        // packets; keeps the distribution right-skewed like real WANs).
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let tail = -(self.tail_mean as f64) * u.ln();
        (base * factor + tail).round() as Time
    }

    fn mean(&self, from: usize, to: usize) -> Time {
        self.matrix[self.assignment[from]][self.assignment[to]] + self.tail_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let model = UniformLatency::new(100, 200);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let sample = model.sample(0, 1, &mut rng);
            assert!((100..=200).contains(&sample));
        }
        assert_eq!(model.mean(0, 1), 150);
    }

    #[test]
    #[should_panic(expected = "empty latency interval")]
    fn uniform_rejects_inverted_bounds() {
        let _ = UniformLatency::new(5, 1);
    }

    #[test]
    fn matrix_is_symmetric() {
        for (i, (_, row)) in AWS_REGIONS.iter().enumerate() {
            for (j, delay) in row.iter().enumerate() {
                assert_eq!(*delay, AWS_REGIONS[j].1[i], "{i},{j}");
            }
        }
    }

    #[test]
    fn geo_assignment_is_round_robin() {
        let model = GeoLatency::aws(12);
        assert_eq!(model.region_of(0), 0);
        assert_eq!(model.region_of(4), 4);
        assert_eq!(model.region_of(5), 0);
        assert!(model.region_name(2).contains("Cape Town"));
    }

    #[test]
    fn geo_samples_cluster_around_the_matrix_entry() {
        let model = GeoLatency::aws(10);
        let mut rng = StdRng::seed_from_u64(7);
        // Nodes 0 (Ohio) and 2 (Cape Town): mean one-way 117 ms.
        let samples: Vec<Time> = (0..2000).map(|_| model.sample(0, 2, &mut rng)).collect();
        let mean = samples.iter().sum::<Time>() as f64 / samples.len() as f64;
        let expected = time::from_millis(117) as f64 + time::from_millis(2) as f64;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs expected {expected}"
        );
        // Right-skew: max well above mean, min not far below base.
        let max = *samples.iter().max().unwrap();
        assert!(max as f64 > mean * 1.05);
    }

    #[test]
    fn same_region_is_fast() {
        let model = GeoLatency::aws(10);
        let mut rng = StdRng::seed_from_u64(9);
        // Nodes 0 and 5 are both in Ohio.
        let sample = model.sample(0, 5, &mut rng);
        assert!(sample < time::from_millis(15), "intra-region {sample}");
    }

    #[test]
    fn geo_samples_are_deterministic_per_seed() {
        let model = GeoLatency::aws(10);
        let a: Vec<Time> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..10).map(|_| model.sample(1, 3, &mut rng)).collect()
        };
        let b: Vec<Time> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..10).map(|_| model.sample(1, 3, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
