//! Dependency-free, allocation-light metrics core.
//!
//! Every observable quantity in the system flows through this crate:
//!
//! - [`Gauge`] — an instantaneous `u64` level (queue depths, pool
//!   occupancy).
//! - [`Histogram`] — a fixed-bucket log-scale (powers-of-two microseconds)
//!   latency distribution with an exact-maximum overflow bucket.
//! - [`LatencyStats`] / [`LatencySnapshot`] — the histogram's exact-sample
//!   sibling for offline reports where every sample fits in memory.
//! - [`Registry`] — the name → metric table behind the hand-rolled
//!   Prometheus text exposition ([`Registry::render_prometheus`]).
//! - [`Stage`] / [`StageStats`] — commit-path stage tracing: one histogram
//!   per pipeline stage, from client ingress to receipt emission.
//!
//! # Design constraints
//!
//! The hot path is a single relaxed atomic operation: metric handles are
//! `Arc`s handed out once at registration ([`Registry::gauge`] and
//! [`Registry::histogram`] take a lock; recording never does). The crate
//! has **no dependencies** and
//! never reads a clock — all durations are microsecond `u64`s supplied by
//! the caller, so the deterministic simulator feeds virtual time and the
//! TCP node feeds wall time through the same types. Nothing in here can perturb consensus: recording returns no
//! value a caller could branch on.

mod metrics;
mod registry;
mod stage;
mod stats;

pub use metrics::{Gauge, Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use registry::Registry;
pub use stage::{Stage, StageSnapshot, StageStats, STAGE_COUNT};
pub use stats::{LatencySnapshot, LatencyStats};

/// Microseconds per second (the crate's only unit conversion; durations
/// are microsecond `u64`s everywhere, matching `mahimahi_net::time`).
pub const SECOND_MICROS: u64 = 1_000_000;

/// Renders a microsecond duration as fractional seconds.
pub fn as_secs_f64(micros: u64) -> f64 {
    micros as f64 / SECOND_MICROS as f64
}
