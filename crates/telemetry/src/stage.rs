//! Commit-path stage tracing.
//!
//! Every transaction batch (and every block) crosses eight observable
//! pipeline boundaries on its way from a client socket to a commit receipt:
//!
//! ```text
//! ingress-received → verify-dequeued → verified → resequenced
//!     → engine-applied → sequenced → executed → receipt-sent
//! ```
//!
//! Each stage's histogram records the time an item spent *in* that stage —
//! the delta between the stage's boundary and the previous one — so the
//! per-stage p99s decompose the end-to-end latency. Stages that are
//! synchronous in the current architecture (execution applies inside the
//! same `handle` call that sequences, receipts are emitted immediately
//! after) record honest zeros; the histogram exists so an asynchronous
//! implementation lands with its instrumentation already wired.
//!
//! Drivers record the ingress/verify/resequence boundaries (they own the
//! clocks and the queues); the engine reports the sequenced/executed/
//! receipt boundaries through its `TelemetrySink` without ever reading a
//! clock itself.

use std::sync::Arc;

use crate::metrics::{Histogram, HistogramSnapshot};
use crate::registry::Registry;

/// Number of pipeline stages.
pub const STAGE_COUNT: usize = 8;

/// One commit-path pipeline stage (see the module docs for the sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// A frame or batch arrived at the validator (network or client edge).
    IngressReceived = 0,
    /// The item left the ingress queue and entered the verify stage.
    VerifyDequeued = 1,
    /// Signature/structure verification completed.
    Verified = 2,
    /// The item was released by the resequencer in submission order.
    Resequenced = 3,
    /// The sequential engine core applied the item.
    EngineApplied = 4,
    /// Every accepted transaction of a client batch was linearized into
    /// the committed total order (one sample per batch: receive → the
    /// batch's commit note closing).
    Sequenced = 5,
    /// The execution layer applied the committed sub-DAG.
    Executed = 6,
    /// The commit receipt left for the submitting client.
    ReceiptSent = 7,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::IngressReceived,
        Stage::VerifyDequeued,
        Stage::Verified,
        Stage::Resequenced,
        Stage::EngineApplied,
        Stage::Sequenced,
        Stage::Executed,
        Stage::ReceiptSent,
    ];

    /// The stage's snake_case name (also its metric-name suffix).
    pub fn name(self) -> &'static str {
        match self {
            Stage::IngressReceived => "ingress_received",
            Stage::VerifyDequeued => "verify_dequeued",
            Stage::Verified => "verified",
            Stage::Resequenced => "resequenced",
            Stage::EngineApplied => "engine_applied",
            Stage::Sequenced => "sequenced",
            Stage::Executed => "executed",
            Stage::ReceiptSent => "receipt_sent",
        }
    }
}

/// Per-stage histogram metric names, in [`Stage::ALL`] order (static so the
/// registry's `&'static str` keys need no leaking or allocation).
const STAGE_METRIC_NAMES: [&str; STAGE_COUNT] = [
    "mahimahi_stage_ingress_received_seconds",
    "mahimahi_stage_verify_dequeued_seconds",
    "mahimahi_stage_verified_seconds",
    "mahimahi_stage_resequenced_seconds",
    "mahimahi_stage_engine_applied_seconds",
    "mahimahi_stage_sequenced_seconds",
    "mahimahi_stage_executed_seconds",
    "mahimahi_stage_receipt_sent_seconds",
];

const STAGE_METRIC_HELP: [&str; STAGE_COUNT] = [
    "Time from wire arrival to ingress pickup",
    "Time waiting in the ingress queue before the verify stage",
    "Time spent in signature/structure verification",
    "Time parked in the resequencer awaiting submission order",
    "Time from resequencer release to engine apply",
    "Time from engine apply to commit linearization",
    "Time from commit linearization to execution apply",
    "Time from execution apply to receipt emission",
];

/// One histogram per pipeline stage, registered in a [`Registry`].
///
/// Cloneable handle set: recording is lock-free through the shared
/// histogram `Arc`s, so a driver can hand one `StageStats` to its event
/// loop and another to the engine's telemetry sink.
#[derive(Clone)]
pub struct StageStats {
    histograms: [Arc<Histogram>; STAGE_COUNT],
}

impl StageStats {
    /// Registers the eight per-stage histograms in `registry` (get-or-create
    /// by name: several `StageStats` over one registry share histograms).
    pub fn new(registry: &Registry) -> Self {
        let histograms = std::array::from_fn(|index| {
            registry.histogram(STAGE_METRIC_NAMES[index], STAGE_METRIC_HELP[index])
        });
        StageStats { histograms }
    }

    /// Creates stats over a private throwaway registry (tests, default
    /// sinks that still want recording).
    pub fn detached() -> Self {
        StageStats::new(&Registry::new())
    }

    /// Records that an item spent `micros` in `stage`.
    pub fn record(&self, stage: Stage, micros: u64) {
        self.histograms[stage as usize].record(micros);
    }

    /// Point-in-time copy of all eight stage histograms.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            stages: std::array::from_fn(|index| self.histograms[index].snapshot()),
        }
    }
}

impl std::fmt::Debug for StageStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageStats").finish_non_exhaustive()
    }
}

/// Immutable per-stage histogram snapshots, mergeable across validators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSnapshot {
    stages: [HistogramSnapshot; STAGE_COUNT],
}

impl Default for StageSnapshot {
    fn default() -> Self {
        StageSnapshot {
            stages: [HistogramSnapshot::default(); STAGE_COUNT],
        }
    }
}

impl StageSnapshot {
    /// The histogram snapshot for `stage`.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// Merges `other` stage-wise (associative, commutative).
    pub fn merge(&mut self, other: &StageSnapshot) {
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.merge(theirs);
        }
    }

    /// Whether every stage has at least one sample.
    pub fn all_stages_populated(&self) -> bool {
        self.stages.iter().all(|stage| !stage.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_record_into_their_own_histograms() {
        let registry = Registry::new();
        let stats = StageStats::new(&registry);
        for (index, stage) in Stage::ALL.iter().enumerate() {
            stats.record(*stage, (index as u64 + 1) * 1000);
        }
        let snapshot = stats.snapshot();
        assert!(snapshot.all_stages_populated());
        assert_eq!(snapshot.stage(Stage::IngressReceived).count(), 1);
        assert_eq!(snapshot.stage(Stage::ReceiptSent).sum_micros(), 8000);
        // The registry rendered all eight series.
        let text = registry.render_prometheus();
        for name in STAGE_METRIC_NAMES {
            assert!(text.contains(name), "{name} missing from exposition");
        }
    }

    #[test]
    fn clones_share_the_underlying_histograms() {
        let registry = Registry::new();
        let a = StageStats::new(&registry);
        let b = a.clone();
        a.record(Stage::Sequenced, 10);
        b.record(Stage::Sequenced, 20);
        assert_eq!(a.snapshot().stage(Stage::Sequenced).count(), 2);
    }

    #[test]
    fn snapshots_merge_stage_wise() {
        let a = StageStats::detached();
        a.record(Stage::Verified, 100);
        let b = StageStats::detached();
        b.record(Stage::Verified, 200);
        b.record(Stage::Executed, 0);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.stage(Stage::Verified).count(), 2);
        assert_eq!(merged.stage(Stage::Executed).count(), 1);
        assert!(!merged.all_stages_populated());
    }
}
