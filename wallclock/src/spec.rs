//! The benchmark's fixed vocabulary: workloads, metrics, bounds.
//!
//! `BENCHMARK.json` at the repository root states the same names for the
//! driver; a unit test holds the two together.

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// One batch per connection every [`BATCH_INTERVAL_NS`], due on schedule
    /// whatever the cluster does.
    Open,
    /// This many batches in flight per connection; a replacement leaves when
    /// a batch's `Committed` notice (or full refusal) arrives.
    Closed { outstanding: usize },
}

/// One workload: a traffic shape plus a fault schedule.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub load: Load,
    pub txs_per_batch: usize,
    pub tx_bytes: usize,
    /// Authorities that are bound and meshed but never started.
    pub silent: &'static [u32],
}

/// Client connections: validators 0 and 1, one generator thread.
pub const CONNECTIONS: usize = 2;
/// Committee size of every workload.
pub const VALIDATORS: usize = 4;
/// Open-loop batch spacing per connection (100 batches/s).
pub const BATCH_INTERVAL_NS: u64 = 10_000_000;
/// Load on, nothing measured, at the start of every episode.
pub const WARMUP_NS: u64 = 2_000_000_000;
/// Closed loop: a freed slot waits a seeded time up to this before it sends
/// its next batch.
pub const THINK_MAX_NS: u64 = 200_000_000;
/// How long after the window a measured batch may still commit.
pub const DRAIN_LIMIT_NS: u64 = 10_000_000_000;
/// A generator later than this (p99 of send − due) ran starved: the run is
/// invalid, not slow. One batch interval: beyond it the generator is a whole
/// batch behind its schedule. (README.md: the 2–5 ms measured on the
/// reference machine are the scheduler's wake-up delay under saturation.)
pub const MAX_LATE_P99_MS: f64 = 10.0;
/// Episodes whose generator ran late are measured again, at most this many
/// per run: past it the lateness is the cluster's doing, not a passing stall
/// of the host, and the run is reported invalid.
pub const MAX_STARVED_EPISODES: usize = 2;
/// Fresh clusters per run. Every metric is the median over the episodes,
/// `setup_s` included, so one run sets up this many times.
pub const EPISODES: usize = 4;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady",
        why: "open loop 4,000 tx/s of 512 B, all 4 up: small blocks, so per-round and per-block work dominates",
        load: Load::Open,
        txs_per_batch: 20,
        tx_bytes: 512,
        silent: &[],
    },
    Workload {
        name: "small-tx",
        why: "open loop 8,000 tx/s of 32 B: per-transaction work dominates and bytes barely matter",
        load: Load::Open,
        txs_per_batch: 40,
        tx_bytes: 32,
        silent: &[],
    },
    Workload {
        name: "saturate",
        why: "closed loop, 8,000 tx of 512 B in flight: full blocks, per-byte work dominates; its committed_tps is capacity",
        load: Load::Closed { outstanding: 16 },
        txs_per_batch: 250,
        tx_bytes: 512,
        silent: &[],
    },
    Workload {
        name: "crash-fault",
        why: "steady's schedule with validator 3 never started: skip/indirect commit paths, quorum of exactly 3, redial of a dead peer",
        load: Load::Open,
        txs_per_batch: 20,
        tx_bytes: 512,
        silent: &[3],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction; end-to-end metrics also carry the
/// share of the parent's median by which they may worsen.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    gated(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    gated(name, unit, Better::Higher, 0.0)
}

/// What a user of the cluster sees. README.md justifies each bound by the
/// spread measured on the reference machine.
pub const END_TO_END: [Metric; 6] = [
    gated("committed_tps", "tx/s", Better::Higher, 0.20),
    gated("commit_latency_p50_ms", "ms", Better::Lower, 0.25),
    gated("commit_latency_p95_ms", "ms", Better::Lower, 0.25),
    gated("cpu_ms_per_ktx", "ms", Better::Lower, 0.20),
    gated("peak_rss_mb", "MB", Better::Lower, 0.25),
    gated("setup_s", "s", Better::Lower, 0.25),
];

/// Single-layer numbers, ungated. Group A is observed from outside during
/// the run; group B comes from replaying the run's own blocks through each
/// layer's public functions.
pub const PER_LAYER: [Metric; 55] = [
    // Group A — node
    higher("node.rounds_per_s", "1/s"),
    lower("node.commit_latency_rounds", "count"),
    lower("node.admission_rtt_p50_ms", "ms"),
    higher("node.txs_per_block", "count"),
    lower("node.blocks_per_commit", "count"),
    higher("node.leaders_per_s", "1/s"),
    lower("node.latency_drift_ratio", "ratio"),
    lower("node.commit_latency_p99_ms", "ms"),
    lower("node.cpu_sys_share", "ratio"),
    lower("node.threads", "count"),
    lower("node.ctx_switches_per_ktx", "count"),
    // Group A — core
    lower("core.admission.verify_peak_depth", "count"),
    lower("core.admission.rejected", "count"),
    lower("core.mempool.peak_occupancy", "count"),
    lower("core.mempool.rejected_full", "count"),
    // Group A — telemetry
    lower("telemetry.stage.verified_p50_ms", "ms"),
    lower("telemetry.stage.resequenced_p50_ms", "ms"),
    lower("telemetry.stage.sequenced_p50_ms", "ms"),
    // Group A — wal
    lower("wal.file_mb_end", "MB"),
    lower("wal.bytes_per_tx", "B"),
    // Group A — the generator's own health
    lower("gen.late_p99_ms", "ms"),
    higher("gen.batches_sent", "count"),
    lower("gen.cpu_share", "ratio"),
    lower("gen.failed_share", "ratio"),
    lower("gen.host_steal_share", "ratio"),
    lower("gen.episodes_discarded", "count"),
    // Group B — types
    lower("types.encode_ns_per_block", "ns"),
    lower("types.decode_ns_per_block", "ns"),
    lower("types.decode_allocs_per_tx", "count"),
    lower("types.wire_bytes_per_tx", "B"),
    // Group B — crypto
    lower("crypto.block_verify_us_per_block", "us"),
    lower("crypto.digest_ns_per_tx", "ns"),
    // Group B — core
    higher("core.admission.frames_per_s", "1/s"),
    lower("core.mempool.submit_ns_per_tx", "ns"),
    lower("core.mempool.next_payload_ns_per_tx", "ns"),
    lower("core.mempool.allocs_per_tx", "count"),
    // Group B — dag
    lower("dag.insert_ns_per_block", "ns"),
    // Group B — core, the commit rule
    lower("core.committer.try_decide_us_per_round", "us"),
    lower("core.committer.skip_share", "ratio"),
    lower("core.sequencer.try_commit_us_per_round", "us"),
    lower("core.execution.apply_ns_per_tx", "ns"),
    // Group B — wal
    lower("wal.append_ns_per_block", "ns"),
    lower("wal.sync_us_p50", "us"),
    // Group B — transport
    lower("transport.one_way_us_p50", "us"),
    higher("transport.broadcast_mb_per_s", "MB/s"),
    // Group B — node
    lower("node.attributed_cpu_ms_per_ktx", "ms"),
    lower("node.unattributed_cpu_share", "ratio"),
    // The traced run's own end-to-end numbers: their distance from the
    // untraced run's is the tracing overhead.
    higher("traced.committed_tps", "tx/s"),
    lower("traced.commit_latency_p50_ms", "ms"),
    lower("traced.commit_latency_p95_ms", "ms"),
    lower("traced.cpu_ms_per_ktx", "ms"),
    lower("traced.peak_rss_mb", "MB"),
    lower("traced.setup_s", "s"),
    higher("trace.blocks_replayed", "count"),
    higher("trace.spans", "count"),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|metric| metric.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_driver_contract() {
        let mut seen = HashSet::new();
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "{} used twice", metric.name);
            assert!(
                !metric.unit.is_empty()
                    && metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                metric.unit
            );
        }
        for workload in &WORKLOADS {
            assert!(name_ok(workload.name) && seen.insert(workload.name));
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
        for metric in &END_TO_END {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_states_the_same_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<Vec<(String, Json)>> {
            file.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|entry| entry.members().to_vec())
                .collect()
        };
        let workloads: Vec<_> = WORKLOADS
            .iter()
            .map(|w| {
                vec![
                    ("name".to_string(), Json::text(w.name)),
                    ("why".to_string(), Json::text(w.why)),
                ]
            })
            .collect();
        assert_eq!(listed("workloads"), workloads);
        let row = |m: &Metric, with_bound: bool| {
            let mut row = vec![
                ("name".to_string(), Json::text(m.name)),
                ("unit".to_string(), Json::text(m.unit)),
                ("better".to_string(), Json::text(m.better.word())),
            ];
            if with_bound {
                row.push(("bound".to_string(), Json::Number(m.bound)));
            }
            row
        };
        let gated: Vec<_> = END_TO_END.iter().map(|m| row(m, true)).collect();
        assert_eq!(listed("end_to_end"), gated);
        let layers: Vec<_> = PER_LAYER.iter().map(|m| row(m, false)).collect();
        assert_eq!(listed("per_layer"), layers);
    }
}
