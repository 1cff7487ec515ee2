//! The scenario conformance matrix as a test suite: every protocol ×
//! behavior × adversary cell runs deterministically (seeded) and every
//! oracle — commit-sequence agreement, one-block-per-slot, bounded commit
//! lag, liveness — must hold.
//!
//! Reproducing a failure: the assertion message carries the scenario name
//! and seed; rebuild the same cell with
//! `mahi_mahi::scenarios::full_matrix()` (names are stable) or rerun
//! `cargo run -p bench --bin scenario_matrix` for the JSON report.

use mahi_mahi::scenarios::{
    adversaries, attack_behaviors, full_matrix, protocols, run_scenario, smoke_matrix, Scenario,
};

/// Runs the given scenarios, asserting all oracles pass — and that the
/// JSON-facing per-validator culprit sets of every correct validator equal
/// the cell's ground-truth equivocator set (exact attribution, zero false
/// positives) — reporting every violation with the scenario's name and
/// seed.
fn run_cells(cells: Vec<Scenario>) {
    assert!(!cells.is_empty(), "no matrix cells selected");
    let mut failures = Vec::new();
    for scenario in &cells {
        let result = run_scenario(scenario);
        if !result.pass() {
            failures.push(format!(
                "{} (seed {}): {}",
                result.name,
                result.seed,
                result.failures().join("; ")
            ));
        }
        let expected: Vec<u32> = scenario
            .expected_equivocators()
            .iter()
            .map(|author| author.0)
            .collect();
        for validator in scenario.correct_validators() {
            if result.culprits[validator] != expected {
                failures.push(format!(
                    "{} (seed {}): validator {validator} culprit set {:?} != {expected:?}",
                    result.name, result.seed, result.culprits[validator]
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} cells violated an oracle:\n{}",
        failures.len(),
        cells.len(),
        failures.join("\n")
    );
}

/// The full-matrix cells for one protocol (split per protocol so the
/// harness can parallelize).
fn protocol_cells(prefix: &str) -> Vec<Scenario> {
    full_matrix()
        .into_iter()
        .filter(|scenario| scenario.name.starts_with(prefix))
        .collect()
}

#[test]
fn oracle_battery_includes_evidence_attribution() {
    let names: Vec<&str> = mahi_mahi::scenarios::default_oracles()
        .iter()
        .map(|oracle| oracle.name())
        .collect();
    assert!(
        names.contains(&"evidence-attribution"),
        "fault attribution must gate every matrix cell: {names:?}"
    );
    assert!(
        names.contains(&"tx-integrity"),
        "transaction integrity must gate every matrix cell: {names:?}"
    );
    assert!(
        names.contains(&"receipt-integrity"),
        "receipt accounting must gate every matrix cell: {names:?}"
    );
}

#[test]
fn matrix_cells_arm_mempool_forwarding() {
    // Every cell runs with age-based forwarding enabled so the
    // receipt-integrity oracle audits a live forwarding ledger, not a
    // vacuously-zero one.
    for scenario in full_matrix() {
        assert!(
            scenario.config.ingress.forward_age.is_some(),
            "{}: forwarding disabled",
            scenario.name
        );
    }
}

#[test]
fn matrix_covers_the_required_space() {
    // 4 protocols × (9 attack behaviors + honest baseline) × 4 adversaries,
    // plus the n = 10 and n = 50 scale rows (every protocol × adversary).
    assert_eq!(protocols().len(), 4);
    assert!(attack_behaviors().len() >= 6);
    assert_eq!(adversaries().len(), 4);
    assert_eq!(full_matrix().len(), 4 * 10 * 4 + 4 * 4 + 4 * 4);
    assert_eq!(
        full_matrix()
            .iter()
            .filter(|s| s.config.committee_size == mahi_mahi::scenarios::SCALE_COMMITTEE)
            .count(),
        4 * 4
    );
    assert_eq!(
        full_matrix()
            .iter()
            .filter(|s| s.config.committee_size == mahi_mahi::scenarios::LARGE_COMMITTEE)
            .count(),
        4 * 4
    );
    // The five active attack strategies of this harness are all present.
    for label in [
        "withholding-leader",
        "split-brain",
        "slow-proposer",
        "fork-spammer",
        "adaptive",
    ] {
        assert!(
            attack_behaviors().iter().any(|b| b.label() == label),
            "missing attack strategy {label}"
        );
    }
}

#[test]
fn matrix_cells_are_reproducible_from_their_seed() {
    // The same cell run twice yields identical commit logs and metrics —
    // the property that makes every failure replayable.
    let scenario = full_matrix()
        .into_iter()
        .find(|s| s.name.contains("split-brain") && s.name.ends_with("partition"))
        .expect("matrix covers split-brain × partition");
    let first = scenario.run();
    let second = scenario.run();
    assert_eq!(first.logs, second.logs);
    assert_eq!(
        first.report.committed_transactions,
        second.report.committed_transactions
    );
    assert_eq!(first.report.highest_round, second.report.highest_round);
}

#[test]
fn n50_cells_are_bit_reproducible() {
    // The committee-scale row runs on the geo-jitter WAN model with the
    // adaptive adversary — the configuration most sensitive to event-queue
    // tie-breaking. Two seeded runs must agree byte-for-byte.
    let scenario = full_matrix()
        .into_iter()
        .find(|s| s.name.contains("@n50") && s.name.ends_with("none"))
        .expect("matrix covers the n = 50 row");
    let first = scenario.run();
    let second = scenario.run();
    assert_eq!(first.logs, second.logs);
    assert_eq!(first.culprits, second.culprits);
    assert_eq!(
        first.report.committed_transactions,
        second.report.committed_transactions
    );
    assert_eq!(first.report.highest_round, second.report.highest_round);
}

#[test]
fn smoke_subset_upholds_all_oracles() {
    // The covering subset used for quick regression checks: one cell per
    // behavior, touching every protocol and every adversary at least once.
    run_cells(smoke_matrix());
}

#[test]
fn smoke_cells_expose_populated_stage_telemetry() {
    use mahi_mahi::telemetry::Stage;
    // The simulator wires commit-path stage tracing into every run: the
    // stages the sim drives (verify, resequence) and the stages the engine
    // reports (apply, sequence, execute) must all carry samples, and the
    // JSON row must break the verify/resequence/execute p99s out.
    let scenario = smoke_matrix()
        .into_iter()
        .next()
        .expect("smoke matrix is non-empty");
    let run = scenario.run();
    for stage in [
        Stage::Verified,
        Stage::Resequenced,
        Stage::EngineApplied,
        Stage::Sequenced,
        Stage::Executed,
    ] {
        assert!(
            run.report.stages.stage(stage).count() > 0,
            "{}: stage {stage:?} unsampled",
            scenario.name
        );
    }
    let result = run_scenario(&scenario);
    assert!(
        result.verify_p99_s > 0.0,
        "{}: verify p99 must reflect the charged CPU costs",
        result.name
    );
    let json = result.to_json();
    for field in [
        "\"verify_p99_s\":",
        "\"resequence_p99_s\":",
        "\"execute_p99_s\":",
    ] {
        assert!(json.contains(field), "{field} missing from {json}");
    }
}

#[test]
fn mahi_mahi_5_cells_uphold_all_oracles() {
    run_cells(protocol_cells("Mahi-Mahi-5"));
}

#[test]
fn mahi_mahi_4_cells_uphold_all_oracles() {
    run_cells(protocol_cells("Mahi-Mahi-4"));
}

#[test]
fn cordial_miners_cells_uphold_all_oracles() {
    run_cells(protocol_cells("Cordial-Miners"));
}

#[test]
fn tusk_cells_uphold_all_oracles() {
    run_cells(protocol_cells("Tusk"));
}

#[test]
fn partition_cells_exercise_mempool_forwarding() {
    // Non-vacuity for the receipt-integrity oracle: under a partition,
    // the minority validator's transactions outlive the 1 s forward age
    // and get re-broadcast — the forwarding ledger the oracle audits must
    // show real traffic, and some forwarded transactions must later be
    // observed committed (the trigger for client `Committed` notices).
    let scenario = full_matrix()
        .into_iter()
        .find(|s| s.name == "Tusk/mute/partition")
        .expect("matrix covers Tusk × mute × partition");
    let run = scenario.run();
    let forwarded: u64 = run.ingress.iter().map(|r| r.forwarded).sum();
    let forwarded_committed: u64 = run.ingress.iter().map(|r| r.forwarded_committed).sum();
    assert!(forwarded > 0, "no transactions were forwarded");
    assert!(
        forwarded_committed > 0,
        "no forwarded transaction was observed committed"
    );
}

#[test]
fn every_committed_batch_is_one_latency_sample_at_its_entry_validator() {
    // The same forwarding cell, with no warm-up cut: the latency column
    // must hold exactly one sample per `Committed` tag a validator handed
    // its local client. A forwarded batch is therefore sampled once, at
    // the validator that received it and from its original receive time —
    // never at the forward target, from the (later) forward-receive time.
    let mut scenario = full_matrix()
        .into_iter()
        .find(|s| s.name == "Tusk/mute/partition")
        .expect("matrix covers Tusk × mute × partition");
    scenario.config.warmup_fraction = 0.0;
    let run = scenario.run();
    let forwarded_committed: u64 = run.ingress.iter().map(|r| r.forwarded_committed).sum();
    assert!(forwarded_committed > 0, "the cell must forward");
    let notices: u64 = run.ingress.iter().map(|r| r.commit_notices).sum();
    assert_eq!(run.report.latency.len() as u64, notices);
}
