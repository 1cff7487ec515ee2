//! `Behavior::Offline` catch-up: a validator that goes dark mid-run and
//! restarts must rebuild the missed suffix through the synchronizer, and
//! its commit sequence must be a prefix-consistent extension of its peers'
//! — never a divergent fork, and not stuck at the outage point.

use mahimahi_net::time;
use mahimahi_sim::{Behavior, LatencyChoice, ProtocolChoice, SimConfig, SimOutcome, Simulation};

#[test]
fn offline_validator_catches_up_to_a_prefix_consistent_extension() {
    let outage_start = time::from_secs(2);
    let outage_end = time::from_secs(4);
    let mut config = SimConfig {
        protocol: ProtocolChoice::MahiMahi5 { leaders: 2 },
        committee_size: 4,
        duration: time::from_secs(8),
        txs_per_second_per_validator: 60,
        latency: LatencyChoice::Uniform {
            min: time::from_millis(20),
            max: time::from_millis(60),
        },
        seed: 606,
        ..SimConfig::default()
    };
    config.behaviors = vec![(
        2,
        Behavior::Offline {
            from: outage_start,
            until: outage_end,
        },
    )];

    let SimOutcome { report, logs, .. } = Simulation::new(config).run_full();
    assert!(report.committed_transactions > 0, "{report:?}");

    // Prefix consistency across all four logs, including the recovered
    // validator's: catching up must never rewrite or fork the sequence.
    for i in 0..4 {
        for j in (i + 1)..4 {
            let len = logs[i].len().min(logs[j].len());
            assert_eq!(
                &logs[i][..len],
                &logs[j][..len],
                "validators {i} and {j} diverged"
            );
        }
    }

    // The recovered validator is an *extension*: it committed leaders well
    // past the rounds that were current when its outage began, i.e. it
    // resumed committing after the restart instead of freezing at the gap.
    let recovered = &logs[2];
    assert!(!recovered.is_empty(), "validator 2 never committed");
    let last_recovered_round = recovered
        .iter()
        .flatten()
        .map(|leader| leader.round)
        .max()
        .expect("validator 2 committed at least one leader");
    // Rounds advance at least once per max-latency interval while the
    // quorum is up; by the outage start the DAG is far past the first wave.
    let rounds_before_outage = outage_start / time::from_millis(60);
    assert!(
        last_recovered_round > rounds_before_outage / 2,
        "validator 2 stopped committing at round {last_recovered_round}, \
         before its outage window (~round {rounds_before_outage})"
    );

    // And it caught up to its peers, not merely restarted: its log length
    // is within one wave's worth of slots of the longest honest log.
    let longest = logs.iter().map(Vec::len).max().unwrap();
    assert!(
        recovered.len() + 12 >= longest,
        "validator 2 committed {} of {longest} slots — did not catch up",
        recovered.len()
    );
}

/// The same property under the random network model: held-back quorums must
/// not prevent the rejoining validator from filling its gap.
#[test]
fn offline_catchup_survives_the_random_network_model() {
    let mut config = SimConfig {
        protocol: ProtocolChoice::MahiMahi4 { leaders: 2 },
        committee_size: 4,
        duration: time::from_secs(8),
        txs_per_second_per_validator: 60,
        latency: LatencyChoice::Uniform {
            min: time::from_millis(20),
            max: time::from_millis(60),
        },
        adversary: mahimahi_sim::AdversaryChoice::RandomSubset {
            hold: time::from_millis(120),
        },
        seed: 607,
        ..SimConfig::default()
    };
    config.behaviors = vec![(
        1,
        Behavior::Offline {
            from: time::from_secs(3),
            until: time::from_secs(5),
        },
    )];

    let SimOutcome { report, logs, .. } = Simulation::new(config).run_full();
    assert!(report.committed_transactions > 0, "{report:?}");
    for i in 0..4 {
        for j in (i + 1)..4 {
            let len = logs[i].len().min(logs[j].len());
            assert_eq!(
                &logs[i][..len],
                &logs[j][..len],
                "validators {i} and {j} diverged"
            );
        }
    }
    assert!(!logs[1].is_empty(), "rejoined validator never committed");
}
