//! Cross-crate safety tests: the Byzantine Atomic Broadcast properties of
//! Section 2.1, checked over whole-system simulations.
//!
//! The central invariant (Lemmas 5–7 / Total Order): any two honest
//! validators' committed leader sequences are prefix-consistent, whatever
//! the network schedule, fault pattern, or protocol configuration.

use mahi_mahi::net::time;
use mahi_mahi::sim::{
    AdversaryChoice, Behavior, LatencyChoice, ProtocolChoice, SimConfig, SimOutcome, Simulation,
};
use mahi_mahi::types::BlockRef;

/// Asserts pairwise prefix consistency of honest validators' commit logs.
fn assert_prefix_consistent(logs: &[Vec<Option<BlockRef>>], honest: &[usize], context: &str) {
    for (position, &i) in honest.iter().enumerate() {
        for &j in honest.iter().skip(position + 1) {
            let (a, b) = (&logs[i], &logs[j]);
            let len = a.len().min(b.len());
            assert_eq!(
                &a[..len],
                &b[..len],
                "{context}: validators {i} and {j} diverged"
            );
        }
    }
}

fn run_and_check(config: SimConfig, context: &str) {
    let honest: Vec<usize> = (0..config.committee_size)
        .filter(|&index| matches!(config.behavior_of(index), Behavior::Honest))
        .collect();
    let SimOutcome { report, logs, .. } = Simulation::new(config).run_full();
    assert!(
        report.committed_transactions > 0,
        "{context}: no transactions committed"
    );
    assert_prefix_consistent(&logs, &honest, context);
}

fn base(protocol: ProtocolChoice, seed: u64) -> SimConfig {
    SimConfig {
        protocol,
        committee_size: 4,
        duration: time::from_secs(6),
        txs_per_second_per_validator: 100,
        latency: LatencyChoice::Uniform {
            min: time::from_millis(20),
            max: time::from_millis(80),
        },
        seed,
        ..SimConfig::default()
    }
}

#[test]
fn all_protocols_agree_on_the_happy_path() {
    for protocol in [
        ProtocolChoice::MahiMahi5 { leaders: 2 },
        ProtocolChoice::MahiMahi4 { leaders: 2 },
        ProtocolChoice::CordialMiners,
        ProtocolChoice::Tusk,
    ] {
        run_and_check(base(protocol, 1), &format!("{protocol:?}"));
    }
}

#[test]
fn agreement_survives_crash_faults() {
    for protocol in [
        ProtocolChoice::MahiMahi5 { leaders: 2 },
        ProtocolChoice::MahiMahi4 { leaders: 3 },
        ProtocolChoice::CordialMiners,
        ProtocolChoice::Tusk,
    ] {
        let config = base(protocol, 2).with_crashed(1);
        run_and_check(config, &format!("{protocol:?} with 1 crash"));
    }
}

#[test]
fn agreement_survives_equivocation() {
    for leaders in [1usize, 2] {
        let mut config = base(ProtocolChoice::MahiMahi5 { leaders }, 3);
        config.behaviors = vec![(1, Behavior::Equivocator)];
        run_and_check(config, &format!("equivocator, {leaders} leaders"));
    }
}

#[test]
fn agreement_survives_a_mute_validator() {
    let mut config = base(ProtocolChoice::MahiMahi4 { leaders: 2 }, 4);
    config.behaviors = vec![(2, Behavior::Mute)];
    run_and_check(config, "mute validator");
}

#[test]
fn agreement_under_the_random_network_model() {
    for protocol in [
        ProtocolChoice::MahiMahi5 { leaders: 2 },
        ProtocolChoice::MahiMahi4 { leaders: 2 },
    ] {
        let mut config = base(protocol, 5);
        config.adversary = AdversaryChoice::RandomSubset {
            hold: time::from_millis(150),
        };
        run_and_check(config, &format!("{protocol:?} random network"));
    }
}

#[test]
fn agreement_under_targeted_delays() {
    let mut config = base(ProtocolChoice::MahiMahi5 { leaders: 2 }, 6);
    config.adversary = AdversaryChoice::RotatingDelay {
        targets: 1,
        period: 3,
        extra: time::from_millis(300),
    };
    run_and_check(config, "rotating-delay adversary");
}

#[test]
fn agreement_across_a_healing_partition() {
    let mut config = base(ProtocolChoice::MahiMahi5 { leaders: 2 }, 7);
    config.adversary = AdversaryChoice::Partition {
        minority: 1,
        heals_at: time::from_secs(2),
    };
    run_and_check(config, "healing partition");
}

#[test]
fn agreement_with_ten_validators_and_compound_faults() {
    let mut config = SimConfig {
        protocol: ProtocolChoice::MahiMahi5 { leaders: 2 },
        committee_size: 10,
        duration: time::from_secs(6),
        txs_per_second_per_validator: 200,
        latency: LatencyChoice::Uniform {
            min: time::from_millis(20),
            max: time::from_millis(80),
        },
        seed: 8,
        ..SimConfig::default()
    };
    // f = 3 faults of mixed kinds.
    config.behaviors = vec![
        (7, Behavior::Crashed { from_round: 5 }),
        (8, Behavior::Equivocator),
        (9, Behavior::Mute),
    ];
    run_and_check(config, "compound faults at n=10");
}

/// A validator that goes down mid-run and restarts must catch up through
/// the synchronizer without ever contradicting the others.
#[test]
fn agreement_survives_an_outage_and_rejoin() {
    let mut config = base(ProtocolChoice::MahiMahi5 { leaders: 2 }, 9);
    config.behaviors = vec![(
        3,
        Behavior::Offline {
            from: time::from_secs(2),
            until: time::from_secs(4),
        },
    )];
    let SimOutcome { report, logs, .. } = Simulation::new(config).run_full();
    assert!(report.committed_transactions > 0);
    // All four logs (including the rejoined validator's) must be pairwise
    // prefix-consistent; the rejoined validator must have committed
    // something after its restart.
    assert_prefix_consistent(&logs, &[0, 1, 2, 3], "offline rejoin");
    assert!(
        !logs[3].is_empty(),
        "rejoined validator never resumed committing"
    );
}

/// The w = 3 configuration (Appendix C note): safety must hold even though
/// liveness is not guaranteed. We check agreement only — and tolerate runs
/// that commit nothing.
#[test]
fn wave_three_remains_safe() {
    use mahi_mahi::core::{CommitDecision, CommitSequencer, Committer, CommitterOptions};
    use mahi_mahi::dag::DagBuilder;
    use mahi_mahi::types::TestCommittee;

    let setup = TestCommittee::new(4, 99);
    let committee = setup.committee().clone();
    let mut dag = DagBuilder::new(setup);
    dag.add_full_rounds(12);
    let make = || {
        CommitSequencer::new(Committer::new(
            committee.clone(),
            CommitterOptions {
                wave_length: 3,
                leaders_per_round: 1,
            },
        ))
    };
    let mut first = make();
    let mut second = make();
    let a: Vec<_> = first
        .try_commit(dag.store())
        .into_iter()
        .map(|d| match d {
            CommitDecision::Commit(s) => Some(s.leader),
            CommitDecision::Skip(..) => None,
        })
        .collect();
    dag.add_full_rounds(4);
    let b: Vec<_> = second
        .try_commit(dag.store())
        .into_iter()
        .map(|d| match d {
            CommitDecision::Commit(s) => Some(s.leader),
            CommitDecision::Skip(..) => None,
        })
        .collect();
    let len = a.len().min(b.len());
    assert_eq!(&a[..len], &b[..len], "w=3 prefix consistency violated");
}
