//! Driver equivalence and trace replay: the two faces of the sans-I/O
//! engine contract.
//!
//! One `ValidatorEngine` is driven by two independent shells — the
//! discrete-event simulator (messages by value, virtual WAN) and the
//! loopback node driver (messages through the real wire codec, in-memory
//! WAL, deterministic event queue). Under an equivalent deterministic
//! network (constant latency, zero modelled CPU, no adversary, identical
//! committee seed and preloaded workload) the two drivers must commit the
//! byte-identical leader sequence: round pacing, parent selection,
//! transaction inclusion, and the commit rule all live in the shared
//! engine, so any divergence is a driver mapping bug.
//!
//! The replay test checks the engine's determinism contract directly: a
//! recorded input trace fed into a freshly constructed engine reproduces
//! the recorded output sequence exactly.

use mahi_mahi::core::{CommitterOptions, Input, MempoolConfig, ValidatorEngine};
use mahi_mahi::node::{LoopbackCluster, LoopbackConfig, NodeConfig, ValidatorNode};
use mahi_mahi::sim::{
    AdversaryChoice, CpuCosts, LatencyChoice, ProtocolChoice, SimConfig, Simulation,
};
use mahi_mahi::transport::Transport;
use mahi_mahi::types::{BlockRef, Encode, TestCommittee, Transaction};
use mahimahi_net::time;
use std::time::Duration;

const SEED: u64 = 77;
const LINK_DELAY: u64 = time::from_millis(30);
const INCLUSION_WAIT: u64 = time::from_millis(20);
const DURATION: u64 = time::from_secs(8);
const TXS_PER_VALIDATOR: u64 = 120;

/// The CPU model must be off for cross-driver equivalence: the loopback
/// fabric has no CPU queueing.
fn no_cpu() -> CpuCosts {
    CpuCosts {
        signature_verify: 0,
        coin_share_verify: 0,
        block_creation: 0,
        hash_per_kb: 0,
        batch_discount_percent: 50,
    }
}

fn workload(validator: usize) -> impl Iterator<Item = Transaction> {
    (0..TXS_PER_VALIDATOR)
        .map(move |i| Transaction::new((validator as u64 * 100_000 + i).to_le_bytes().to_vec()))
}

/// Serializes a committed-leader log (None = skipped slot) into bytes.
fn serialize_log(log: &[Option<BlockRef>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for entry in log {
        match entry {
            None => bytes.push(0u8),
            Some(leader) => {
                bytes.push(1u8);
                bytes.extend(leader.to_bytes_vec());
            }
        }
    }
    bytes
}

fn run_sim() -> Vec<Vec<Option<BlockRef>>> {
    let config = SimConfig {
        protocol: ProtocolChoice::MahiMahi5 { leaders: 2 },
        committee_size: 4,
        behaviors: Vec::new(),
        duration: DURATION,
        txs_per_second_per_validator: 0, // workload is preloaded
        latency: LatencyChoice::Uniform {
            min: LINK_DELAY,
            max: LINK_DELAY,
        },
        adversary: AdversaryChoice::None,
        cpu: no_cpu(),
        inclusion_wait: INCLUSION_WAIT,
        seed: SEED,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(config);
    for validator in 0..4 {
        sim.preload_transactions(validator, workload(validator).collect());
    }
    sim.run_full().logs
}

fn run_loopback() -> LoopbackCluster {
    let mut cluster = LoopbackCluster::new(LoopbackConfig {
        nodes: 4,
        seed: SEED,
        options: CommitterOptions::mahi_mahi_5(2),
        link_delay: LINK_DELAY,
        inclusion_wait: INCLUSION_WAIT,
        mempool: MempoolConfig::default(), // the simulator's default
        ingress: mahi_mahi::core::IngressConfig::default(),
    });
    for validator in 0..4 {
        for transaction in workload(validator) {
            cluster.submit(validator, transaction);
        }
    }
    cluster.run_until(DURATION);
    cluster
}

#[test]
fn sim_and_loopback_node_drivers_commit_identically() {
    let sim_logs = run_sim();
    let cluster = run_loopback();

    // Within each driver, all four validators agree (common prefix is the
    // whole shorter log; the fabrics are symmetric enough for full runs).
    for validator in 1..4 {
        let a = &sim_logs[0];
        let b = &sim_logs[validator];
        let len = a.len().min(b.len());
        assert_eq!(&a[..len], &b[..len], "sim diverged at {validator}");
    }

    // Across drivers: byte-identical committed leader sequences over the
    // common prefix, which must be substantial.
    let sim_log = &sim_logs[0];
    let node_log = cluster.engine(0).commit_log();
    let len = sim_log.len().min(node_log.len());
    assert!(
        len >= 40,
        "too few decisions to compare: sim {} / loopback {}",
        sim_log.len(),
        node_log.len()
    );
    assert_eq!(
        serialize_log(&sim_log[..len]),
        serialize_log(&node_log[..len]),
        "the sim driver and the loopback node driver diverged"
    );

    // The committed sub-DAGs carry the transactions: the loopback run
    // committed the preloaded workload.
    let committed: usize = cluster
        .commits(0)
        .iter()
        .map(|sub_dag| sub_dag.transactions().count())
        .sum();
    assert_eq!(committed as u64, 4 * TXS_PER_VALIDATOR);

    // Sanity on the recorded traces: the loopback driver exercised the
    // wire vocabulary this benign run can produce (sync traffic appears
    // only under loss).
    let trace = cluster.trace(0);
    assert!(trace
        .iter()
        .any(|input| matches!(input, Input::BlockReceived { .. })));
    assert!(trace
        .iter()
        .any(|input| matches!(input, Input::TimerFired { .. })));
    assert!(trace
        .iter()
        .any(|input| matches!(input, Input::TxBatchReceived { .. })));
}

/// The determinism contract against a *live* TCP run: four real nodes run
/// over real sockets with `record_trace` on; afterwards, each node's
/// recorded `Input` trace is fed into a freshly constructed engine with
/// the same configuration, which must reproduce the recorded output
/// renderings byte for byte. The TCP schedule itself is nondeterministic —
/// every run records a different trace — but any single recorded trace
/// must replay exactly; the threaded shell may not leak nondeterminism
/// into the engine.
#[test]
fn live_tcp_node_traces_replay_exactly() {
    let setup = TestCommittee::new(4, 909);
    let transports: Vec<Transport> = (0..4)
        .map(|id| Transport::bind(id, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = transports.iter().map(Transport::local_addr).collect();
    for transport in &transports {
        for (peer, addr) in addrs.iter().enumerate() {
            if peer as u32 != transport.id() {
                transport.connect(peer as u32, *addr);
            }
        }
    }
    let mut configs = Vec::new();
    let mut handles = Vec::new();
    for (id, transport) in transports.into_iter().enumerate() {
        let mut config = NodeConfig::local(id as u32, setup.clone());
        config.record_trace = true;
        config.min_round_interval = Duration::from_millis(5);
        configs.push(config.clone());
        handles.push(ValidatorNode::new(config, transport).unwrap().start());
    }
    // A real workload: batches submitted mid-run on every node.
    for id in 0..40u64 {
        handles[(id % 4) as usize].submit_batch(vec![Transaction::benchmark(id)]);
    }
    // Let the cluster commit something before stopping (and keep running
    // briefly past that, so every node's trace has a healthy tail of
    // timer and block inputs).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while handles[0].round() < 16 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(handles[0].round() >= 16, "cluster made no progress");
    std::thread::sleep(Duration::from_millis(300));

    for (validator, handle) in handles.into_iter().enumerate() {
        let trace = handle.stop_into_trace().expect("record_trace was enabled");
        assert!(
            trace.len() > 60,
            "validator {validator} recorded a suspiciously short trace ({})",
            trace.len()
        );
        // The live run exercised the client-ingress path.
        assert!(trace
            .iter()
            .any(|(input, _)| matches!(input, Input::TxBatchReceived { .. })));
        let committer =
            mahi_mahi::core::Committer::new(setup.committee().clone(), configs[validator].options);
        let mut replay =
            ValidatorEngine::honest(configs[validator].engine_config(), Box::new(committer));
        for (step, (input, expected)) in trace.iter().enumerate() {
            let outputs = replay.handle(input.clone());
            assert_eq!(
                &format!("{outputs:?}"),
                expected,
                "validator {validator} diverged from its live run at step {step} ({input:?})"
            );
        }
    }
}

#[test]
fn recorded_input_trace_replays_to_identical_outputs() {
    let cluster = {
        let mut cluster = LoopbackCluster::new(LoopbackConfig {
            nodes: 4,
            seed: SEED ^ 0x5eed,
            options: CommitterOptions::mahi_mahi_5(2),
            link_delay: LINK_DELAY,
            inclusion_wait: INCLUSION_WAIT,
            mempool: MempoolConfig::test(10_000, 100),
            ingress: mahi_mahi::core::IngressConfig::default(),
        });
        for validator in 0..4 {
            cluster.submit(validator, Transaction::benchmark(validator as u64));
        }
        cluster.run_until(time::from_secs(2));
        cluster
    };

    for validator in 0..4 {
        let trace = cluster.trace(validator).to_vec();
        let expected = cluster.rendered_outputs(validator);
        assert!(trace.len() > 50, "trace suspiciously short");
        assert_eq!(trace.len(), expected.len());

        let mut replay = cluster.fresh_engine(validator);
        for (step, (input, expected_outputs)) in trace.iter().zip(expected).enumerate() {
            let outputs = replay.handle(input.clone());
            assert_eq!(
                &format!("{outputs:?}"),
                expected_outputs,
                "validator {validator} diverged at step {step} ({input:?})"
            );
        }
        // End state matches the live engine, field for field.
        let live = cluster.engine(validator);
        assert_eq!(replay.round(), live.round());
        assert_eq!(replay.commit_log(), live.commit_log());
        assert_eq!(replay.convicted(), live.convicted());
        assert_eq!(replay.store().highest_round(), live.store().highest_round());
    }
}
