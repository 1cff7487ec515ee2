//! The sans-I/O engine's determinism contract on a real driver.
//!
//! One `ValidatorEngine` is driven by two shells — the discrete-event
//! simulator (virtual clock, messages through the wire codec once per send,
//! an in-memory log per validator) and the TCP node (real sockets, a
//! threaded pipeline, a write-ahead log on disk). Everything protocol —
//! round pacing, parent selection, transaction inclusion, the commit rule —
//! lives in the shared engine, so the shells may map outputs but must not
//! leak nondeterminism into it. The test here records a live TCP run's
//! input trace and replays it into a fresh engine, which must reproduce the
//! recorded outputs exactly; `tests/engine_proptest.rs` checks the same
//! contract on arbitrary traces.

use mahi_mahi::core::{Input, ValidatorEngine};
use mahi_mahi::node::{NodeConfig, ValidatorNode};
use mahi_mahi::transport::Transport;
use mahi_mahi::types::{TestCommittee, Transaction};
use std::time::Duration;

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
