//! Property tests for the sans-I/O engine's two load-bearing contracts
//! under *arbitrary* input traces:
//!
//! - **determinism**: the same `Input` sequence fed to two freshly
//!   constructed engines produces the byte-identical output sequence and
//!   end state — whatever interleaving of duplicate transactions,
//!   out-of-order blocks, stale timers, and wire batches the trace throws
//!   at it;
//! - **mempool bounds and integrity**: at every step, pool occupancy stays
//!   within the configured capacity, and at the end no accepted
//!   transaction was lost (conservation) or committed twice.
//!
//! Traces are generated from a per-case seed with a local splitmix64, so a
//! failing case is reproducible from its printed inputs alone.

use mahi_mahi::core::{
    AdmissionConfig, AdmissionPipeline, Committer, CommitterOptions, EngineConfig, IngressConfig,
    Input, MempoolConfig, Output, ValidatorEngine,
};
use mahi_mahi::dag::DagBuilder;
use mahi_mahi::telemetry::{Stage, StageStats};
use mahi_mahi::types::{
    AuthorityIndex, Block, Decode, Encode, Envelope, TestCommittee, Transaction, TxReceipt,
    TxVerdict,
};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

const MEMPOOL_CAPACITY: usize = 16;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fresh_engine(setup: &TestCommittee) -> ValidatorEngine {
    engine_with_ingress(setup, IngressConfig::default())
}

fn engine_with_ingress(setup: &TestCommittee, ingress: IngressConfig) -> ValidatorEngine {
    let committer = Committer::new(setup.committee().clone(), CommitterOptions::mahi_mahi_5(2));
    let mut config = EngineConfig::new(AuthorityIndex(0), setup.clone());
    config.mempool = MempoolConfig {
        capacity_txs: MEMPOOL_CAPACITY,
        capacity_bytes: 1024,
        max_block_txs: 4,
        max_block_bytes: 256,
    };
    config.ingress = ingress;
    ValidatorEngine::honest(config, Box::new(committer))
}

/// Builds a random trace: duplicate-prone transaction batches (from the
/// validator's own client and from committee peers), non-monotone timers,
/// and peer blocks delivered in random order with repeats.
fn random_trace(script_seed: u64, steps: usize, pool: &[Arc<Block>]) -> Vec<Input> {
    let mut rng = script_seed;
    let mut trace = Vec::with_capacity(steps);
    for _ in 0..steps {
        let input = match splitmix(&mut rng) % 4 {
            // The validator's own client, one transaction at a time.
            0 => Input::TxBatchReceived {
                from: 0,
                // Ids drawn from a tiny range: duplicates are common.
                transactions: vec![Transaction::new(
                    (splitmix(&mut rng) % 24).to_le_bytes().to_vec(),
                )],
            },
            1 => Input::TxBatchReceived {
                from: (splitmix(&mut rng) % 4) as usize,
                transactions: (0..1 + splitmix(&mut rng) % 3)
                    .map(|_| Transaction::new((splitmix(&mut rng) % 24).to_le_bytes().to_vec()))
                    .collect(),
            },
            // Deliberately non-monotone: the engine clamps internally.
            2 => Input::TimerFired {
                now: splitmix(&mut rng) % 5_000,
            },
            _ => {
                let block = pool[(splitmix(&mut rng) as usize) % pool.len()].clone();
                Input::BlockReceived {
                    from: (splitmix(&mut rng) % 4) as usize,
                    block,
                }
            }
        };
        trace.push(input);
    }
    trace
}

/// Builds a client-ingress trace: wire batches from `clients` external ids
/// (all past the committee range, so the rate limiter applies), forwarded
/// batches from committee peers, ignored receipt frames, the validator's
/// own client, peer blocks, and non-monotone timers. The tiny transaction
/// id range makes duplicates common, so all four admission verdicts fire.
fn random_ingress_trace(
    script_seed: u64,
    steps: usize,
    clients: usize,
    pool: &[Arc<Block>],
) -> Vec<Input> {
    let mut rng = script_seed;
    let mut trace = Vec::with_capacity(steps);
    let tiny_tx = |rng: &mut u64| Transaction::new((splitmix(rng) % 24).to_le_bytes().to_vec());
    for _ in 0..steps {
        let input = match splitmix(&mut rng) % 8 {
            // Wire batches dominate: the receipt ledger must see traffic.
            0..=2 => Input::TxBatchReceived {
                from: 4 + (splitmix(&mut rng) as usize) % clients,
                transactions: (0..1 + splitmix(&mut rng) % 3)
                    .map(|_| tiny_tx(&mut rng))
                    .collect(),
            },
            3 => Input::TxForwardReceived {
                from: (splitmix(&mut rng) % 4) as usize,
                transactions: (0..1 + splitmix(&mut rng) % 3)
                    .map(|_| tiny_tx(&mut rng))
                    .collect(),
            },
            // A stray receipt frame on a validator's wire: ignored, but
            // the trace must stay deterministic through it.
            4 => Input::TxReceiptReceived {
                from: 4 + (splitmix(&mut rng) as usize) % clients,
                receipt: TxReceipt::Admission {
                    tag: splitmix(&mut rng) % 1_000,
                    verdicts: vec![TxVerdict::Accepted],
                },
            },
            5 => Input::TxBatchReceived {
                from: 0,
                transactions: vec![tiny_tx(&mut rng)],
            },
            6 => Input::TimerFired {
                now: splitmix(&mut rng) % 5_000_000,
            },
            _ => {
                let block = pool[(splitmix(&mut rng) as usize) % pool.len()].clone();
                Input::BlockReceived {
                    from: (splitmix(&mut rng) % 4) as usize,
                    block,
                }
            }
        };
        trace.push(input);
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_traces_are_deterministic_and_respect_mempool_bounds(
        committee_seed in 0u64..500,
        script_seed in 0u64..u64::MAX,
        steps in 20usize..80,
    ) {
        let setup = TestCommittee::new(4, committee_seed);
        // A pool of valid peer blocks (4 full rounds) delivered out of
        // order and with duplicates by the trace.
        let mut dag = DagBuilder::new(setup.clone());
        dag.add_full_rounds(4);
        let pool: Vec<Arc<Block>> = dag
            .store()
            .iter()
            .filter(|block| block.round() > 0 && block.author() != AuthorityIndex(0))
            .cloned()
            .collect();
        let trace = random_trace(script_seed, steps, &pool);

        let mut first = fresh_engine(&setup);
        let mut rendered = Vec::with_capacity(trace.len());
        for input in &trace {
            let outputs = first.handle(input.clone());
            rendered.push(format!("{outputs:?}"));
            // Bounds hold after *every* step, not just at the end.
            prop_assert!(
                first.mempool().len() <= MEMPOOL_CAPACITY,
                "occupancy {} exceeded capacity",
                first.mempool().len()
            );
            prop_assert!(first.mempool().pending_bytes() <= 1024);
        }
        let integrity = first.tx_integrity();
        prop_assert!(integrity.occupancy_bounded(), "{integrity:?}");
        prop_assert!(integrity.conserves_transactions(), "{integrity:?}");
        prop_assert_eq!(integrity.duplicate_committed, 0, "{:?}", integrity);

        // Replay into a second fresh engine: identical outputs, identical
        // end state — the determinism contract.
        let mut second = fresh_engine(&setup);
        for (step, input) in trace.iter().enumerate() {
            let outputs = second.handle(input.clone());
            prop_assert_eq!(
                &format!("{outputs:?}"),
                &rendered[step],
                "diverged at step {} ({:?})",
                step,
                input
            );
        }
        prop_assert_eq!(first.round(), second.round());
        prop_assert_eq!(first.commit_log(), second.commit_log());
        prop_assert_eq!(
            first.store().highest_round(),
            second.store().highest_round()
        );
        prop_assert_eq!(first.tx_integrity(), second.tx_integrity());
    }

    /// Client-ingress traces — wire batches from a handful of external
    /// client ids racing a strict rate limit, forwarded batches from
    /// committee peers, stray receipt frames, and non-monotone timers —
    /// replay byte-identically on a fresh engine, and at every end state
    /// the receipt ledger balances (one admission receipt per wire batch,
    /// no phantom commit notices) while the transaction ledger conserves.
    #[test]
    fn ingress_traces_replay_identically_and_balance_the_receipt_ledger(
        committee_seed in 0u64..500,
        script_seed in 0u64..u64::MAX,
        steps in 20usize..80,
        clients in 2usize..5,
    ) {
        let setup = TestCommittee::new(4, committee_seed);
        let mut dag = DagBuilder::new(setup.clone());
        dag.add_full_rounds(4);
        let pool: Vec<Arc<Block>> = dag
            .store()
            .iter()
            .filter(|block| block.round() > 0 && block.author() != AuthorityIndex(0))
            .cloned()
            .collect();
        // A tight policy so every verdict arm fires: 2 tx/s with a burst
        // of 2 makes `RateLimited` common, the 16-slot pool makes `Full`
        // reachable, the tiny id range makes `Duplicate` common, and a
        // 500 µs forward age (far below the timer range) arms forwarding.
        let ingress = IngressConfig {
            rate_limit_per_client: 2,
            burst_per_client: 2,
            forward_age: Some(500),
            forward_max: 8,
        };
        let trace = random_ingress_trace(script_seed, steps, clients, &pool);

        let mut first = engine_with_ingress(&setup, ingress);
        let mut rendered = Vec::with_capacity(trace.len());
        for input in &trace {
            let outputs = first.handle(input.clone());
            rendered.push(format!("{outputs:?}"));
            prop_assert!(first.mempool().len() <= MEMPOOL_CAPACITY);
        }
        let integrity = first.tx_integrity();
        prop_assert!(integrity.conserves_transactions(), "{integrity:?}");
        let ledger = first.ingress_report();
        prop_assert!(ledger.violations().is_empty(), "{:?}", ledger.violations());
        // The trace is wire-batch heavy; the ledger must show traffic.
        prop_assert!(ledger.batches_received > 0, "{ledger:?}");

        let mut second = engine_with_ingress(&setup, ingress);
        for (step, input) in trace.iter().enumerate() {
            let outputs = second.handle(input.clone());
            prop_assert_eq!(
                &format!("{outputs:?}"),
                &rendered[step],
                "diverged at step {} ({:?})",
                step,
                input
            );
        }
        prop_assert_eq!(first.tx_integrity(), second.tx_integrity());
        prop_assert_eq!(first.ingress_report(), second.ingress_report());
        prop_assert_eq!(first.commit_log(), second.commit_log());
    }

    /// The verify/apply split preserves the determinism contract: a trace
    /// pushed through a parallel [`AdmissionPipeline`] (workers reorder
    /// internally, the resequencer restores submission order) and applied
    /// with `handle_verified` admits exactly the inputs that pass
    /// verification, in submission order, and produces byte-identical
    /// outputs and end state to replaying that same verified sequence
    /// through the serial `handle` path — the exact artifact drivers
    /// record and the replay tests compare.
    #[test]
    fn pipeline_resequenced_traces_replay_byte_identically(
        committee_seed in 0u64..500,
        script_seed in 0u64..u64::MAX,
        steps in 20usize..80,
        workers in 1usize..4,
    ) {
        let setup = TestCommittee::new(4, committee_seed);
        let mut dag = DagBuilder::new(setup.clone());
        dag.add_full_rounds(4);
        let valid: Vec<Arc<Block>> = dag
            .store()
            .iter()
            .filter(|block| block.round() > 0 && block.author() != AuthorityIndex(0))
            .cloned()
            .collect();
        // Salt the block pool with tampered copies (a flipped parent-digest
        // byte: still decodes, signature now stale) so traces exercise the
        // verify stage's reject path.
        let mut pool = valid.clone();
        for block in valid.iter().step_by(5) {
            let mut bytes = block.to_bytes_vec();
            bytes[30] ^= 0xff;
            pool.push(Block::from_bytes_exact(&bytes).unwrap().into_arc());
        }
        let trace = random_trace(script_seed, steps, &pool);

        // The reference path is the replay contract itself: the trace a
        // driver records contains exactly the inputs that survive the
        // verify stage, in submission order, and replaying it through
        // plain `handle` on a fresh engine is byte-identical. Filter the
        // trace the way the verify stage does, then run it serially.
        let committee = setup.committee();
        let filtered: Vec<&Input> = trace
            .iter()
            .filter(|input| !matches!(
                input,
                Input::BlockReceived { block, .. } if block.verify(committee).is_err()
            ))
            .collect();
        let mut serial = fresh_engine(&setup);
        let mut kept = Vec::with_capacity(filtered.len());
        for input in &filtered {
            let outputs = serial.handle((*input).clone());
            kept.push(format!("{outputs:?}"));
        }

        // Pipelined path: parallel verify, resequenced apply.
        let mut pipeline = AdmissionPipeline::new(
            AdmissionConfig {
                verify_workers: workers,
                queue_bound: 4096,
            },
            committee.clone(),
        );
        for input in &trace {
            pipeline.submit(input.clone());
        }
        let admitted = pipeline.flush();
        prop_assert_eq!(admitted.len(), kept.len());
        let mut piped = fresh_engine(&setup);
        for (step, input) in admitted.into_iter().enumerate() {
            let outputs = piped.handle_verified(input);
            prop_assert_eq!(
                &format!("{outputs:?}"),
                &kept[step],
                "diverged at admitted step {}",
                step
            );
        }
        prop_assert_eq!(serial.round(), piped.round());
        prop_assert_eq!(serial.commit_log(), piped.commit_log());
        prop_assert_eq!(
            serial.store().highest_round(),
            piped.store().highest_round()
        );
        prop_assert_eq!(serial.tx_integrity(), piped.tx_integrity());
    }

    /// Sink equivalence — the telemetry half of the determinism contract:
    /// an engine with a recording [`StageStats`] sink attached renders
    /// byte-identical outputs and end state to one running the default
    /// no-op sink on the same trace, while the recording sink actually
    /// observes the commit path (one engine-applied sample per non-timer
    /// input). Recording is observation, never influence.
    #[test]
    fn recording_telemetry_sinks_never_perturb_outputs(
        committee_seed in 0u64..500,
        script_seed in 0u64..u64::MAX,
        steps in 20usize..80,
    ) {
        let setup = TestCommittee::new(4, committee_seed);
        let mut dag = DagBuilder::new(setup.clone());
        dag.add_full_rounds(4);
        let pool: Vec<Arc<Block>> = dag
            .store()
            .iter()
            .filter(|block| block.round() > 0 && block.author() != AuthorityIndex(0))
            .cloned()
            .collect();
        let trace = random_trace(script_seed, steps, &pool);

        // Reference: the default no-op sink.
        let mut plain = fresh_engine(&setup);
        let mut rendered = Vec::with_capacity(trace.len());
        for input in &trace {
            rendered.push(format!("{:?}", plain.handle(input.clone())));
        }

        // Candidate: a recording sink over detached stage histograms.
        let stats = StageStats::detached();
        let mut observed = fresh_engine(&setup);
        observed.set_telemetry(Arc::new(stats.clone()));
        for (step, input) in trace.iter().enumerate() {
            let outputs = observed.handle(input.clone());
            prop_assert_eq!(
                &format!("{outputs:?}"),
                &rendered[step],
                "the sink perturbed outputs at step {} ({:?})",
                step,
                input
            );
        }
        prop_assert_eq!(plain.round(), observed.round());
        prop_assert_eq!(plain.commit_log(), observed.commit_log());
        prop_assert_eq!(
            plain.store().highest_round(),
            observed.store().highest_round()
        );
        prop_assert_eq!(plain.tx_integrity(), observed.tx_integrity());

        // The sink is not vacuous: every non-timer input left a sample at
        // the engine-applied stage.
        let applied = trace
            .iter()
            .filter(|input| !matches!(input, Input::TimerFired { .. }))
            .count() as u64;
        prop_assert_eq!(
            stats.snapshot().stage(Stage::EngineApplied).count(),
            applied
        );
    }
}

proptest! {
    // Few cases: each one floods a 4-validator cluster through 160 rounds.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The committed-digest ledger (the `track_tx_integrity` duplicate
    /// detector) is GC'd against the commit frontier: a validator that
    /// commits its own transactions for thousands of rounds must not hold
    /// every digest it ever committed. Before the GC fix the ledger grew
    /// with `own_committed` forever.
    #[test]
    fn committed_digest_ledger_is_bounded_by_the_gc_window(
        committee_seed in 0u64..500,
        tx_seed in 0u64..u64::MAX,
    ) {
        let setup = TestCommittee::new(4, committee_seed);
        let mut engines: Vec<ValidatorEngine> = (0..4u32)
            .map(|authority| {
                let committer = Committer::new(
                    setup.committee().clone(),
                    CommitterOptions::mahi_mahi_5(2),
                );
                let mut config = EngineConfig::new(AuthorityIndex(authority), setup.clone());
                config.mempool = MempoolConfig {
                    capacity_txs: 4_096,
                    capacity_bytes: usize::MAX,
                    max_block_txs: 4,
                    max_block_bytes: 4_096,
                };
                config.gc_depth = Some(8); // tight window, GC fires often
                ValidatorEngine::honest(config, Box::new(committer))
            })
            .collect();
        // Preload every validator with enough distinct transactions that
        // own blocks keep carrying payloads across the whole run.
        let mut rng = tx_seed;
        for engine in engines.iter_mut() {
            let from = engine.authority().as_usize();
            let transactions = (0..1_000)
                .map(|_| Transaction::new(splitmix(&mut rng).to_le_bytes().to_vec()))
                .collect();
            engine.handle(Input::TxBatchReceived { from, transactions });
        }
        // Lockstep flood: deliver every broadcast envelope until the DAG
        // reaches the horizon. 160 rounds crosses the engine's 64-round GC
        // hysteresis at least twice with an 8-round window.
        let mut inflight: VecDeque<(usize, Envelope)> = VecDeque::new();
        for engine in engines.iter_mut() {
            let from = engine.authority().as_usize();
            for output in engine.handle(Input::TimerFired { now: 0 }) {
                if let Output::Broadcast(envelope) = output {
                    inflight.push_back((from, envelope));
                }
            }
        }
        while let Some((from, envelope)) = inflight.pop_front() {
            if let Envelope::Block(block) = &envelope {
                if block.round() > 160 {
                    continue;
                }
            }
            for (to, engine) in engines.iter_mut().enumerate() {
                if to == from {
                    continue;
                }
                for output in engine.handle(Input::from_envelope(from, envelope.clone())) {
                    if let Output::Broadcast(envelope) = output {
                        inflight.push_back((to, envelope));
                    }
                }
            }
        }
        for engine in &engines {
            let integrity = engine.tx_integrity();
            prop_assert!(
                integrity.own_committed > 100,
                "flood committed too little to exercise GC: {integrity:?}"
            );
            let ledger = engine.committed_digest_ledger_len();
            // Bounded: the frontier GC dropped digests below the floor, so
            // the ledger holds strictly fewer digests than were committed
            // over the run's lifetime...
            prop_assert!(
                (ledger as u64) < integrity.own_committed,
                "digest ledger was never pruned: {} entries for {} own commits",
                ledger,
                integrity.own_committed
            );
            // ...and the integrity report still balances (pruning must not
            // disturb the conservation counters).
            prop_assert!(integrity.conserves_transactions(), "{integrity:?}");
            prop_assert_eq!(integrity.duplicate_committed, 0, "{:?}", integrity);
        }
    }
}
