//! The simulator as a stepped driver: client batches submitted mid-run,
//! receipts read where they leave the committee, and each validator's
//! write-ahead log.
//!
//! Every run here is a 4-validator committee on a uniform 30 ms fabric with
//! no modelled CPU and no open-loop clients, so a test submits exactly the
//! workload it reasons about. Client ids at or above the committee size are
//! external clients: their receipts are kept and read back; the
//! validator's own index is its local client.

use mahimahi_core::WalRecord;
use mahimahi_net::time::Time;
use mahimahi_sim::{
    CpuCosts, IngressConfig, LatencyChoice, MempoolConfig, ProtocolChoice, SimConfig, Simulation,
};
use mahimahi_types::{AuthorityIndex, Decode, Transaction, TxReceipt};
use mahimahi_wal::Wal;

/// The first client id outside the committee.
const CLIENT: usize = 4;

fn config() -> SimConfig {
    SimConfig {
        protocol: ProtocolChoice::MahiMahi5 { leaders: 2 },
        committee_size: 4,
        txs_per_second_per_validator: 0,
        mempool: MempoolConfig::test(10_000, 100),
        ingress: IngressConfig::default(),
        latency: LatencyChoice::Uniform {
            min: 30_000,
            max: 30_000,
        },
        cpu: CpuCosts {
            signature_verify: 0,
            coin_share_verify: 0,
            block_creation: 0,
            hash_per_kb: 0,
            batch_discount_percent: 50,
        },
        inclusion_wait: 20_000,
        seed: 11,
        ..SimConfig::default()
    }
}

/// A fast fabric: rounds are cheap in virtual time, so a run can cross
/// many cuts.
fn fast_config() -> SimConfig {
    SimConfig {
        latency: LatencyChoice::Uniform {
            min: 1_000,
            max: 1_000,
        },
        inclusion_wait: 0,
        ..config()
    }
}

/// Mempool rejections `validator` reported to its external clients:
/// non-`Accepted` verdicts in their `Admission` receipts.
fn rejections(sim: &Simulation, validator: usize) -> u64 {
    sim.receipts(validator)
        .iter()
        .map(|(_, _, receipt)| match receipt {
            TxReceipt::Admission { verdicts, .. } => {
                verdicts.iter().filter(|v| !v.is_accepted()).count() as u64
            }
            TxReceipt::Committed { .. } => 0,
        })
        .sum()
}

/// Every record `validator` logged, decoded, in log order.
fn records(sim: &Simulation, validator: usize) -> Vec<WalRecord> {
    Wal::open(sim.validator(validator).log().clone())
        .unwrap()
        .records()
        .unwrap()
        .iter()
        .map(|record| WalRecord::from_bytes_exact(&record.payload).unwrap())
        .collect()
}

/// What `validator` logged: the payload bytes of its block records, and
/// `(position, record bytes)` of every checkpoint record, in log order.
fn logged(sim: &Simulation, validator: usize) -> (u64, Vec<(u64, u64)>) {
    let records = Wal::open(sim.validator(validator).log().clone())
        .unwrap()
        .records()
        .unwrap();
    let mut block_bytes = 0;
    let mut snapshots = Vec::new();
    for record in records {
        let bytes = record.payload.len() as u64;
        match WalRecord::from_bytes_exact(&record.payload).unwrap() {
            WalRecord::Block(_) => block_bytes += bytes,
            WalRecord::Checkpoint { checkpoint, .. } => {
                snapshots.push((checkpoint.position(), bytes));
            }
            WalRecord::Evidence(_) => {}
        }
    }
    (block_bytes, snapshots)
}

#[test]
fn cluster_advances_and_commits_in_lockstep() {
    let mut sim = Simulation::new(config());
    for validator in 0..4 {
        sim.preload_transactions(validator, vec![Transaction::benchmark(validator as u64)]);
    }
    sim.run_until(3_000_000); // 3 s of virtual time, 30 ms links
    for validator in 0..4 {
        let engine = sim.validator(validator).engine();
        assert!(
            engine.round() > 50,
            "validator {validator} stalled at {}",
            engine.round()
        );
        assert!(engine.commit_log().iter().any(Option::is_some));
    }
    // All four commit logs are identical (not merely prefix-consistent:
    // the fabric is symmetric).
    let log = sim.validator(0).commit_log().to_vec();
    for validator in 1..4 {
        assert_eq!(sim.validator(validator).commit_log(), &log[..]);
    }
}

#[test]
fn a_preloaded_workload_commits_in_full() {
    const TXS_PER_VALIDATOR: u64 = 120;
    let mut sim = Simulation::new(SimConfig {
        duration: 8_000_000,
        mempool: MempoolConfig::default(),
        seed: 77,
        ..config()
    });
    for validator in 0..4 {
        let first = validator as u64 * 100_000;
        sim.preload_transactions(
            validator,
            (first..first + TXS_PER_VALIDATOR)
                .map(|id| Transaction::new(id.to_le_bytes().to_vec()))
                .collect(),
        );
    }
    let outcome = sim.run_full();
    // All four validators agree on the leader sequence, and the observer
    // committed the whole workload.
    for validator in 1..4 {
        let (a, b) = (&outcome.logs[0], &outcome.logs[validator]);
        let len = a.len().min(b.len());
        assert!(len >= 40, "too few decisions: {len}");
        assert_eq!(&a[..len], &b[..len], "diverged at {validator}");
    }
    assert_eq!(outcome.report.committed_transactions, 4 * TXS_PER_VALIDATOR);
}

#[test]
fn wire_batches_commit_and_yield_latency_samples() {
    let mut sim = Simulation::new(config());
    let submitted_at: Time = 200_000;
    sim.run_until(submitted_at); // warm up a few rounds
    sim.submit_batch(
        0,
        CLIENT,
        vec![Transaction::benchmark(1), Transaction::benchmark(2)],
    );
    sim.run_until(3_000_000);
    // One batch, one note: a single Committed tag once both of its
    // transactions are sequenced.
    let samples: Vec<(Time, u64)> = sim
        .receipts(0)
        .iter()
        .filter_map(|(at, _, receipt)| match receipt {
            TxReceipt::Committed { tags } => Some((*at, tags[0])),
            TxReceipt::Admission { .. } => None,
        })
        .collect();
    assert_eq!(samples.len(), 1, "the batch committed");
    for &(committed, tag) in &samples {
        assert!(tag >= submitted_at, "tag is the engine receive time");
        assert!(committed > tag, "commit strictly after submission");
    }
    let integrity = sim.validator(0).tx_integrity();
    assert_eq!(integrity.accepted, 2);
    assert_eq!(integrity.own_committed, 2);
    assert!(integrity.conserves_transactions());
    assert_eq!(rejections(&sim, 0), 0);
    // A duplicate batch after the fact is rejected, visibly.
    sim.submit_batch(0, CLIENT, vec![Transaction::benchmark(1)]);
    sim.run_until(3_200_000);
    assert_eq!(rejections(&sim, 0), 1);
}

#[test]
fn external_clients_are_rate_limited_and_every_batch_is_receipted() {
    let mut limited = config();
    limited.ingress.rate_limit_per_client = 10;
    limited.ingress.burst_per_client = 2;
    let mut sim = Simulation::new(limited);
    sim.run_until(200_000);
    // External client 9 bursts four single-tx batches at one instant:
    // the bucket admits two and sheds two, but all four batches get
    // admission receipts.
    for i in 0..4u64 {
        sim.submit_batch(0, 9, vec![Transaction::benchmark(100 + i)]);
    }
    sim.run_until(3_000_000);
    let to_client: Vec<_> = sim
        .receipts(0)
        .iter()
        .filter(|(_, peer, _)| *peer == 9)
        .collect();
    let admissions = to_client
        .iter()
        .filter(|(_, _, receipt)| matches!(receipt, TxReceipt::Admission { .. }))
        .count();
    assert_eq!(admissions, 4, "one admission receipt per batch");
    assert!(
        to_client
            .iter()
            .any(|(_, _, receipt)| matches!(receipt, TxReceipt::Committed { .. })),
        "accepted transactions owe the client a commit notice"
    );
    let report = sim.validator(0).ingress_report();
    assert_eq!(report.batches_received, 4);
    assert_eq!(report.rate_limited, 2);
    assert!(report.violations().is_empty(), "{report:?}");
    // The committee-id path (the validator's own index) stays exempt: a
    // batch from it is never rate limited.
    let before = sim.validator(0).ingress_report().rate_limited;
    sim.submit_batch(
        0,
        0,
        (0..8).map(|i| Transaction::benchmark(900 + i)).collect(),
    );
    sim.run_until(3_400_000);
    assert_eq!(sim.validator(0).ingress_report().rate_limited, before);
}

#[test]
fn sustained_wire_load_conserves_every_transaction() {
    const CAPACITY: u64 = 5_000;
    let mut sim = Simulation::new(SimConfig {
        mempool: MempoolConfig {
            capacity_txs: CAPACITY as usize,
            ..MempoolConfig::default()
        },
        ..config()
    });
    // Open loop: every 5 ms of a 2 s window each validator's client
    // sends a batch of 10 (2,000 tx/s per validator), whether or not
    // anything has committed yet; then 2 s to drain.
    let mut sent_per_validator = 0;
    for now in (0..2_000_000).step_by(5_000) {
        for validator in 0..4u64 {
            let first = (validator << 32) + sent_per_validator;
            sim.submit_batch(
                validator as usize,
                CLIENT + validator as usize,
                (first..first + 10).map(Transaction::benchmark).collect(),
            );
        }
        sent_per_validator += 10;
        sim.run_until(now);
    }
    sim.run_until(4_000_000);
    for validator in 0..4 {
        let integrity = sim.validator(validator).tx_integrity();
        // No loss, no duplicate across own blocks, pool within bounds.
        assert_eq!(integrity.violations(), Vec::<String>::new());
        assert!(integrity.peak_occupancy_txs <= CAPACITY, "{integrity:?}");
        assert!(
            sim.receipts(validator)
                .iter()
                .any(|(_, _, receipt)| matches!(receipt, TxReceipt::Committed { .. })),
            "validator {validator} reported no batch committed"
        );
        // After the drain nothing is owed: every accepted transaction
        // committed, exactly once (forwarding is off, so none left by
        // another door).
        assert_eq!(integrity.accepted, sent_per_validator, "{integrity:?}");
        assert_eq!(integrity.own_committed, integrity.accepted);
        assert_eq!((integrity.pending, integrity.in_flight), (0, 0));
    }
}

#[test]
fn a_burst_past_capacity_is_shed_with_full_and_every_batch_is_receipted() {
    let mut sim = Simulation::new(SimConfig {
        mempool: MempoolConfig {
            capacity_txs: 1_000,
            ..MempoolConfig::default()
        },
        ..config()
    });
    // 5× the pool's capacity, as two batches arriving at validator 0 at
    // the same instant.
    sim.submit_batch(0, CLIENT, (0..2_500).map(Transaction::benchmark).collect());
    sim.submit_batch(
        0,
        CLIENT,
        (2_500..5_000).map(Transaction::benchmark).collect(),
    );
    sim.run_until(3_000_000);
    let integrity = sim.validator(0).tx_integrity();
    assert!(integrity.rejected_full > 0, "{integrity:?}");
    assert_eq!(integrity.violations(), Vec::<String>::new());
    // The verdicts the client was sent are the engine's own counters.
    assert_eq!(
        rejections(&sim, 0),
        integrity.rejected_duplicate + integrity.rejected_full + integrity.rejected_rate_limited
    );
    // A batch the pool sheds is still owed its admission receipt.
    let ingress = sim.validator(0).ingress_report();
    assert_eq!(ingress.batches_received, 2);
    assert_eq!(ingress.violations(), Vec::<String>::new());
}

#[test]
fn compliant_zipf_clients_are_not_starved_by_heavy_hitters() {
    const CLIENTS: usize = 600;
    const RATE_LIMIT: u64 = 10;
    let mut sim = Simulation::new(SimConfig {
        ingress: IngressConfig {
            rate_limit_per_client: RATE_LIMIT,
            burst_per_client: 20,
            ..IngressConfig::default()
        },
        ..config()
    });
    // Client `i` demands 800 / (i + 1) tx/s of validator 0: the first
    // 79 exceed the limit, the other 521 are compliant. Ids start above
    // the committee — the external, rate-limited range.
    let demand = |client: usize| 800.0 / (client + 1) as f64;
    let mut submitted = vec![0u64; CLIENTS];
    let mut batches = vec![0u64; CLIENTS];
    for now in (0..2_000_000u64).step_by(50_000) {
        for client in 0..CLIENTS {
            let due = (demand(client) * now as f64 / 1e6) as u64;
            if due > submitted[client] {
                let ids = (submitted[client]..due).map(|i| ((client as u64) << 32) + i);
                sim.submit_batch(
                    0,
                    CLIENT + client,
                    ids.map(Transaction::benchmark).collect(),
                );
                submitted[client] = due;
                batches[client] += 1;
            }
        }
        sim.run_until(now);
    }
    sim.run_until(3_000_000);

    let mut admissions = vec![0u64; CLIENTS];
    let mut accepted = vec![0u64; CLIENTS];
    for (_, peer, receipt) in sim.receipts(0) {
        if let TxReceipt::Admission { verdicts, .. } = receipt {
            admissions[peer - CLIENT] += 1;
            accepted[peer - CLIENT] += verdicts.iter().filter(|v| v.is_accepted()).count() as u64;
        }
    }
    // Zero receipt loss, per client and in the engine's ledger.
    assert_eq!(admissions, batches);
    let report = sim.validator(0).ingress_report();
    assert_eq!(report.violations(), Vec::<String>::new());
    assert!(report.rate_limited > 0, "the limiter never engaged");
    // Among compliant clients, accepted ÷ offered differs by at most a
    // factor of two: the limiter sheds the heavy hitters, not the tail.
    let shares: Vec<f64> = (0..CLIENTS)
        .filter(|&client| demand(client) <= RATE_LIMIT as f64 && submitted[client] > 0)
        .map(|client| accepted[client] as f64 / submitted[client] as f64)
        .collect();
    assert!(shares.len() >= 500, "{} compliant clients", shares.len());
    let min = shares.iter().copied().fold(f64::INFINITY, f64::min);
    let max = shares.iter().copied().fold(0.0, f64::max);
    assert!(min / max >= 0.5, "accepted share ranges {min:.3}..{max:.3}");
}

#[test]
fn checkpoint_records_are_synced_like_own_blocks_and_evidence() {
    let mut sim = Simulation::new(config());
    sim.run_until(3_000_000);
    let records = records(&sim, 0);
    let checkpoints = records
        .iter()
        .filter(|record| matches!(record, WalRecord::Checkpoint { .. }))
        .count();
    assert!(checkpoints >= 2, "the run must cross checkpoint boundaries");
    // One sync per durable record, checkpoints included — and none for
    // the peers' blocks in between.
    let durable = records
        .iter()
        .filter(|record| record.is_durable(AuthorityIndex(0)))
        .count();
    assert!(durable < records.len());
    assert_eq!(sim.validator(0).log().sync_count(), durable as u64);
}

#[test]
fn snapshots_follow_the_bytes_logged_not_the_cuts() {
    let mut sim = Simulation::new(fast_config());
    for step in 0..40u64 {
        let batch = (0..25).map(|i| Transaction::benchmark(step * 25 + i));
        sim.submit_batch((step % 4) as usize, (step % 4) as usize, batch.collect());
        sim.run_until((step + 1) * 20_000);
    }
    let cuts = sim
        .validator(0)
        .engine()
        .latest_checkpoint()
        .map_or(0, |checkpoint| checkpoint.position() / 32);
    let (block_bytes, snapshots) = logged(&sim, 0);
    assert!(cuts >= 12, "the run crossed only {cuts} cuts");
    assert!(
        (3..cuts / 2).contains(&(snapshots.len() as u64)),
        "{} snapshots over {cuts} cuts",
        snapshots.len()
    );
    // The rule's bound: every snapshot but the newest is followed by
    // sixteen times its size in blocks — well inside the 1/8 aimed at.
    let snapshot_bytes: u64 = snapshots.iter().map(|&(_, bytes)| bytes).sum();
    let newest = snapshots.last().expect("checked").1;
    assert!(
        snapshot_bytes <= block_bytes / 8 + newest,
        "{snapshot_bytes} B of snapshots beside {block_bytes} B of blocks"
    );
    // The rule reads the committed sequence alone: every validator
    // persists its snapshots at the same cuts.
    for validator in 1..4 {
        let (_, theirs) = logged(&sim, validator);
        let shared = theirs.len().min(snapshots.len());
        assert!(shared >= 3);
        assert_eq!(
            theirs[..shared],
            snapshots[..shared],
            "validator {validator}"
        );
    }
}
