//! Integration tests for the real-TCP validator stack: cluster commits,
//! fault tolerance, and WAL crash recovery.

use mahi_mahi::core::{CommitterOptions, IngressConfig, WalRecord};
use mahi_mahi::node::{LocalCluster, NodeConfig, TxClient, ValidatorNode};
use mahi_mahi::transport::Transport;
use mahi_mahi::types::{
    AuthorityIndex, Decode, Encode, EquivocationProof, TestCommittee, Transaction, TxReceipt,
    TxVerdict,
};
use std::time::Duration;

/// A signed conflicting round-1 pair by `author` — a genuine conviction to
/// persist on the wire/WAL paths.
fn conflicting_pair(setup: &TestCommittee, author: u32) -> EquivocationProof {
    EquivocationProof::synthetic(setup, AuthorityIndex(author))
}

#[test]
fn four_node_cluster_commits_transactions() {
    let cluster = LocalCluster::start(4, 501).expect("cluster starts");
    for id in 0..20u64 {
        cluster.submit((id % 4) as usize, Transaction::benchmark(id));
    }
    let sub_dag = cluster
        .wait_for_commit(0, Duration::from_secs(30))
        .expect("a commit with transactions");
    assert!(sub_dag.blocks.iter().any(|b| !b.transactions().is_empty()));
    cluster.stop();
}

#[test]
fn wire_clients_submit_batches_that_commit() {
    // The client-ingress path end to end: an external TcpStream speaking
    // only the hello + Envelope::TxBatch framing submits a batch to a
    // validator, and those exact transactions commit.
    let cluster = LocalCluster::start(4, 506).expect("cluster starts");
    let mut client = TxClient::connect(cluster.address(1)).expect("client connects");
    let batch: Vec<Transaction> = (100..108u64).map(Transaction::benchmark).collect();
    client.submit(&batch).expect("batch sent");

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut committed = std::collections::HashSet::new();
    while committed.len() < batch.len() && std::time::Instant::now() < deadline {
        if let Ok(sub_dag) = cluster.commits(0).recv_timeout(Duration::from_millis(100)) {
            for block in &sub_dag.blocks {
                for tx in block.transactions() {
                    if let Some(id) = tx.benchmark_id() {
                        committed.insert(id);
                    }
                }
            }
        }
    }
    assert_eq!(
        committed,
        (100..108u64).collect(),
        "every batched transaction must commit exactly once"
    );
    // The receiving validator's gauges saw the batch.
    assert_eq!(cluster.handle(1).metrics().accepted(), 8);
    assert_eq!(cluster.handle(1).metrics().rejected_full(), 0);
    cluster.stop();
}

/// Mempool forwarding rescues a batch stuck at a withholding validator:
/// the client submits to a node whose block production is stalled, the
/// aged batch is re-broadcast to a live peer, commits there, and the
/// *original* validator still closes the loop with a `Committed` receipt
/// to the client that never learned anything went wrong.
#[test]
fn batches_to_a_withholding_validator_commit_via_forwarding() {
    let setup = TestCommittee::new(4, 508);
    let make_config = |id: u32, setup: &TestCommittee| {
        let mut config = NodeConfig::local(id, setup.clone());
        if id == 3 {
            // Withholding: production is paced out of the test's lifetime,
            // so nothing this node accepts can commit through its own
            // blocks. Forwarding (timer-driven, independent of production)
            // is the only way out of its pool.
            config.min_round_interval = Duration::from_secs(3_600);
            config.ingress = IngressConfig {
                forward_age: Some(200_000), // 200 ms, in engine µs
                ..IngressConfig::default()
            };
        }
        config
    };
    let transports: Vec<Transport> = (0..4)
        .map(|id| Transport::bind(id, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = transports.iter().map(Transport::local_addr).collect();
    for t in &transports {
        for (peer, addr) in addrs.iter().enumerate() {
            if peer as u32 != t.id() {
                t.connect(peer as u32, *addr);
            }
        }
    }
    let mut handles = Vec::new();
    for (id, transport) in transports.into_iter().enumerate() {
        let config = make_config(id as u32, &setup);
        handles.push(ValidatorNode::new(config, transport).unwrap().start());
    }
    // Background load at the live validators keeps rounds (and commits)
    // flowing so the forwarded batch has blocks to ride in.
    for id in 0..30u64 {
        handles[(id % 3) as usize].submit(Transaction::benchmark(id));
    }

    let mut client = TxClient::connect(addrs[3]).expect("client connects");
    let batch: Vec<Transaction> = (900..904u64).map(Transaction::benchmark).collect();
    let receipt = client
        .submit_and_wait(&batch, Duration::from_secs(10))
        .expect("admission receipt");
    let TxReceipt::Admission { tag, verdicts } = receipt else {
        panic!("expected an admission receipt, got {receipt:?}");
    };
    assert!(
        verdicts.iter().all(|v| matches!(v, TxVerdict::Accepted)),
        "withholding validator rejected the batch: {verdicts:?}"
    );

    // The commit notice must arrive even though validator 3 never produces:
    // it observes the forwarded digests in a peer's sequenced block.
    client
        .wait_committed(tag, Duration::from_secs(30))
        .expect("committed notice via forwarding");
    assert!(
        handles[3].metrics().forwarded() > 0,
        "the batch left validator 3's pool some other way than forwarding"
    );

    // And the transactions really did commit at a live validator.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut committed = std::collections::HashSet::new();
    while !(900..904u64).all(|id| committed.contains(&id)) && std::time::Instant::now() < deadline {
        if let Ok(sub_dag) = handles[0]
            .commits()
            .recv_timeout(Duration::from_millis(100))
        {
            for block in &sub_dag.blocks {
                for tx in block.transactions() {
                    if let Some(id) = tx.benchmark_id() {
                        committed.insert(id);
                    }
                }
            }
        }
    }
    assert!(
        (900..904u64).all(|id| committed.contains(&id)),
        "forwarded transactions missing from the commit sequence: {committed:?}"
    );
    for handle in handles {
        handle.stop();
    }
}

#[test]
fn cluster_tolerates_a_silent_validator() {
    // One of four validators never starts (crash-from-boot): the remaining
    // 2f + 1 = 3 must still commit.
    let cluster = LocalCluster::start_with(4, 502, CommitterOptions::mahi_mahi_4(2), &[3])
        .expect("cluster starts");
    assert_eq!(cluster.running(), 3);
    for id in 0..20u64 {
        cluster.submit((id % 3) as usize, Transaction::benchmark(id));
    }
    let sub_dag = cluster
        .wait_for_commit(0, Duration::from_secs(30))
        .expect("commits despite the silent validator");
    assert!(sub_dag.blocks.iter().any(|b| !b.transactions().is_empty()));
    cluster.stop();
}

#[test]
fn all_validators_commit_the_same_leaders() {
    let cluster = LocalCluster::start(4, 503).expect("cluster starts");
    for id in 0..10u64 {
        cluster.submit(0, Transaction::benchmark(id));
    }
    // Collect the first few committed leaders from two validators.
    let take = 5;
    let mut leaders = Vec::new();
    for validator in 0..2 {
        let mut sequence = Vec::new();
        while sequence.len() < take {
            match cluster
                .commits(validator)
                .recv_timeout(Duration::from_secs(30))
            {
                Ok(sub_dag) => sequence.push(sub_dag.leader),
                Err(_) => break,
            }
        }
        leaders.push(sequence);
    }
    cluster.stop();
    assert_eq!(leaders[0].len(), take, "validator 0 committed too little");
    assert_eq!(leaders[0], leaders[1], "commit sequences diverged");
}

/// Kill one node mid-run, restart it from its `FileWal`, and require it to
/// catch back up to the exact commit sequence the survivors agreed on.
#[test]
fn killed_node_restarts_from_its_wal_and_catches_up() {
    let dir = std::env::temp_dir().join(format!(
        "mahimahi-restart-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let setup = TestCommittee::new(4, 505);

    // Slow production a little and disable GC so the restarted node can
    // synchronize arbitrarily far back (this test exercises recovery, not
    // pruning).
    let make_config = |id: u32, setup: &TestCommittee| {
        let mut config = NodeConfig::local(id, setup.clone());
        config.min_round_interval = Duration::from_millis(10);
        config.gc_depth = None;
        if id == 0 {
            config.wal_path = Some(dir.join("v0.wal"));
        }
        config
    };

    // Full mesh over fixed ephemeral ports (node 0 must rebind the same
    // address after the restart so the survivors' reconnect loops find it).
    let transports: Vec<Transport> = (0..4)
        .map(|id| Transport::bind(id, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = transports.iter().map(Transport::local_addr).collect();
    for t in &transports {
        for (peer, addr) in addrs.iter().enumerate() {
            if peer as u32 != t.id() {
                t.connect(peer as u32, *addr);
            }
        }
    }
    let mut handles = Vec::new();
    for (id, transport) in transports.into_iter().enumerate() {
        let config = make_config(id as u32, &setup);
        handles.push(ValidatorNode::new(config, transport).unwrap().start());
    }

    // Phase 1: commit a prefix with all four nodes up.
    let take = 4;
    for id in 0..40u64 {
        handles[(id % 4) as usize].submit(Transaction::benchmark(id));
    }
    let mut survivor_leaders = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while survivor_leaders.len() < take && std::time::Instant::now() < deadline {
        if let Ok(sub_dag) = handles[1]
            .commits()
            .recv_timeout(Duration::from_millis(100))
        {
            survivor_leaders.push(sub_dag.leader);
        }
    }
    assert_eq!(survivor_leaders.len(), take, "cluster never got going");

    // Phase 2: kill node 0 mid-run; the remaining 2f + 1 keep committing.
    let node0 = handles.remove(0);
    let killed_at_round = node0.round();
    node0.stop();
    // While the node is down, a conviction lands in its WAL (as the
    // engine's Persist output would have written it had the Evidence
    // frame arrived before the crash): restart must re-load it.
    {
        let mut wal = mahi_mahi::wal::FileWal::open_path(dir.join("v0.wal")).unwrap();
        wal.append(&WalRecord::Evidence(conflicting_pair(&setup, 3)).to_bytes_vec())
            .unwrap();
        wal.sync().unwrap();
    }
    for id in 40..80u64 {
        handles[(id % 3) as usize].submit(Transaction::benchmark(id));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while survivor_leaders.len() < 2 * take && std::time::Instant::now() < deadline {
        if let Ok(sub_dag) = handles[0]
            .commits()
            .recv_timeout(Duration::from_millis(100))
        {
            survivor_leaders.push(sub_dag.leader);
        }
    }
    assert!(
        survivor_leaders.len() >= 2 * take,
        "survivors stalled after the crash"
    );

    // Phase 3: restart node 0 from its WAL on the same address. Binding can
    // race the old listener's teardown, so retry briefly.
    let transport = {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match Transport::bind(0, addrs[0]) {
                Ok(transport) => break transport,
                Err(error) if std::time::Instant::now() < deadline => {
                    let _ = error;
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(error) => panic!("could not rebind node 0: {error}"),
            }
        }
    };
    for (peer, addr) in addrs.iter().enumerate().skip(1) {
        transport.connect(peer as u32, *addr);
    }
    let recovered = ValidatorNode::new(make_config(0, &setup), transport).unwrap();
    assert!(
        recovered.round() >= killed_at_round,
        "WAL recovery lost rounds: {} < {killed_at_round}",
        recovered.round()
    );
    assert_eq!(
        recovered.convicted(),
        vec![AuthorityIndex(3)],
        "persisted conviction must survive the crash-restart"
    );
    let restarted = recovered.start();

    // The restarted node replays its WAL and synchronizes the missed
    // suffix; its from-scratch commit stream must reproduce the survivors'
    // sequence exactly.
    let mut restarted_leaders = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while restarted_leaders.len() < survivor_leaders.len() && std::time::Instant::now() < deadline {
        if let Ok(sub_dag) = restarted.commits().recv_timeout(Duration::from_millis(100)) {
            restarted_leaders.push(sub_dag.leader);
        }
    }
    assert_eq!(
        restarted_leaders, survivor_leaders,
        "restarted node diverged from the survivors' commit sequence"
    );

    restarted.stop();
    for handle in handles {
        handle.stop();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill a node whose WAL has already been compacted below a certified
/// checkpoint, then restart it: recovery must come up from the checkpoint
/// cut (not genesis), and the node must still converge onto the exact
/// commit sequence the survivors agreed on via state-sync.
#[test]
fn restarted_node_resumes_from_a_checkpoint_with_a_truncated_wal() {
    let dir = std::env::temp_dir().join(format!(
        "mahimahi-checkpoint-restart-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let setup = TestCommittee::new(4, 507);

    // Tight checkpoint cadence and a shallow GC window so node 0 certifies
    // checkpoints and truncates its WAL within a few dozen rounds. The
    // survivors prune old blocks just as aggressively, which forces the
    // restarted node through the checkpoint/state-sync path: the genesis-era
    // DAG is no longer fetchable from anyone.
    let make_config = |id: u32, setup: &TestCommittee| {
        let mut config = NodeConfig::local(id, setup.clone());
        config.min_round_interval = Duration::from_millis(10);
        config.checkpoint_interval = 4;
        config.gc_depth = Some(16);
        if id == 0 {
            config.wal_path = Some(dir.join("v0.wal"));
        }
        config
    };

    let transports: Vec<Transport> = (0..4)
        .map(|id| Transport::bind(id, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = transports.iter().map(Transport::local_addr).collect();
    for t in &transports {
        for (peer, addr) in addrs.iter().enumerate() {
            if peer as u32 != t.id() {
                t.connect(peer as u32, *addr);
            }
        }
    }
    let mut handles = Vec::new();
    for (id, transport) in transports.into_iter().enumerate() {
        let config = make_config(id as u32, &setup);
        handles.push(ValidatorNode::new(config, transport).unwrap().start());
    }

    // Phase 1: run far enough past the GC depth that node 0 has persisted a
    // checkpoint and rewritten its WAL below the frontier at least once (a
    // rewrite waits until the dead records outweigh the live ones). Track
    // validator 1's commits by position as the reference sequence.
    let mut reference = std::collections::BTreeMap::new();
    for id in 0..40u64 {
        handles[(id % 4) as usize].submit(Transaction::benchmark(id));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while (handles[0].round() < 32 || handles[0].metrics().wal_compactions() == 0)
        && std::time::Instant::now() < deadline
    {
        if let Ok(sub_dag) = handles[1]
            .commits()
            .recv_timeout(Duration::from_millis(100))
        {
            reference.insert(sub_dag.position, sub_dag.leader);
        }
    }
    assert!(handles[0].round() >= 32, "cluster never got going");
    assert!(
        handles[0].metrics().wal_compactions() > 0,
        "node 0 never rewrote its WAL"
    );
    assert_eq!(handles[0].metrics().wal_errors(), 0);

    // Phase 2: kill node 0; the survivors keep committing well past more
    // checkpoint boundaries so its WAL checkpoint falls behind the frontier.
    let node0 = handles.remove(0);
    node0.stop();
    let resume_target = reference.keys().next_back().copied().unwrap_or(0) + 12;
    for id in 40..80u64 {
        handles[(id % 3) as usize].submit(Transaction::benchmark(id));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while reference.keys().next_back().copied().unwrap_or(0) < resume_target
        && std::time::Instant::now() < deadline
    {
        if let Ok(sub_dag) = handles[0]
            .commits()
            .recv_timeout(Duration::from_millis(100))
        {
            reference.insert(sub_dag.position, sub_dag.leader);
        }
    }
    assert!(
        reference.keys().next_back().copied().unwrap_or(0) >= resume_target,
        "survivors stalled after the crash"
    );

    // The dead node's WAL must actually have been truncated: compaction
    // rewrites the log to lead with the latest checkpoint record, and every
    // retained peer block must sit at or above the checkpointed GC floor.
    {
        let mut wal = mahi_mahi::wal::FileWal::open_path(dir.join("v0.wal")).unwrap();
        let records = wal.records().unwrap();
        assert!(!records.is_empty(), "compacted WAL cannot be empty");
        let floor = match WalRecord::from_bytes_exact(&records[0].payload) {
            Ok(WalRecord::Checkpoint { resume, .. }) => {
                let snapshot =
                    mahi_mahi::core::SequencerSnapshot::from_bytes_exact(&resume).unwrap();
                snapshot.next_round.saturating_sub(16)
            }
            other => panic!("compacted WAL must lead with a checkpoint, got {other:?}"),
        };
        assert!(floor > 0, "checkpoint cut never cleared the GC depth");
        for record in &records[1..] {
            if let Ok(WalRecord::Block(block)) = WalRecord::from_bytes_exact(&record.payload) {
                assert!(
                    block.author() == AuthorityIndex(0) || block.round() >= floor,
                    "peer block from round {} survived compaction below floor {floor}",
                    block.round()
                );
            }
        }
    }

    // Phase 3: restart node 0 from the truncated WAL on the same address.
    let transport = {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match Transport::bind(0, addrs[0]) {
                Ok(transport) => break transport,
                Err(error) if std::time::Instant::now() < deadline => {
                    let _ = error;
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(error) => panic!("could not rebind node 0: {error}"),
            }
        }
    };
    for (peer, addr) in addrs.iter().enumerate().skip(1) {
        transport.connect(peer as u32, *addr);
    }
    let recovered = ValidatorNode::new(make_config(0, &setup), transport).unwrap();
    let base = recovered.engine().commit_log_base();
    assert!(
        base > 0,
        "recovery must resume from a checkpoint, not genesis"
    );
    assert!(
        recovered.engine().latest_checkpoint().is_some(),
        "the compacted WAL's checkpoint must be restored"
    );
    let restarted = recovered.start();

    // The restarted node replays only the checkpoint suffix, then state-syncs
    // the rest: every position it emits must match the reference sequence,
    // its first position must be the checkpoint base (nothing before it is
    // replayed), and it must reach the survivors' frontier.
    let target = reference.keys().next_back().copied().unwrap();
    let mut resumed = std::collections::BTreeMap::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while resumed.keys().next_back().copied().unwrap_or(0) < target
        && std::time::Instant::now() < deadline
    {
        if let Ok(sub_dag) = restarted.commits().recv_timeout(Duration::from_millis(100)) {
            resumed.insert(sub_dag.position, sub_dag.leader);
        }
    }
    let first = resumed.keys().next().copied().unwrap_or(0);
    assert!(
        first >= base,
        "restart re-emitted position {first} below its checkpoint base {base}"
    );
    assert!(
        resumed.keys().next_back().copied().unwrap_or(0) >= target,
        "restarted node never caught up to position {target}"
    );
    for (position, leader) in &resumed {
        if let Some(expected) = reference.get(position) {
            assert_eq!(
                leader, expected,
                "restarted node diverged from the survivors at position {position}"
            );
        }
    }

    restarted.stop();
    for handle in handles {
        handle.stop();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn node_recovers_its_dag_from_the_wal_and_rejoins() {
    let dir = std::env::temp_dir().join(format!(
        "mahimahi-recovery-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let setup = TestCommittee::new(4, 504);

    // Phase 1: run a full cluster by hand so node 0 uses a file WAL.
    let transports: Vec<Transport> = (0..4)
        .map(|id| Transport::bind(id, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = transports.iter().map(Transport::local_addr).collect();
    for t in &transports {
        for (peer, addr) in addrs.iter().enumerate() {
            if peer as u32 != t.id() {
                t.connect(peer as u32, *addr);
            }
        }
    }
    let mut handles = Vec::new();
    for (id, transport) in transports.into_iter().enumerate() {
        let mut config = NodeConfig::local(id as u32, setup.clone());
        if id == 0 {
            config.wal_path = Some(dir.join("v0.wal"));
        }
        handles.push(ValidatorNode::new(config, transport).unwrap().start());
    }
    handles[0].submit(Transaction::benchmark(1));
    // Wait for some progress, then stop everything.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while handles[0].round() < 8 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    let progressed_to = handles[0].round();
    assert!(progressed_to >= 8, "cluster made no progress");
    for handle in handles {
        handle.stop();
    }

    // Phase 2: restart node 0 from its WAL. The recovered DAG must contain
    // its own chain up to the round it had produced.
    let transport = Transport::bind(0, "127.0.0.1:0").unwrap();
    let mut config = NodeConfig::local(0, setup);
    config.wal_path = Some(dir.join("v0.wal"));
    let node = ValidatorNode::new(config, transport).unwrap();
    assert!(
        node.round() >= 8,
        "recovered round {} < produced {progressed_to}",
        node.round()
    );
    assert!(node.store().highest_round() >= node.round());
    std::fs::remove_dir_all(&dir).unwrap();
}
