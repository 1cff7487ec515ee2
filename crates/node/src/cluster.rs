//! Localhost cluster assembly for examples and integration tests.

use mahimahi_core::{CommittedSubDag, CommitterOptions};
use mahimahi_transport::Transport;
use mahimahi_types::{TestCommittee, Transaction};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::node::{NodeConfig, NodeHandle, ValidatorNode};

/// An `n`-validator Mahi-Mahi cluster on 127.0.0.1.
///
/// # Example
///
/// ```no_run
/// use mahimahi_node::LocalCluster;
/// use mahimahi_types::Transaction;
///
/// let cluster = LocalCluster::start(4, 7).unwrap();
/// cluster.submit(0, Transaction::benchmark(1));
/// let sub_dag = cluster.wait_for_commit(0, std::time::Duration::from_secs(30)).unwrap();
/// assert!(sub_dag.blocks.len() > 0);
/// cluster.stop();
/// ```
pub struct LocalCluster {
    handles: Vec<NodeHandle>,
    /// Listener addresses by authority index (including silent slots) —
    /// where `TxClient`s connect to submit transaction batches.
    addresses: Vec<SocketAddr>,
}

impl LocalCluster {
    /// Starts `n` validators with default options, fully meshed over
    /// ephemeral localhost ports.
    ///
    /// # Errors
    ///
    /// Propagates socket/WAL errors from node start-up.
    pub fn start(n: usize, seed: u64) -> std::io::Result<Self> {
        Self::start_with(n, seed, CommitterOptions::default(), &[])
    }

    /// Starts `n` validators with default options and a metrics endpoint
    /// per node on an ephemeral localhost port (see
    /// [`LocalCluster::metrics_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates socket/WAL errors from node start-up.
    pub fn start_observed(n: usize, seed: u64) -> std::io::Result<Self> {
        Self::assemble(n, seed, CommitterOptions::default(), &[], true)
    }

    /// Starts a cluster with explicit committer options; authorities listed
    /// in `silent` are *not* started (crash-from-boot faults).
    ///
    /// # Errors
    ///
    /// Propagates socket/WAL errors from node start-up.
    pub fn start_with(
        n: usize,
        seed: u64,
        options: CommitterOptions,
        silent: &[u32],
    ) -> std::io::Result<Self> {
        Self::assemble(n, seed, options, silent, false)
    }

    fn assemble(
        n: usize,
        seed: u64,
        options: CommitterOptions,
        silent: &[u32],
        observed: bool,
    ) -> std::io::Result<Self> {
        let setup = TestCommittee::new(n, seed);
        // Bind all transports first so every address is known.
        let transports: Vec<Transport> = (0..n as u32)
            .map(|id| Transport::bind(id, "127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addresses: Vec<SocketAddr> = transports.iter().map(Transport::local_addr).collect();
        for transport in &transports {
            for (peer, address) in addresses.iter().enumerate() {
                if peer as u32 != transport.id() {
                    transport.connect(peer as u32, *address);
                }
            }
        }
        let mut handles = Vec::with_capacity(n);
        for (id, transport) in transports.into_iter().enumerate() {
            if silent.contains(&(id as u32)) {
                // Crashed from boot: transport dropped, node never runs.
                continue;
            }
            let mut config = NodeConfig::local(id as u32, setup.clone());
            config.options = options;
            if observed {
                config.metrics_addr = Some("127.0.0.1:0".parse().expect("literal address"));
            }
            let node = ValidatorNode::new(config, transport)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            handles.push(node.start());
        }
        Ok(LocalCluster { handles, addresses })
    }

    /// Number of running validators.
    pub fn running(&self) -> usize {
        self.handles.len()
    }

    /// The listener address of the validator with `authority` index —
    /// where a `TxClient` connects to submit batches over the wire.
    ///
    /// Indexed by **authority**, unlike [`Self::handle`]/[`Self::submit`],
    /// which index the *running* validators only: when clusters start with
    /// silent slots the two numberings differ, and a silent authority's
    /// address belongs to a dropped transport (connections there fail or
    /// submissions go nowhere).
    ///
    /// # Panics
    ///
    /// Panics if `authority` is out of range.
    pub fn address(&self, authority: usize) -> SocketAddr {
        self.addresses[authority]
    }

    /// The handle of the `index`-th *running* validator (silent slots are
    /// skipped — see [`Self::address`] for the authority-indexed view).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn handle(&self, index: usize) -> &NodeHandle {
        &self.handles[index]
    }

    /// The metrics-endpoint address of the `index`-th *running* validator
    /// (`None` unless the cluster was started with
    /// [`LocalCluster::start_observed`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn metrics_addr(&self, index: usize) -> Option<std::net::SocketAddr> {
        self.handles[index].metrics_addr()
    }

    /// Submits a transaction to the `index`-th *running* validator.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn submit(&self, index: usize, transaction: Transaction) {
        self.handles[index].submit(transaction);
    }

    /// Submits a transaction batch to the `index`-th *running* validator
    /// (the in-process twin of the `TxClient` wire path).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn submit_batch(&self, index: usize, batch: Vec<Transaction>) {
        self.handles[index].submit_batch(batch);
    }

    /// The commit stream of the `index`-th running validator.
    pub fn commits(&self, index: usize) -> &crossbeam::channel::Receiver<CommittedSubDag> {
        self.handles[index].commits()
    }

    /// Waits until the `index`-th validator commits a sub-DAG containing at
    /// least one transaction, returning it.
    pub fn wait_for_commit(&self, index: usize, timeout: Duration) -> Option<CommittedSubDag> {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            match self.handles[index]
                .commits()
                .recv_timeout(Duration::from_millis(100))
            {
                Ok(sub_dag) => {
                    if sub_dag.blocks.iter().any(|b| !b.transactions().is_empty()) {
                        return Some(sub_dag);
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return None,
            }
        }
        None
    }

    /// Stops every validator.
    pub fn stop(self) {
        for handle in self.handles {
            handle.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    /// One blocking HTTP GET against a node's metrics endpoint.
    fn scrape(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    /// The value of the sample `name` in a Prometheus text exposition.
    fn sample(body: &str, name: &str) -> f64 {
        body.lines()
            .find_map(|line| line.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("sample {name} missing"))
            .trim()
            .parse()
            .expect("sample value parses")
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_and_status() {
        let cluster = LocalCluster::start_observed(4, 99).expect("cluster starts");
        for id in 0..16u64 {
            cluster.submit(0, Transaction::benchmark(id));
        }
        cluster
            .wait_for_commit(0, Duration::from_secs(30))
            .expect("first commit");
        let addr = cluster
            .metrics_addr(0)
            .expect("observed cluster exposes a metrics endpoint");

        let first = scrape(addr, "/metrics");
        assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
        let body = first.split("\r\n\r\n").nth(1).expect("response body");
        // Every sample line parses: name, one space, a finite number.
        for line in body
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty(), "{line}");
            assert!(value.parse::<f64>().is_ok(), "unparsable sample: {line}");
        }
        // Every series, by name and kind, in the order rendered: a dropped
        // or renamed one fails here.
        let series: Vec<&str> = body
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .collect();
        let expected = [
            "mahimahi_checkpoint_cut_seconds histogram",
            "mahimahi_checkpoint_snapshot_bytes gauge",
            "mahimahi_committed_slots gauge",
            "mahimahi_committed_transactions gauge",
            "mahimahi_convictions gauge",
            "mahimahi_highest_round gauge",
            "mahimahi_mempool_accepted gauge",
            "mahimahi_mempool_forwarded gauge",
            "mahimahi_mempool_peak_occupancy gauge",
            "mahimahi_mempool_pending gauge",
            "mahimahi_mempool_rejected_duplicate gauge",
            "mahimahi_mempool_rejected_full gauge",
            "mahimahi_mempool_rejected_rate_limited gauge",
            "mahimahi_round gauge",
            "mahimahi_stage_engine_applied_seconds histogram",
            "mahimahi_stage_executed_seconds histogram",
            "mahimahi_stage_ingress_received_seconds histogram",
            "mahimahi_stage_receipt_sent_seconds histogram",
            "mahimahi_stage_resequenced_seconds histogram",
            "mahimahi_stage_sequenced_seconds histogram",
            "mahimahi_stage_verified_seconds histogram",
            "mahimahi_stage_verify_dequeued_seconds histogram",
            "mahimahi_verify_depth gauge",
            "mahimahi_verify_peak_depth gauge",
            "mahimahi_verify_rejected gauge",
            "mahimahi_verify_verified gauge",
            "mahimahi_wal_block_bytes gauge",
            "mahimahi_wal_bytes gauge",
            "mahimahi_wal_checkpoint_bytes gauge",
            "mahimahi_wal_compacted_bytes gauge",
            "mahimahi_wal_compaction_seconds histogram",
            "mahimahi_wal_compactions gauge",
            "mahimahi_wal_errors gauge",
            "mahimahi_wal_evidence_bytes gauge",
            "mahimahi_wal_live_bytes gauge",
        ];
        assert_eq!(series, expected);
        assert!(body.contains("mahimahi_stage_sequenced_seconds_bucket{le=\"+Inf\"}"));
        let committed = sample(body, "mahimahi_committed_transactions");
        assert!(committed >= 1.0, "commits visible in the exposition");

        // More traffic advances the counters between scrapes.
        for id in 100..116u64 {
            cluster.submit(0, Transaction::benchmark(id));
        }
        // (Poll rather than scrape once behind `wait_for_commit`: the next
        // notice on the channel can still be one of the first batch's, and
        // a notice leaves before the gauges of its iteration are stored.)
        let deadline = Instant::now() + Duration::from_secs(30);
        let second = loop {
            let second = scrape(addr, "/metrics");
            let body = second.split("\r\n\r\n").nth(1).expect("response body");
            if sample(body, "mahimahi_committed_transactions") > committed
                && sample(body, "mahimahi_mempool_accepted") >= 32.0
            {
                break second;
            }
            assert!(
                Instant::now() < deadline,
                "the committed and accepted gauges must advance between scrapes"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        let body = second.split("\r\n\r\n").nth(1).expect("response body");
        // Every commit-path stage histogram has seen a sample on the real
        // path, not merely been registered.
        let stages = cluster.handle(0).metrics().stage_snapshot();
        assert!(stages.all_stages_populated(), "{stages:?}");
        // The write-ahead log's gauges: blocks were appended, all of them
        // still live, and nothing failed.
        assert!(sample(body, "mahimahi_wal_bytes") > 0.0);
        // (The gauges are refreshed one after another, so a scrape can
        // fall between two of them: compare the earlier scrape's live bytes
        // with this one's length — nothing was compacted in between.)
        let earlier = first.split("\r\n\r\n").nth(1).expect("response body");
        assert!(sample(earlier, "mahimahi_wal_live_bytes") <= sample(body, "mahimahi_wal_bytes"));
        assert!(sample(body, "mahimahi_wal_compacted_bytes") >= 0.0);
        assert_eq!(sample(body, "mahimahi_wal_compactions"), 0.0);
        assert_eq!(sample(body, "mahimahi_wal_errors"), 0.0);
        // What the log grew by, split by record class; no evidence here.
        assert!(sample(body, "mahimahi_wal_block_bytes") > 0.0);
        assert!(sample(body, "mahimahi_wal_checkpoint_bytes") >= 0.0);
        assert_eq!(sample(body, "mahimahi_wal_evidence_bytes"), 0.0);
        // The checkpoint path: the size of the last snapshot taken and the
        // time spent in engine steps that produced a cut.
        assert!(sample(body, "mahimahi_checkpoint_snapshot_bytes") >= 0.0);
        assert!(body.contains("mahimahi_checkpoint_cut_seconds_bucket{le=\"+Inf\"}"));

        let status = scrape(addr, "/status");
        assert!(status.starts_with("HTTP/1.1 200 OK"), "{status}");
        let json = status.split("\r\n\r\n").nth(1).expect("status body");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        for field in [
            "\"round\":",
            "\"committed_transactions\":",
            "\"mempool_pending\":",
            "\"verify_depth\":",
            "\"wal_errors\":0",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }

        let missing = scrape(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        cluster.stop();
    }

    #[test]
    fn unobserved_clusters_have_no_endpoint() {
        let cluster = LocalCluster::start(4, 100).expect("cluster starts");
        assert_eq!(cluster.metrics_addr(0), None);
        cluster.stop();
    }
}
