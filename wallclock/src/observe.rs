//! The observer thread: everything read from outside the cluster while it
//! runs — commit streams, public gauges, `/proc`, WAL file sizes.
//!
//! It drains all commit channels continuously and drops what it drained
//! (unless tracing), so the harness never keeps the cluster's blocks alive.

use crate::cluster::Cluster;
use crate::load::Inputs;
use crate::procfs::{self, CpuMs, ThreadStat};
use mahi_mahi::core::CommittedSubDag;
use mahi_mahi::types::{Block, BlockRef};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The measured window, in nanoseconds after `origin`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub origin: Instant,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Window {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn contains(&self, ns: u64) -> bool {
        (self.start_ns..self.end_ns).contains(&ns)
    }

    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// What the main thread and the observer share while both run.
#[derive(Debug, Default)]
pub struct Shared {
    /// Set by the main thread once the generator is done and validator 0
    /// has caught up; the observer drains once more and returns.
    pub stop: AtomicBool,
    /// Generated transactions seen so far in validator 0's commit stream.
    /// `Relaxed` suffices: it is a progress count that publishes no data.
    pub committed_by_v0: AtomicU64,
}

/// Process and cluster state at one edge of the window.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub at_ns: u64,
    pub cpu: CpuMs,
    /// Processor time the hypervisor withheld from the machine so far, ms.
    pub host_steal_ms: f64,
    pub threads: Vec<ThreadStat>,
    /// Last produced round of each live validator, in `Cluster::nodes` order.
    pub rounds: Vec<u64>,
}

/// One validator's commit stream, reduced to a rolling hash per commit:
/// equal hashes at index `k` mean equal `(position, leader)` sequences up
/// to `k`.
#[derive(Debug, Default)]
pub struct Stream {
    pub hashes: Vec<u64>,
}

impl Stream {
    fn push(&mut self, sub_dag: &CommittedSubDag) {
        let mut hash = self.hashes.last().copied().unwrap_or(0xcbf2_9ce4_8422_2325);
        let leader = &sub_dag.leader;
        let fields = sub_dag
            .position
            .to_le_bytes()
            .into_iter()
            .chain(leader.round.to_le_bytes())
            .chain(leader.author.0.to_le_bytes())
            .chain(*leader.digest.as_bytes());
        for byte in fields {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hashes.push(hash);
    }
}

/// Which generated ids validator 0 has committed: one bit per ordinal.
#[derive(Debug, Default)]
pub struct IdLedger {
    bits: Vec<u64>,
    pub distinct: u64,
    pub duplicates: u64,
    /// Committed transactions this run did not generate.
    pub foreign: u64,
}

impl IdLedger {
    /// Ordinals beyond this cannot have been issued in a run of any length
    /// the driver allows; ids mapping there are foreign bytes.
    const MAX_ORDINAL: u64 = 1 << 31;

    pub fn record(&mut self, ordinal: Option<u64>) {
        let Some(ordinal) = ordinal.filter(|ordinal| *ordinal < Self::MAX_ORDINAL) else {
            self.foreign += 1;
            return;
        };
        let (word, bit) = ((ordinal / 64) as usize, ordinal % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if self.bits[word] & (1 << bit) != 0 {
            self.duplicates += 1;
        } else {
            self.bits[word] |= 1 << bit;
            self.distinct += 1;
        }
    }

    pub fn contains(&self, ordinal: u64) -> bool {
        self.bits
            .get((ordinal / 64) as usize)
            .is_some_and(|word| word & (1 << (ordinal % 64)) != 0)
    }
}

/// Validator 0's commits inside the window, counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct WindowCounts {
    pub commits: u64,
    pub blocks: u64,
    pub transactions: u64,
}

/// Validator 0's stream kept whole, for the replay.
#[derive(Default)]
pub struct Capture {
    /// Every committed block in commit order, with whether its commit was
    /// observed inside the window.
    pub blocks: Vec<(Arc<Block>, bool)>,
    pub leaders: Vec<(u64, BlockRef)>,
}

/// Everything the observer saw.
#[derive(Default)]
pub struct Observation {
    pub streams: Vec<Stream>,
    pub ids: IdLedger,
    pub in_window: WindowCounts,
    pub at_start: Snapshot,
    pub at_end: Snapshot,
    /// Bytes appended to all WAL files during the window: the positive
    /// size changes between samples (a compaction shrinks the file and
    /// hides at most one sample interval of appends).
    pub wal_appended_bytes: u64,
    /// Highest resident set size sampled from the first set-up to the end
    /// of the drain, in MB.
    pub peak_rss_mb: f64,
    pub capture: Option<Capture>,
}

const POLL: Duration = Duration::from_millis(1);
/// How often the WAL file sizes and the resident set size are sampled.
const SAMPLE_NS: u64 = 50_000_000;

fn snapshot(cluster: &Cluster, at_ns: u64) -> Snapshot {
    Snapshot {
        at_ns,
        cpu: procfs::process_cpu().unwrap_or_default(),
        host_steal_ms: procfs::host_steal_ms().unwrap_or(0.0),
        threads: procfs::threads(),
        rounds: cluster.nodes.iter().map(|n| n.handle.round()).collect(),
    }
}

/// Runs until `shared.stop`, then drains every stream one last time.
pub fn observe(
    cluster: &Cluster,
    inputs: &Inputs,
    window: Window,
    shared: &Shared,
    tracing: bool,
) -> Observation {
    let mut seen = Observation {
        streams: cluster.nodes.iter().map(|_| Stream::default()).collect(),
        capture: tracing.then(Capture::default),
        ..Observation::default()
    };
    let mut wal_sizes = vec![0u64; cluster.nodes.len()];
    let mut next_sample = 0u64;
    let (mut started, mut ended) = (false, false);
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        let now_ns = window.now_ns();
        if !started && now_ns >= window.start_ns {
            seen.at_start = snapshot(cluster, now_ns);
            started = true;
        }
        if !ended && now_ns >= window.end_ns {
            seen.at_end = snapshot(cluster, now_ns);
            ended = true;
        }
        let in_window = window.contains(now_ns);
        for (index, node) in cluster.nodes.iter().enumerate() {
            while let Ok(sub_dag) = node.handle.commits().try_recv() {
                seen.streams[index].push(&sub_dag);
                if index != 0 {
                    continue;
                }
                let mut transactions = 0;
                for transaction in sub_dag.transactions() {
                    seen.ids.record(inputs.ordinal_of(transaction));
                    transactions += 1;
                }
                shared
                    .committed_by_v0
                    .store(seen.ids.distinct, Ordering::Relaxed);
                if in_window {
                    seen.in_window.commits += 1;
                    seen.in_window.blocks += sub_dag.blocks.len() as u64;
                    seen.in_window.transactions += transactions;
                }
                if let Some(capture) = &mut seen.capture {
                    capture.leaders.push((sub_dag.position, sub_dag.leader));
                    capture
                        .blocks
                        .extend(sub_dag.blocks.into_iter().map(|block| (block, in_window)));
                }
            }
        }
        if now_ns >= next_sample {
            next_sample = now_ns + SAMPLE_NS;
            seen.peak_rss_mb = seen.peak_rss_mb.max(procfs::rss_mb().unwrap_or(0.0));
            for (last, node) in wal_sizes.iter_mut().zip(&cluster.nodes) {
                let size = std::fs::metadata(&node.wal_path).map_or(*last, |meta| meta.len());
                if in_window && size > *last {
                    seen.wal_appended_bytes += size - *last;
                }
                *last = size;
            }
        }
        if stopping {
            return seen;
        }
        std::thread::sleep(POLL);
    }
}

/// Checks that every live validator committed the same `(position, leader)`
/// sequence as far as both got. Returns one message per disagreement.
pub fn stream_disagreements(cluster: &Cluster, streams: &[Stream]) -> Vec<String> {
    let Some((reference, others)) = streams.split_first() else {
        return Vec::new();
    };
    let mut problems = Vec::new();
    for (stream, node) in others.iter().zip(&cluster.nodes[1..]) {
        let common = reference.hashes.len().min(stream.hashes.len());
        if common == 0 || reference.hashes[common - 1] == stream.hashes[common - 1] {
            continue;
        }
        let first = (0..common)
            .find(|&k| reference.hashes[k] != stream.hashes[k])
            .expect("the last common hash differs");
        problems.push(format!(
            "validator {} disagrees with validator {} from commit {first} of {common} common",
            node.authority, cluster.nodes[0].authority
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahi_mahi::types::AuthorityIndex;

    fn commit(position: u64, author: u32) -> CommittedSubDag {
        let leader = Block::genesis(AuthorityIndex(author)).reference();
        CommittedSubDag {
            position,
            leader,
            blocks: Vec::new(),
        }
    }

    #[test]
    fn rolling_hash_separates_order_position_and_leader() {
        let run = |commits: &[(u64, u32)]| {
            let mut stream = Stream::default();
            for &(position, author) in commits {
                stream.push(&commit(position, author));
            }
            stream.hashes
        };
        let base = run(&[(0, 1), (1, 2), (3, 0)]);
        assert_eq!(base, run(&[(0, 1), (1, 2), (3, 0)]));
        assert_eq!(base[..2], run(&[(0, 1), (1, 2)])[..]);
        assert_ne!(base[2], run(&[(0, 1), (1, 2), (2, 0)])[2], "position");
        assert_ne!(base[2], run(&[(0, 1), (1, 2), (3, 1)])[2], "leader");
        assert_ne!(base[2], run(&[(1, 2), (0, 1), (3, 0)])[2], "order");
    }

    #[test]
    fn id_ledger_counts_distinct_duplicate_and_foreign() {
        let mut ledger = IdLedger::default();
        for ordinal in [0, 1, 64, 1_000_000, 1] {
            ledger.record(Some(ordinal));
        }
        ledger.record(None);
        ledger.record(Some(u64::MAX));
        assert_eq!(
            (ledger.distinct, ledger.duplicates, ledger.foreign),
            (4, 1, 2)
        );
        assert!(ledger.contains(64) && ledger.contains(1_000_000));
        assert!(!ledger.contains(2) && !ledger.contains(5_000_000_000));
    }
}
